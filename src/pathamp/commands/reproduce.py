"""reproduce: the named reproduction recipes.  Each recipe returns
(outputs, flags) and writes its table to --csv when one is given."""

import math

from pathamp.core_num import CONSTANTS, wavenumber


def _recipe_fig9(args):
    from pathamp import michelson
    kappa = wavenumber(CONSTANTS.lambda_na_d)
    t_grid = [round(7.0 + 0.25 * i, 4) for i in range(170)]
    specs = {label: michelson.InterferometerSpec(0.5, d, 1e-8, kappa)
             for label, d in (("d=12.5cm", 0.125), ("d=25cm", 0.25), ("d=50cm", 0.50))}
    rows = michelson.gated_visibility_table(specs.values(), t_grid)
    outputs = {"asymptotes": {label: michelson.visibility_asymptote(spec)
                              for label, spec in specs.items()}}
    if args.csv:
        args.write_csv(args.csv, ["t_max_ns", "V_A", "V_B", "V_C"], rows)
        outputs["curve_csv"] = args.csv
    return outputs, []


def _recipe_table1(args):
    from pathamp import michelson
    table = michelson.visibility_benchmark_table()
    flags = []
    for row in table.values():
        flags += row.pop("flags")
    if args.csv:
        header = ["wavelength_m", "delta_exp_m", "tau_s_nat_s", "tau_s_s", "tau_p_s"]
        args.write_csv(args.csv, ["transition", *header],
                       [(label, *[row[k] for k in header]) for label, row in table.items()])
    return {"rows": table}, flags


def _recipe_table2_ratios(args):
    from pathamp import flavour
    rows = []
    for p_gev in (0.01, 0.1, 1.0, 10.0, 100.0):
        kaon = flavour.KaonSystem(mean_p=p_gev * 1e3)
        rep = flavour.kaon_equal_velocity_report(kaon)
        if not rows:
            base = rep.dt_production
            flags = [f.as_dict() for f in rep.flags]
        rows.append((p_gev, kaon.mean_energy / 1e3, rep.dt_production,
                     base / rep.dt_production))
    if args.csv:
        args.write_csv(args.csv, ["p_gev", "energy_gev", "dt_production_s",
                                  "ratio_to_lowest_p"], rows)
    return {"rows": [list(r) for r in rows],
            "ratio_10mev_to_1gev": rows[2][3]}, flags


def _recipe_table3(args):
    from pathamp import flavour
    rows = {k: flavour.classify_experiment(k).as_dict()
            for k in ("photon-ydse", "electron-ydse", "kaon", "neutrino")}
    if args.csv:
        header = list(rows["photon-ydse"])
        args.write_csv(args.csv, header, [[row[h] for h in header] for row in rows.values()])
    return {"rows": rows}, []


def _recipe_eq_reflection(args):
    from pathamp import reflection
    return {**reflection.fresnel_comparison(1.0, 1.5).as_dict(), "phase": "pi"}, []


def _recipe_eq_oscillation_length(args):
    from pathamp import flavour
    dm2 = 2e-3
    probe = flavour.pion_neutrino_experiment(dm2, math.pi / 4, 1.0)
    l_half = flavour.half_oscillation_distance(probe)
    res = flavour.neutrino_oscillation(
        flavour.pion_neutrino_experiment(dm2, math.pi / 4, l_half))
    return {"p0_mev_c": probe.p0,
            "half_oscillation_distance_times_dm2_m_ev2": l_half * dm2,
            "cos_argument_at_that_distance_rad": abs(res.phi_path)}, []


_RECIPES = {
    "fig9": _recipe_fig9,
    "table1": _recipe_table1,
    "table2-ratios": _recipe_table2_ratios,
    "table3": _recipe_table3,
    "eq7.8": _recipe_eq_reflection,
    "eq9.65": _recipe_eq_oscillation_length,
}


def _reproduce(args):
    outputs, flags = _RECIPES[args.recipe](args)
    return ({"recipe": args.recipe}, outputs,
            {"recipe": "named reproduction recipe"}, flags)


COMMANDS = {
    "reproduce": (_reproduce, (
        ("--recipe", None, {"choices": sorted(_RECIPES), "required": True}),
        ("--csv", None, {"metavar": "CSV"}))),
}
