"""Command-line front end.

Every physical flag takes a value with an explicit unit suffix
("--d 25cm", "--tau 10ns", "--dm2 2e-3eV2"); bare numbers are accepted
only for dimensionless quantities.  Each run prints a JSON summary with
the inputs echoed verbatim, the computed outputs, provenance tags and any
flagged discrepancies against commonly quoted reference figures. An
emitted summary can be re-ingested with --config to reproduce the run
bit for bit.  Curves go to CSV via --csv; nothing is ever plotted.

One table, _COMMANDS, declares every subcommand: its handler and its
flags with their aliases, argparse options and unit tables.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

# Each handler imports the pathamp modules it calls, and numpy only where
# it builds an array, so a one-shot process loads only what it runs.
from pathamp.core_num import CONSTANTS, linspace

SEED_ENV_VAR = "PATHAMP_SEED"

_QUANTITY_RE = re.compile(
    r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-z][A-Za-z/0-9-]*|)\s*$")

_LENGTH = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9, "A": 1e-10}
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}
_ANGLE = {"rad": 1.0, "deg": math.pi / 180.0}
_ENERGY_MEV = {"GeV": 1e3, "MeV": 1.0, "keV": 1e-3, "eV": 1e-6}
_MOMENTUM_MEVC = {"GeV/c": 1e3, "MeV/c": 1.0, "keV/c": 1e-3,
                  "GeV": 1e3, "MeV": 1.0, "keV": 1e-3}
_DM2 = {"eV2": 1.0, "meV2": 1e-6}
_DENSITY = {"m-3": 1.0, "cm-3": 1e6}
_BARE = "dimensionless"     # a bare number, no unit suffix


class UnitError(ValueError):
    pass


class ConfigError(ValueError):
    """A run configuration that cannot be used: a --config summary that
    cannot be read or replayed, or a non-integer PATHAMP_SEED."""


class OutputError(ValueError):
    """An output file (--out, --curve, --csv) that cannot be written."""


def _quantity(text: str, table, flag: str) -> float:
    """The value of a flag: a number with a unit suffix from the table, or
    a bare number when the table is _BARE.  A value that is not a finite
    non-zero double once scaled is refused, unless the literal is zero."""
    m = _QUANTITY_RE.match(text)
    if table is _BARE:
        if not m or m.group(2):
            raise UnitError(f"{flag}: expected a bare dimensionless number, got {text!r}")
        value = float(m.group(1))
    else:
        if not m:
            raise UnitError(f"{flag}: cannot parse quantity {text!r}")
        number, unit = m.groups()
        if unit == "":
            raise UnitError(
                f"{flag}: missing unit on {text!r}; expected one of {sorted(table)}")
        if unit not in table:
            raise UnitError(
                f"{flag}: unknown unit {unit!r}; expected one of {sorted(table)}")
        value = float(number) * table[unit]
    if not math.isfinite(value) or (
            value == 0.0 and m.group(1).lower().split("e")[0].strip("+-.0")):
        raise UnitError(f"{flag}: {text!r} is outside the range of a double")
    return value


_REQUIRED = object()


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


class _Args(argparse.Namespace):
    """Parsed flags.  A quantity is converted only when a handler asks for
    it, so flags a mode ignores stay unparsed, and errors are reported in
    the order the handler reads its flags."""

    def quantity(self, flag: str, default=_REQUIRED):
        """The flag's value in the unit its table row names; `default`
        when the flag is absent or empty, if a default is given."""
        text = getattr(self, _dest(flag))
        if default is not _REQUIRED and not text:
            return default
        if text is None:
            raise UnitError(f"{flag} is required for this mode")
        rows = _COMMANDS[self.subcommand][1]
        return _quantity(text, next(r[1] for r in rows if r[0].split()[0] == flag), flag)

    def require(self, *flags: str) -> None:
        """Refuse the first absent flag, before any of them is converted."""
        for flag in flags:
            if getattr(self, _dest(flag)) is None:
                raise UnitError(f"{flag} is required for this mode")


def _complex_out(z: complex) -> dict:
    return {"re": z.real, "im": z.imag, "modulus": abs(z),
            "phase_rad": math.atan2(z.imag, z.real)}


def _json_safe(obj):
    """Strict-JSON form: non-finite floats become None / 'inf' strings."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _emit(summary: dict, out_path: str | None) -> None:
    """Print the summary, after writing it to out_path first, so a file that
    cannot be written leaves nothing on stdout."""
    text = json.dumps(_json_safe(summary), indent=2, sort_keys=True,
                      allow_nan=False)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise OutputError(f"cannot write {out_path!r}: {exc.strerror}") from None
    print(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    import csv
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(["" if isinstance(v, float) and math.isnan(v) else v
                                 for v in row])
    except OSError as exc:
        raise OutputError(f"cannot write {path!r}: {exc.strerror}") from None


def _error_exit(kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return 2


# --------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, outputs, provenance, flags);
# provenance None tags every output "computed"


def _propagator(args):
    from pathamp import propagators
    if args.mode == "covariant":
        args.require("--r")
        mass, beta = args.quantity("--mass", 0.0), args.quantity("--beta", 1.0)
        r = args.quantity("--r")
        dt = args.quantity("--dt", None)
        if dt is None:
            dt = r / (beta * CONSTANTS.c)
        width = args.quantity("--width", 0.0)
        particle = propagators.OnShellParticle(mass, beta, width)
        amp = propagators.covariant_propagator(particle, r, dt)
        inputs = {"mass_mev": mass, "beta": beta, "r_m": r, "dt_s": dt,
                  "width_mev": width}
    elif args.mode == "temporal":
        args.require("--wavelength", "--tau", "--dtau")
        lam, tau, dtau = (args.quantity(f) for f in ("--wavelength", "--tau", "--dtau"))
        emitter = propagators.EmitterSpec.from_line(lam, tau)
        amp = propagators.temporal_propagator(emitter, dtau)
        inputs = {"wavelength_m": lam, "tau_s": tau, "dtau_s": dtau}
    else:
        args.require("--energy", "--energy0", "--width")
        e, e0, width = (args.quantity(f) * 1e6 for f in ("--energy", "--energy0", "--width"))
        amp = propagators.energy_propagator(e, e0, width)
        inputs = {"energy_ev": e, "energy0_ev": e0, "width_ev": width}
    return inputs, {"amplitude": _complex_out(amp)}, None, []


def _diffraction(args):
    from pathamp import wave_optics
    lam, alpha, alpha1 = (args.quantity(f) for f in ("--wavelength", "--alpha", "--alpha1"))
    kappa = 2.0 * math.pi / lam
    amp = wave_optics.diffraction_amplitude(kappa, alpha, alpha1)
    return ({"wavelength_m": lam, "alpha_rad": alpha, "alpha1_rad": alpha1},
            {"kappa_per_m": kappa, "amplitude_per_m": _complex_out(amp)},
            {"amplitude_per_m": "computed"}, [])


def _refract_index(args):
    from pathamp import refraction
    lam = args.quantity("--wavelength")
    if args.n is not None:
        n, density = args.quantity("--n"), args.quantity("--density")
        a_scat = refraction.scattering_length_for_index(n, density, lam)
        return ({"wavelength_m": lam, "n": n, "density_per_m3": density},
                {"scattering_length_m": a_scat,
                 "n_roundtrip": refraction.refractive_index(density, a_scat, lam)},
                None, [])
    density, a_scat = args.quantity("--density"), args.quantity("--scattering-length")
    return ({"wavelength_m": lam, "density_per_m3": density,
             "scattering_length_m": a_scat},
            {"n": refraction.refractive_index(density, a_scat, lam)}, None, [])


def _refract_series(args):
    from pathamp import refraction
    dphi, beta_l = args.quantity("--dphi"), args.quantity("--betal")
    factor = refraction.time_budget_factor(dphi, beta_l)
    outputs = {
        "factor": _complex_out(factor.value),
        "n_terms": factor.n_terms,
        "kernel_route": _complex_out(factor.kernel_route),
        "trig_route": _complex_out(factor.trig_route),
        "regime": refraction.regime_classification(dphi, beta_l),
    }
    return ({"delta_phi_rad": dphi, "beta_l": beta_l}, outputs,
            {"factor": "computed (two independent series routes)"}, [])


def _annulment(args):
    from pathamp import refraction
    values = [args.quantity(f) for f in ("--radius", "--axis-distance", "--wavelength",
                                         "--block-length", "--n", "--tau")]
    d = refraction.annulment_report(*values).as_dict()
    flags = d.pop("flags")
    return (dict(zip(("radius_m", "axis_distance_m", "wavelength_m",
                      "block_length_m", "n", "tau_s"), values)), d, None, flags)


def _snell(args):
    from pathamp import ray_optics
    n1, n2, theta_i = args.quantity("--n1"), args.quantity("--n2"), args.quantity("--theta-i")
    theta_o = ray_optics.snell_angle(n1, n2, theta_i)
    outputs = {"theta_o_rad": theta_o, "theta_o_deg": math.degrees(theta_o)}
    provenance = {"theta_o_rad": "closed form"}
    if args.search:
        geom = ray_optics.InterfaceGeometry(n1, n2, math.pi / 2 - theta_i, 1.0, 1.0)
        found = ray_optics.stationary_phase_angle(geom)
        outputs["theta_o_stationary_rad"] = found.theta
        outputs["stationary_residual"] = found.residual
        provenance["theta_o_stationary_rad"] = "numeric stationary-phase search"
    return {"n1": n1, "n2": n2, "theta_i_rad": theta_i}, outputs, provenance, []


def _reflect(args):
    from pathamp import reflection
    n1, n2 = args.quantity("--n1", 1.0), args.quantity("--n2")
    comp = reflection.fresnel_comparison(n1, n2)
    outputs = {"rho_path": comp.rho_path, "rho_fresnel": comp.rho_fresnel,
               "fresnel_excess": comp.fresnel_excess,
               "path_deficit": comp.path_deficit}
    if n1 != n2:
        phase = reflection.reflection_phase_path(n1, n2)
        outputs["phase"] = "pi" if phase == math.pi else "0"
    if args.thsm:
        setup = reflection.ReflectionSetup(n1, n2, t_hsm=args.quantity("--thsm"))
        outputs["rate_ratio"] = reflection.rate_ratio(setup)
    if args.film_thickness:
        lam, t = args.quantity("--wavelength"), args.quantity("--film-thickness")
        outputs["rho_film"] = reflection.thin_film_coeff(n2, lam, t)
    return {"n1": n1, "n2": n2}, outputs, None, []


def _michelson(args):
    from pathamp import michelson
    lam = args.quantity("--wavelength")
    spec = michelson.InterferometerSpec(
        *(args.quantity(f) for f in ("--arm", "--d", "--tau")), 2.0 * math.pi / lam)
    outputs = {"visibility_asymptote": michelson.visibility_asymptote(spec),
               "long_path_m": spec.long_path, "short_path_m": spec.short_path}
    if args.tmax:
        t_max = args.quantity("--tmax")
        outputs["visibility"] = michelson.visibility(spec, t_max)
        outputs["detection_probability"] = michelson.detection_probability(spec, t_max)
    if args.curve:
        t0_ns = spec.long_path / CONSTANTS.c * 1e9
        grid = linspace(t0_ns + 0.05, t0_ns + 12.0 * spec.tau_s * 1e9, 400)
        _write_csv(args.curve, ["t_max_ns", "visibility"],
                   zip(grid, michelson.visibility_curve(spec, [t * 1e-9 for t in grid])))
        outputs["curve_csv"] = args.curve
    return ({"arm_m": spec.arm_length, "d_m": spec.imbalance,
             "tau_s": spec.tau_s, "wavelength_m": lam}, outputs, None, [])


def _ydse(args):
    from pathamp import flavour
    geom = flavour.SlitGeometry(*(args.quantity(f) for f in (
        "--source-distance", "--screen-distance", "--half-separation",
        "--slit-height", "--slit-width")))
    if args.kind == "photon":
        lam, tau = args.quantity("--wavelength"), args.quantity("--tau")
        res = flavour.photon_double_slit(geom, 2.0 * math.pi / lam, tau)
        outputs = {"fringe_spacing_m": res.fringe_spacing,
                   "damping_per_fringe": res.damping_per_fringe}
    else:
        res = flavour.electron_double_slit(
            geom, flavour.ElectronBeam(args.quantity("--p"), args.quantity("--sigma-p")))
        outputs = {"fringe_spacing_m": res.fringe_spacing,
                   "equal_time_coeff": res.equal_time_coeff,
                   "spread_coeff": res.spread_coeff,
                   "reference_coeffs": list(flavour.ELECTRON_SLIT_REFERENCE_DAMPING)}
    if args.curve:
        # numpy's exp differs from math.exp in the last bit on some doubles
        import numpy as np
        y = np.linspace(-5, 5, 801) * res.fringe_spacing
        _write_csv(args.curve, ["y_m", "probability"], list(zip(y, res.probability(y))))
        outputs["curve_csv"] = args.curve
    return ({"kind": args.kind}, outputs, {"fringe_spacing_m": "computed"},
            [f.as_dict() for f in res.flags])


def _kaon(args):
    from pathamp import flavour
    kaon = flavour.KaonSystem(mean_p=args.quantity("--p"))
    outputs = {"oscillation_period_s": flavour.kaon_oscillation_period(kaon)}
    if args.tau:
        tau = args.quantity("--tau")
        outputs["p_plus"] = flavour.kaon_detection_probability(kaon, "e+", tau=tau)
        outputs["p_minus"] = flavour.kaon_detection_probability(kaon, "e-", tau=tau)
    if args.distance:
        dist = args.quantity("--distance")
        outputs["proper_time_s"] = kaon.proper_time(dist)
        outputs["lab_phase_rad"] = flavour.kaon_oscillation_phase_lab(kaon, dist)
    rep = flavour.kaon_equal_velocity_report(kaon)
    outputs["dp_over_p_equal_velocity"] = rep.dp_over_p
    outputs["dp_rad_over_p"] = rep.dp_rad_over_p
    outputs["dt_production_s"] = rep.dt_production
    if args.curve:
        _write_csv(args.curve, ["tau_ns", "p_plus", "p_minus", "interference"],
                   flavour.kaon_curve(kaon, linspace(0.0, 6.0 * CONSTANTS.tau_ks, 600)))
        outputs["curve_csv"] = args.curve
    prov = {"dp_rad_over_p": "stored reference figure",
            "dp_over_p_equal_velocity": "computed",
            "dt_production_s": "computed"}
    return ({"p_mev_c": kaon.mean_p}, outputs, prov,
            [f.as_dict() for f in rep.flags])


def _neutrino(args):
    from pathamp import flavour
    dm2 = args.quantity("--dm2")
    theta = args.quantity("--theta12", math.pi / 4)
    baseline = args.quantity("--baseline")
    if args.source == "pion":
        exp = flavour.pion_neutrino_experiment(dm2, theta, baseline)
    elif args.source == "kaon":
        exp = flavour.kaon_neutrino_experiment(dm2, theta, baseline)
    else:
        exp = flavour.NeutrinoExperiment(
            CONSTANTS.m_pi, CONSTANTS.hbar_mev_s / CONSTANTS.tau_pi,
            CONSTANTS.m_mu, dm2, theta, baseline, mode="beta",
            beta_energy_mev=args.quantity("--beta-energy"),
            neutrino_p_mev=args.quantity("--p-nu"))
    d = flavour.neutrino_oscillation(exp).as_dict()
    flags = d.pop("flags")
    d["p0_mev_c"] = exp.p0
    d["half_oscillation_distance_m"] = flavour.half_oscillation_distance(exp)
    d["dp_rad_over_p"] = flavour.NEUTRINO_RADIATIVE_SMEARING
    if args.curve:
        _write_csv(args.curve, ["L_m", "p_appear", "p_survive", "interference"],
                   flavour.neutrino_curve(exp, linspace(baseline / 50.0, 3.0 * baseline, 600)))
        d["curve_csv"] = args.curve
    prov = {k: "computed" for k in d}
    prov["dp_rad_over_p"] = "stored reference figure"
    prov["phi_path"] = "computed (full source+propagator phase chain)"
    prov["phi_standard"] = "computed (kinematic comparison value)"
    return ({"source": args.source, "dm2_ev2": dm2, "theta12_rad": theta,
             "baseline_m": baseline}, d, prov, flags)


def _classify(args):
    from pathamp import flavour
    d = flavour.classify_experiment(args.kind).as_dict()
    return {"kind": args.kind}, d, {k: "fixed classification table" for k in d}, []


def _oracle(args):
    from pathamp import oracle, refraction, wave_optics
    if args.op == "mc-volume":
        n, length = int(args.quantity("--order")), args.quantity("--length")
        res = oracle.mc_ordered_volume(n, length, args.samples, seed=args.seed)
        target = refraction.nested_volume_integral(n, length)
        outputs = {"estimate": res.value.real, "error": res.error_estimate,
                   "evaluations": res.evaluations, "closed_form": target,
                   "sigmas_off": abs(res.value.real - target)
                   / res.error_estimate if res.error_estimate else 0.0}
    elif args.op == "half-zone":
        kappa = 2.0 * math.pi / args.quantity("--wavelength")
        x1 = args.quantity("--x1")
        rho = kappa * args.quantity("--rho-over-kappa")
        analytic = wave_optics.huygens_zone_value(kappa, x1)
        damped = wave_optics.damped_radial_integral(kappa, x1, rho)
        outputs = {"analytic": _complex_out(analytic),
                   "damped": _complex_out(damped),
                   "relative_difference": abs(analytic - damped) / abs(damped)}
    else:  # nested
        n, dphi = int(args.quantity("--order")), args.quantity("--dphi")
        res = oracle.quad_nested(n, 1.0, dphi)
        closed = refraction.nested_phase_integral(n, 1.0, dphi, oracle.NESTED_X_START)
        outputs = {"quadrature": _complex_out(res.value),
                   "closed_form": _complex_out(closed),
                   "relative_difference": abs(res.value - closed) / abs(closed),
                   "evaluations": res.evaluations}
    return {"op": args.op}, outputs, None, []


def _recipe_fig9(csv_path):
    from pathamp import michelson
    kappa = 2.0 * math.pi / CONSTANTS.lambda_na_d
    t_grid = [round(7.0 + 0.25 * i, 4) for i in range(170)]
    imbalances = {"d=12.5cm": 0.125, "d=25cm": 0.25, "d=50cm": 0.50}
    rows = michelson.gated_visibility_table(0.5, imbalances.values(),
                                            1e-8, kappa, t_grid)
    outputs = {"asymptotes": {
        label: michelson.visibility_asymptote(
            michelson.InterferometerSpec(0.5, d, 1e-8, kappa))
        for label, d in imbalances.items()}}
    if csv_path:
        _write_csv(csv_path, ["t_max_ns", "V_A", "V_B", "V_C"], rows)
        outputs["curve_csv"] = csv_path
    return outputs, []


def _recipe_table1(csv_path):
    from pathamp import michelson
    table = michelson.visibility_benchmark_table()
    flags = []
    for row in table.values():
        flags += row.pop("flags")
    if csv_path:
        header = ["wavelength_m", "delta_exp_m", "tau_s_nat_s", "tau_s_s", "tau_p_s"]
        _write_csv(csv_path, ["transition", *header],
                   [(label, *[row[k] for k in header]) for label, row in table.items()])
    return {"rows": table}, flags


def _recipe_table2_ratios(csv_path):
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
    if csv_path:
        _write_csv(csv_path, ["p_gev", "energy_gev", "dt_production_s",
                              "ratio_to_lowest_p"], rows)
    return {"rows": [list(r) for r in rows],
            "ratio_10mev_to_1gev": rows[2][3]}, flags


def _recipe_table3(csv_path):
    from pathamp import flavour
    rows = {k: flavour.classify_experiment(k).as_dict()
            for k in ("photon-ydse", "electron-ydse", "kaon", "neutrino")}
    if csv_path:
        header = list(rows["photon-ydse"])
        _write_csv(csv_path, header, [[row[h] for h in header] for row in rows.values()])
    return {"rows": rows}, []


def _recipe_eq_reflection(csv_path):
    from pathamp import reflection
    comp = reflection.fresnel_comparison(1.0, 1.5)
    return {"rho_path": comp.rho_path, "rho_fresnel": comp.rho_fresnel,
            "fresnel_excess": comp.fresnel_excess,
            "path_deficit": comp.path_deficit, "phase": "pi"}, []


def _recipe_eq_oscillation_length(csv_path):
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
    outputs, flags = _RECIPES[args.recipe](args.csv)
    return ({"recipe": args.recipe}, outputs,
            {"recipe": "named reproduction recipe"}, flags)


# --------------------------------------------------------------------------
# the command table: subcommand -> (handler, flag rows).  A row is
# (names, unit, argparse options): names are the flag and its aliases; the
# unit is a unit table, _BARE, or None for a value used as parsed.

_REQ = {"required": True}
_CURVE = ("--curve", None, {"metavar": "CSV"})

_COMMANDS = {
    "propagator": (_propagator, (
        ("--mode", None, {"choices": ("covariant", "temporal", "energy"),
                          "default": "covariant"}),
        ("--mass", _ENERGY_MEV, {}), ("--beta", _BARE, {}),
        ("--width", _ENERGY_MEV, {}), ("--r", _LENGTH, {}), ("--dt", _TIME, {}),
        ("--wavelength", _LENGTH, {}), ("--tau", _TIME, {}), ("--dtau", _TIME, {}),
        ("--energy", _ENERGY_MEV, {}), ("--energy0", _ENERGY_MEV, {}))),
    "diffraction": (_diffraction, (
        ("--wavelength", _LENGTH, _REQ),
        ("--alpha", _ANGLE, {"default": "0rad"}),
        ("--alpha1", _ANGLE, {"default": "0rad"}))),
    "refract-index": (_refract_index, (
        ("--wavelength", _LENGTH, _REQ), ("--density", _DENSITY, _REQ),
        ("--scattering-length", _LENGTH, {}), ("--n", _BARE, {}))),
    "refract-series": (_refract_series, (
        ("--dphi", _BARE, _REQ), ("--betal", _BARE, _REQ))),
    "annulment": (_annulment, (
        ("--radius", _LENGTH, _REQ), ("--axis-distance", _LENGTH, _REQ),
        ("--wavelength", _LENGTH, _REQ), ("--block-length", _LENGTH, _REQ),
        ("--n", _BARE, _REQ), ("--tau", _TIME, _REQ))),
    "snell": (_snell, (
        ("--n1", _BARE, _REQ), ("--n2", _BARE, _REQ), ("--theta-i", _ANGLE, _REQ),
        ("--search", None, {"action": "store_true"}))),
    "reflect": (_reflect, (
        ("--n1", _BARE, {}), ("--n2", _BARE, _REQ), ("--thsm", _BARE, {}),
        ("--film-thickness", _LENGTH, {}), ("--wavelength", _LENGTH, {}))),
    "michelson": (_michelson, (
        ("--arm --L", _LENGTH, _REQ), ("--d", _LENGTH, _REQ), ("--tau", _TIME, _REQ),
        ("--wavelength", _LENGTH, {"default": "589.3nm"}), ("--tmax", _TIME, {}),
        _CURVE)),
    "ydse": (_ydse, (
        ("--kind", None, {"choices": ("photon", "electron"), "default": "photon"}),
        ("--source-distance", _LENGTH, {"default": "10cm"}),
        ("--screen-distance", _LENGTH, {"default": "1m"}),
        ("--half-separation", _LENGTH, {"default": "0.95mm"}),
        ("--slit-height", _LENGTH, {"default": "0.1mm"}),
        ("--slit-width", _LENGTH, {"default": "1mm"}),
        ("--wavelength", _LENGTH, {"default": "589.3nm"}),
        ("--tau", _TIME, {"default": "5.4ns"}),
        ("--p", _MOMENTUM_MEVC, {"default": "229MeV/c"}),
        ("--sigma-p", _MOMENTUM_MEVC, {"default": "1.374e-4MeV/c"}),
        _CURVE)),
    "kaon": (_kaon, (
        ("--p", _MOMENTUM_MEVC, {"default": "194MeV/c"}), ("--tau", _TIME, {}),
        ("--distance", _LENGTH, {}), _CURVE)),
    "neutrino": (_neutrino, (
        ("--source", None, {"choices": ("pion", "kaon", "beta"), "default": "pion"}),
        ("--dm2", _DM2, _REQ), ("--baseline --L", _LENGTH, _REQ),
        ("--theta12", _ANGLE, {}), ("--beta-energy", _ENERGY_MEV, {}),
        ("--p-nu", _MOMENTUM_MEVC, {}), _CURVE)),
    "classify": (_classify, (
        ("--kind", None, {"required": True, "choices": (
            "photon-ydse", "electron-ydse", "kaon", "neutrino")}),)),
    # the default of --seed is the run's seed (see build_parser)
    "oracle": (_oracle, (
        ("--op", None, {"choices": ("mc-volume", "half-zone", "nested"),
                        "required": True}),
        ("--order", _BARE, {"default": "3"}), ("--length", _LENGTH, {"default": "1m"}),
        ("--samples", None, {"type": int, "default": 1_000_000}),
        ("--seed", None, {"type": int}),
        ("--wavelength", _LENGTH, {"default": "589.3nm"}),
        ("--x1", _LENGTH, {"default": "1m"}),
        ("--rho-over-kappa", _BARE, {"default": "1e-7"}),
        ("--dphi", _BARE, {"default": "2.0"}))),
    "reproduce": (_reproduce, (
        ("--recipe", None, {"choices": sorted(_RECIPES), "required": True}),
        ("--csv", None, {"metavar": "CSV"}))),
}


# --------------------------------------------------------------------------


class _ArgumentError(ValueError):
    """Raised instead of argparse's usage-text exit so the command line can
    emit a machine-readable error object for unknown flags or values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


class _LazyParser:
    """A subcommand's parser as the subparsers action holds it (its
    parser_class).  The real parser is built from the subcommand's table
    rows only when it parses, so a run builds just the one it runs."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs      # prog, from add_parser
        self.rows = ()
        self.defaults = {}

    def parse_known_args(self, args=None, namespace=None):
        parser = _Parser(**self.kwargs)
        parser.set_defaults(**self.defaults)
        for names, _unit, options in self.rows:
            parser.add_argument(*names.split(), **options)
        return parser.parse_known_args(args, namespace)


def _env_seed() -> int:
    value = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(value)
    except ValueError:
        raise ConfigError(
            f"{SEED_ENV_VAR}: expected an integer, got {value!r}") from None


def _load_replay(path: str) -> tuple[list[str], int | None]:
    """The argv and the seed (None if absent) of an emitted summary."""
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"--config: {path!r} is not JSON: {exc}") from None
    if not isinstance(stored, dict):
        raise ConfigError(f"--config: {path!r} holds no JSON object")
    argv = stored.get("argv")
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise ConfigError(f"--config: {path!r} has no 'argv' list of strings")
    seed = stored.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError(f"--config: {path!r} has a non-integer 'seed'")
    return argv, seed


def build_parser(seed: int | None = None) -> argparse.ArgumentParser:
    """The command-line parser, one subparser per _COMMANDS entry; `seed`
    is the default of `oracle --seed` (PATHAMP_SEED, else 0, when None)."""
    if seed is None:
        seed = _env_seed()
    p = _Parser(
        prog="pathamp",
        description="Path-amplitude optics and flavour-oscillation calculator")
    p.add_argument("--config", help="re-run from an emitted JSON summary")
    p.add_argument("--out", help="also write the JSON summary to this file")
    sub = p.add_subparsers(dest="subcommand", parser_class=_LazyParser)
    for name, (_handler, rows) in _COMMANDS.items():
        sub.add_parser(name).rows = rows
    sub.choices["oracle"].defaults["seed"] = seed
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _run(argv, _env_seed(), replayed=False)
    except ConfigError as exc:
        return _error_exit(type(exc).__name__, str(exc))


def _run(argv: list[str], seed: int, replayed: bool) -> int:
    parser = build_parser(seed)
    try:
        args = parser.parse_args(argv, _Args())
    except _ArgumentError as exc:
        return _error_exit("ArgumentError", str(exc))

    if args.config:
        if replayed:
            raise ConfigError("--config: a replayed summary cannot name another --config")
        replay, stored_seed = _load_replay(args.config)
        # the stored seed becomes the default, so the summary's argv is
        # replayed unchanged and PATHAMP_SEED cannot alter the numbers
        return _run((["--out", args.out] if args.out else []) + replay,
                    seed if stored_seed is None else stored_seed, replayed=True)

    if not args.subcommand:
        parser.print_help()
        return 1

    # raw argv without the global output options, so a stored summary
    # replays the physics arguments exactly
    raw = [a for i, a in enumerate(argv)
           if not (a in ("--out", "--config")
                   or (i > 0 and argv[i - 1] in ("--out", "--config")))]
    try:
        inputs, outputs, provenance, flags = _COMMANDS[args.subcommand][0](args)
        summary = {
            "command": args.subcommand,
            "argv": raw,
            "inputs": inputs,
            "outputs": outputs,
            "provenance": ({k: "computed" for k in outputs}
                           if provenance is None else provenance),
            "flagged_discrepancies": flags,
        }
        if getattr(args, "seed", None) is not None:
            summary["seed"] = args.seed
        _emit(summary, args.out)
    except (ValueError, RuntimeError) as exc:
        return _error_exit(type(exc).__name__, str(exc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
