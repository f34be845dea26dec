"""Command-line front end.

Every physical flag takes a value with an explicit unit suffix
("--d 25cm", "--tau 10ns", "--dm2 2e-3eV2"); bare numbers are accepted
only for dimensionless quantities.  Each run prints a JSON summary with
the inputs echoed verbatim, the computed outputs, provenance tags and any
flagged discrepancies against commonly quoted reference figures. An
emitted summary can be re-ingested with --config to reproduce the run
bit for bit.  Curves go to CSV via --csv; nothing is ever plotted.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import re
import sys

# Each handler imports the pathamp modules it calls, and numpy only where
# it builds a curve, so a one-shot process loads only what it runs.
from pathamp.core_num import CONSTANTS

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


class UnitError(ValueError):
    pass


class ConfigError(ValueError):
    """A run configuration that cannot be used: a --config summary that
    cannot be read or replayed, or a non-integer PATHAMP_SEED."""


class OutputError(ValueError):
    """An output file (--out, --curve, --csv) that cannot be written."""


def _parse(value: str, table: dict, flag: str) -> float:
    m = _QUANTITY_RE.match(value)
    if not m:
        raise UnitError(f"{flag}: cannot parse quantity {value!r}")
    number, unit = m.groups()
    if unit == "":
        raise UnitError(
            f"{flag}: missing unit on {value!r}; expected one of {sorted(table)}")
    if unit not in table:
        raise UnitError(
            f"{flag}: unknown unit {unit!r}; expected one of {sorted(table)}")
    return float(number) * table[unit]


def _dimensionless(value: str, flag: str) -> float:
    m = _QUANTITY_RE.match(value)
    if not m or m.group(2):
        raise UnitError(f"{flag}: expected a bare dimensionless number, got {value!r}")
    return float(m.group(1))


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


def _summary(command: str, raw_args: list[str], inputs: dict, outputs: dict,
             provenance: dict, flags: list, seed: int | None = None) -> dict:
    s = {
        "command": command,
        "argv": raw_args,
        "inputs": inputs,
        "outputs": outputs,
        "provenance": provenance,
        "flagged_discrepancies": flags,
    }
    if seed is not None:
        s["seed"] = seed
    return s


# --------------------------------------------------------------------------
# subcommand handlers: each returns the summary dict


def _require(args, names):
    for name in names:
        if getattr(args, name.lstrip("-").replace("-", "_"), None) is None:
            raise UnitError(f"{name} is required for this mode")


def _cmd_propagator(args, raw):
    from pathamp import propagators
    if args.mode == "covariant":
        _require(args, ["--r"])
        mass = _parse(args.mass, _ENERGY_MEV, "--mass") if args.mass else 0.0
        beta = _dimensionless(args.beta, "--beta") if args.beta else 1.0
        r = _parse(args.r, _LENGTH, "--r")
        dt = _parse(args.dt, _TIME, "--dt") if args.dt \
            else r / (beta * CONSTANTS.c)
        width = _parse(args.width, _ENERGY_MEV, "--width") if args.width else 0.0
        particle = propagators.OnShellParticle(mass, beta, width)
        amp = propagators.covariant_propagator(particle, r, dt)
        inputs = {"mass_mev": mass, "beta": beta, "r_m": r, "dt_s": dt,
                  "width_mev": width}
    elif args.mode == "temporal":
        _require(args, ["--wavelength", "--tau", "--dtau"])
        lam = _parse(args.wavelength, _LENGTH, "--wavelength")
        tau = _parse(args.tau, _TIME, "--tau")
        dtau = _parse(args.dtau, _TIME, "--dtau")
        emitter = propagators.EmitterSpec.from_line(lam, tau)
        amp = propagators.temporal_propagator(emitter, dtau)
        inputs = {"wavelength_m": lam, "tau_s": tau, "dtau_s": dtau}
    else:
        _require(args, ["--energy", "--energy0", "--width"])
        e = _parse(args.energy, _ENERGY_MEV, "--energy") * 1e6
        e0 = _parse(args.energy0, _ENERGY_MEV, "--energy0") * 1e6
        width = _parse(args.width, _ENERGY_MEV, "--width") * 1e6
        amp = propagators.energy_propagator(e, e0, width)
        inputs = {"energy_ev": e, "energy0_ev": e0, "width_ev": width}
    return _summary("propagator", raw, inputs,
                    {"amplitude": _complex_out(amp)},
                    {"amplitude": "computed"}, [])


def _cmd_diffraction(args, raw):
    from pathamp import wave_optics
    lam = _parse(args.wavelength, _LENGTH, "--wavelength")
    a = _parse(args.alpha, _ANGLE, "--alpha")
    a1 = _parse(args.alpha1, _ANGLE, "--alpha1")
    kappa = 2.0 * math.pi / lam
    amp = wave_optics.diffraction_amplitude(kappa, a, a1)
    return _summary("diffraction", raw,
                    {"wavelength_m": lam, "alpha_rad": a, "alpha1_rad": a1},
                    {"kappa_per_m": kappa, "amplitude_per_m": _complex_out(amp)},
                    {"amplitude_per_m": "computed"}, [])


def _cmd_refract_index(args, raw):
    from pathamp import refraction
    lam = _parse(args.wavelength, _LENGTH, "--wavelength")
    if args.n is not None:
        _require(args, ["--density"])
        n = _dimensionless(args.n, "--n")
        density = _parse(args.density, _DENSITY, "--density")
        a_scat = (n - 1.0) * 2.0 * math.pi / (lam ** 2 * density)
        outputs = {"scattering_length_m": a_scat,
                   "n_roundtrip": refraction.refractive_index(density, a_scat, lam)}
        inputs = {"wavelength_m": lam, "n": n, "density_per_m3": density}
    else:
        density = _parse(args.density, _DENSITY, "--density")
        a_scat = _parse(args.scattering_length, _LENGTH, "--scattering-length")
        outputs = {"n": refraction.refractive_index(density, a_scat, lam)}
        inputs = {"wavelength_m": lam, "density_per_m3": density,
                  "scattering_length_m": a_scat}
    return _summary("refract-index", raw, inputs, outputs,
                    {k: "computed" for k in outputs}, [])


def _cmd_refract_series(args, raw):
    from pathamp import refraction
    dphi = _dimensionless(args.dphi, "--dphi")
    beta_l = _dimensionless(args.betal, "--betal")
    factor = refraction.time_budget_factor(dphi, beta_l)
    outputs = {
        "factor": _complex_out(factor.value),
        "n_terms": factor.n_terms,
        "kernel_route": _complex_out(factor.kernel_route),
        "trig_route": _complex_out(factor.trig_route),
        "regime": refraction.regime_classification(dphi, beta_l),
    }
    return _summary("refract-series", raw,
                    {"delta_phi_rad": dphi, "beta_l": beta_l}, outputs,
                    {"factor": "computed (two independent series routes)"}, [])


def _cmd_annulment(args, raw):
    from pathamp import refraction
    radius = _parse(args.radius, _LENGTH, "--radius")
    axis_distance = _parse(args.axis_distance, _LENGTH, "--axis-distance")
    wavelength = _parse(args.wavelength, _LENGTH, "--wavelength")
    block_length = _parse(args.block_length, _LENGTH, "--block-length")
    n = _dimensionless(args.n, "--n")
    tau = _parse(args.tau, _TIME, "--tau")
    rep = refraction.annulment_report(radius, axis_distance, wavelength,
                                      block_length, n, tau)
    d = rep.as_dict()
    flags = d.pop("flags")
    return _summary("annulment", raw,
                    {"radius_m": radius, "axis_distance_m": axis_distance,
                     "wavelength_m": wavelength,
                     "block_length_m": block_length, "n": n, "tau_s": tau},
                    d, {k: "computed" for k in d}, flags)


def _cmd_snell(args, raw):
    from pathamp import ray_optics
    n1 = _dimensionless(args.n1, "--n1")
    n2 = _dimensionless(args.n2, "--n2")
    theta_i = _parse(args.theta_i, _ANGLE, "--theta-i")
    theta_o = ray_optics.snell_angle(n1, n2, theta_i)
    outputs = {"theta_o_rad": theta_o, "theta_o_deg": math.degrees(theta_o)}
    provenance = {"theta_o_rad": "closed form"}
    if args.search:
        geom = ray_optics.InterfaceGeometry(n1, n2, math.pi / 2 - theta_i,
                                            1.0, 1.0)
        found = ray_optics.stationary_phase_angle(geom)
        outputs["theta_o_stationary_rad"] = found.theta
        outputs["stationary_residual"] = found.residual
        provenance["theta_o_stationary_rad"] = "numeric stationary-phase search"
    return _summary("snell", raw,
                    {"n1": n1, "n2": n2, "theta_i_rad": theta_i},
                    outputs, provenance, [])


def _cmd_reflect(args, raw):
    from pathamp import reflection
    n1 = _dimensionless(args.n1, "--n1") if args.n1 else 1.0
    n2 = _dimensionless(args.n2, "--n2")
    comp = reflection.fresnel_comparison(n1, n2)
    outputs = {
        "rho_path": comp.rho_path,
        "rho_fresnel": comp.rho_fresnel,
        "fresnel_excess": comp.fresnel_excess,
        "path_deficit": comp.path_deficit,
    }
    if n1 != n2:
        phase = reflection.reflection_phase_path(n1, n2)
        outputs["phase"] = "pi" if phase == math.pi else "0"
    if args.thsm:
        setup = reflection.ReflectionSetup(n1, n2,
                                           t_hsm=_dimensionless(args.thsm, "--thsm"))
        outputs["rate_ratio"] = reflection.rate_ratio(setup)
    if args.film_thickness:
        _require(args, ["--wavelength"])
        lam = _parse(args.wavelength, _LENGTH, "--wavelength")
        t = _parse(args.film_thickness, _LENGTH, "--film-thickness")
        outputs["rho_film"] = reflection.thin_film_coeff(n2, lam, t)
    return _summary("reflect", raw, {"n1": n1, "n2": n2},
                    outputs, {k: "computed" for k in outputs}, [])


def _cmd_michelson(args, raw):
    from pathamp import michelson
    lam = _parse(args.wavelength, _LENGTH, "--wavelength")
    spec = michelson.InterferometerSpec(
        _parse(args.arm, _LENGTH, "--arm"),
        _parse(args.d, _LENGTH, "--d"),
        _parse(args.tau, _TIME, "--tau"),
        2.0 * math.pi / lam)
    outputs = {"visibility_asymptote": michelson.visibility_asymptote(spec),
               "long_path_m": spec.long_path, "short_path_m": spec.short_path}
    if args.tmax:
        t_max = _parse(args.tmax, _TIME, "--tmax")
        outputs["visibility"] = michelson.visibility(spec, t_max)
        outputs["detection_probability"] = michelson.detection_probability(spec, t_max)
    if args.curve:
        import numpy as np
        t0_ns = spec.long_path / CONSTANTS.c * 1e9
        grid = np.linspace(t0_ns + 0.05, t0_ns + 12.0 * spec.tau_s * 1e9, 400)
        _write_csv(args.curve, ["t_max_ns", "visibility"],
                   zip(grid, michelson.visibility_curve(spec, grid * 1e-9)))
        outputs["curve_csv"] = args.curve
    return _summary("michelson", raw,
                    {"arm_m": spec.arm_length, "d_m": spec.imbalance,
                     "tau_s": spec.tau_s, "wavelength_m": lam},
                    outputs, {k: "computed" for k in outputs}, [])


def _cmd_ydse(args, raw):
    from pathamp import flavour
    geom = flavour.SlitGeometry(
        _parse(args.source_distance, _LENGTH, "--source-distance"),
        _parse(args.screen_distance, _LENGTH, "--screen-distance"),
        _parse(args.half_separation, _LENGTH, "--half-separation"),
        _parse(args.slit_height, _LENGTH, "--slit-height"),
        _parse(args.slit_width, _LENGTH, "--slit-width"))
    flags: list = []
    if args.kind == "photon":
        lam = _parse(args.wavelength, _LENGTH, "--wavelength")
        tau = _parse(args.tau, _TIME, "--tau")
        res = flavour.photon_double_slit(geom, 2.0 * math.pi / lam, tau)
        outputs = {"fringe_spacing_m": res.fringe_spacing,
                   "damping_per_fringe": res.damping_per_fringe}
        flags += [f.as_dict() for f in res.flags]
    else:
        beam = flavour.ElectronBeam(
            _parse(args.p, _MOMENTUM_MEVC, "--p"),
            _parse(args.sigma_p, _MOMENTUM_MEVC, "--sigma-p"))
        res = flavour.electron_double_slit(geom, beam)
        outputs = {"fringe_spacing_m": res.fringe_spacing,
                   "equal_time_coeff": res.equal_time_coeff,
                   "spread_coeff": res.spread_coeff,
                   "reference_coeffs": list(flavour.ELECTRON_SLIT_REFERENCE_DAMPING)}
        flags += [f.as_dict() for f in res.flags]
    if args.curve:
        import numpy as np
        y = np.linspace(-5, 5, 801) * res.fringe_spacing
        p = res.probability(y)
        _write_csv(args.curve, ["y_m", "probability"], list(zip(y, p)))
        outputs["curve_csv"] = args.curve
    return _summary("ydse", raw, {"kind": args.kind}, outputs,
                    {"fringe_spacing_m": "computed"}, flags)


def _cmd_kaon(args, raw):
    from pathamp import flavour
    sys_ = flavour.KaonSystem(mean_p=_parse(args.p, _MOMENTUM_MEVC, "--p"))
    outputs = {"oscillation_period_s": flavour.kaon_oscillation_period(sys_)}
    flags: list = []
    if args.tau:
        tau = _parse(args.tau, _TIME, "--tau")
        outputs["p_plus"] = flavour.kaon_detection_probability(sys_, "e+", tau=tau)
        outputs["p_minus"] = flavour.kaon_detection_probability(sys_, "e-", tau=tau)
    if args.distance:
        dist = _parse(args.distance, _LENGTH, "--distance")
        outputs["proper_time_s"] = sys_.proper_time(dist)
        outputs["lab_phase_rad"] = flavour.kaon_oscillation_phase_lab(sys_, dist)
    rep = flavour.kaon_equal_velocity_report(sys_)
    outputs["dp_over_p_equal_velocity"] = rep.dp_over_p
    outputs["dp_rad_over_p"] = rep.dp_rad_over_p
    outputs["dt_production_s"] = rep.dt_production
    flags += [f.as_dict() for f in rep.flags]
    if args.curve:
        import numpy as np
        grid = np.linspace(0.0, 6.0 * CONSTANTS.tau_ks, 600)
        _write_csv(args.curve, ["tau_ns", "p_plus", "p_minus", "interference"],
                   flavour.kaon_curve(sys_, grid))
        outputs["curve_csv"] = args.curve
    prov = {"dp_rad_over_p": "stored reference figure",
            "dp_over_p_equal_velocity": "computed",
            "dt_production_s": "computed"}
    return _summary("kaon", raw, {"p_mev_c": sys_.mean_p},
                    outputs, prov, flags)


def _cmd_neutrino(args, raw):
    from pathamp import flavour
    dm2 = _parse(args.dm2, _DM2, "--dm2")
    theta = _parse(args.theta12, _ANGLE, "--theta12") if args.theta12 \
        else math.pi / 4
    baseline = _parse(args.baseline, _LENGTH, "--baseline")
    if args.source == "pion":
        exp = flavour.pion_neutrino_experiment(dm2, theta, baseline)
    elif args.source == "kaon":
        exp = flavour.kaon_neutrino_experiment(dm2, theta, baseline)
    else:
        exp = flavour.NeutrinoExperiment(
            CONSTANTS.m_pi, CONSTANTS.hbar_mev_s / CONSTANTS.tau_pi,
            CONSTANTS.m_mu, dm2, theta, baseline, mode="beta",
            beta_energy_mev=_parse(args.beta_energy, _ENERGY_MEV, "--beta-energy"),
            neutrino_p_mev=_parse(args.p_nu, _MOMENTUM_MEVC, "--p-nu"))
    res = flavour.neutrino_oscillation(exp)
    d = res.as_dict()
    flags = d.pop("flags")
    d["p0_mev_c"] = exp.p0
    d["half_oscillation_distance_m"] = flavour.half_oscillation_distance(exp)
    d["dp_rad_over_p"] = flavour.NEUTRINO_RADIATIVE_SMEARING
    if args.curve:
        import numpy as np
        grid = np.linspace(baseline / 50.0, 3.0 * baseline, 600)
        _write_csv(args.curve,
                   ["L_m", "p_appear", "p_survive", "interference"],
                   flavour.neutrino_curve(exp, grid))
        d["curve_csv"] = args.curve
    prov = {k: "computed" for k in d}
    prov["dp_rad_over_p"] = "stored reference figure"
    prov["phi_path"] = "computed (full source+propagator phase chain)"
    prov["phi_standard"] = "computed (kinematic comparison value)"
    return _summary("neutrino", raw,
                    {"source": args.source, "dm2_ev2": dm2,
                     "theta12_rad": theta, "baseline_m": baseline},
                    d, prov, flags)


def _cmd_classify(args, raw):
    from pathamp import flavour
    row = flavour.classify_experiment(args.kind)
    d = row.as_dict()
    return _summary("classify", raw, {"kind": args.kind}, d,
                    {k: "fixed classification table" for k in d}, [])


def _cmd_oracle(args, raw):
    from pathamp import oracle, refraction, wave_optics
    seed = args.seed
    if args.op == "mc-volume":
        n = int(_dimensionless(args.order, "--order"))
        length_val = _parse(args.length, _LENGTH, "--length")
        res = oracle.mc_ordered_volume(n, length_val, args.samples, seed=seed)
        target = refraction.nested_volume_integral(n, length_val)
        outputs = {"estimate": res.value.real, "error": res.error_estimate,
                   "evaluations": res.evaluations, "closed_form": target,
                   "sigmas_off": abs(res.value.real - target)
                   / res.error_estimate if res.error_estimate else 0.0}
    elif args.op == "half-zone":
        lam = _parse(args.wavelength, _LENGTH, "--wavelength")
        kappa = 2.0 * math.pi / lam
        x1 = _parse(args.x1, _LENGTH, "--x1")
        rho = kappa * _dimensionless(args.rho_over_kappa, "--rho-over-kappa")
        analytic = wave_optics.huygens_zone_value(kappa, x1)
        damped = wave_optics.damped_radial_integral(kappa, x1, rho)
        outputs = {"analytic": _complex_out(analytic),
                   "damped": _complex_out(damped),
                   "relative_difference": abs(analytic - damped) / abs(damped)}
    else:  # nested
        n = int(_dimensionless(args.order, "--order"))
        dphi = _dimensionless(args.dphi, "--dphi")
        res = oracle.quad_nested(n, 1.0, dphi)
        kern = refraction.scattering_order_kernel(n, dphi)
        closed = cmath.exp(1j * 0.4) * (1j) ** n * kern
        outputs = {"quadrature": _complex_out(res.value),
                   "closed_form": _complex_out(closed),
                   "relative_difference": abs(res.value - closed) / abs(closed),
                   "evaluations": res.evaluations}
    return _summary("oracle", raw, {"op": args.op}, outputs,
                    {k: "computed" for k in outputs}, [], seed=seed)


def _recipe_fig9(csv_path):
    from pathamp import michelson
    lam = CONSTANTS.lambda_na_d
    kappa = 2.0 * math.pi / lam
    t_grid = [round(7.0 + 0.25 * i, 4) for i in range(170)]
    imbalances = {"d=12.5cm": 0.125, "d=25cm": 0.25, "d=50cm": 0.50}
    rows = michelson.gated_visibility_table(0.5, imbalances.values(),
                                            1e-8, kappa, t_grid)
    outputs = {
        "asymptotes": {
            label: michelson.visibility_asymptote(
                michelson.InterferometerSpec(0.5, d, 1e-8, kappa))
            for label, d in imbalances.items()
        }
    }
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
        rows = [(label, *[row[k] for k in
                          ("wavelength_m", "delta_exp_m", "tau_s_nat_s",
                           "tau_s_s", "tau_p_s")])
                for label, row in table.items()]
        _write_csv(csv_path, ["transition", "wavelength_m", "delta_exp_m",
                              "tau_s_nat_s", "tau_s_s", "tau_p_s"], rows)
    return {"rows": table}, flags


def _recipe_table2_ratios(csv_path):
    from pathamp import flavour
    rows = []
    flags = []
    base = None
    for p_gev in (0.01, 0.1, 1.0, 10.0, 100.0):
        sys_ = flavour.KaonSystem(mean_p=p_gev * 1e3)
        rep = flavour.kaon_equal_velocity_report(sys_)
        if base is None:
            base = rep.dt_production
            flags = [f.as_dict() for f in rep.flags]
        rows.append((p_gev, sys_.mean_energy / 1e3, rep.dt_production,
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
        header = list(next(iter(rows.values())).keys())
        _write_csv(csv_path, header,
                   [[row[h] for h in header] for row in rows.values()])
    return {"rows": rows}, []


def _recipe_eq_reflection(csv_path):
    from pathamp import reflection
    comp = reflection.fresnel_comparison(1.0, 1.5)
    return {"rho_path": comp.rho_path, "rho_fresnel": comp.rho_fresnel,
            "fresnel_excess": comp.fresnel_excess,
            "path_deficit": comp.path_deficit,
            "phase": "pi"}, []


def _recipe_eq_oscillation_length(csv_path):
    from pathamp import flavour
    dm2 = 2e-3
    probe = flavour.pion_neutrino_experiment(dm2, math.pi / 4, 1.0)
    l_half = flavour.half_oscillation_distance(probe)
    at_half = flavour.pion_neutrino_experiment(dm2, math.pi / 4, l_half)
    res = flavour.neutrino_oscillation(at_half)
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


def _cmd_reproduce(args, raw):
    outputs, flags = _RECIPES[args.recipe](args.csv)
    return _summary("reproduce", raw, {"recipe": args.recipe}, outputs,
                    {"recipe": "named reproduction recipe"}, flags)


# --------------------------------------------------------------------------


class _ArgumentError(ValueError):
    """Raised instead of argparse's usage-text exit so the command line can
    emit a machine-readable error object for unknown flags or values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


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
    """The command-line parser; `seed` is the default of `oracle --seed`
    (PATHAMP_SEED, else 0, when None)."""
    if seed is None:
        seed = _env_seed()
    p = _Parser(
        prog="pathamp",
        description="Path-amplitude optics and flavour-oscillation calculator")
    p.add_argument("--config", help="re-run from an emitted JSON summary")
    p.add_argument("--out", help="also write the JSON summary to this file")
    sub = p.add_subparsers(dest="subcommand")

    sp = sub.add_parser("propagator")
    sp.add_argument("--mode", choices=("covariant", "temporal", "energy"),
                    default="covariant")
    sp.add_argument("--mass")
    sp.add_argument("--beta")
    sp.add_argument("--width")
    sp.add_argument("--r")
    sp.add_argument("--dt")
    sp.add_argument("--wavelength")
    sp.add_argument("--tau")
    sp.add_argument("--dtau")
    sp.add_argument("--energy")
    sp.add_argument("--energy0")
    sp.set_defaults(func=_cmd_propagator)

    sp = sub.add_parser("diffraction")
    sp.add_argument("--wavelength", required=True)
    sp.add_argument("--alpha", default="0rad")
    sp.add_argument("--alpha1", default="0rad")
    sp.set_defaults(func=_cmd_diffraction)

    sp = sub.add_parser("refract-index")
    sp.add_argument("--wavelength", required=True)
    sp.add_argument("--density", required=True)
    sp.add_argument("--scattering-length")
    sp.add_argument("--n")
    sp.set_defaults(func=_cmd_refract_index)

    sp = sub.add_parser("refract-series")
    sp.add_argument("--dphi", required=True)
    sp.add_argument("--betal", required=True)
    sp.set_defaults(func=_cmd_refract_series)

    sp = sub.add_parser("annulment")
    sp.add_argument("--radius", required=True)
    sp.add_argument("--axis-distance", required=True)
    sp.add_argument("--wavelength", required=True)
    sp.add_argument("--block-length", required=True)
    sp.add_argument("--n", required=True)
    sp.add_argument("--tau", required=True)
    sp.set_defaults(func=_cmd_annulment)

    sp = sub.add_parser("snell")
    sp.add_argument("--n1", required=True)
    sp.add_argument("--n2", required=True)
    sp.add_argument("--theta-i", required=True)
    sp.add_argument("--search", action="store_true")
    sp.set_defaults(func=_cmd_snell)

    sp = sub.add_parser("reflect")
    sp.add_argument("--n1")
    sp.add_argument("--n2", required=True)
    sp.add_argument("--thsm")
    sp.add_argument("--film-thickness")
    sp.add_argument("--wavelength")
    sp.set_defaults(func=_cmd_reflect)

    sp = sub.add_parser("michelson")
    sp.add_argument("--arm", "--L", required=True)
    sp.add_argument("--d", required=True)
    sp.add_argument("--tau", required=True)
    sp.add_argument("--wavelength", default="589.3nm")
    sp.add_argument("--tmax")
    sp.add_argument("--curve", metavar="CSV")
    sp.set_defaults(func=_cmd_michelson)

    sp = sub.add_parser("ydse")
    sp.add_argument("--kind", choices=("photon", "electron"), default="photon")
    sp.add_argument("--source-distance", default="10cm")
    sp.add_argument("--screen-distance", default="1m")
    sp.add_argument("--half-separation", default="0.95mm")
    sp.add_argument("--slit-height", default="0.1mm")
    sp.add_argument("--slit-width", default="1mm")
    sp.add_argument("--wavelength", default="589.3nm")
    sp.add_argument("--tau", default="5.4ns")
    sp.add_argument("--p", default="229MeV/c")
    sp.add_argument("--sigma-p", default="1.374e-4MeV/c")
    sp.add_argument("--curve", metavar="CSV")
    sp.set_defaults(func=_cmd_ydse)

    sp = sub.add_parser("kaon")
    sp.add_argument("--p", default="194MeV/c")
    sp.add_argument("--tau")
    sp.add_argument("--distance")
    sp.add_argument("--curve", metavar="CSV")
    sp.set_defaults(func=_cmd_kaon)

    sp = sub.add_parser("neutrino")
    sp.add_argument("--source", choices=("pion", "kaon", "beta"),
                    default="pion")
    sp.add_argument("--dm2", required=True)
    sp.add_argument("--baseline", "--L", required=True)
    sp.add_argument("--theta12")
    sp.add_argument("--beta-energy")
    sp.add_argument("--p-nu")
    sp.add_argument("--curve", metavar="CSV")
    sp.set_defaults(func=_cmd_neutrino)

    sp = sub.add_parser("classify")
    sp.add_argument("--kind", required=True,
                    choices=("photon-ydse", "electron-ydse", "kaon", "neutrino"))
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("oracle")
    sp.add_argument("--op", choices=("mc-volume", "half-zone", "nested"),
                    required=True)
    sp.add_argument("--order", default="3")
    sp.add_argument("--length", default="1m")
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=seed)
    sp.add_argument("--wavelength", default="589.3nm")
    sp.add_argument("--x1", default="1m")
    sp.add_argument("--rho-over-kappa", default="1e-7")
    sp.add_argument("--dphi", default="2.0")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("reproduce")
    sp.add_argument("--recipe", choices=sorted(_RECIPES), required=True)
    sp.add_argument("--csv", metavar="CSV")
    sp.set_defaults(func=_cmd_reproduce)

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
        args = parser.parse_args(argv)
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

    if not getattr(args, "subcommand", None):
        parser.print_help()
        return 1

    # raw argv without the global output options, so a stored summary
    # replays the physics arguments exactly
    raw = [a for i, a in enumerate(argv)
           if not (a in ("--out", "--config")
                   or (i > 0 and argv[i - 1] in ("--out", "--config")))]
    try:
        _emit(args.func(args, raw), args.out)
    except (ValueError, RuntimeError) as exc:
        return _error_exit(type(exc).__name__, str(exc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
