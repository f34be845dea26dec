"""ydse, kaon, neutrino and classify: double slits and two-state flavour
oscillations."""

import math

from pathamp.core_num import CONSTANTS, linspace, wavenumber


def _ydse(args):
    from pathamp import flavour
    geom = flavour.SlitGeometry(*(args.quantity(f) for f in (
        "--source-distance", "--screen-distance", "--half-separation",
        "--slit-height", "--slit-width")))
    if args.kind == "photon":
        lam, tau = args.quantity("--wavelength"), args.quantity("--tau")
        res = flavour.photon_double_slit(geom, wavenumber(lam), tau)
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
        grid = [v * res.fringe_spacing for v in linspace(-5.0, 5.0, 801)]
        args.write_csv(args.curve, ["y_m", "probability"],
                       [(y, res.probability(y)) for y in grid])
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
    outputs["dp_rad_over_p"] = flavour.KAON_RADIATIVE_SMEARING
    outputs["dt_production_s"] = rep.dt_production
    if args.curve:
        args.write_csv(args.curve, ["tau_ns", "p_plus", "p_minus", "interference"],
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
            CONSTANTS.m_mu, dm2, theta, baseline,
            beta_energy_mev=args.quantity("--beta-energy"),
            neutrino_p_mev=args.quantity("--p-nu"))
    d = flavour.neutrino_oscillation(exp).as_dict()
    flags = d.pop("flags")
    d["p0_mev_c"] = exp.p0
    d["half_oscillation_distance_m"] = flavour.half_oscillation_distance(exp)
    d["dp_rad_over_p"] = flavour.NEUTRINO_RADIATIVE_SMEARING
    if args.curve:
        grid = linspace(baseline / 50.0, 3.0 * baseline, 600)
        args.write_csv(args.curve, ["L_m", "p_appear", "p_survive", "interference"],
                       flavour.neutrino_curve(exp, grid))
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


_REQ = {"required": True}
_CURVE = ("--curve", None, {"metavar": "CSV"})

COMMANDS = {
    "ydse": (_ydse, (
        ("--kind", None, {"choices": ("photon", "electron"), "default": "photon"}),
        ("--source-distance", "length", {"default": "10cm"}),
        ("--screen-distance", "length", {"default": "1m"}),
        ("--half-separation", "length", {"default": "0.95mm"}),
        ("--slit-height", "length", {"default": "0.1mm"}),
        ("--slit-width", "length", {"default": "1mm"}),
        ("--wavelength", "length", {"default": "589.3nm"}),
        ("--tau", "time", {"default": "5.4ns"}),
        ("--p", "momentum", {"default": "229MeV/c"}),
        ("--sigma-p", "momentum", {"default": "1.374e-4MeV/c"}),
        _CURVE)),
    "kaon": (_kaon, (
        ("--p", "momentum", {"default": "194MeV/c"}), ("--tau", "time", {}),
        ("--distance", "length", {}), _CURVE)),
    "neutrino": (_neutrino, (
        ("--source", None, {"choices": ("pion", "kaon", "beta"), "default": "pion"}),
        ("--dm2", "dm2", _REQ), ("--baseline --L", "length", _REQ),
        ("--theta12", "angle", {}), ("--beta-energy", "energy", {}),
        ("--p-nu", "momentum", {}), _CURVE)),
    "classify": (_classify, (
        ("--kind", None, {"required": True, "choices": (
            "photon-ydse", "electron-ydse", "kaon", "neutrino")}),)),
}
