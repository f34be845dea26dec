"""refract-index, refract-series and annulment: the refractive index from
forward scattering, the time-budget factor and the annulment report."""

from pathamp.core_num import complex_out


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
        "factor": complex_out(factor.value),
        "n_terms": factor.n_terms,
        "kernel_route": complex_out(factor.value),
        "trig_route": complex_out(factor.trig_route),
        "regime": refraction.regime_classification(dphi, beta_l),
    }
    return ({"delta_phi_rad": dphi, "beta_l": beta_l}, outputs,
            {"factor": "computed (two independent series routes)"}, [])


def _annulment(args):
    from pathamp import refraction
    values = [args.quantity(f) for f in ("--radius", "--axis-distance", "--wavelength",
                                         "--block-length", "--n", "--tau")]
    rep = refraction.annulment_report(*values)
    outputs = {"delta_s_max_m": rep.delta_s_max, "delta_phi_max_rad": rep.delta_phi_max,
               "beta_l": rep.beta_l, "prompt_time_s": rep.prompt_time,
               "prompt_fraction": rep.prompt_fraction}
    return (dict(zip(("radius_m", "axis_distance_m", "wavelength_m",
                      "block_length_m", "n", "tau_s"), values)), outputs, None,
            [f.as_dict() for f in rep.flags])


_REQ = {"required": True}

COMMANDS = {
    "refract-index": (_refract_index, (
        ("--wavelength", "length", _REQ), ("--density", "density", _REQ),
        ("--scattering-length", "length", {}), ("--n", "bare", {}))),
    "refract-series": (_refract_series, (
        ("--dphi", "bare", _REQ), ("--betal", "bare", _REQ))),
    "annulment": (_annulment, (
        ("--radius", "length", _REQ), ("--axis-distance", "length", _REQ),
        ("--wavelength", "length", _REQ), ("--block-length", "length", _REQ),
        ("--n", "bare", _REQ), ("--tau", "time", _REQ))),
}
