"""reflect: normal-incidence reflection against Fresnel, and thin films."""

import math


def _reflect(args):
    from pathamp import reflection
    n1, n2 = args.quantity("--n1", 1.0), args.quantity("--n2")
    outputs = reflection.fresnel_comparison(n1, n2).as_dict()
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


COMMANDS = {
    "reflect": (_reflect, (
        ("--n1", "bare", {}), ("--n2", "bare", {"required": True}),
        ("--thsm", "bare", {}),
        ("--film-thickness", "length", {}), ("--wavelength", "length", {}))),
}
