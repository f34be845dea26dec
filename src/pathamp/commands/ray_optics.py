"""snell: the refraction angle in closed form and from stationary phase."""

import math


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


_REQ = {"required": True}

COMMANDS = {
    "snell": (_snell, (
        ("--n1", "bare", _REQ), ("--n2", "bare", _REQ), ("--theta-i", "angle", _REQ),
        ("--search", None, {"action": "store_true"}))),
}
