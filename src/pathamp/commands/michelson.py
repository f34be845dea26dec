"""michelson: time-gated fringe visibility of a single decaying atom."""

import math

from pathamp.core_num import CONSTANTS, DomainError, linspace, wavenumber


def _michelson(args):
    from pathamp import michelson
    lam = args.quantity("--wavelength")
    spec = michelson.InterferometerSpec(
        *(args.quantity(f) for f in ("--arm", "--d", "--tau")), wavenumber(lam))
    outputs = {"visibility_asymptote": michelson.visibility_asymptote(spec),
               "long_path_m": spec.long_path, "short_path_m": spec.short_path}
    if args.tmax:
        t_max = args.quantity("--tmax")
        outputs["visibility"] = michelson.visibility(spec, t_max)
        outputs["detection_probability"] = michelson.detection_probability(spec, t_max)
    if args.curve:
        arrival = spec.long_path / CONSTANTS.c
        t0_ns = arrival * 1e9
        last = t0_ns + 12.0 * spec.tau_s * 1e9
        first = t0_ns + 0.05
        if not first < last:
            # at a tau below ~4.2 ps the last gate, 12 tau after the
            # arrival, comes before 0.05 ns and the gates would run
            # backward; the first gate then comes 12 tau/400 after it
            first = t0_ns + 12.0 * spec.tau_s * 1e9 / 400
        if first * 1e-9 <= arrival:
            # past ~5e13 m of arm the offset is below the spacing of
            # doubles at the arrival and rounds away; 4 ulps outlast the
            # roundings of the ns/s conversions
            first = t0_ns + 4.0 * math.ulp(t0_ns)
        grid = linspace(first, last, 400)
        if len(set(grid)) < len(grid):
            raise DomainError(
                f"a {spec.arm_length:g} m arm puts the long-arm arrival where doubles"
                f" are {math.ulp(t0_ns):g} ns apart, too coarse for 400 distinct"
                f" gate times in the 12 tau = {12.0 * spec.tau_s * 1e9:g} ns after it")
        rows = michelson.gated_visibility_table([spec], grid)
        args.write_csv(args.curve, ["t_max_ns", "visibility"], rows)
        outputs["curve_csv"] = args.curve
    return ({"arm_m": spec.arm_length, "d_m": spec.imbalance,
             "tau_s": spec.tau_s, "wavelength_m": lam}, outputs, None, [])


_REQ = {"required": True}

COMMANDS = {
    "michelson": (_michelson, (
        ("--arm --L", "length", _REQ), ("--d", "length", _REQ), ("--tau", "time", _REQ),
        ("--wavelength", "length", {"default": "589.3nm"}), ("--tmax", "time", {}),
        ("--curve", None, {"metavar": "CSV"}))),
}
