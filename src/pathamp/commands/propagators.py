"""propagator: the covariant, rest-frame and energy-domain propagators."""

from pathamp.core_num import CONSTANTS, DomainError, complex_out


def _propagator(args):
    from pathamp import propagators
    if args.mode == "covariant":
        args.require("--r")
        mass, beta = args.quantity("--mass", 0.0), args.quantity("--beta", 1.0)
        r = args.quantity("--r")
        dt = args.quantity("--dt", None)
        if dt is None:
            if beta == 0:
                raise DomainError("covariant propagator is undefined at rest (--beta 0)")
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
    return inputs, {"amplitude": complex_out(amp)}, None, []


COMMANDS = {
    "propagator": (_propagator, (
        ("--mode", None, {"choices": ("covariant", "temporal", "energy"),
                          "default": "covariant"}),
        ("--mass", "energy", {}), ("--beta", "bare", {}),
        ("--width", "energy", {}), ("--r", "length", {}), ("--dt", "time", {}),
        ("--wavelength", "length", {}), ("--tau", "time", {}), ("--dtau", "time", {}),
        ("--energy", "energy", {}), ("--energy0", "energy", {}))),
}
