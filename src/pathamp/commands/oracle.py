"""oracle: one brute-force oracle run against the closed form it checks."""

from pathamp.core_num import DomainError, complex_out, wavenumber


def _order(args) -> int:
    """--order as an int: a fractional order is refused, not truncated."""
    order = args.quantity("--order")
    if not order.is_integer():
        raise DomainError(f"--order must be a whole number, got {order!r}")
    return int(order)


def _oracle(args):
    """A nested run whose closed form is 0, or no larger in modulus than the
    quadrature's error estimate (--dphi 0, an empty path-length budget, or
    an order-1 run at --dphi 2*pi), is refused with DomainError, because
    its relative difference has no value."""
    from pathamp import oracle
    # each op imports only the closed-form module it checks
    if args.op == "mc-volume":
        from pathamp import refraction
        n, length = _order(args), args.quantity("--length")
        res = oracle.mc_ordered_volume(n, length, args.samples, seed=args.seed)
        target = refraction.nested_volume_integral(n, length)
        outputs = {"estimate": res.value.real, "error": res.error_estimate,
                   "evaluations": res.evaluations, "closed_form": target,
                   "sigmas_off": abs(res.value.real - target)
                   / res.error_estimate if res.error_estimate else 0.0}
    elif args.op == "half-zone":
        from pathamp import wave_optics
        kappa = wavenumber(args.quantity("--wavelength"))
        x1 = args.quantity("--x1")
        rho = kappa * args.quantity("--rho-over-kappa")
        analytic = wave_optics.huygens_zone_value(kappa, x1)
        # the damped integral approximates e^{i kappa x1}/(rho - i kappa),
        # whose modulus is at least 1/(sqrt(2) DBL_MAX) for the finite kappa
        # and rho the oracle takes, so it is not 0 and divides below
        damped = oracle.damped_radial_integral(kappa, x1, rho)
        outputs = {"analytic": complex_out(analytic),
                   "damped": complex_out(damped),
                   "relative_difference": abs(analytic - damped) / abs(damped)}
    else:  # nested
        from pathamp import refraction
        n, dphi = _order(args), args.quantity("--dphi")
        res = oracle.quad_nested(n, 1.0, dphi)
        closed = refraction.nested_phase_integral(n, 1.0, dphi, oracle.NESTED_X_START)
        if closed == 0:
            raise DomainError(f"--dphi {dphi!r}: the closed form is 0, so the "
                              "relative difference is undefined")
        if abs(closed) <= res.error_estimate:
            raise DomainError(f"--dphi {dphi!r}: the closed form ({abs(closed):.3g} "
                              "in modulus) is no larger than the quadrature's "
                              f"error estimate ({res.error_estimate:.3g}), so the "
                              "relative difference is meaningless")
        outputs = {"quadrature": complex_out(res.value),
                   "closed_form": complex_out(closed),
                   "relative_difference": abs(res.value - closed) / abs(closed),
                   "evaluations": res.evaluations}
    return {"op": args.op}, outputs, None, []


COMMANDS = {
    "oracle": (_oracle, (
        ("--op", None, {"choices": ("mc-volume", "half-zone", "nested"),
                        "required": True}),
        ("--order", "bare", {"default": "3"}), ("--length", "length", {"default": "1m"}),
        ("--samples", None, {"type": int, "default": 1_000_000}),
        ("--seed", None, {"type": int, "default": 0}),
        ("--wavelength", "length", {"default": "589.3nm"}),
        ("--x1", "length", {"default": "1m"}),
        ("--rho-over-kappa", "bare", {"default": "1e-7"}),
        ("--dphi", "bare", {"default": "2.0"}))),
}
