"""Refractive index from multiple-scattering path sums.

A transparent medium acts on a traversing photon through elastic forward
scattering off its atoms.  Summing the path amplitudes order by order in
the number of scatterings gives, for an unconstrained block, the phase
factor of ordinary refraction.  When the detection time fixes a finite
path-length budget delta_s (the distance light could travel between
excitation and detection, minus the direct source-detector separation),
each scattering order acquires a budget-dependent kernel; the resulting
complex factor multiplying the vacuum amplitude is computed here by two
independent routes and can suppress refraction entirely ("refraction
annulment") when the budget phase kappa*delta_s is small compared to the
scattering strength beta_l.
"""

from __future__ import annotations

import cmath
import math
import warnings

from pathamp.core_num import (
    CONSTANTS,
    ApproximationWarning,
    ConvergenceError,
    DiscrepancyFlag,
    DomainError,
    PreconditionError,
    Record,
    checked_int,
    phase_exp,
    refuse_non_finite,
)

# Above this scattering strength the float64 series is meaningless
# (terms reach exp(beta_l) before cancelling); direct summation is refused.
BETA_L_SUMMATION_LIMIT = 50.0

# Relative agreement the two routes of time_budget_factor must reach.
ROUTE_TOLERANCE = 1e-10

# Most terms the float64 series of unconstrained_block_amplitude and
# time_budget_factor take before they give up with ConvergenceError.
_MAX_TERMS = 100000

# Commonly quoted prompt-transmission fraction for the benchmark annulment
# geometry; disagrees with delta_s_max/(c tau_s) by about a factor 10.
_REFERENCE_PROMPT_FRACTION = 4e-4


class SeriesDisagreement(RuntimeError):
    """The two independent series evaluations failed to agree."""


class RectangularBoundary(Record):
    """Rectangular transverse boundary of sides (l_y, l_z); the beam axis
    pierces the plane at (y, z) relative to the centre."""

    __slots__ = ("l_y", "l_z", "y", "z")
    _defaults = {"y": 0.0, "z": 0.0}

    def __post_init__(self):
        refuse_non_finite(l_y=self.l_y, l_z=self.l_z, y=self.y, z=self.z)
        if self.l_y <= 0 or self.l_z <= 0:
            raise DomainError("sides must be positive")
        if abs(self.y) >= self.l_y / 2 or abs(self.z) >= self.l_z / 2:
            raise DomainError("axis must pierce the interior of the rectangle")


class CircularBoundary(Record):
    """Circular transverse boundary of radius ``radius``; the beam axis is
    displaced ``y`` from its centre."""

    __slots__ = ("radius", "y")
    _defaults = {"y": 0.0}

    def __post_init__(self):
        refuse_non_finite(radius=self.radius, y=self.y)
        if self.radius <= 0:
            raise DomainError("radius must be positive")
        if abs(self.y) >= self.radius:
            raise DomainError("axis must pierce the interior of the circle")


class MediumSpec(Record):
    """A uniform transparent medium.

    density: scatterer number density (1/m^3); scattering_length: real
    elastic photon-atom forward scattering amplitude (m); thickness (m).
    """

    __slots__ = ("density", "scattering_length", "thickness")

    def __post_init__(self):
        refuse_non_finite(density=self.density, scattering_length=self.scattering_length,
                          thickness=self.thickness)
        if self.density <= 0 or self.thickness <= 0:
            raise DomainError("density and thickness must be positive")


def thin_sheet_phase_shift(medium: MediumSpec, kappa: float) -> float:
    """Phase advance 2 pi N a delta / kappa from single forward scattering
    in a sheet much thinner than the wavelength.

    Valid only while the result is << 1 (the linearised single-scattering
    amplitude is exponentiated); a result >= 0.1 warns.
    """
    refuse_non_finite(kappa=kappa)
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    dphi = 2.0 * math.pi * medium.density * medium.scattering_length \
        * medium.thickness / kappa
    if dphi >= 0.1:
        warnings.warn(
            f"thin-sheet phase shift {dphi:.3g} >= 0.1: single-scattering"
            " linearisation invalid at this thickness",
            ApproximationWarning, stacklevel=2)
    return dphi


def _column(density: float, wavelength: float) -> float:
    """lambda^2 N for a positive density and wavelength, or DomainError
    where lambda^2 or lambda^2 N passes the largest double."""
    if density <= 0 or wavelength <= 0:
        raise DomainError("density and wavelength must be positive")
    try:
        # ** 2, not a product: the two round some doubles differently
        lam2 = wavelength ** 2
    except OverflowError:
        raise DomainError("wavelength^2 overflows a double") from None
    column = lam2 * density
    if column == math.inf:
        raise DomainError("wavelength^2 * density overflows a double")
    return column


def refractive_index(density: float, scattering_length: float,
                     wavelength: float) -> float:
    """n = 1 + lambda^2 N a / (2 pi); DomainError where lambda^2, lambda^2 N
    or n passes the largest double."""
    refuse_non_finite(density=density, scattering_length=scattering_length,
                      wavelength=wavelength)
    n = 1.0 + _column(density, wavelength) * scattering_length / (2.0 * math.pi)
    if not math.isfinite(n):
        raise DomainError(f"the index {n!r} is not a finite double")
    return n


def scattering_length_for_index(n: float, density: float, wavelength: float) -> float:
    """The forward scattering length a = (n - 1) 2 pi / (lambda^2 N) that
    gives index n: the inverse of ``refractive_index``.  DomainError where
    lambda^2, lambda^2 N or a leaves the double range."""
    refuse_non_finite(n=n, density=density, wavelength=wavelength)
    column = _column(density, wavelength)
    if column == 0:
        raise DomainError("wavelength^2 * density underflows a double")
    scattering_length = (n - 1.0) * 2.0 * math.pi / column
    if not math.isfinite(scattering_length):
        raise DomainError(f"the scattering length {scattering_length!r} is not a"
                          " finite double")
    return scattering_length


class EffectiveVelocity(Record):
    """Apparent signal velocity when a fraction f of the source-detector
    line is filled with medium, by the two bookkeeping routes."""

    __slots__ = (
        "linear",                   # (1-f) c + f c/n: single-scattering (thin sheet) form
        "reciprocal",               # c / (1 + (n-1) f): multiple-scattering (thick block) form
        "relative_difference",
        "regime",
    )


def effective_velocity(filling_fraction: float, n: float) -> EffectiveVelocity:
    """Both closed forms of the effective velocity and which regime each
    derivation covers; they agree to first order in (n-1)*f.  An f outside
    [0, 1] or an n that is not finite and >= 1 raises DomainError."""
    f = filling_fraction
    if not 0.0 <= f <= 1.0:
        raise DomainError("filling fraction must lie in [0, 1]")
    refuse_non_finite(n=n)
    if n < 1.0:
        raise DomainError(f"n must be finite and >= 1, got {n!r}")
    linear = (1.0 - f) * CONSTANTS.c + f * CONSTANTS.c / n
    reciprocal = CONSTANTS.c / (1.0 + (n - 1.0) * f)
    rel = abs(linear - reciprocal) / reciprocal
    regime = "thin-sheet" if (n - 1.0) * f < 1e-3 else "thick-block"
    return EffectiveVelocity(linear, reciprocal, rel, regime)


def nested_volume_integral(order: int, length: float) -> float:
    """Volume L^n/n! of the ordered region x_1 >= x_2 >= ... >= x_n in a
    block of thickness L; computed in log space above order 20.  An order
    that is not an integer >= 1, a length that is not finite and > 0, or a
    volume beyond float64 raises DomainError."""
    order = checked_int("order", order)
    refuse_non_finite(length=length)
    if length <= 0:
        raise DomainError("length must be positive")
    try:
        if order <= 20:
            return length ** order / math.factorial(order)
        return math.exp(order * math.log(length) - math.lgamma(order + 1))
    except OverflowError:
        raise DomainError(f"the order-{order} volume of length {length!r}"
                          " overflows float64") from None


class SeriesValue(Record):
    __slots__ = ("value", "n_terms")


def unconstrained_block_amplitude(beta_l: float) -> SeriesValue:
    """Multiple-forward-scattering sum sum_n (i beta_l)^n / n! for a block
    with no time constraint; converges to e^{i beta_l}, i.e. pure refraction
    phase (n-1) kappa L.

    Returns the value and the number of terms needed for the running term
    to drop below 1e-12 of the partial sum.
    """
    refuse_non_finite(beta_l=beta_l)
    if beta_l < 0:
        raise DomainError("beta_l must be >= 0")
    if beta_l > BETA_L_SUMMATION_LIMIT:
        raise PreconditionError(
            f"beta_l = {beta_l:g} exceeds float64 summation limit"
            f" {BETA_L_SUMMATION_LIMIT:g}")
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(1, _MAX_TERMS + 1):
        term *= 1j * beta_l / n
        total += term
        if abs(term) < 1e-12 * abs(total):
            return SeriesValue(total, n)
    raise ConvergenceError(f"no convergence after {_MAX_TERMS} terms")


def scattering_order_kernel(order: int, delta_phi: float) -> complex:
    """Budget kernel of the n-th scattering order:

        1 - e^{i dphi} * sum_{k=0}^{n-1} (-i dphi)^k / k!

    The '1' is the lower-limit (budget-saturating) contribution of the
    nested radial integrals; the subtracted partial exponential collects
    their upper limits.  At dphi = 0 the kernel vanishes for every order:
    with no spare path length, scattered paths cannot contribute and the
    medium has no effect.  An order that is not an integer >= 1, a dphi
    that is not finite and >= 0, or a kernel beyond float64 raises
    DomainError.
    """
    order = checked_int("order", order)
    refuse_non_finite(delta_phi=delta_phi)
    if delta_phi < 0:
        raise DomainError("delta_phi must be >= 0")
    kernel = _order_kernel(order, delta_phi)
    if not cmath.isfinite(kernel):
        raise DomainError(f"the order-{order} kernel at delta_phi = {delta_phi!r}"
                          " overflows float64")
    return kernel


def _order_kernel(order: int, delta_phi: float) -> complex:
    """K_n(dphi) for an integer n >= 1 and a finite dphi >= 0.

    Above floor(dphi) the kernel is the tail e^{i dphi} sum_{k>=n}
    (-i dphi)^k / k!.  Its terms then fall from the first, so it is summed
    from its smallest term back to its first, with no cancellation: the
    forward form 1 - e^{i dphi} sum_{k<n} loses every digit there once
    |K_n| < 1e-16.  At or below floor(dphi) the forward form is kept."""
    if order <= delta_phi:  # order <= floor(dphi), as order is an integer
        esum = 0.0 + 0.0j
        epow = 1.0 + 0.0j
        for k in range(order):
            esum += epow
            epow *= -1j * delta_phi / (k + 1)
        return 1.0 - cmath.exp(1j * delta_phi) * esum
    term = 1.0 + 0.0j
    for k in range(1, order + 1):
        term *= -1j * delta_phi / k
    tail = [term]
    k = order
    # the ratio of successive terms, dphi/k, is below 1 from here on
    while abs(term) > 1e-17 * abs(tail[0]):
        k += 1
        term *= -1j * delta_phi / k
        tail.append(term)
    return cmath.exp(1j * delta_phi) * sum(reversed(tail))


def nested_phase_integral(order: int, kappa: float, delta_s: float,
                          x1: float) -> complex:
    """Closed form of the nested radial integral that ``oracle.quad_nested``
    evaluates by quadrature (outermost leg starting at x1):

        e^{i kappa x1} (i/kappa)^n K_n(kappa delta_s)

    with K_n the ``scattering_order_kernel`` of order n.  A kappa that is not
    finite and > 0, a non-finite delta_s or x1, or a value beyond float64 (as
    (i/kappa)^n is for a tiny kappa) raises DomainError."""
    refuse_non_finite(kappa=kappa, delta_s=delta_s, x1=x1)
    if kappa <= 0:
        raise DomainError("kappa must be finite and positive")
    kernel = scattering_order_kernel(order, kappa * delta_s)
    phase = phase_exp(1j * kappa * x1, "kappa*x1")
    try:
        value = phase * (1j / kappa) ** order * kernel
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise DomainError(f"(i/kappa)^{order} at kappa = {kappa!r} overflows float64")


def _factor_kernel_route(delta_phi: float, beta_l: float):
    """Sum over orders of (i beta_l)^n/n! times the order kernel, with the
    kernel's partial exponential carried incrementally.  Terms are collected
    and reduced with exact summation (math.fsum).

    For delta_phi above ~700 the partial exponential overflows float64; the
    running sum then turns inf or NaN and stays so.  The convergence test is
    written so that a NaN comparison takes its branch, which refuses a
    non-finite sum: no extra per-term check is needed."""
    eid = cmath.exp(1j * delta_phi)
    i_beta = 1j * beta_l
    minus_i_dphi = -1j * delta_phi
    min_order = max(beta_l + delta_phi, 4)
    term = 1.0 + 0.0j
    esum = 0.0 + 0.0j
    epow = 1.0 + 0.0j
    re = [1.0]
    im = [0.0]
    running = 1.0 + 0.0j
    for n in range(1, _MAX_TERMS + 1):
        term *= i_beta / n
        esum += epow
        epow *= minus_i_dphi / n
        t = term * (1.0 - eid * esum)
        re.append(t.real)
        im.append(t.imag)
        running += t
        if n > min_order and not abs(t) >= 1e-14 * max(abs(running), 1e-300):
            if not cmath.isfinite(running):
                raise ConvergenceError(
                    f"kernel-route series overflowed float64 by order {n}"
                    f" (delta_phi = {delta_phi:g})")
            return complex(math.fsum(re), math.fsum(im)), n
    raise ConvergenceError(f"kernel-route series not converged after {_MAX_TERMS} orders")


def _factor_trig_route(delta_phi: float, beta_l: float, n_terms: int) -> complex:
    """Re/Im series built from sin/cos of the budget phase and the partial
    sums C = sum_{k<n} (-1)^k x^(2k)/(2k)! and S = sum_{k<n} (-1)^k
    x^(2k+1)/(2k+1)! of their series at x = delta_phi; algebraically
    identical to the kernel route but evaluated through entirely real
    trigonometric quantities.

    Order m = 2n takes C and S to n terms; order m = 2n + 1 takes C to
    n + 1.  One loop builds both sums, each term from the one before by
    the recurrence term *= -x^2/((j+1)(j+2)), so large arguments do not
    overflow intermediate factorials.  Each order restarts its sums at
    k = 0 and forms its factors inside the loop, which costs O(n^2) in
    all.  Carrying the two sums across orders (O(n)), or tabulating the
    factors once, would lift the budget-sweep benchmark's throughput past
    the ~1.6x that its peak-RSS bound allows, for as long as the benchmark
    keeps a record of every call it checks."""
    s = math.sin(delta_phi)
    c = math.cos(delta_phi)
    mx2 = -delta_phi * delta_phi
    re = [1.0]
    im = [0.0]
    fact = 1.0
    for m in range(1, n_terms + 1):
        fact *= beta_l / m
        n = m // 2
        cn = 0.0
        sn = 0.0
        cterm = 1.0
        sterm = delta_phi
        for k in range(n):
            cn += cterm
            cterm *= mx2 / ((2 * k + 1) * (2 * k + 2))
            sn += sterm
            sterm *= mx2 / ((2 * k + 2) * (2 * k + 3))
        sgn = -1.0 if n % 2 else 1.0
        if m % 2 == 0:
            re.append(sgn * fact * (1.0 - c * cn - s * sn))
            im.append(sgn * fact * (c * sn - s * cn))
        else:
            cn += cterm
            re.append(sgn * fact * (s * cn - c * sn))
            im.append(sgn * fact * (1.0 - c * cn - s * sn))
    return complex(math.fsum(re), math.fsum(im))


class MediumFactor(Record):
    """The time-budget factor: ``value`` from the complex order kernels,
    ``trig_route`` from the trigonometric series that checks it, and the
    ``n_terms`` both routes summed."""

    __slots__ = ("value", "n_terms", "trig_route")


def time_budget_factor(delta_phi: float, beta_l: float) -> MediumFactor:
    """Complex factor multiplying the vacuum amplitude for a block traversal
    with path-length-budget phase delta_phi = kappa*delta_s and scattering
    strength beta_l = (n-1)*kappa*L.

    Evaluated two independent ways (complex order kernels, and real
    trigonometric series with truncated partial sums); the routes must agree
    to ROUTE_TOLERANCE relative or SeriesDisagreement is raised.  At
    delta_phi = 0 the factor is exactly 1 for any beta_l: refraction is
    annulled outright when the detection time forbids any detour.
    """
    refuse_non_finite(delta_phi=delta_phi, beta_l=beta_l)
    if delta_phi < 0:
        raise DomainError("delta_phi must be >= 0")
    if beta_l < 0:
        raise DomainError("beta_l must be >= 0")
    if beta_l > BETA_L_SUMMATION_LIMIT:
        raise PreconditionError(
            f"beta_l = {beta_l:g} exceeds float64 summation limit"
            f" {BETA_L_SUMMATION_LIMIT:g}; regime: {regime_classification(delta_phi, beta_l)}")
    kernel_val, n_used = _factor_kernel_route(delta_phi, beta_l)
    trig_val = _factor_trig_route(delta_phi, beta_l, n_used)
    scale = max(abs(kernel_val), abs(trig_val))
    if scale > 0 and abs(kernel_val - trig_val) / scale > ROUTE_TOLERANCE:
        raise SeriesDisagreement(
            f"independent routes disagree: {kernel_val!r} vs {trig_val!r}")
    return MediumFactor(kernel_val, n_used, trig_val)


def regime_classification(delta_phi: float, beta_l: float) -> str:
    """Coarse physical regime of the (budget phase, scattering strength) pair."""
    refuse_non_finite(delta_phi=delta_phi, beta_l=beta_l)
    if delta_phi == 0.0:
        return "fully-annulled (factor exactly 1)"
    if beta_l >= 100.0 * delta_phi and delta_phi >= 10.0:
        return "annulment-dominated (budget phase << scattering strength)"
    if delta_phi >= 100.0 * beta_l:
        return "boundary-dominated (normal refraction, factor exp(i beta_l))"
    return "intermediate"


def boundary_averaged_factor(beta_l: float) -> complex:
    """Block factor when the budget is irrelevant and transverse boundaries
    regularise the path sum: the upper-limit contributions of the radial
    integrals average to zero over azimuth (their phase varies by many turns
    around any realistic boundary), leaving exactly e^{i beta_l} -- the
    ordinary refraction phase (n-1) kappa L."""
    refuse_non_finite(beta_l=beta_l)
    if beta_l < 0:
        raise DomainError("beta_l must be >= 0")
    return cmath.exp(1j * beta_l)


class AnnulmentReport(Record):
    """Quantitative annulment estimate for an oblique-cut cylinder geometry."""

    __slots__ = (
        "delta_s_max",              # m, largest budget still free of the boundary
        "delta_phi_max",            # rad
        "beta_l",                   # dimensionless scattering strength
        "prompt_time",              # s, decay window for unrefracted transit
        "prompt_fraction",          # fraction of decays inside that window
        "flags",
    )


def annulment_report(radius: float, axis_distance: float, wavelength: float,
                     block_length: float, n: float, tau_s: float) -> AnnulmentReport:
    """Annulment figures for a cylindrical block of the given radius, viewed
    by a detector at ``axis_distance`` beyond it.

    delta_s_max = R^2/(2 l) is the largest spare path length for which all
    detour paths stay clear of the transverse boundary; photons from decays
    within delta_s_max/c of production cross unrefracted.
    """
    refuse_non_finite(radius=radius, axis_distance=axis_distance, wavelength=wavelength,
                      block_length=block_length, n=n, tau_s=tau_s)
    if radius >= axis_distance:
        raise PreconditionError("requires radius << axis distance")
    if min(radius, axis_distance, wavelength, block_length, tau_s) <= 0:
        raise DomainError("all lengths and times must be positive")
    if n < 1.0:
        raise DomainError("n must be >= 1")
    ds_max = radius ** 2 / (2.0 * axis_distance)
    dphi_max = 2.0 * math.pi * ds_max / wavelength
    beta_l = 2.0 * math.pi * (n - 1.0) * block_length / wavelength
    if not (math.isfinite(dphi_max) and math.isfinite(beta_l)):
        raise DomainError(f"budget phase {dphi_max!r} and scattering strength"
                          f" {beta_l!r} must be finite")
    prompt_time = ds_max / CONSTANTS.c
    prompt_fraction = 1.0 - math.exp(-prompt_time / tau_s)
    flags = (DiscrepancyFlag(
        "prompt_fraction", prompt_fraction, _REFERENCE_PROMPT_FRACTION,
        "commonly quoted figure is ~10x the computed delta_s_max/(c tau_s)"),)
    return AnnulmentReport(ds_max, dphi_max, beta_l, prompt_time,
                           prompt_fraction, flags)


def boundary_radial_limit(boundary, x1: float, phi1: float) -> float:
    """Largest radial path length r1_max(phi1) before a detour at azimuth
    phi1 leaves the medium, for a detection plane x1 past the scattering
    plane.  Small-angle form x1 + R1(phi1)^2/(2 x1).

    phi1 is measured anticlockwise from +z towards +y.  For a rectangle the
    signs of cos phi1 and sin phi1 pick the z side and the y side the ray
    heads for, and it leaves through the nearer of the two; for a circle
    displaced by y the limit loses its phi1 dependence only when y = 0.
    A non-finite x1 or phi1, an x1 that is not > 0, or a limit that is not
    a finite double raises DomainError.
    """
    refuse_non_finite(x1=x1, phi1=phi1)
    if x1 <= 0:
        raise DomainError("x1 must be positive")
    c, s = math.cos(phi1), math.sin(phi1)
    if isinstance(boundary, CircularBoundary):
        # the reach sqrt(R^2 - (y cos)^2) - y sin, with no difference of
        # nearly equal terms and no square: R^2 - (y cos)^2 = g^2 + (y sin)^2
        # with g = sqrt(R - |y|) sqrt(R + |y|), the second root taken as the
        # hypot of sqrt R and sqrt |y|; where y sin > 0 the reach is
        # g^2/(root + y sin), taken as g (g/root)/(1 + y sin/root).  No step
        # overflows unless the reach does, and none rounds the reach to 0
        r, y = boundary.radius, boundary.y
        g = math.sqrt(r - abs(y)) * math.hypot(math.sqrt(r), math.sqrt(abs(y)))
        ys = y * s
        root = math.hypot(g, ys)
        transverse = g * (g / root) / (1.0 + ys / root) if ys > 0 else root - ys
    elif isinstance(boundary, RectangularBoundary):
        h_z = boundary.l_z / 2 - boundary.z if c > 0 else boundary.l_z / 2 + boundary.z
        h_y = boundary.l_y / 2 - boundary.y if s > 0 else boundary.l_y / 2 + boundary.y
        # the ray leaves through the side it reaches first; of all doubles
        # only phi1 = 0 has sin phi1 = 0, and there it heads for the +z side
        transverse = min(h_z / abs(c), h_y / abs(s)) if s else h_z / abs(c)
    else:
        raise DomainError(f"unsupported boundary {boundary!r}")
    # R1 (R1/(2 x1)) passes the largest double only where the limit does,
    # but for R1 < 1 and a subnormal x1 the quotient can: R1^2/(2 x1) there
    quotient = transverse / (2.0 * x1)
    limit = x1 + (transverse * quotient if math.isfinite(quotient)
                  else transverse * transverse / (2.0 * x1))
    if not math.isfinite(limit):
        raise DomainError(f"radial limit {limit!r} is not a finite double")
    return limit
