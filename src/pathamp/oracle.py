"""Independent brute-force numerical machinery.

Everything here is deliberately dumb: period-segmented Gauss-Legendre sums
for oscillatory integrals (the damped half-zone radial integral among
them), nested Gauss-Legendre quadrature for nested integrals (each inner
level tabulated on Chebyshev points of the sum of the legs outside it and
read back by Clenshaw's recurrence), Monte Carlo for ordered volumes,
arbitrary-precision series summation (term by term, in fixed-point Python
integers scaled by 2**P, with P at least the decimal working precision in
bits plus 64 guard bits).  These routines know nothing about the closed
forms they are used to validate, so an agreement is evidence, not
tautology.

Each Gauss-Legendre rule is built here, by Newton's method on the
three-term Legendre recurrence (no eigensolver), once per node count and
kept, as are quad_nested's Chebyshev points and values-to-coefficients
matrix, once per number of points: they depend only on the count, never
on the integrand, so no result is cached.  No default path builds a rule
of more than 64 points, and only quad_nested takes a node count, refused
above 100: the rules are checked against a 48-digit reference at every
count up to 100 (nodes within 1.2e-16, weights within 8.7e-14 relative),
and no further.
quad_oscillatory and the Gaussian-ratio average take one composite rule,
not one dense rule over the whole range: the 20-point rule on each segment
or panel for the value and, for the error estimate, the 10-point rule on
the same panels.  Gauss-Legendre rules are not nested, so the 10-point rule
is a separate one, and f is evaluated at 30 points per segment or panel.

Sums are elementwise numpy products reduced by .sum or math.fsum, never
matrix products, and the rules take elementwise arithmetic only, so the
oracle makes no BLAS or LAPACK call.  No complex product of two complex
arrays is formed, whose AVX2 loop fuses multiply-adds.  The moduli behind
the error estimates are taken by np.hypot of the real and imaginary parts,
not by numpy's complex abs, whose SIMD loops round differently.  So a rule,
a value and its error estimate keep their bits whichever SIMD kernels the
CPU selects, as long as the integrand's values do.

Monte Carlo uses numpy's PCG64 generator, constructed by name (not through
default_rng, whose choice numpy may change), so a fixed seed gives
bit-identical results across platforms.  Samples are drawn in fixed-size
batches by one sequential loop into one reused buffer of at most
order * _MC_BATCH doubles, and the hit count is an exact integer sum, so a
fixed seed and sample count always give the same estimate, whatever the
batch size.

Each function imports numpy only once its arguments are checked, so
importing this module, or a call it refuses, loads no numpy.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable

from pathamp.core_num import (ConvergenceError, DomainError, PreconditionError, Record,
                               checked_int, refuse_non_finite)

# most half-period segments quad_oscillatory takes over a finite range
_MAX_SEGMENTS = 2_000_000

# relative tolerance of quad_oscillatory over a finite range (with an
# absolute floor of 1e3 times it)
_OSC_TOL = 1e-10

# points per segment or panel of the coarse rule of quad_oscillatory and
# gaussian_ratio_integral; their value rule takes twice as many
_OSC_NODES = 10

# most points per level quad_nested accepts: the Gauss-Legendre rules are
# checked against a high-precision reference up to 100 points
_MAX_RULE = 100

# samples mc_ordered_volume draws at a time: one order-8 batch is 512 KB,
# a quarter of a core's L2 cache.  Against batches of 32768, 1e6-sample
# calls took 1-3% longer at orders 2 to 5 and 10% less at order 8; at
# 4096 they took 4-10% longer
_MC_BATCH = 8192

# quad_nested's default start x1
NESTED_X_START = 0.4

# equal panels gaussian_ratio_integral splits its window into
_RATIO_PANELS = 100


class OracleResult(Record):
    """A numerical estimate with its own error estimate and evaluation count."""

    __slots__ = ("value", "error_estimate", "evaluations")


def _legendre(n: int, x) -> tuple:
    """P_n(x) and P_n'(x), elementwise in the array x inside (-1, 1), by
    the three-term recurrence k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}
    and (1 - x^2) P_n' = n (P_{n-1} - x P_n)."""
    p0, p1 = 1.0, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


@functools.lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], ascending,
    read-only.

    Newton's method on P_n, from cos(pi (i - 1/4)/(n + 1/2)), takes the
    ceil(n/2) non-negative roots (an odd n's root 0 exactly) until its step
    falls to 1e-12, after which the next step would be below rounding; the
    negative roots are their exact mirror images.  The weight is
    2/((1 - x)(1 + x) P_n'(x)^2) at the root, taken to first order from
    the rounded node x and the Newton step d = P_n(x)/P_n'(x) still left:
    w(x - d) = w(x)(1 + 2 x d/(1 - x^2)).  Taken at x itself, a weight
    would be off by 2 x/(1 - x^2) times the rounding of x, up to 2.1e-13
    relative (n = 86) next to +-1.  The starting points come from
    math.cos, not numpy's SIMD cos, and the rest is elementwise float64
    arithmetic, so a rule has the same bits on every CPU.  Each size is
    built once and shared; the arrays are frozen so no caller can alter a
    shared rule.
    """
    import numpy as np
    x = np.array([math.cos(math.pi * (i - 0.25) / (n + 0.5))
                  for i in range(1, n // 2 + 1)] + [0.0] * (n % 2))
    while True:
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 1e-12:
            break
    p, dp = _legendre(n, x)
    one_x2 = (1.0 - x) * (1.0 + x)
    w = 2.0 / (one_x2 * dp * dp) * (1.0 + 2.0 * x * (p / dp) / one_x2)
    half = n // 2
    x = np.concatenate((-x[:half], x[::-1]))
    w = np.concatenate((w[:half], w[::-1]))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _composite(a: float, h: float, panels: int, nodes: int) -> tuple:
    """The nodes-point Gauss-Legendre rule on each of `panels` panels of
    width 2h from a: the points, panel after panel in one flat array, and
    the weights of one panel's nodes.

    Node j of panel k is a + h (2k + 1 + x_j), rounded once from a, and its
    weight is h w_j.  Nodes placed around rounded panel midpoints shift a
    whole panel at a time, which made the worst error on strongly
    oscillating Gaussian ratios ~3x larger.
    """
    import numpy as np
    x, w = _leggauss(nodes)
    return (a + h * (np.arange(1.0, 2.0 * panels, 2.0)[:, None] + x)).ravel(), h * w


def _fsum(z) -> complex:
    """The correctly rounded sum of a complex array."""
    return complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))


def _aitken(s) -> complex:
    """One Aitken delta-squared step: the limit of the geometric sequence
    through three partial sums s (the last itself if their second
    difference is 0)."""
    s0, s1, s2 = s
    d2 = s2 - 2 * s1 + s0
    return s2 if d2 == 0 else s2 - (s2 - s1) * (s2 - s1) / d2


def quad_oscillatory(f: Callable, a: float, b: float, kappa: float,
                     damping_scale: float | None = None) -> OracleResult:
    """Integrate a rapidly oscillating complex integrand from a to b.

    kappa is the dominant local phase frequency; the range is split into
    half-period segments of length pi/kappa, each integrated with the
    20-point Gauss rule, and the error estimate takes its difference from
    the 10-point rule on the same segments.  Gauss-Legendre rules are not
    nested, so f is evaluated at 30 points per segment.  Over a finite
    range the two must agree to 1e-10 relative, or 1e-7 absolute, or
    ConvergenceError is raised.  The integrand must accept a numpy array
    and return an array of complex values.

    An infinite upper limit requires ``damping_scale`` > 0, the e-folding
    length of a declared exponential envelope of the integrand.  The tail
    takes 64 segments of length min(pi/kappa, damping_scale), so an
    envelope shorter than a half period is resolved too.  Their partial
    sums then form a nearly geometric sequence, whose limit one Aitken
    step on the last three takes, so slowly damped integrands
    (damping_scale >> 1/kappa) are still cheap; the step on the three
    before checks it.  A tail whose nonzero error estimate is not below
    the modulus of its value (not one correct digit) raises
    ConvergenceError, as does a segment length below the spacing of
    doubles at a, where the segment edges collapse and the sums would be
    an exact 0.

    Both error estimates add a bound on rounding, 8 u (r X + 20) times the
    rule's integral of |f|, with u = 2**-53, X the larger modulus of the
    two ends (a + 64 segments for the tail) and r = kappa, plus
    1/damping_scale for the tail: a node rounded to the spacing of doubles
    at X moves the phase and the envelope by u r X.

    A numpy float64 overflow or invalid operation in the integrand or the
    sums, or an Aitken step that leaves float64, raises ConvergenceError.
    A non-finite kappa or a, a NaN b, or b <= a (b = -inf included) raises
    DomainError.
    """
    refuse_non_finite(a=a, kappa=kappa)
    if math.isnan(b):
        raise DomainError("b must not be NaN")
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    seg_len = math.pi / kappa
    if b == math.inf:
        if damping_scale is None:
            raise PreconditionError(
                "infinite upper limit requires a declared damping envelope")
        if not damping_scale > 0:
            raise DomainError(f"damping_scale must be positive, got {damping_scale!r}")
        # an envelope shorter than the half period sets the segment length,
        # so the 64 segments span 64 e-folds and not 64 pi/kappa
        seg_len = min(seg_len, damping_scale)
        n_seg = 64
        if not all(a + seg_len * k < a + seg_len * (k + 1) for k in range(n_seg)):
            # a segment below the spacing of doubles at a: the edges
            # round onto each other, and the sums would be an exact 0
            raise ConvergenceError(
                f"oscillatory tail unresolved: segment length {seg_len:.3e} is"
                f" below the spacing of doubles at a = {a!r}")
        end, rate = a + n_seg * seg_len, kappa + 1.0 / damping_scale
    else:
        if b <= a:
            raise DomainError("need b > a")
        n_seg = max(1, math.ceil((b - a) / seg_len))
        if n_seg > _MAX_SEGMENTS:
            raise PreconditionError(f"{n_seg} segments exceed budget {_MAX_SEGMENTS}")
        seg_len, end, rate = (b - a) / n_seg, b, kappa
    import numpy as np
    sums = []
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for nodes in (_OSC_NODES, 2 * _OSC_NODES):
                p, w = _composite(a, 0.5 * seg_len, n_seg, nodes)
                vals = np.asarray(f(p), dtype=complex).reshape(n_seg, nodes)
                sums.append((vals * w).sum(axis=1))
            # the 20-point rule's integral of |f|
            moduli = float((np.hypot(vals.real, vals.imag) * w).sum())
    except FloatingPointError as exc:
        raise ConvergenceError(f"oscillatory quadrature left float64: {exc}") from None
    coarse, fine = _fsum(sums[0]), _fsum(sums[1])
    rounding = 8 * 2.0 ** -53 * moduli \
        * (rate * max(abs(a), abs(end)) + 2 * _OSC_NODES)
    if b == math.inf:
        partial = [_fsum(sums[1][:n]) for n in range(n_seg - 3, n_seg)] + [fine]
        value = _aitken(partial[1:])
        err = abs(value - _aitken(partial[:3])) + abs(fine - coarse) + rounding
        if not math.isfinite(err):
            # Python's complex arithmetic overflows to inf or nan silently
            raise ConvergenceError(
                "oscillatory quadrature left float64: overflow in the Aitken step")
        if err > 0 and err >= abs(value):
            # not one correct digit (an exact 0 with no error is a result);
            # _OSC_TOL is not used, as a tail of modulus near 1e-7 would
            # pass its absolute floor of 1e3 * _OSC_TOL
            raise ConvergenceError(
                f"oscillatory tail did not converge: error {err:.3e} against"
                f" a value of modulus {abs(value):.3e}")
        return OracleResult(value, err, n_seg * 3 * _OSC_NODES)
    err = abs(fine - coarse)
    if abs(fine) > 0 and err > max(_OSC_TOL * abs(fine), 1e3 * _OSC_TOL):
        raise ConvergenceError(f"oscillatory quadrature did not converge: error {err:.3e}")
    # resolved rules differ by rounding noise only, so the estimate adds
    # the bound on rounding
    return OracleResult(fine, err + rounding, n_seg * 3 * _OSC_NODES)


def damped_radial_integral(kappa: float, x1: float, rho: float) -> complex:
    """Brute-force value of int_{x1}^{inf} e^{i kappa r1} e^{-rho (r1-x1)} dr1,
    by quad_oscillatory with the declared damping length 1/rho.

    The factor e^{-rho (r1-x1)} is a mathematical (Abel) regulator of the
    half-zone value: it makes the integral to infinite radius converge, and
    for rho << kappa the result checks the half-period-zone rule
    (``wave_optics.huygens_zone_value``), which it agrees with to
    O(rho/kappa).  It is not the source's decay.  At a fixed detection
    time a longer detour was emitted earlier, so the package's own path
    amplitude (``wave_optics.hole_path_amplitude``) is larger for it, by
    e^{+rho (extra length)}, not smaller.  A rho that is not > 0 raises
    DomainError.
    """
    if rho <= 0:
        raise DomainError("rho must be positive (declared damping envelope)")

    def integrand(r):
        import numpy as np
        return np.exp(1j * kappa * r - rho * (r - x1))

    res = quad_oscillatory(integrand, x1, math.inf, kappa,
                           damping_scale=1.0 / rho)
    return res.value


@functools.lru_cache(maxsize=64)
def _chebyshev(m: int) -> tuple:
    """The m Chebyshev points cos(pi (k + 1/2)/m), k = 0 .. m - 1, and the
    discrete cosine transform that takes the values there to the
    coefficients of their interpolant, read-only.  quad_nested takes m
    from 12 to 66, so the cache holds every size; each is built once and
    shared, and the arrays are frozen so no caller can alter a shared
    table."""
    import numpy as np
    theta = np.pi * (np.arange(m) + 0.5) / m
    cheb = np.cos(theta)
    to_coef = np.cos(np.multiply.outer(np.arange(m), theta)) * (2.0 / m)
    to_coef[0] *= 0.5
    cheb.flags.writeable = False
    to_coef.flags.writeable = False
    return cheb, to_coef


def _clenshaw(coef, u):
    """The Chebyshev series sum_k coef[k] T_k(u), elementwise in the real
    array u, by Clenshaw's recurrence (Math. Comp. 9 (1955) 118), in three
    reused complex buffers.  2u is cast to complex once, to the values
    numpy's mixed real-complex product would cast it to at every step."""
    import numpy as np
    u2 = (2.0 * u).astype(complex)
    b1 = np.zeros(u.shape, complex)
    b2 = np.zeros(u.shape, complex)
    t = np.empty(u.shape, complex)
    for c in coef[:0:-1]:
        # b1, b2 = c + 2u b1 - b2, b1
        np.multiply(u2, b1, out=t)
        t += c
        t -= b2
        b1, b2, t = t, b1, b2
    np.multiply(u, b1, out=t)
    t += coef[0]
    t -= b2
    return t


def _times(a, b):
    """The elementwise product of two complex arrays of one shape, from
    their real and imaginary parts: numpy's AVX2 complex multiply fuses
    multiply-adds, so its last bits depend on the CPU."""
    import numpy as np
    out = np.empty(a.shape, complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def quad_nested(order: int, kappa: float, delta_s: float,
                x1: float = NESTED_X_START, nodes: int = 64) -> OracleResult:
    """Nested radial integrals of a time-budget-limited scattering chain.

    Evaluates, by nested Gauss-Legendre quadrature,

        I_n = int ... int  exp[i kappa (x1 + r_1 + ... + r_n)]  dr_1 ... dr_n

    over r_k >= 0 with r_1 + ... + r_n <= delta_s: each extra leg eats into
    the shared path-length budget delta_s.  The outermost leg r_n starts at
    x1 and every inner leg at 0, so the arguments are those of the closed
    form refraction.nested_phase_integral, and x1 enters only through the
    overall factor exp(i kappa x1).

    Level j (1 innermost, n outermost) depends on the legs outside it only
    through their sum s = r_{j+1} + ... + r_n in [0, delta_s], that is,
    only through the remaining budget delta_s - s.  So each inner level is
    tabulated once, not summed again for every outer node.  With
    s = delta_s (1 + t)/2, level j is summed by the nodes-point Gauss rule
    at M Chebyshev points t, and its values there become the coefficients
    of its Chebyshev interpolant.  Level j + 1 reads that series by
    Clenshaw's recurrence at its own Gauss nodes g, which in level j's
    variable sit at u = t + (1 - t)(1 + g)/2: they depend on M and nodes
    only.  The outermost level has s = 0, so t = -1 and u = g.  Every
    inner level has the same legs at the same Chebyshev points, so a run
    forms their Gauss terms once, in one M x nodes table: level 1 sums it,
    and each later level sums its product with the Clenshaw values.  The
    outermost level takes its own nodes-point table at x1.  The Chebyshev
    points and the values-to-coefficients matrix depend on M only, and
    each size is built once and kept, read-only.  Each level
    is an entire function of s that turns through about |kappa| delta_s
    radians over its range, and M = ceil(|kappa| delta_s) + 16 resolves it
    to rounding at every |kappa| delta_s up to 50 (Trefethen, Approximation
    Theory and Approximation Practice, SIAM 2013, ch. 8).  The work is
    O(order M^2 nodes), not O(nodes^order).  Only quadrature and
    polynomial interpolation are used, never a closed form of the integral.

    The check run takes nodes // 2 Gauss points (2 when nodes is 1) and
    M - 4 Chebyshev points, coarser in both.  error_estimate is the
    difference of the two runs plus a bound on their rounding,
    8 u (|kappa| (delta_s + |x1|) + M) times the sum of the moduli of
    the outermost level's terms, with u = 2**-53: the phases round in
    proportion to their size, and each Chebyshev sum takes M terms.  On
    1200 seeded points (orders 1 to 4, kappa of either sign, |kappa| delta_s
    log-uniform on [0.1, 50], x1 drawn from [-1.5, 1.5]) the actual error
    against a 60-digit value stayed below 0.9 u times the same product.
    evaluations counts the phase factors both runs take, nodes (1 +
    (order - 1) M) each.

    An order that is not an integer >= 1, a non-finite kappa, delta_s or
    x1, a negative delta_s, or a nodes that is not an integer from 1 to
    100 (the largest rule checked against a reference) raises DomainError
    before any quadrature.  An order above 4, or |kappa| delta_s above 50,
    the envelope in which the tabulation was measured, raises
    PreconditionError.
    """
    order = checked_int("order", order)
    if order > 4:
        raise PreconditionError("order must be between 1 and 4")
    nodes = checked_int("nodes", nodes, _MAX_RULE)
    refuse_non_finite(kappa=kappa, delta_s=delta_s, x1=x1)
    if delta_s < 0:
        raise DomainError(f"delta_s must be >= 0, got {delta_s!r}")
    if abs(kappa) * delta_s > 50:
        raise PreconditionError("kappa*delta_s above 50, the measured accuracy envelope")
    cheb_points = math.ceil(abs(kappa) * delta_s) + 16
    import numpy as np

    def run(n_nodes: int, m: int) -> tuple:
        # (I_n, sum of the moduli of the outermost level's terms)
        g, w = _leggauss(n_nodes)
        # the outermost level has s = 0, so t = -1 and its nodes sit at
        # u = g; its leg starts at x1
        half = 0.25 * delta_s * (1.0 - -1.0)
        terms = w * np.exp(1j * kappa * (x1 + half * (1.0 + g)))
        if order > 1:
            cheb, to_coef = _chebyshev(m)
            # every inner level has the same legs at the same Chebyshev
            # points: one table of half-widths and Gauss terms serves all
            half_in = 0.25 * delta_s * (1.0 - cheb)
            table = w * np.exp(1j * kappa * np.multiply.outer(half_in, 1.0 + g))
            # the nodes of level j + 1 in the variable of level j
            u = cheb[:, None] + np.multiply.outer(0.5 * (1.0 - cheb), 1.0 + g)
            # level 1 sums the table; each later level first reads the
            # interpolant of the level below at its nodes
            sums = table.sum(axis=1)
            for _ in range(2, order):
                coef = (to_coef * (half_in * sums)).sum(axis=1)
                sums = _times(table, _clenshaw(coef, u)).sum(axis=1)
            coef = (to_coef * (half_in * sums)).sum(axis=1)
            terms = _times(terms, _clenshaw(coef, g))
        moduli = np.hypot(terms.real, terms.imag).sum()
        return complex(half * terms.sum()), float(half * moduli)

    check_nodes, check_points = nodes // 2 or 2, cheb_points - 4
    value, moduli = run(nodes, cheb_points)
    check, _ = run(check_nodes, check_points)
    rounding = 8 * 2.0 ** -53 * moduli \
        * (abs(kappa) * (delta_s + abs(x1)) + cheb_points)
    return OracleResult(value, abs(value - check) + rounding,
                        sum(n * (1 + (order - 1) * m) for n, m in
                            ((nodes, cheb_points), (check_nodes, check_points))))


def mc_ordered_volume(order: int, length: float, samples: int,
                      seed: int = 0) -> OracleResult:
    """Monte Carlo volume of the ordered region x_1 >= x_2 >= ... >= x_n
    inside the cube [-L/2, L/2]^n.  Target value L^n/n!.

    Returns the estimate with a one-sigma binomial error bar.  order 1 is
    degenerate (the answer is exactly L) and is returned without sampling.

    The points are drawn batch by batch into one reused buffer of at most
    order * _MC_BATCH doubles (512 KB at order 8), and the ordering test is
    formed in two reused boolean masks.  PCG64 fills the buffer's rows
    with the same doubles, in the same order, as one draw of all samples,
    so the estimate does not depend on the batch size.

    A seed that is not an integer >= 0 (None included, which would seed
    from OS entropy) raises DomainError, as does an order that is not an
    integer >= 1, a non-finite or non-positive length or a samples that is
    not an integer >= 1.  An order above 8 raises PreconditionError.
    """
    order = checked_int("order", order)
    if order > 8:
        raise PreconditionError("order must be between 1 and 8")
    refuse_non_finite(length=length)
    if length <= 0:
        raise DomainError("length must be positive")
    samples = checked_int("samples", samples)
    seed = checked_int("seed", seed, least=0)
    if order == 1:
        return OracleResult(complex(length), 0.0, 0)
    import numpy as np
    rng = np.random.Generator(np.random.PCG64(seed))
    # one batch buffer and two masks, reused: a C-contiguous row slice of
    # buf takes the same doubles from the stream as a fresh (n, order) draw
    batch = min(_MC_BATCH, samples)
    buf = np.empty((batch, order))
    ordered = np.empty(batch, bool)
    pair = np.empty(batch, bool)
    hits = 0
    done = 0
    while done < samples:
        n = min(batch, samples - done)
        pts = rng.random(out=buf[:n])
        ok = np.greater_equal(pts[:, 0], pts[:, 1], out=ordered[:n])
        for k in range(1, order - 1):
            ok &= np.greater_equal(pts[:, k], pts[:, k + 1], out=pair[:n])
        hits += int(np.count_nonzero(ok))
        done += n
    p = hits / samples
    vol = length ** order
    err = vol * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    return OracleResult(complex(vol * p), err, samples)


def gaussian_ratio_integral(weight: Callable, phase: Callable,
                            a: float, b: float) -> OracleResult:
    """Phase average  int w(p) e^{i phi(p)} dp / int w(p) dp.

    weight and phase must accept numpy arrays.  The window [a, b] must
    cover the weight's support (e.g. mean +- 8 sigma for a Gaussian).  It
    is split into 100 equal panels: the value takes the 20-point
    Gauss-Legendre rule on each panel, and the error estimate is its
    difference from the 10-point rule on the same panels.  The two rules
    share no node, so weight and phase are evaluated at 30 points per
    panel.

    A non-finite a or b, or b <= a, raises DomainError.  A weight integral
    that is 0, subnormal or not finite (a weight that vanishes on the
    window or overflows), or a numpy float64 overflow or invalid operation
    in the integrand or the sums, raises ConvergenceError.
    """
    refuse_non_finite(a=a, b=b)
    if b <= a:
        raise DomainError("need b > a")
    import numpy as np
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            fine = _ratio(weight, phase, a, b, 2 * _OSC_NODES)
            coarse = _ratio(weight, phase, a, b, _OSC_NODES)
    except FloatingPointError as exc:
        raise ConvergenceError(f"Gaussian-ratio quadrature left float64: {exc}") from None
    return OracleResult(fine, abs(fine - coarse), _RATIO_PANELS * 3 * _OSC_NODES)


def _ratio(weight, phase, a, b, nodes: int) -> complex:
    """The ratio on the composite rule of nodes points per panel."""
    import numpy as np
    p, w = _composite(a, 0.5 * (b - a) / _RATIO_PANELS, _RATIO_PANELS, nodes)
    wt = (weight(p).reshape(_RATIO_PANELS, nodes) * w).ravel()
    den = wt.sum()
    if not sys.float_info.min <= abs(den) < math.inf:
        # below the smallest normal double the sums carry few digits: on
        # exp(-p^2) over [27, 28] the ratio came out 2e-4 off
        raise ConvergenceError(
            f"weight integral {float(den)!r} is 0, subnormal or not finite")
    ph = phase(p)
    return complex((wt * np.cos(ph)).sum(), (wt * np.sin(ph)).sum()) / den


def _mantissa(x: float) -> tuple[int, int]:
    """(m, s) with x == m * 2**-s exactly and m an integer below 2**53."""
    frac, exp = math.frexp(x)
    return int(math.ldexp(frac, 53)), 53 - exp


def series_sum_highprec(delta_phi: float, beta_l: float):
    """Arbitrary-precision sum of the time-budgeted multiple-scattering
    series, for regimes where float64 summation is meaningless
    (beta_l up to a few thousand):

        S = sum_{n=0}^{N} (i beta_l)^n / n!
                * (1 - e^{i dphi} sum_{k<n} (-i dphi)^k / k!)

    with N = int(beta_l + dphi + 12 sqrt(beta_l + dphi) + 40) orders.

    Returns an mpmath complex; magnitudes can exceed float range.  mpmath
    is not a runtime dependency of the package (it comes with the ``test``
    extra), and no command calls this function.  Working
    precision is chosen from beta_l so that the catastrophic cancellation
    among terms of size ~exp(beta_l) leaves >= 25 significant digits:
    dps = 30 + (1.1 beta_l + 0.7 dphi) / ln 10 decimal digits.

    The terms are summed one by one, as written, in fixed-point integers.
    Split S = S1 - e^{i dphi} S2 with S1 = sum_n i^n t_n and
    S2 = sum_{n>=1} i^n u_n, where t_n = beta_l^n / n! and
    u_n = t_n sum_{k<n} (-i dphi)^k / k!.  With v_n = t_n dphi^n / n!,

        i^n t_n = i (beta_l / n) i^{n-1} t_{n-1},
        i^n u_n = i (beta_l / n) (i^{n-1} u_{n-1} + v_{n-1}),
        v_n = v_{n-1} beta_l dphi / n^2.

    Each step multiplies by the exact 53-bit integer mantissa of beta_l or
    dphi (from math.frexp), divides by n or n^2, and turns multiplication
    by i into a swap of real and imaginary parts, so its cost is linear in
    the size of the numbers; no two full-size numbers are multiplied.
    t, u and v are Python integers scaled by 2**P, with
    P = ceil(dps log2 10) + 64 guard bits: a step rounds by a few units of
    2**-P, and the accumulated error stays below the 10**-dps of the
    largest term that a floating-point sum at dps digits makes.  Only
    (S1 - S2) + (1 - e^{i dphi}) S2 is formed in mpmath, at dps digits.
    The recurrences come from the series itself, not from any closed form
    of S, so an agreement with a closed form remains evidence.
    """
    refuse_non_finite(delta_phi=delta_phi, beta_l=beta_l)
    if beta_l < 0 or delta_phi < 0:
        raise DomainError("beta_l and delta_phi must be >= 0")
    from mpmath import expj, mpc, mpf, workdps

    dps = int(30 + 1.1 * beta_l / math.log(10) + 0.7 * delta_phi / math.log(10))
    n_max = int(beta_l + delta_phi + 12 * math.sqrt(beta_l + delta_phi) + 40)
    prec = math.ceil(dps * math.log2(10)) + 64
    mb, sb = _mantissa(beta_l)
    md, sd = _mantissa(delta_phi)
    mbd, sbd = mb * md, sb + sd
    # i^n t_n and i^n u_n as (real, imaginary) pairs; t and u take the same
    # steps, so at dphi = 0 (v = 0 after n = 0) they stay equal bit for bit
    tr, ti = 1 << prec, 0
    ur, ui = 0, 0
    v = 1 << prec
    s1r, s1i, s2r, s2i = tr, 0, 0, 0
    for n in range(1, n_max + 1):
        tr, ti = -(((ti * mb) >> sb) // n), ((tr * mb) >> sb) // n
        ur, ui = -(((ui * mb) >> sb) // n), (((ur + v) * mb) >> sb) // n
        v = ((v * mbd) >> sbd) // (n * n)
        s1r += tr
        s1i += ti
        s2r += ur
        s2i += ui
    with workdps(dps):
        # S1 - e^{i dphi} S2 = (S1 - S2) + (1 - e^{i dphi}) S2, with S1 - S2
        # taken exactly, so at dphi = 0 every kernel vanishes and S == 1
        diff = mpc(mpf((s1r - s2r, -prec)), mpf((s1i - s2i, -prec)))
        sum2 = mpc(mpf((s2r, -prec)), mpf((s2i, -prec)))
        return diff + (1 - expj(mpf(delta_phi))) * sum2
