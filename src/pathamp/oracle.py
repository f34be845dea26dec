"""Independent brute-force numerical machinery.

Everything here is deliberately dumb: period-segmented Gauss-Legendre sums
for oscillatory integrals, nested Gauss-Legendre quadrature for nested
integrals (vectorised level by level, with no array holding more than
2**18 innermost points), Monte Carlo for ordered volumes,
arbitrary-precision series summation.  These routines know nothing about
the closed forms they are used to validate, so an agreement is evidence,
not tautology.

Each Gauss-Legendre rule is built once per node count and kept: it
depends only on the count, never on the integrand, so no result is cached.

Monte Carlo uses the counter-based Philox generator, so a fixed seed gives
bit-identical results across platforms.  Samples are drawn in fixed-size
batches by one sequential loop, and the hit count is an exact integer sum,
so a fixed seed and sample count always give the same estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pathamp.core_num import ConvergenceError, DomainError, PreconditionError

# most innermost points one quad_nested array holds (4 MB of complex128)
_NESTED_CAP = 2 ** 18


@dataclass(frozen=True)
class OracleResult:
    """A numerical estimate with its own error estimate and evaluation count."""

    value: complex
    error_estimate: float
    evaluations: int

    @property
    def real(self) -> float:
        return self.value.real


@functools.lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Building a rule costs O(n^3) (0.7 s at n = 2001), so each size is
    built once and shared; the arrays are frozen so no caller can alter a
    shared rule.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_segments(f, edges: np.ndarray, nodes: int):
    """Sum integral over consecutive segments with an n-point Gauss rule.

    Returns (complex total, per-segment complex values).  f must accept a
    numpy array and return an array of complex values.
    """
    x, w = _leggauss(nodes)
    lo = edges[:-1]
    half = 0.5 * np.diff(edges)
    mid = lo + half
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=complex).reshape(pts.shape)
    seg = half * (vals @ w)
    return complex(math.fsum(seg.real), math.fsum(seg.imag)), seg


def _aitken(seq):
    """Iterated Aitken delta-squared acceleration of a complex sequence."""
    s = list(seq)
    while len(s) >= 3:
        nxt = []
        for i in range(len(s) - 2):
            d1 = s[i + 1] - s[i]
            d2 = s[i + 2] - 2 * s[i + 1] + s[i]
            if abs(d2) < 1e-300:
                nxt.append(s[i + 2])
            else:
                nxt.append(s[i] - d1 * d1 / d2)
        s = nxt
    return s[0] if s else 0.0


def quad_oscillatory(f: Callable, a: float, b: float, kappa: float,
                     tol: float = 1e-10, damping_scale: float | None = None,
                     nodes: int = 10, max_segments: int = 2_000_000) -> OracleResult:
    """Integrate a rapidly oscillating complex integrand from a to b.

    kappa is the dominant local phase frequency; the range is split into
    half-period segments of length pi/kappa, each integrated with embedded
    Gauss rules (nodes and 2*nodes points) whose difference provides the
    error estimate.  The integrand must accept a numpy array and return an
    array of complex values.

    An infinite upper limit requires ``damping_scale``, the e-folding length
    of a declared exponential envelope of the integrand.  The half-period
    partial sums then form a nearly geometric sequence which is accelerated
    with iterated Aitken extrapolation, so slowly damped integrands
    (damping_scale >> 1/kappa) are still cheap.
    """
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    seg_len = math.pi / kappa

    if math.isinf(b):
        if damping_scale is None:
            raise PreconditionError(
                "infinite upper limit requires a declared damping envelope")
        n_seg = 64
        edges = a + seg_len * np.arange(n_seg + 1)
        coarse, _unused = _gauss_segments(f, edges, nodes)
        fine, seg_f = _gauss_segments(f, edges, 2 * nodes)
        partials = np.cumsum(seg_f)
        # accelerate the tail of the partial-sum sequence
        acc_full = _aitken(partials[-12:])
        acc_prev = _aitken(partials[-13:-1])
        err = abs(acc_full - acc_prev) + abs(fine - coarse)
        return OracleResult(complex(acc_full), err, n_seg * 3 * nodes)

    if b <= a:
        raise DomainError("need b > a")
    n_seg = max(1, math.ceil((b - a) / seg_len))
    if n_seg > max_segments:
        raise PreconditionError(f"{n_seg} segments exceed budget {max_segments}")
    edges = np.linspace(a, b, n_seg + 1)
    coarse, _ = _gauss_segments(f, edges, nodes)
    fine, _ = _gauss_segments(f, edges, 2 * nodes)
    err = abs(fine - coarse)
    if abs(fine) > 0 and err > max(tol * abs(fine), 1e3 * tol):
        raise ConvergenceError(
            f"oscillatory quadrature did not converge: error {err:.3e}",
            partials=(coarse, fine))
    return OracleResult(fine, err, n_seg * 3 * nodes)


def quad_nested(order: int, kappa: float, delta_s: float,
                x: tuple | None = None, nodes: int = 64) -> OracleResult:
    """Nested radial integrals of a time-budget-limited scattering chain.

    Evaluates, by nested Gauss-Legendre quadrature,

        I_n = int dr_n ... int dr_1  exp[i kappa (r_1 + ... + r_n)]

    with limits  r_n in [x_n, delta_s + x_n]  and, for j < n,
    r_j in [x_j - x_{j+1}, delta_s - (r_{j+1}+...+r_n) + x_j]: each extra
    leg eats into the shared path-length budget delta_s.  x defaults to an
    arbitrary decreasing sequence; the result depends on it only through an
    overall factor exp(i kappa x_1).

    Each inner level is evaluated for all of its outer partial sums at
    once.  The outer nodes are taken in chunks so that no array holds more
    than max(2**18, nodes) innermost points.
    """
    if not 1 <= order <= 4:
        raise PreconditionError("order must be between 1 and 4")
    if kappa * delta_s > 50:
        raise PreconditionError("kappa*delta_s above cost bound 50")
    if x is None:
        x = tuple(0.4 - 0.1 * k for k in range(order))
    if len(x) != order:
        raise DomainError("need one x per integration level")

    def run(n_nodes: int) -> complex:
        glx, glw = _leggauss(n_nodes)

        def level(j: int, rsum: np.ndarray) -> np.ndarray:
            # level j < order for each outer partial sum r_{j+1}+...+r_n
            step = max(1, _NESTED_CAP // n_nodes ** j)
            if len(rsum) > step:
                return np.concatenate([level(j, rsum[i:i + step])
                                       for i in range(0, len(rsum), step)])
            lo = x[j - 1] - x[j]
            hi = delta_s - rsum + x[j - 1]
            half = 0.5 * (hi - lo)
            r = (lo + half)[:, None] + half[:, None] * glx
            terms = glw * np.exp(1j * kappa * r)
            if j > 1:
                inner = level(j - 1, (rsum[:, None] + r).ravel())
                terms = terms * inner.reshape(r.shape)
            return half * np.sum(terms, axis=-1)

        lo, hi = x[order - 1], delta_s + x[order - 1]
        half = 0.5 * (hi - lo)
        r = (lo + half) + half * glx
        terms = glw * np.exp(1j * kappa * r)
        if order > 1:
            terms = terms * level(order - 1, r)
        return half * np.sum(terms)

    def evaluations(n_nodes: int) -> int:
        # n nodes at the outer level, n at each of its n inner levels, ...
        return sum(n_nodes ** k for k in range(1, order + 1))

    check_nodes = max(nodes // 2, 8)
    value, check = run(nodes), run(check_nodes)
    return OracleResult(value, abs(value - check),
                        evaluations(nodes) + evaluations(check_nodes))


def mc_ordered_volume(order: int, length: float, samples: int,
                      seed: int = 0, batch: int = 262144) -> OracleResult:
    """Monte Carlo volume of the ordered region x_1 >= x_2 >= ... >= x_n
    inside the cube [-L/2, L/2]^n.  Target value L^n/n!.

    Returns the estimate with a one-sigma binomial error bar.  order 1 is
    degenerate (the answer is exactly L) and is returned without sampling.
    """
    if not 1 <= order <= 8:
        raise PreconditionError("order must be between 1 and 8")
    if length <= 0:
        raise DomainError("length must be positive")
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if order == 1:
        return OracleResult(complex(length), 0.0, 0)
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    done = 0
    while done < samples:
        n = min(batch, samples - done)
        pts = rng.random((n, order))
        ordered = np.all(pts[:, :-1] >= pts[:, 1:], axis=1)
        hits += int(np.count_nonzero(ordered))
        done += n
    p = hits / samples
    vol = length ** order
    err = vol * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    return OracleResult(complex(vol * p), err, samples)


def gaussian_ratio_integral(weight: Callable, phase: Callable,
                            a: float, b: float,
                            nodes: int = 2001) -> OracleResult:
    """Phase average  int w(p) e^{i phi(p)} dp / int w(p) dp.

    weight and phase must accept numpy arrays.  The window [a, b] must
    cover the weight's support (e.g. mean +- 8 sigma for a Gaussian); the
    integrals are evaluated with a dense Gauss-Legendre rule and the error
    is estimated by comparison with a rule of half the order.
    """
    if b <= a:
        raise DomainError("need b > a")

    def ratio(n: int) -> complex:
        x, w = _leggauss(n)
        half = 0.5 * (b - a)
        p = 0.5 * (a + b) + half * x
        wt = weight(p)
        num = np.sum(w * wt * np.exp(1j * phase(p)))
        den = np.sum(w * wt)
        return complex(num / den)

    fine = ratio(nodes)
    coarse = ratio(nodes // 2)
    return OracleResult(fine, abs(fine - coarse), nodes + nodes // 2)


def series_sum_highprec(delta_phi: float, beta_l: float,
                        n_max: int | None = None):
    """Arbitrary-precision sum of the time-budgeted multiple-scattering
    series, for regimes where float64 summation is meaningless
    (beta_l up to a few thousand).

    Returns an mpmath complex; magnitudes can exceed float range.  Working
    precision is chosen from beta_l so that the catastrophic cancellation
    among terms of size ~exp(beta_l) leaves >= 25 significant digits.
    """
    from mpmath import exp as mp_exp
    from mpmath import mp, mpc, mpf

    if beta_l < 0 or delta_phi < 0:
        raise DomainError("beta_l and delta_phi must be >= 0")
    dps = int(30 + 1.1 * beta_l / math.log(10) + 0.7 * delta_phi / math.log(10))
    if n_max is None:
        n_max = int(beta_l + delta_phi + 12 * math.sqrt(beta_l + delta_phi) + 40)
    old = mp.dps
    try:
        mp.dps = dps
        dp = mpf(delta_phi)
        bl = mpf(beta_l)
        i = mpc(0, 1)
        eid = mp_exp(i * dp)
        term = mpc(1)      # (i beta_l)^n / n!
        esum = mpc(0)      # sum_{k<n} (-i dp)^k / k!
        epow = mpc(1)
        total = mpc(1)
        for n in range(1, n_max + 1):
            term *= i * bl / n
            esum += epow
            epow *= -i * dp / n
            total += term * (1 - eid * esum)
        return total
    finally:
        mp.dps = old
