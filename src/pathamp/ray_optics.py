"""Ray laws from stationary phase.

The detection probability is maximised where the phase of the path
amplitude is stationary under transverse displacement of the trajectory's
interface crossing.  Solving the stationarity condition numerically
reproduces Snell's law, the law of reflection and rectilinear propagation;
the phase is proportional to the effective propagation time, so the same
stationary point expresses Fermat's principle.  Second derivatives at the
stationary point quantify how tightly the contributing paths cluster
around the classical ray.
"""

from __future__ import annotations

import math

from pathamp.core_num import CONSTANTS, DiscrepancyFlag, DomainError, Record, refuse_non_finite

# detector-angle bracket of the stationary-point searches
_WINDOW = (0.0, math.pi / 2 - 1e-6)


class TotalInternalReflection(DomainError):
    """No transmitted ray exists; carries the critical angle in radians."""

    def __init__(self, n1: float, n2: float):
        self.critical_angle = math.asin(n2 / n1)
        super().__init__(
            f"total internal reflection: critical angle "
            f"{math.degrees(self.critical_angle):.3f} deg for n1={n1}, n2={n2}")


class InterfaceGeometry(Record):
    """Plane interface between media of indices n1 (incidence side,
    in-medium segment of length ``segment``) and n2 (detector side).

    alpha is the angle between the incident segment and the interface
    plane, so the incidence angle to the normal is theta_i = pi/2 - alpha.
    The detector sits in a plane at distance ``d`` from the interface; its
    position is parametrised by the polar angle theta (r = d/cos(theta)).
    """

    __slots__ = ("n1", "n2", "alpha", "d", "segment")

    def __post_init__(self):
        # NaN passes the comparisons below; an infinite index or length
        # gives a meaningless geometry
        refuse_non_finite(n1=self.n1, n2=self.n2, d=self.d, segment=self.segment)
        if self.n1 < 1.0 or self.n2 < 1.0:
            raise DomainError("indices must be >= 1")
        if self.d <= 0 or self.segment <= 0:
            raise DomainError("d and segment must be positive")
        if not 0.0 < self.alpha <= math.pi / 2:
            raise DomainError("alpha must lie in (0, pi/2]")

    def detector_r(self, theta: float) -> float:
        return self.d / math.cos(theta)


def _displaced_lengths(geom: InterfaceGeometry, theta: float,
                       big_r: float, phi1: float) -> tuple[float, float]:
    """Leg lengths (r', l') after displacing the interface crossing by
    (big_r, phi1) in the interface plane, for a detector at polar angle
    theta in the plane of incidence."""
    t = geom.d * math.tan(theta)
    rp2 = ((t - big_r * math.cos(phi1)) ** 2
           + (big_r * math.sin(phi1)) ** 2
           + geom.d ** 2)
    lp = geom.segment + big_r * math.cos(phi1) * math.cos(geom.alpha)
    return math.sqrt(rp2), lp


def path_phase(geom: InterfaceGeometry, kappa: float, theta: float,
               big_r: float = 0.0, phi1: float = 0.0) -> float:
    """Optical phase kappa (n2 r' + n1 l') of the displaced trajectory."""
    rp, lp = _displaced_lengths(geom, theta, big_r, phi1)
    return kappa * (geom.n2 * rp + geom.n1 * lp)


def snell_angle(n1: float, n2: float, theta_i: float) -> float:
    """Refraction angle arcsin((n1/n2) sin theta_i).

    Raises TotalInternalReflection (carrying the critical angle) when
    (n1/n2) sin theta_i > 1.
    """
    refuse_non_finite(n1=n1, n2=n2)
    if n1 < 1.0 or n2 < 1.0:
        raise DomainError("indices must be >= 1")
    if not 0.0 <= theta_i < math.pi / 2:
        raise DomainError("theta_i must lie in [0, pi/2)")
    s = n1 * math.sin(theta_i) / n2
    if s > 1.0:
        raise TotalInternalReflection(n1, n2)
    return math.asin(s)


class StationaryPoint(Record):
    __slots__ = ("theta", "residual")


def _window_root(f) -> float:
    """Root of f over the detector-angle window ``_WINDOW``, by bisection
    until the bracket's ends are adjacent doubles; returns the end where
    |f| is smaller, or a point where f is exactly 0.

    Raises DomainError if f is NaN where it is evaluated or has the same
    sign at both ends of the window.
    """

    def fx(x: float) -> float:
        y = f(x)
        if math.isnan(y):
            raise DomainError(f"residual is NaN at {x!r}")
        return y

    lo, hi = _WINDOW
    flo, fhi = fx(lo), fx(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise DomainError(
            f"no stationary point in window ({lo:.4g}, {hi:.4g}):"
            f" residuals {flo:.4g}, {fhi:.4g}")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        fmid = fx(mid)
        if fmid == 0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        mid = 0.5 * (lo + hi)
    return lo if abs(flo) <= abs(fhi) else hi


def stationary_phase_angle(geom: InterfaceGeometry) -> StationaryPoint:
    """Detector angle on the outgoing side (index n2) at which the path
    phase is stationary under transverse displacement of the interface
    crossing; it matches Snell's law.

    The azimuthal derivative vanishes identically at zero displacement, so
    the residual is the displacement gradient per unit kappa,
    n1 cos(alpha) - n2 sin(theta), from differentiating the displaced leg
    lengths; the stationary point does not depend on kappa.  The law of
    reflection theta_R = theta_i is this search on the mirrored geometry
    ``InterfaceGeometry(n1, n1, alpha, d, segment)``, whose outgoing leg
    stays in the incidence medium.
    """

    def residual(theta: float) -> float:
        return geom.n1 * math.cos(geom.alpha) - geom.n2 * math.sin(theta)

    theta = _window_root(residual)
    return StationaryPoint(theta, abs(residual(theta)))


def phase_curvature(geom: InterfaceGeometry, kappa: float, theta: float) -> float:
    """In-plane curvature d^2(phase)/d(big_r)^2 of ``path_phase`` at zero
    displacement: kappa n2 cos^2(theta)/r with r = d/cos(theta).  Only the
    outgoing leg r' = sqrt((d tan(theta) - big_r)^2 + d^2) bends, and
    d^2 r'/d big_r^2 = d^2/r^3 there, at any theta."""
    return kappa * geom.n2 * math.cos(theta) ** 2 / geom.detector_r(theta)


class TrajectorySpread(Record):
    __slots__ = ("dtheta", "dx", "dy")     # rad, m, m


def trajectory_spread(kappa: float, n2: float, r: float,
                      theta_o: float) -> TrajectorySpread:
    """Half-widths of the path bundle around the classical ray, at the
    displacement where the phase has moved pi off its stationary value:

        dtheta = sqrt(lambda/(n2 r)),  dx = sqrt(lambda r / n2),
        dy = dx * sec(theta_o).

    A kappa or r that is not finite and > 0, an n2 that is not finite and
    >= 1, or a non-finite theta_o raises DomainError.
    """
    refuse_non_finite(kappa=kappa, n2=n2, r=r, theta_o=theta_o)
    if not (kappa > 0 and r > 0 and n2 >= 1.0):
        raise DomainError("kappa, r must be finite and positive, n2 finite and >= 1"
                          " and theta_o finite")
    lam = 2.0 * math.pi / kappa
    dtheta = math.sqrt(lam / (n2 * r))
    dx = math.sqrt(lam * r / n2)
    return TrajectorySpread(dtheta, dx, dx / math.cos(theta_o))


def spread_benchmark_flag() -> DiscrepancyFlag:
    """Reference check for the transverse-spread formulas at the sodium
    benchmark (lambda = 5.9e-7 m, n = 1.5, r = 1 m): the formula gives
    dx = 6.3e-4 m, while the commonly quoted figure is 6.3e-4 cm -- which
    numerically matches the angular spread in radians instead."""
    spread = trajectory_spread(2.0 * math.pi / 5.9e-7, 1.5, 1.0, 0.0)
    return DiscrepancyFlag(
        "transverse_spread_m", spread.dx, 6.3e-6,
        "quoted transverse figure coincides with the angular spread in"
        " radians; the formulas are implemented as stated")


def effective_propagation_time(geom: InterfaceGeometry, theta: float) -> float:
    """T_eff = l/v1 + r/v2 with v_i = c/n_i: the phase equals
    kappa c T_eff exactly, so stationary phase is stationary time."""
    r = geom.detector_r(theta)
    return (geom.segment * geom.n1 + r * geom.n2) / CONSTANTS.c


def fermat_stationary_angle(geom: InterfaceGeometry) -> float:
    """Detector angle at which the effective propagation time is stationary
    under in-plane displacement of the crossing point, computed from travel
    times alone (independent of the phase machinery), searched over the
    window of ``stationary_phase_angle``.  Like that search, it gives the
    reflection angle on the mirrored geometry ``InterfaceGeometry(n1, n1, ...)``."""

    def dt_dr(theta: float) -> float:
        # step large enough that the travel-time difference clears the
        # float rounding floor; central-difference truncation is O(h^2)
        # and stays far below the root-location tolerance
        h = 1e-6 * geom.d

        def t_of_r(big_r: float) -> float:
            rp, lp = _displaced_lengths(geom, theta, big_r, 0.0)
            return (lp * geom.n1 + rp * geom.n2) / CONSTANTS.c

        return (t_of_r(h) - t_of_r(-h)) / (2.0 * h)

    return _window_root(dt_dr)
