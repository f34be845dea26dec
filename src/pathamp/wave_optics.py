"""Spherical-wave fields, diffraction amplitudes, and the half-period-zone
evaluation rule for radial oscillatory integrals.

A photon path amplitude picks up no phase in flight (the phase of a
light-like propagator vanishes); the spatial interference structure comes
entirely from the source-state propagator evaluated at the emission time
each path geometry forces.  The resulting field on the far side of a
diffracting screen is a spherical wave, and summing paths over a transverse
plane reproduces rectilinear propagation provided the forward diffraction
amplitude equals -i*kappa/(2 pi).
"""

from __future__ import annotations

import cmath
import math

from pathamp.core_num import CONSTANTS, DomainError, Record, phase_exp, refuse_non_finite
from pathamp.propagators import EmitterSpec


class DiffractionGeometry(Record):
    """Source -> hole -> detector geometry.

    r: source-to-hole distance (m), r1: hole-to-detector distance (m),
    hole_area: area of the hole (m^2), used as the path-counting weight.
    Both legs meet the screen at normal incidence.
    """

    __slots__ = ("r", "r1", "hole_area")
    _defaults = {"hole_area": 1e-12}

    def __post_init__(self):
        if min(self.r, self.r1, self.hole_area) <= 0:
            raise DomainError("r, r1 and hole_area must be positive")


def spherical_wave(kappa: float, r1: float) -> complex:
    """Outgoing spherical wave e^{i kappa r1}/r1 (1/m)."""
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    if r1 <= 0:
        raise DomainError("r1 must be positive")
    return cmath.exp(1j * kappa * r1) / r1


def diffraction_amplitude(kappa: float, alpha: float, alpha1: float) -> complex:
    """Forward diffraction amplitude -(i kappa/4 pi)(cos alpha + cos alpha1),
    in 1/m.  At normal incidence both cosines are 1 and the value reduces to
    -i/lambda.  A kappa that is not finite and > 0, or a non-finite angle,
    raises DomainError.
    """
    refuse_non_finite(kappa=kappa, alpha=alpha, alpha1=alpha1)
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    return -1j * kappa / (4.0 * math.pi) * (math.cos(alpha) + math.cos(alpha1))


def half_period_zone_integral(kappa: float, x1: float) -> complex:
    """Contribution of the first half-period zone of the radial integral
    int e^{i kappa r1} dr1 starting at x1:  (2i/kappa) e^{i kappa x1}.

    Modulus 2/kappa, phase kappa*x1 + pi/2.  The evaluation rule for the
    full (boundary-regularised) radial integral is one half of this value;
    see ``huygens_zone_value``.
    """
    if kappa <= 0 or x1 <= 0:
        raise DomainError("kappa and x1 must be positive")
    return 2j * phase_exp(1j * kappa * x1, "kappa x1") / kappa


def huygens_zone_value(kappa: float, x1: float) -> complex:
    """Half the first half-period zone: the value assigned to the full
    radial integral int_{x1}^{inf} e^{i kappa r1} dr1."""
    return 0.5 * half_period_zone_integral(kappa, x1)


def hole_path_amplitude(emitter: EmitterSpec, geom: DiffractionGeometry,
                        t_d: float) -> complex:
    """Path amplitude (1/m) for source -> hole -> detector at detection
    time t_d.

    The product of the free-flight factors, the diffraction amplitude
    weighted by the hole area, and the source propagator evaluated at the
    emission time the geometry forces:

        1/(r r1) * A_diff * dS * exp[-(i kappa + rho)(c t_d - r - r1)]

    with the source prepared at t = 0 and both legs at normal incidence.
    Paths that would require emission before the source existed
    (c t_d < r + r1) have exactly zero amplitude.
    """
    budget = CONSTANTS.c * t_d - geom.r - geom.r1
    if budget < 0:
        return 0.0 + 0.0j
    adiff = diffraction_amplitude(emitter.kappa, 0.0, 0.0)
    geom_factor = adiff * geom.hole_area / (geom.r * geom.r1)
    return geom_factor * cmath.exp(-(1j * emitter.kappa + emitter.rho) * budget)


def plane_sum_factor(kappa: float, x1: float) -> complex:
    """Net factor from summing diffracted paths over a full transverse plane
    at distance x1 short of the detector.

    Writing the plane sum as 2 pi A_diff(0,0) times the radial integral, the
    half-period-zone rule gives exactly e^{i kappa x1}: the plane of
    secondary sources reproduces direct rectilinear propagation over the
    remaining distance.  Its brute-force check replaces the rule's radial
    value ``huygens_zone_value`` by ``oracle.damped_radial_integral``, whose
    factor e^{-rho (r1-x1)} is a mathematical (Abel) regulator of the
    half-zone value, not the source's decay: at a fixed detection time a
    longer detour makes ``hole_path_amplitude`` larger, not smaller.
    """
    adiff = diffraction_amplitude(kappa, 0.0, 0.0)
    return 2.0 * math.pi * adiff * huygens_zone_value(kappa, x1)


def direct_factor(kappa: float, x1: float) -> complex:
    """Phase factor e^{i kappa x1} of the direct path over the same distance."""
    return cmath.exp(1j * kappa * x1)
