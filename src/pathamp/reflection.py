"""Normal-incidence reflection from path sums over back-scattering depths.

Summing the back-scattered path amplitudes over atom depth with the
half-period-zone rule gives a reflected amplitude -(n2 - n1)/(2 n1^2 n2)
relative to the incident one: smaller than the classical Fresnel value,
with a definite pi phase shift when the far medium is denser.  Restricting
the depth integral to a thin film turns the half-space value into the
factor (1 - e^{2 i kappa n t}), giving the quarter-wave and half-wave
special cases exactly.
"""

from __future__ import annotations

import math

from pathamp.core_num import DomainError, Record, phase_exp, refuse_non_finite, wavenumber


class ReflectionSetup(Record):
    """Normal-incidence reflection measurement.

    n1: index on the incidence side (1 for vacuum); n2: index of the
    reflecting half-space; t_hsm: transmission modulus of the half-silvered
    mirror used to compare the reflected and reference rates.  A film is
    described by ``thin_film_coeff`` instead.
    """

    __slots__ = ("n1", "n2", "t_hsm")
    _defaults = {"t_hsm": 1.0}

    def __post_init__(self):
        refuse_non_finite(n1=self.n1, n2=self.n2)
        if self.n1 < 1.0 or self.n2 < 1.0:
            raise DomainError("indices must be >= 1")
        if not 0.0 < self.t_hsm <= 1.0:
            raise DomainError("t_hsm must lie in (0, 1]")


def reflection_amplitude_path(n1: float, n2: float) -> float:
    """Signed reflected amplitude -(n2 - n1)/(2 n1^2 n2) from the path sum
    (relative to the incident amplitude; real by construction).
    DomainError where n1^2 or the denominator passes the largest double,
    which would raise OverflowError or give an amplitude of 0.0."""
    refuse_non_finite(n1=n1, n2=n2)
    if n1 < 1.0 or n2 < 1.0:
        raise DomainError("indices must be >= 1")
    try:
        # ** 2, not a product: the two round some doubles differently
        n1_sq = n1 ** 2
    except OverflowError:
        raise DomainError(f"n1^2 at n1 = {n1!r} overflows a double") from None
    den = 2.0 * n1_sq * n2
    if den == math.inf:
        raise DomainError(f"2 n1^2 n2 at n1 = {n1!r}, n2 = {n2!r} overflows a double")
    return -(n2 - n1) / den


def reflection_coeff_path(n1: float, n2: float) -> float:
    """Path-sum reflection coefficient |(n2 - n1)/(2 n1^2 n2)|^2; reduces to
    ((n-1)/(2n))^2 against vacuum."""
    return reflection_amplitude_path(n1, n2) ** 2


def reflection_coeff_fresnel(n1: float, n2: float) -> float:
    """Classical normal-incidence coefficient ((n2 - n1)/(n2 + n1))^2."""
    refuse_non_finite(n1=n1, n2=n2)
    if n1 < 1.0 or n2 < 1.0:
        raise DomainError("indices must be >= 1")
    return ((n2 - n1) / (n2 + n1)) ** 2


def reflection_phase_path(n1: float, n2: float) -> float:
    """Phase of the reflected amplitude: pi when entering a denser medium
    (n2 > n1), 0 when leaving one.  Undefined at n1 = n2, where the
    back-scattered amplitude vanishes by destructive interference."""
    refuse_non_finite(n1=n1, n2=n2)
    if n1 == n2:
        raise DomainError("reflected amplitude vanishes for n1 = n2;"
                          " no phase is defined")
    return math.pi if n2 > n1 else 0.0


def rate_ratio(setup: ReflectionSetup) -> float:
    """Counting-rate ratio reflected/reference in the half-silvered-mirror
    comparison: rho_path / t_hsm^2 (the two detectors subtend equal solid
    angles by construction of the layout)."""
    t2 = setup.t_hsm ** 2
    if t2 == 0:
        raise DomainError("t_hsm^2 underflows a double")
    return reflection_coeff_path(setup.n1, setup.n2) / t2


def thin_film_coeff(n: float, wavelength: float, thickness: float) -> float:
    """Reflection coefficient of a free-standing film of index n:
    rho_half_space * |1 - e^{2 i kappa n t}|^2.

    Quarter-wave thickness lambda(1+2p)/(4n) gives exactly four times the
    half-space coefficient; half-wave thickness lambda(1+p)/(2n) gives
    exactly zero.  Intermediate values follow from restricting the depth
    integral to the film and are model-derived rather than independently
    benchmarked.
    """
    refuse_non_finite(n=n, thickness=thickness)
    if thickness <= 0:
        raise DomainError("thickness must be positive")
    kappa = wavenumber(wavelength)
    rho = reflection_coeff_path(1.0, n)
    return rho * abs(1.0 - phase_exp(2j * kappa * n * thickness, "2 kappa n thickness")) ** 2


class FresnelComparison(Record):
    """Both normalisations of the path-sum vs Fresnel gap at one interface."""

    __slots__ = (
        "rho_path",
        "rho_fresnel",
        "fresnel_excess",           # rho_fresnel/rho_path - 1
        "path_deficit",             # 1 - rho_path/rho_fresnel
    )


def fresnel_comparison(n1: float, n2: float) -> FresnelComparison:
    """Path-sum and Fresnel coefficients with the gap quoted both ways
    (the two normalisations differ: ~44% vs ~31% at n = 1.5)."""
    rp = reflection_coeff_path(n1, n2)
    rf = reflection_coeff_fresnel(n1, n2)
    if rp == 0.0:
        return FresnelComparison(rp, rf, 0.0, 0.0)
    return FresnelComparison(rp, rf, rf / rp - 1.0, 1.0 - rp / rf)
