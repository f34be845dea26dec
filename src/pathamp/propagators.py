"""Space-time and energy-domain propagators of on-shell particles and
excited source states.

Phases rotate clockwise (negatively) with increasing time; every module in
the package shares this sign convention.  Rest-frame evolution is a separate
operation from space-time propagation: the 1/(c*dtau) geometry factor of the
covariant propagator is meaningless for a particle at rest, so callers must
pick ``temporal_propagator`` explicitly for that case.
"""

from __future__ import annotations

import math

from pathamp.core_num import CONSTANTS, DomainError, PreconditionError, Record, phase_exp

_BETA_CONSISTENCY_TOL = 1e-9


class OnShellParticle(Record):
    """A free particle on its mass shell.

    mass_mev is the pole mass in MeV/c^2 (the parameter of the propagator
    exponential, not the event-by-event physical mass), width_mev the decay
    width in MeV (0 for a stable particle), beta = v/c.
    """

    __slots__ = ("mass_mev", "beta", "width_mev")
    _defaults = {"width_mev": 0.0}

    def __post_init__(self):
        if self.mass_mev < 0:
            raise DomainError("pole mass must be >= 0")
        if self.width_mev < 0:
            raise DomainError("width must be >= 0")
        if not 0.0 <= self.beta <= 1.0:
            raise DomainError("beta must lie in [0, 1]")
        if self.beta == 1.0 and self.mass_mev > 0:
            raise DomainError("beta = 1 is only allowed for a massless particle")


class EmitterSpec(Record):
    """An excited source state decaying by photon emission.

    Level energies are pole energies in eV; width_ev is the natural width
    of the upper level.  The excited state is prepared at laboratory
    time 0.
    """

    __slots__ = ("e_upper_ev", "e_lower_ev", "width_ev")

    def __post_init__(self):
        if self.e_upper_ev <= self.e_lower_ev:
            raise DomainError("upper level must lie above lower level")
        if self.width_ev < 0:
            raise DomainError("width must be >= 0")

    @classmethod
    def from_line(cls, wavelength_m: float, lifetime_s: float) -> "EmitterSpec":
        """Build from an emission wavelength and an upper-level lifetime."""
        if wavelength_m <= 0 or lifetime_s <= 0:
            raise DomainError("wavelength and lifetime must be positive")
        gap = CONSTANTS.hc_ev_m / wavelength_m
        width = CONSTANTS.hbar_ev_s / lifetime_s
        return cls(gap, 0.0, width)

    @property
    def kappa(self) -> float:
        """Wavenumber (E_upper - E_lower)/(hbar c) of the emitted photon, 1/m."""
        return (self.e_upper_ev - self.e_lower_ev) / CONSTANTS.hbarc_ev_m

    @property
    def rho(self) -> float:
        """Amplitude damping rate per unit optical path, width/(2 hbar c), 1/m."""
        return self.width_ev / (2.0 * CONSTANTS.hbarc_ev_m)


def covariant_propagator(particle: OnShellParticle, r: float, dt: float) -> complex:
    """Amplitude (1/m) for free flight over distance r (m) in lab time dt (s).

    The modulus is beta/r and the phase is -m c^2 dtau / hbar with
    dtau = dt*sqrt(1-beta^2); for an unstable particle the width damps the
    modulus by exp(-width*dtau/(2 hbar)).  For a massless particle the phase
    is exactly zero: E dt - p r vanishes on a light-like path.

    r and dt must describe on-shell classical propagation, r = beta*c*dt.
    """
    if r <= 0:
        raise DomainError("r must be positive")
    if dt <= 0:
        raise DomainError("dt must be positive")
    if particle.beta == 0.0:
        raise DomainError(
            "covariant propagator is undefined at rest; use temporal_propagator")
    implied = r / (CONSTANTS.c * dt)
    if abs(implied - particle.beta) > _BETA_CONSISTENCY_TOL * max(particle.beta, 1.0):
        raise PreconditionError(
            f"r/(c dt) = {implied:.12g} inconsistent with beta = {particle.beta:.12g}")
    if particle.mass_mev == 0.0 and particle.width_mev == 0.0:
        return complex(particle.beta / r, 0.0)
    dtau = dt * math.sqrt(1.0 - particle.beta ** 2)
    z = -(1j * particle.mass_mev + particle.width_mev / 2.0) * dtau / CONSTANTS.hbar_mev_s
    return (particle.beta / r) * phase_exp(z, "m c^2 dtau/hbar")


def temporal_propagator(emitter: EmitterSpec, dtau: float) -> complex:
    """Rest-frame amplitude for the excited state to survive proper time dtau.

    exp[-(i/hbar)(E_u - E_l - i*width/2) dtau]: the phase advances at the
    transition frequency and the modulus decays as exp(-dtau/(2 tau)).
    """
    if dtau < 0:
        raise DomainError("dtau must be >= 0 (forward proper time only)")
    gap = emitter.e_upper_ev - emitter.e_lower_ev
    z = -1j * (gap - 1j * emitter.width_ev / 2.0) * dtau / CONSTANTS.hbar_ev_s
    return phase_exp(z, "(E_u - E_l) dtau/hbar")


def energy_propagator(e_ev: float, e0_ev: float, width_ev: float) -> complex:
    """Energy-domain propagator hbar/(i(E - E0) - width/2), in seconds.

    |K|^2 is a Lorentzian in E with full width at half maximum equal to
    width_ev: the natural line shape of the decaying state.
    """
    if width_ev <= 0:
        raise DomainError("width must be positive")
    return CONSTANTS.hbar_ev_s / complex(-width_ev / 2.0, e_ev - e0_ev)


def free_decay_detection_probability(t_d: float, t0: float, sigma_t: float,
                                     r: float, tau_s: float) -> float:
    """Detection-probability density at time t_d, in units of its value at
    the onset for sigma_t = 0, for a photon from a source excited at
    Gaussian-smeared time t0 and observed at distance r.

    Gaussian production-time smearing convolved with exponential decay gives
    exp[-(t_d - t0 - r/c - sigma_t^2/(2 tau_s)) / tau_s], valid once
    t_d - t0 - r/c is several sigma_t past the onset.  With sigma_t = 0 the
    density is exactly zero before the light-travel onset t0 + r/c.
    """
    if sigma_t < 0:
        raise DomainError("sigma_t must be >= 0")
    if tau_s <= 0:
        raise DomainError("tau_s must be positive")
    if r <= 0:
        raise DomainError("r must be positive")
    onset = t0 + r / CONSTANTS.c
    if sigma_t == 0.0 and t_d < onset:
        return 0.0
    return math.exp(-(t_d - onset - sigma_t ** 2 / (2.0 * tau_s)) / tau_s)
