import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf
from scipy.integrate import quad

from pathamp.core_num import CONSTANTS, DomainError, PreconditionError
from pathamp.propagators import (
    EmitterSpec,
    OnShellParticle,
    covariant_propagator,
    energy_propagator,
    free_decay_detection_probability,
    temporal_propagator,
)

C = CONSTANTS.c


class TestCovariant:
    def test_photon_has_no_phase(self):
        photon = OnShellParticle(0.0, 1.0)
        amp = covariant_propagator(photon, 2.0, 2.0 / C)
        assert amp == 0.5 + 0.0j

    def test_rest_frame_is_rejected(self):
        # a particle at rest has no space-time propagator; rest-frame
        # evolution must go through temporal_propagator explicitly
        with pytest.raises(DomainError):
            OnShellParticle(1.0, 0.0) and covariant_propagator(
                OnShellParticle(1.0, 0.0), 1.0, 1.0)

    def test_zero_flight_time_refused(self):
        with pytest.raises(DomainError, match="dt must be positive"):
            covariant_propagator(OnShellParticle(0.0, 1.0), 2.0, 0.0)

    def test_beta_consistency_enforced(self):
        p = OnShellParticle(1.0, 0.6)
        with pytest.raises(PreconditionError):
            covariant_propagator(p, 1.0, 1.0)  # r/(c dt) is nowhere near 0.6

    def test_light_speed_massive_particle_rejected(self):
        with pytest.raises(DomainError):
            OnShellParticle(1.0, 1.0)

    def test_massive_phase_against_independent_recomputation(self):
        beta, mass, r = 0.6, 1.0, 1.0
        dt = r / (beta * C)
        amp = covariant_propagator(OnShellParticle(mass, beta), r, dt)
        assert abs(amp) == pytest.approx(beta / r, rel=1e-12)
        # independent high-precision evaluation of the phase, wrapped
        mp.dps = 40
        dtau = mpf(r) / (beta * C) * mpf(0.8)
        expected = -dtau * mass / mpf(CONSTANTS.hbar_mev_s)
        wrapped = float(expected % (2 * mp.pi))
        diff = abs(cmath.exp(1j * cmath.phase(amp)) - cmath.exp(1j * wrapped))
        # the product m*dtau/hbar is ~7e12 rad; float64 rounding of the
        # inputs moves the wrapped phase by ~1e-3 rad
        assert diff < 5e-3

    @given(st.floats(0.1, 100.0), st.floats(0.05, 0.95), st.floats(0.01, 50.0))
    def test_lorentz_invariance_of_phase(self, mass, beta, r):
        # m c^2 dtau equals E dt - p.r evaluated in the lab frame
        dt = r / (beta * C)
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        dtau = dt / gamma
        rest = mass * dtau
        lab = (gamma * mass) * dt - (gamma * mass * beta / C) * r
        assert lab == pytest.approx(rest, rel=1e-10)

    def test_width_damps_modulus(self):
        p = OnShellParticle(497.7, 0.5, width_mev=7.35e-12)
        r = 1.0
        dt = r / (0.5 * C)
        dtau = dt * math.sqrt(0.75)
        amp = covariant_propagator(p, r, dt)
        assert abs(amp) == pytest.approx(
            0.5 * math.exp(-p.width_mev * dtau / (2 * CONSTANTS.hbar_mev_s)),
            rel=1e-12)


NA_LIFETIME = 16.2e-9  # s
NA_LINE = EmitterSpec.from_line(CONSTANTS.lambda_na_d, NA_LIFETIME)


class TestTemporal:
    def test_zero_time(self):
        assert temporal_propagator(NA_LINE, 0.0) == 1.0 + 0.0j

    def test_two_lifetimes(self):
        tau = NA_LIFETIME
        assert abs(temporal_propagator(NA_LINE, 2 * tau)) \
            == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_one_optical_period_winds_full_turn(self):
        period = CONSTANTS.lambda_na_d / C
        amp = temporal_propagator(EmitterSpec.from_line(CONSTANTS.lambda_na_d, 1.0),
                                  period)
        assert abs(cmath.phase(amp)) < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            temporal_propagator(NA_LINE, -1e-12)

    @given(st.floats(0.0, 1e-13), st.floats(0.0, 1e-13))
    def test_factorisation(self, t1, t2):
        # up to ~100 optical periods: the accumulated phase stays small
        # enough that float rounding of the exponent itself (eps * phase)
        # sits safely below the 1e-12 bound being asserted
        joint = temporal_propagator(NA_LINE, t1 + t2)
        split = temporal_propagator(NA_LINE, t1) * temporal_propagator(NA_LINE, t2)
        assert abs(joint - split) <= 1e-12 * abs(joint)


class TestEnergyPropagator:
    E0, WIDTH = 2.0, 1e-7  # eV

    def test_peak_modulus(self):
        k = energy_propagator(self.E0, self.E0, self.WIDTH)
        assert abs(k) == pytest.approx(2 * CONSTANTS.hbar_ev_s / self.WIDTH,
                                       rel=1e-12)

    def test_half_maximum_at_half_width(self):
        peak = abs(energy_propagator(self.E0, self.E0, self.WIDTH)) ** 2
        half = abs(energy_propagator(self.E0 + self.WIDTH / 2, self.E0,
                                     self.WIDTH)) ** 2
        assert half == pytest.approx(peak / 2, rel=1e-12)

    def test_fwhm_from_grid_scan(self):
        e = np.linspace(self.E0 - 3 * self.WIDTH, self.E0 + 3 * self.WIDTH, 20001)
        line = np.array([abs(energy_propagator(x, self.E0, self.WIDTH)) ** 2
                         for x in e])
        half = line.max() / 2
        above = e[line >= half]
        # linear interpolation at the two crossings
        lo_i = np.searchsorted(e, above[0])
        hi_i = np.searchsorted(e, above[-1])

        def crossing(i0, i1):
            x0, x1 = e[i0], e[i1]
            y0, y1 = line[i0], line[i1]
            return x0 + (half - y0) * (x1 - x0) / (y1 - y0)

        fwhm = crossing(hi_i, hi_i + 1) - crossing(lo_i, lo_i - 1)
        assert fwhm == pytest.approx(self.WIDTH, rel=1e-6)

    def test_fourier_transform_oracle(self):
        # numerically transform the damped rest-frame exponential; the
        # magnitude matches the closed form everywhere, the complex value
        # up to a global sign (documented transform convention)
        hbar = CONSTANTS.hbar_ev_s
        t_max = 80 * hbar / self.WIDTH
        envelope = lambda t: math.exp(-self.WIDTH * t / (2 * hbar))
        for de in (-4.0, -1.3, 0.0, 0.7, 3.0):
            e = self.E0 + de * self.WIDTH
            omega = (e - self.E0) / hbar
            if omega == 0.0:
                numeric = complex(quad(envelope, 0, t_max, limit=400)[0], 0.0)
            else:
                re = quad(envelope, 0, t_max, weight="cos", wvar=omega,
                          limit=4000)[0]
                im = quad(envelope, 0, t_max, weight="sin", wvar=omega,
                          limit=4000)[0]
                numeric = complex(re, im)
            closed = energy_propagator(e, self.E0, self.WIDTH)
            assert abs(numeric + closed) / abs(closed) < 1e-4

    def test_width_must_be_positive(self):
        with pytest.raises(DomainError):
            energy_propagator(1.0, 1.0, 0.0)


class TestFreeDecay:
    TAU = 1.6e-8

    def test_sharp_onset(self):
        t0, r = 0.0, 3.0
        onset = t0 + r / C
        assert free_decay_detection_probability(onset, t0, 0.0, r, self.TAU) == 1.0
        assert free_decay_detection_probability(onset - 1e-12, t0, 0.0, r,
                                                self.TAU) == 0.0

    def test_decay_by_one_lifetime(self):
        t0, r = 0.0, 3.0
        onset = t0 + r / C
        v = free_decay_detection_probability(onset + self.TAU, t0, 0.0, r, self.TAU)
        assert v == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_smeared_onset_matches_convolution_oracle(self):
        t0, r = 0.0, 3.0
        sigma = 0.1 * self.TAU
        t_d = t0 + r / C + 10 * sigma
        closed = free_decay_detection_probability(t_d, t0, sigma, r, self.TAU)

        def integrand(t_p):
            decay = math.exp(-(t_d - t_p - r / C) / self.TAU)
            gauss = math.exp(-(t_p - t0) ** 2 / (2 * sigma * sigma)) \
                / (math.sqrt(2 * math.pi) * sigma)
            return decay * gauss

        upper = t_d - r / C   # production cannot postdate emission
        numeric = quad(integrand, t0 - 12 * sigma, upper, limit=400)[0]
        assert numeric == pytest.approx(closed, rel=1e-8)
