import cmath
import math

import pytest

from pathamp.core_num import CONSTANTS, DomainError
from pathamp.oracle import damped_radial_integral
from pathamp.propagators import EmitterSpec
from pathamp.wave_optics import (
    DiffractionGeometry,
    diffraction_amplitude,
    direct_factor,
    half_period_zone_integral,
    hole_path_amplitude,
    huygens_zone_value,
    plane_sum_factor,
    spherical_wave,
)

C = CONSTANTS.c
NA_LIFETIME = 16.2e-9  # s
NA = EmitterSpec.from_line(CONSTANTS.lambda_na_d, NA_LIFETIME)


class TestSphericalWave:
    def test_full_period_phase(self):
        kappa = 2 * math.pi / 1.0e-6
        r1 = 1.0e-6  # kappa*r1 = 2 pi
        u = spherical_wave(kappa, r1)
        assert abs(cmath.phase(u)) < 1e-9
        assert abs(u) == pytest.approx(1.0 / r1, rel=1e-12)

    def test_inverse_distance_falloff(self):
        kappa = 1.0e7
        assert abs(spherical_wave(kappa, 2.0)) \
            == pytest.approx(abs(spherical_wave(kappa, 1.0)) / 2, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            spherical_wave(1.0e7, 0.0)


class TestHelmholtz:
    @staticmethod
    def residual(u, kappa, r1, step):
        """Relative residual |lap u + kappa^2 u| / |kappa^2 u| of the field
        u(r) at r1, with the radial Laplacian (1/r) d^2(r u)/dr^2 taken by
        a second-order central difference of the given step."""
        num = ((r1 + step) * u(r1 + step) - 2.0 * r1 * u(r1)
               + (r1 - step) * u(r1 - step))
        lap = num / (r1 * step * step)
        return abs(lap + kappa * kappa * u(r1)) / abs(kappa * kappa * u(r1))

    def test_spherical_wave_satisfies_equation(self):
        kappa = 1.0e7
        u = lambda r: spherical_wave(kappa, r)
        assert self.residual(u, kappa, 1.0, 1.0e-9) < 1e-4

    def test_plane_phase_without_falloff_fails(self):
        # e^{i kappa r} alone leaves a residual ~ 2/(kappa r), far above the
        # true solution's; kappa is kept moderate so the 2/(kappa r) signal
        # dominates the finite-difference truncation noise
        kappa, r1, step = 1.0e4, 1.0, 1.0e-6
        plane = lambda r: cmath.exp(1j * kappa * r)
        residual = self.residual(plane, kappa, r1, step)
        assert residual == pytest.approx(2.0 / (kappa * r1), rel=1e-2)
        spherical = lambda r: spherical_wave(kappa, r)
        assert residual > 10 * self.residual(spherical, kappa, r1, step)

    def test_second_order_convergence(self):
        # steps chosen so truncation dominates phase-rounding noise
        kappa, r1 = 1.0e6, 1.0
        u = lambda r: spherical_wave(kappa, r)
        r_coarse = self.residual(u, kappa, r1, 2.0e-8)
        r_fine = self.residual(u, kappa, r1, 1.0e-8)
        assert r_coarse / r_fine == pytest.approx(4.0, rel=0.15)


class TestDiffractionAmplitude:
    def test_normal_incidence_modulus_and_phase(self):
        lam = CONSTANTS.lambda_na_d
        a = diffraction_amplitude(2 * math.pi / lam, 0.0, 0.0)
        assert abs(a) == pytest.approx(1.0 / lam, rel=1e-9)
        assert abs(a) == pytest.approx(1.6969e6, rel=1e-3)
        assert cmath.phase(a) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_oblique_value(self):
        kappa = 1.0e7
        a = diffraction_amplitude(kappa, 0.0, math.pi / 3)
        assert abs(a) == pytest.approx(kappa / (4 * math.pi) * 1.5, rel=1e-12)

    def test_grazing_vanishes(self):
        a = diffraction_amplitude(1.0e7, math.pi / 2, math.pi / 2)
        assert abs(a) < 1e-9

    def test_zero_kappa_refused(self):
        with pytest.raises(DomainError, match="kappa must be positive"):
            diffraction_amplitude(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("kappa,alpha,alpha1", [
        (math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0),
        (1.0, math.inf, 0.0), (1.0, -math.inf, 0.0), (1.0, math.nan, 0.0),
        (1.0, 0.0, math.inf), (1.0, 0.0, -math.inf), (1.0, 0.0, math.nan)])
    def test_refuses_non_finite_input(self, kappa, alpha, alpha1):
        # math.cos would raise a bare ValueError at an infinite angle, and
        # a NaN would reach the result as nan+nanj
        with pytest.raises(DomainError):
            diffraction_amplitude(kappa, alpha, alpha1)


class TestHalfPeriodZone:
    KAPPA, X1 = 1.0e7, 0.8

    def test_modulus_and_phase(self):
        z = half_period_zone_integral(self.KAPPA, self.X1)
        assert abs(z) == pytest.approx(2.0 / self.KAPPA, rel=1e-12)
        expected_phase = cmath.phase(cmath.exp(1j * (self.KAPPA * self.X1
                                                     + math.pi / 2)))
        assert cmath.phase(z) == pytest.approx(expected_phase, abs=1e-9)

    def test_rule_matches_damped_integral(self):
        rho = 1e-7 * self.KAPPA
        analytic = huygens_zone_value(self.KAPPA, self.X1)
        damped = damped_radial_integral(self.KAPPA, self.X1, rho)
        assert abs(analytic - damped) / abs(damped) < 0.02


class TestHolePathAmplitude:
    GEOM = DiffractionGeometry(r=0.5, r1=0.7, hole_area=1e-8)

    def test_prompt_decay_no_damping(self):
        t_d = (self.GEOM.r + self.GEOM.r1) / C
        amp = hole_path_amplitude(NA, self.GEOM, t_d)
        expected_mod = abs(diffraction_amplitude(NA.kappa, 0, 0)) \
            * self.GEOM.hole_area / (self.GEOM.r * self.GEOM.r1)
        assert abs(amp) == pytest.approx(expected_mod, rel=1e-12)

    def test_later_detection_damps(self):
        t_on = (self.GEOM.r + self.GEOM.r1) / C
        tau = NA_LIFETIME
        a0 = abs(hole_path_amplitude(NA, self.GEOM, t_on))
        a1 = abs(hole_path_amplitude(NA, self.GEOM, t_on + 3.0 * tau))
        assert a1 / a0 == pytest.approx(math.exp(-1.5), rel=1e-9)

    def test_causality_zero(self):
        t_d = (self.GEOM.r + self.GEOM.r1) / C * 0.999
        assert hole_path_amplitude(NA, self.GEOM, t_d) == 0.0

    def test_product_decomposition(self):
        # the amplitude equals the product of its independently evaluated
        # factors: two flights, the diffraction weight, the source
        # evolution.  A long-wavelength emitter keeps the phases O(10) so
        # the identity can be checked at the 1e-12 level in float64.
        emitter = EmitterSpec(50.0 * CONSTANTS.hbarc_ev_m, 0.0,
                              0.5 * CONSTANTS.hbarc_ev_m)
        t_d = (self.GEOM.r + self.GEOM.r1) / C * 1.5
        amp = hole_path_amplitude(emitter, self.GEOM, t_d)
        z = 1j * emitter.kappa + emitter.rho
        flight_r = cmath.exp(z * self.GEOM.r) / self.GEOM.r
        flight_r1 = cmath.exp(z * self.GEOM.r1) / self.GEOM.r1
        hole = diffraction_amplitude(emitter.kappa, 0, 0) * self.GEOM.hole_area
        source = cmath.exp(-z * C * t_d)
        product = flight_r * flight_r1 * hole * source
        assert abs(amp - product) <= 1e-12 * abs(amp)

    def test_probability_monotone_in_path_length(self):
        # with the detection time fixed, lengthening the path trades the
        # geometric 1/(r r1)^2 falloff against a weaker source damping;
        # within a coherence length (path << 1/rho ~ 10 m here) the
        # geometry wins and the detection probability cannot increase
        t_d = 2.0 / C
        probs = []
        for extra in (0.0, 0.1, 0.2, 0.3):
            geom = DiffractionGeometry(r=0.5, r1=0.7 + extra, hole_area=1e-8)
            probs.append(abs(hole_path_amplitude(NA, geom, t_d)) ** 2)
        assert all(a >= b for a, b in zip(probs, probs[1:]))


class TestRectilinearConsistency:
    KAPPA = 2 * math.pi / CONSTANTS.lambda_na_d

    def test_analytic_plane_sum_equals_direct(self):
        for x1 in (0.3, 1.0, 2.5):
            ps = plane_sum_factor(self.KAPPA, x1)
            assert abs(ps - direct_factor(self.KAPPA, x1)) < 1e-10

    def test_damped_plane_sum_within_two_percent(self):
        x1 = 1.0
        # the rule's radial value replaced by the damped radial integral
        radial = damped_radial_integral(self.KAPPA, x1, 1e-7 * self.KAPPA)
        ps = plane_sum_factor(self.KAPPA, x1) * radial / huygens_zone_value(self.KAPPA, x1)
        assert abs(ps - direct_factor(self.KAPPA, x1)) < 0.02
