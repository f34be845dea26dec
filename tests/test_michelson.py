import math

import numpy as np
import pytest
from scipy.integrate import quad

from pathamp.core_num import CONSTANTS, DomainError
from pathamp.michelson import (
    InterferometerSpec,
    detection_probability,
    gated_visibility_table,
    lifetime_from_half_visibility,
    pressure_broadening,
    rayleigh_doppler_visibility,
    source_motion_correction,
    visibility,
    visibility_asymptote,
    visibility_benchmark_table,
)

C = CONSTANTS.c
KAPPA = 2 * math.pi / CONSTANTS.lambda_na_d


def spec(d=0.25, tau=1e-8, arm=0.5, phi=0.0):
    return InterferometerSpec(arm, d, tau, KAPPA, phi)


class TestDetectionProbability:
    def test_zero_before_short_arm_arrival(self):
        s = spec()
        assert detection_probability(s, s.short_path / C) == 0.0
        assert detection_probability(s, 0.5 * s.short_path / C) == 0.0

    def test_single_path_window(self):
        s = spec()
        t = (s.short_path + s.imbalance) / C
        expected = s.tau_s * (1 - math.exp(-(t - s.short_path / C) / s.tau_s))
        assert detection_probability(s, t) == pytest.approx(expected, rel=1e-12)

    def test_continuous_at_long_arm_arrival(self):
        s = spec()
        t1 = s.long_path / C
        below = detection_probability(s, t1 * (1 - 1e-12))
        above = detection_probability(s, t1 * (1 + 1e-12))
        assert above == pytest.approx(below, rel=1e-6)

    def test_balanced_arms_limit(self):
        # with a negligible imbalance and no instrumental phase the late-
        # time probability saturates at 4 tau K^2 (fully constructive)
        s = InterferometerSpec(0.5, 1e-9, 1e-8, KAPPA * 0.0 + 2 * math.pi / 1e-9)
        # kappa chosen so 2*kappa*d is a multiple of 2 pi: cos term = +1
        p_inf = detection_probability(s, 1.0)
        assert p_inf == pytest.approx(4 * s.tau_s, rel=1e-3)

    def test_monotone_in_gate_time(self):
        s = spec()
        grid = np.linspace(0.0, 60e-9, 400)
        vals = [detection_probability(s, float(t)) for t in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


class TestVisibility:
    def test_undefined_before_interference_window(self):
        s = spec()
        with pytest.raises(DomainError):
            visibility(s, s.long_path / C)

    @pytest.mark.parametrize("d", [0.01, 0.03, 0.1, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("tau", [1e-9, 5e-8])
    def test_equals_fringe_extremes_of_detection_probability(self, d, tau):
        # (P+ - P-)/(P+ + P-) with the instrumental phase at the fringe
        # maximum, phi_12 = -kappa (l1 - l2), and at the minimum, pi later
        s = spec(d=d, tau=tau)
        arm_phase = s.kappa * (s.long_path - s.short_path)
        for n_tau in (0.01, 0.1, 1.0, 3.0, 10.0, 30.0):
            t = s.long_path / C + n_tau * tau
            p_max = detection_probability(spec(d=d, tau=tau, phi=-arm_phase), t)
            p_min = detection_probability(spec(d=d, tau=tau, phi=math.pi - arm_phase), t)
            assert abs(visibility(s, t) - (p_max - p_min) / (p_max + p_min)) <= 1e-11

    def test_asymptote(self):
        s = spec(d=0.125)
        assert visibility(s, 1.0) == pytest.approx(
            math.exp(-0.125 / (C * s.tau_s)), rel=1e-10)

    def test_benchmark_asymptotes(self):
        for d, expected in ((0.125, 0.959), (0.25, 0.920), (0.50, 0.846)):
            assert visibility_asymptote(spec(d=d)) \
                == pytest.approx(expected, abs=1e-3)

    def test_rises_monotonically_to_asymptote(self):
        s = spec()
        t0 = s.long_path / C
        grid = np.linspace(t0 * 1.0001, t0 + 8 * s.tau_s, 300)
        vals = [visibility(s, float(t)) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= visibility_asymptote(s)

    def test_curve_ordering_with_imbalance(self):
        # at any common gate time, smaller imbalance gives higher visibility
        specs = [spec(d=d) for d in (0.125, 0.25, 0.50)]
        t0 = max(s.long_path for s in specs) / C
        for t in np.linspace(t0 * 1.001, t0 + 6e-8, 50):
            va, vb, vc = (visibility(s, float(t)) for s in specs)
            assert va > vb > vc

    def test_gated_table_masks_undefined_region(self):
        rows = gated_visibility_table([spec(d=d) for d in (0.125, 0.25, 0.50)],
                                      [7.0, 8.0, 12.0, 30.0])
        assert math.isnan(rows[0][3])   # d=50cm curve starts after 10 ns
        assert not math.isnan(rows[2][3])


class TestPressureBroadening:
    def test_no_collisions(self):
        assert pressure_broadening(12.4e-9, math.inf) == 12.4e-9

    def test_benchmark_row(self):
        assert pressure_broadening(12.4e-9, 0.207e-9) \
            == pytest.approx(0.2036e-9, rel=1e-3)

    def test_parallel_combination(self):
        assert pressure_broadening(2.0, 2.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("tau_nat,tau_p", [(0.0, 0.207e-9), (12.4e-9, 0.0)],
                             ids=["tau_nat", "tau_p"])
    def test_zero_lifetime_refused(self, tau_nat, tau_p):
        with pytest.raises(DomainError, match="positive"):
            pressure_broadening(tau_nat, tau_p)


class TestLifetimeAnalysis:
    def test_blue_hydrogen_row(self):
        ana = lifetime_from_half_visibility(0.085, 12.4e-9)
        assert ana.tau_s == pytest.approx(0.204e-9, rel=0.01)

    def test_red_hydrogen_row(self):
        ana = lifetime_from_half_visibility(0.190, 5.4e-9)
        assert ana.tau_p == pytest.approx(0.50e-9, rel=0.02)

    def test_natural_width_only(self):
        tau_nat = 5.4e-9
        delta = 2 * C * math.log(2) * tau_nat
        ana = lifetime_from_half_visibility(delta, tau_nat)
        assert math.isinf(ana.tau_p) and not ana.resolvable

    def test_benchmark_table_flags_sodium(self):
        table = visibility_benchmark_table()
        assert table["H_b 4p-2s"]["tau_s_s"] == pytest.approx(0.204e-9, rel=0.01)
        assert table["H_r 3p-2s"]["tau_p_s"] == pytest.approx(0.50e-9, rel=0.02)
        assert not table["H_r 3p-2s"]["flags"]
        na = table["Na D 3p-3s"]
        assert na["flags"], "sodium row must be flagged, not matched"
        assert na["tau_p_s"] != pytest.approx(na["reference_tau_p_s"], rel=0.05)


class TestDopplerComparison:
    def test_no_imbalance(self):
        assert rayleigh_doppler_visibility(0.0, 5893e-10, 485.0,
                                           CONSTANTS.mass_h_kg) == 1.0

    def test_zero_temperature(self):
        assert rayleigh_doppler_visibility(0.1, 5893e-10, 0.0,
                                           CONSTANTS.mass_h_kg) == 1.0

    def test_hydrogen_rms_velocity_benchmark(self):
        v_rms = math.sqrt(CONSTANTS.k_boltzmann * 485.0 / CONSTANTS.mass_h_kg)
        assert v_rms == pytest.approx(2.0e3, rel=0.01)


class TestSourceMotion:
    NTP = 293.15

    def test_sodium_benchmark_correction(self):
        corr = source_motion_correction(KAPPA, 0.25, CONSTANTS.mass_na_kg,
                                        self.NTP)
        assert corr.relative_correction == pytest.approx(1.6e-12, rel=0.2)

    def test_zero_temperature_limit(self):
        corr = source_motion_correction(KAPPA, 0.25, CONSTANTS.mass_na_kg, 0.0)
        assert corr.relative_correction == 0.0
        assert corr.phase_argument == pytest.approx(2 * KAPPA * 0.25, rel=1e-15)

    def test_closed_form_against_quadrature_oracle(self):
        # average cos(2 kappa d / gamma) over the Maxwellian directly and
        # compare with the closed-form phase-shifted cosine
        d, mass, temp = 0.25, CONSTANTS.mass_na_kg, self.NTP
        p2 = 2 * mass * CONSTANTS.k_boltzmann * temp
        eps = KAPPA * d * p2 / (mass * CONSTANTS.c) ** 2

        num_re = quad(lambda u: u * u * math.exp(-u * u) * math.cos(eps * u * u),
                      0.0, 12.0, limit=200)[0]
        num_im = quad(lambda u: u * u * math.exp(-u * u) * math.sin(-eps * u * u),
                      0.0, 12.0, limit=200)[0]
        den = quad(lambda u: u * u * math.exp(-u * u), 0.0, 12.0)[0]
        averaged = complex(num_re, num_im) / den

        corr = source_motion_correction(KAPPA, d, mass, temp)
        shift = corr.phase_argument - 2 * KAPPA * d
        closed = corr.damping * complex(math.cos(shift), math.sin(shift))
        assert abs(averaged - closed) <= 1e-6 * abs(closed)

    def test_damping_is_unity_at_leading_order(self):
        # the modulus deviates from one only at the square of the phase
        # parameter eps = kappa d (p/(Mc))^2, i.e. fourth order in p/(Mc):
        # three orders below the observable phase shift
        d, mass, temp = 0.25, CONSTANTS.mass_na_kg, self.NTP
        corr = source_motion_correction(KAPPA, d, mass, temp)
        p2_over = 2 * CONSTANTS.k_boltzmann * temp / (mass * CONSTANTS.c ** 2)
        eps = KAPPA * d * p2_over
        assert abs(corr.damping - 1.0) <= eps * eps
        phase_shift = 2 * KAPPA * d * corr.relative_correction
        assert abs(corr.damping - 1.0) < 1e-3 * phase_shift


class TestCurveHelpers:
    def test_gated_table_matches_pointwise(self):
        # the single-curve table `michelson --curve` writes
        s = spec()
        t0_ns = s.long_path / C * 1e9
        grid = [float(t) for t in np.linspace(t0_ns * 1.01, t0_ns + 5 * s.tau_s * 1e9, 7)]
        rows = gated_visibility_table([s], grid)
        assert [t for t, _ in rows] == grid
        for t, v in rows:
            assert type(v) is float
            assert v == visibility(s, t * 1e-9)

    def test_kappa_must_be_positive(self):
        with pytest.raises(DomainError):
            InterferometerSpec(0.5, 0.25, 1e-8, 0.0)
