import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from pathamp.core_num import CONSTANTS, DomainError
from pathamp.flavour import (
    ELECTRON_SLIT_REFERENCE_DAMPING,
    KAON_RADIATIVE_SMEARING,
    NEUTRINO_REFERENCE_DAMPING_EXP,
    PHOTON_SLIT_REFERENCE_DAMPING,
    ElectronBeam,
    KaonSystem,
    NeutrinoExperiment,
    SlitGeometry,
    classify_experiment,
    electron_double_slit,
    electron_phase_difference,
    emission_time_offset_closed_form,
    gaussian_interference_integral,
    kaon_curve,
    kaon_detection_probability,
    kaon_equal_velocity_report,
    kaon_neutrino_experiment,
    kaon_oscillation_period,
    kaon_oscillation_phase_lab,
    neutrino_curve,
    neutrino_oscillation,
    oscillation_length_ratio,
    photon_double_slit,
    pion_neutrino_experiment,
)

HBARC_MEV_M = CONSTANTS.hbarc_ev_m * 1e-6


GEOM = SlitGeometry(l=0.10, r_prime=1.0, d=0.95e-3, h=0.1e-3, w=1e-3)


class TestPhotonSlit:
    KAPPA = 2 * math.pi / 5893e-10

    def test_benchmark_fringe_spacing(self):
        res = photon_double_slit(GEOM, self.KAPPA, CONSTANTS.tau_na_fringe)
        assert abs(res.fringe_spacing - 29e-6) < 0.5e-6

    def test_centre_is_a_maximum(self):
        res = photon_double_slit(GEOM, self.KAPPA, CONSTANTS.tau_na_fringe)
        p = [res.probability(v * res.fringe_spacing) for v in (0.0, 0.25, 0.5)]
        assert p[0] == pytest.approx(2.0, rel=1e-12)
        assert p[0] > p[1] > p[2]

    def test_damping_coefficient_and_benchmark_flag(self):
        res = photon_double_slit(GEOM, self.KAPPA, CONSTANTS.tau_na_fringe)
        lam = 2 * math.pi / self.KAPPA
        expected = lam / (2 * CONSTANTS.c * CONSTANTS.tau_na_fringe)
        assert res.damping_per_fringe == pytest.approx(expected, rel=1e-12)
        assert res.damping_per_fringe == pytest.approx(1.82e-7, rel=0.01)
        # the quoted benchmark coefficient is ~1e4 smaller: flagged, kept
        flag = res.flags[0]
        assert flag.reference == PHOTON_SLIT_REFERENCE_DAMPING
        assert flag.computed / flag.reference > 1e3

    def test_damping_exponent_past_double_range_is_zero(self):
        # at tau = 5e-324 s the damping per fringe is finite (~1.7e308),
        # but the exponent five fringes out is not: the damping is 0, with
        # no overflow warning
        res = photon_double_slit(GEOM, 2 * math.pi / 500e-9, 5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = [res.probability(y) for y in (0.0, 5.0 * res.fringe_spacing)]
        assert p[0] == 2.0
        assert p[1] == 1.0


class TestElectronPhase:
    BEAM = ElectronBeam(mean_p=229.0, sigma_p=229.0 * 6.0e-7)

    def test_equal_times_full_turn_per_wavelength(self):
        # r_a = 0 keeps the femtometre-scale separation exactly
        # representable in float64
        dr = self.BEAM.de_broglie
        phase = electron_phase_difference(self.BEAM, 1.0, 0.0, dr,
                                          "equal-times")
        assert phase == pytest.approx(2 * math.pi, rel=1e-9)

    def test_equal_velocity_phase_suppressed_when_relativistic(self):
        dr = 1e-9
        fast = electron_phase_difference(self.BEAM, 1.0, 0.5, 0.5 + dr,
                                         "equal-velocities")
        ref = electron_phase_difference(self.BEAM, 1.0, 0.5, 0.5 + dr,
                                        "equal-times")
        assert abs(fast / ref) == pytest.approx(
            (CONSTANTS.m_electron / self.BEAM.mean_p) ** 2, rel=1e-12)
        assert abs(fast) < 1e-5 * abs(ref)

    def test_slow_beam_equal_velocity_phase_dominates(self):
        slow = ElectronBeam(mean_p=0.01, sigma_p=1e-8)
        dr = 1e-9
        ev = electron_phase_difference(slow, 1.0, 0.5, 0.5 + dr,
                                       "equal-velocities")
        et = electron_phase_difference(slow, 1.0, 0.5, 0.5 + dr, "equal-times")
        assert abs(ev / et) == pytest.approx((CONSTANTS.m_electron / slow.mean_p) ** 2,
                                             rel=1e-12)
        assert abs(ev) > 1e3 * abs(et)


class TestElectronSlit:
    BEAM = ElectronBeam(mean_p=229.0, sigma_p=229.0 * 6.0e-7)

    def test_spread_coefficient_reproducible(self):
        res = electron_double_slit(GEOM, self.BEAM)
        assert res.spread_coeff == pytest.approx(math.pi * 6.0e-7, rel=1e-12)
        assert abs(res.spread_coeff - ELECTRON_SLIT_REFERENCE_DAMPING[1]) \
            <= 0.1 * ELECTRON_SLIT_REFERENCE_DAMPING[1]

    def test_equal_time_coefficient_computed_and_flagged(self):
        # the quoted companion coefficient cannot be derived from its own
        # stated inputs; the module computes the formula value and flags
        # the stored reference
        res = electron_double_slit(GEOM, self.BEAM)
        gamma_sq = self.BEAM.gamma_sq
        h_mev_m = 2 * math.pi * HBARC_MEV_M
        expected = gamma_sq * h_mev_m / (2 * self.BEAM.sigma_p * 2.0)
        assert res.equal_time_coeff == pytest.approx(expected, rel=1e-12)
        flag = res.flags[0]
        assert flag.reference == ELECTRON_SLIT_REFERENCE_DAMPING[0]
        assert flag.computed == res.equal_time_coeff

    def test_zero_spread_is_rejected(self):
        with pytest.raises(DomainError):
            ElectronBeam(mean_p=229.0, sigma_p=0.0)

    @pytest.mark.parametrize("mean_p,sigma_p", [
        (math.nan, 1e-3), (math.inf, 1e-3), (100.0, math.nan), (100.0, math.inf)])
    def test_non_finite_momentum_or_spread_is_rejected(self, mean_p, sigma_p):
        # these were accepted, and energy then returned nan or inf
        with pytest.raises(DomainError):
            ElectronBeam(mean_p=mean_p, sigma_p=sigma_p)

    def test_damping_exponent_past_double_range_is_zero(self):
        # at sigma_p = 1e-297 MeV/c the equal-time coefficient is finite,
        # but its square at fringe order 1 is not: the damping is 0, with
        # no overflow warning
        beam = ElectronBeam(mean_p=100.0, sigma_p=1e-297)
        res = electron_double_slit(GEOM, beam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = [res.probability(y) for y in (0.0, res.fringe_spacing)]
        scale = math.sqrt(math.pi) * beam.sigma_p
        assert p[0] * scale == pytest.approx(2.0, rel=1e-12)
        assert p[1] * scale == pytest.approx(1.0, rel=1e-12)

    def test_pattern_matches_photon_of_same_wavelength(self):
        # at sigma_p = 2e-3 MeV/c the two damping exponents are near their
        # joint minimum, 9 (e^2 + s^2) ~ 1.5e-8 at fringe order 3, so the
        # damped interference terms agree to well below rtol; the
        # probabilities themselves differ by that damping at the photon's
        # exact zeros (y = +-1.5 fringes is on the grid)
        beam = ElectronBeam(mean_p=229.0, sigma_p=2e-3)
        lam = beam.de_broglie
        photon = photon_double_slit(GEOM, 2 * math.pi / lam, 1.0)
        electron = electron_double_slit(GEOM, beam)
        assert electron.fringe_spacing \
            == pytest.approx(photon.fringe_spacing, rel=1e-12)
        y = np.linspace(-3, 3, 101) * photon.fringe_spacing
        fringe_gamma = [photon.probability(v) - 1.0 for v in y]
        fringe_e = [electron.probability(v) * math.sqrt(math.pi) * beam.sigma_p - 1.0
                    for v in y]
        assert np.allclose(fringe_e, fringe_gamma, rtol=1e-6, atol=1e-12)


class TestGaussianInterferenceIntegral:
    def test_coincident_limit(self):
        sigma = 0.8
        val = gaussian_interference_integral(sigma, 50.0, 0.0, 0.0)
        assert val == pytest.approx(1 / (math.sqrt(math.pi) * sigma), rel=1e-12)

    def test_momentum_offset_damping(self):
        sigma = 0.8
        damped = gaussian_interference_integral(sigma, 50.0, 0.0, 2 * sigma)
        full = gaussian_interference_integral(sigma, 50.0, 0.0, 0.0)
        assert abs(damped) / abs(full) == pytest.approx(math.exp(-1.0),
                                                        rel=1e-12)

    @pytest.mark.parametrize("dr,dp", [(0.3, 0.2), (0.8, 0.6), (1.5, 0.1)])
    def test_against_quadrature_oracle(self, dr, dp):
        sigma, mean_p = 1.0, 40.0

        def re_part(p):
            w = math.exp(-((p - mean_p) ** 2 + (p + dp - mean_p) ** 2)
                         / (2 * sigma ** 2))
            return w * math.cos((p + dp / 2) * dr)

        def im_part(p):
            w = math.exp(-((p - mean_p) ** 2 + (p + dp - mean_p) ** 2)
                         / (2 * sigma ** 2))
            return -w * math.sin((p + dp / 2) * dr)

        lo, hi = mean_p - 12 * sigma, mean_p + 12 * sigma
        numeric = complex(quad(re_part, lo, hi, limit=400)[0],
                          quad(im_part, lo, hi, limit=400)[0]) \
            / (math.pi * sigma ** 2)
        closed = gaussian_interference_integral(sigma, mean_p, dr, dp)
        assert abs(numeric - closed) <= 1e-8 * abs(closed)


class TestKaons:
    SYS = KaonSystem()

    def test_production_point_rates(self):
        assert kaon_detection_probability(self.SYS, "e+", tau=0.0) \
            == pytest.approx(4.0, rel=1e-14)
        assert kaon_detection_probability(self.SYS, "e-", tau=0.0) == 0.0

    def test_interference_cancels_in_charge_sum(self):
        hbar = CONSTANTS.hbar_mev_s
        for tau in np.linspace(0.0, 5 * CONSTANTS.tau_ks, 37):
            total = kaon_detection_probability(self.SYS, "e+", tau=float(tau)) \
                + kaon_detection_probability(self.SYS, "e-", tau=float(tau))
            direct = 2 * (math.exp(-self.SYS.gamma_s * tau / hbar)
                          + math.exp(-self.SYS.gamma_l * tau / hbar))
            assert abs(total - direct) <= 1e-14 * direct

    def test_oscillation_period(self):
        period = kaon_oscillation_period(self.SYS)
        assert period == pytest.approx(1.185e-9, rel=1e-3)
        assert period == pytest.approx(1.19e-9, rel=5e-3)

    def test_lab_phase_equals_proper_time_phase(self):
        distance = 10.0
        tau = self.SYS.proper_time(distance)
        assert kaon_oscillation_phase_lab(self.SYS, distance) \
            == pytest.approx(self.SYS.dm * tau / CONSTANTS.hbar_mev_s,
                             rel=1e-12)

    def test_overflowing_proper_time_or_lab_phase_refused(self):
        # an overflow is refused, not returned as inf
        with pytest.raises(DomainError, match="proper time"):
            KaonSystem(mean_p=1e-300).proper_time(1e300)
        slow = KaonSystem(mean_p=1e-10)
        assert math.isfinite(slow.proper_time(1e300))
        with pytest.raises(DomainError, match="phase"):
            kaon_oscillation_phase_lab(slow, 1e300)

    def test_negative_distance_refused(self):
        # it gave a negative proper time and lab phase, where a negative
        # tau is refused
        for call in (self.SYS.proper_time,
                     lambda d: kaon_oscillation_phase_lab(self.SYS, d)):
            with pytest.raises(DomainError, match="distance must be >= 0"):
                call(-2.0)
            assert call(0.0) == 0.0

    def test_equal_velocity_momentum_offset(self):
        rep = kaon_equal_velocity_report(self.SYS)
        assert rep.dp_over_p == pytest.approx(1.8e-14, rel=0.01)
        assert KAON_RADIATIVE_SMEARING == 4.2e-2

    def test_production_time_offset_and_scaling(self):
        rep_low = kaon_equal_velocity_report(KaonSystem(mean_p=10.0))
        rep_high = kaon_equal_velocity_report(KaonSystem(mean_p=1000.0))
        assert rep_low.dt_production == pytest.approx(6.27e-25, rel=0.01)
        ratio = rep_low.dt_production / rep_high.dt_production
        assert ratio == pytest.approx(6.27 / 2.8, rel=0.01)
        assert rep_low.flags[0].quantity == "dt_production"

    @pytest.mark.parametrize("mean_p", [math.nan, math.inf])
    def test_non_finite_momentum_is_rejected(self, mean_p):
        # an infinite momentum was accepted, and mean_energy returned inf
        with pytest.raises(DomainError):
            KaonSystem(mean_p=mean_p)

    def test_curve_rows(self):
        rows = kaon_curve(self.SYS, np.linspace(0, 1e-10, 5))
        assert len(rows) == 5 and len(rows[0]) == 4
        t, p_plus, p_minus, inter = rows[0]
        assert p_plus == pytest.approx(4.0) and p_minus == 0.0
        assert inter == pytest.approx(2.0)


class TestPhaseFormEquivalence:
    @given(st.floats(0.1, 1000.0), st.floats(0.05, 0.99))
    def test_four_expressions_agree(self, mass, beta):
        # proper-time, lab-time, energy-velocity and momentum forms of the
        # propagator phase coincide for on-shell kinematics
        gamma = 1 / math.sqrt(1 - beta * beta)
        t = 1.0e-8
        tau = t / gamma
        r = beta * CONSTANTS.c * t
        e = gamma * mass
        p = gamma * mass * beta          # MeV/c, with c factors absorbed
        v = beta * CONSTANTS.c
        hbar = CONSTANTS.hbar_mev_s
        forms = (
            mass * tau / hbar,
            mass * t / (gamma * hbar),
            mass ** 2 * r / (e * v * hbar),
            mass ** 2 * r / (p * CONSTANTS.c * hbar),
        )
        for f in forms[1:]:
            assert f == pytest.approx(forms[0], rel=1e-10)


class TestEqualTimeConstruction:
    def test_exact_kinematics_reduce_to_de_broglie_phase(self):
        # build the two paths with equal production times and exactly
        # solved velocities/momenta, then compare the exact phase
        # difference with the first-order de Broglie rule
        mass = CONSTANTS.m_electron
        r_prime, r_a = 1.0, 0.5
        t = (r_prime + r_a) / (0.6 * CONSTANTS.c)  # common flight time
        for dr in (1e-6, 1e-7, 1e-8):
            r_b = r_a + dr
            phases = []
            for leg in (r_a, r_b):
                path = r_prime + leg
                v = path / t
                beta = v / CONSTANTS.c
                gamma = 1 / math.sqrt(1 - beta * beta)
                p = gamma * mass * beta
                phases.append(-mass ** 2 * path / (p * HBARC_MEV_M))
            exact = phases[1] - phases[0]
            p_bar = 0.5 * sum(
                (1 / math.sqrt(1 - ((r_prime + leg) / (t * CONSTANTS.c)) ** 2))
                * mass * ((r_prime + leg) / (t * CONSTANTS.c))
                for leg in (r_a, r_b))
            first_order = p_bar * dr / HBARC_MEV_M
            # the exact value is a difference of two ~1e12 rad phases, so
            # allow for the float cancellation floor on top of the
            # first-order truncation
            tol = 2 * (dr / r_prime) * abs(first_order) \
                + 1e-14 * abs(phases[0])
            assert abs(exact - first_order) <= tol


class TestNeutrinos:
    DM2 = 2e-3

    def exp(self, baseline=100.0, theta=math.pi / 4):
        return pion_neutrino_experiment(self.DM2, theta, baseline)

    def test_momentum_from_decay_kinematics(self):
        assert self.exp().p0 == pytest.approx(29.79, rel=1e-3)

    def test_half_oscillation_distance_product(self):
        from pathamp.flavour import half_oscillation_distance
        product = half_oscillation_distance(self.exp()) * self.DM2
        assert product == pytest.approx(13.76, rel=0.005)
        assert abs(product - 13.8) <= 0.01 * 13.8

    def test_phase_ratio_to_standard_form(self):
        res = neutrino_oscillation(self.exp())
        ratio = res.phi_path / res.phi_standard
        expected = CONSTANTS.m_pi / self.exp().p0 - 2.0
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert ratio == pytest.approx(2.685, rel=1e-3)

    def test_compact_form_is_half_of_chain(self):
        res = neutrino_oscillation(self.exp())
        assert res.phi_compact == pytest.approx(res.phi_path / 2.0, rel=1e-10)
        flags = {f.quantity: f for f in res.flags}
        assert "phi_compact/phi_path" in flags

    def test_kaon_source_oscillates_28x_slower_at_equal_momentum(self):
        k = kaon_neutrino_experiment(self.DM2, math.pi / 4, 100.0)
        ratio = oscillation_length_ratio(k, self.exp())
        assert abs(ratio - 28.0) <= 1.0

    def test_lifetime_damping_negligible_and_flagged(self):
        res = neutrino_oscillation(self.exp())
        assert res.damping_exponent_unit_phase \
            == pytest.approx(2.12e-16, rel=0.01)
        assert res.damping_factor == pytest.approx(1.0, abs=1e-12)
        flags = {f.quantity: f for f in res.flags}
        ref = flags["damping_exponent_unit_phase"].reference
        assert ref == NEUTRINO_REFERENCE_DAMPING_EXP

    def test_emission_time_offset(self):
        res = neutrino_oscillation(
            pion_neutrino_experiment(self.DM2, math.pi / 4, 13.757 / self.DM2))
        assert res.dt_21 == pytest.approx(2.59e-23, rel=0.01)
        closed, flags = emission_time_offset_closed_form(self.exp())
        assert closed == pytest.approx(res.dt_21, rel=0.01)
        assert flags[0].reference == pytest.approx(closed / math.pi, rel=1e-12)

    def test_probability_bounds_and_mixing_angle_zeros(self):
        for theta in (0.0, math.pi / 2):
            res = neutrino_oscillation(self.exp(theta=theta))
            assert abs(res.probability) < 1e-30
        grid = np.linspace(1.0, 4e4, 200)
        probs = [neutrino_oscillation(self.exp(baseline=float(l))).probability
                 for l in grid]
        assert 0.0 <= min(probs) and max(probs) <= 1.0 + 1e-12
        assert max(probs) > 0.9  # maximal mixing reaches sin^2(2 theta) = 1

    def test_beta_mode_phase(self):
        exp = NeutrinoExperiment(CONSTANTS.m_pi,
                                 CONSTANTS.hbar_mev_s / CONSTANTS.tau_pi,
                                 CONSTANTS.m_mu, self.DM2, math.pi / 4, 100.0,
                                 beta_energy_mev=1.0, neutrino_p_mev=0.3)
        res = neutrino_oscillation(exp)
        p_nu_ev = 0.3e6
        expected = (self.DM2 / p_nu_ev) * (1.0e6 / (2 * p_nu_ev) - 1.0) \
            * 100.0 / CONSTANTS.hbarc_ev_m
        assert res.phi_path == pytest.approx(expected, rel=1e-12)

    def beta_exp(self):
        """A beta decay with the pion masses the neutrino command passes."""
        return NeutrinoExperiment(CONSTANTS.m_pi,
                                  CONSTANTS.hbar_mev_s / CONSTANTS.tau_pi,
                                  CONSTANTS.m_mu, self.DM2, 0.7, 100.0,
                                  beta_energy_mev=3.0, neutrino_p_mev=2.0)

    def test_beta_fields_set_the_kinematics(self):
        # given beta fields make a beta experiment: with a mode string that
        # defaulted to two-body they were ignored and p0 was 29.79 MeV/c
        exp = self.beta_exp()
        assert exp.p0 == 2.0
        assert exp.source_energy == 3.0

    def test_two_body_figures_refuse_a_beta_experiment(self):
        # both read the source and recoil masses, which a beta decay leaves
        # out of its kinematics: they answered 14.9 and 1.53e-23 s here
        beta = self.beta_exp()
        for a, b in ((beta, self.exp()), (self.exp(), beta)):
            with pytest.raises(DomainError, match="two-body"):
                oscillation_length_ratio(a, b)
        with pytest.raises(DomainError, match="two-body"):
            emission_time_offset_closed_form(beta)

    def test_beta_result_flags_only_the_damping_exponent(self):
        res = neutrino_oscillation(self.beta_exp())
        assert math.isnan(res.phi_compact)
        assert [f.quantity for f in res.flags] == ["damping_exponent_unit_phase"]
        assert [f.quantity for f in neutrino_oscillation(self.exp()).flags] \
            == ["phi_compact/phi_path", "damping_exponent_unit_phase"]

    def test_forbidden_decay_rejected(self):
        with pytest.raises(DomainError):
            NeutrinoExperiment(100.0, 1e-14, 120.0, self.DM2, 0.5, 10.0)

    @pytest.mark.parametrize("field", ["source_mass", "source_width", "recoil_mass",
                                       "dm2_ev2", "theta_12", "baseline"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_input_refused(self, field, value):
        # NaN used to give probability nan, inf a bare "math domain error"
        good = dict(source_mass=139.57, source_width=2.5e-14, recoil_mass=105.66,
                    dm2_ev2=self.DM2, theta_12=0.7, baseline=100.0)
        with pytest.raises(DomainError):
            NeutrinoExperiment(**dict(good, **{field: value}))

    @pytest.mark.parametrize("field", ["beta_energy_mev", "neutrino_p_mev"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_beta_input_refused(self, field, value):
        beta = dict(beta_energy_mev=1.0, neutrino_p_mev=0.3)
        with pytest.raises(DomainError, match="finite"):
            NeutrinoExperiment(139.57, 2.5e-14, 105.66, self.DM2, 0.7, 100.0,
                               **dict(beta, **{field: value}))

    def test_negative_source_width_refused(self):
        # it gave a damping factor above 1
        with pytest.raises(DomainError, match="width"):
            NeutrinoExperiment(139.57, -1e-6, 105.66, self.DM2, 0.7, 100.0)
        exp = NeutrinoExperiment(139.57, 0.0, 105.66, self.DM2, 0.7, 100.0)
        assert neutrino_oscillation(exp).damping_factor == 1.0

    def test_vanishing_recoil_mass_refused_without_overflow(self):
        # ((1 - R_m^2)/R_m)^2 leaves the double range below R_m ~ 7e-155:
        # a typed refusal at construction, not an OverflowError later
        with pytest.raises(DomainError, match="double range"):
            NeutrinoExperiment(139.57, 2.5e-14, 1e-300, self.DM2, 0.7, 100.0)
        with pytest.raises(DomainError, match="double range"):
            NeutrinoExperiment(139.57, 2.5e-14, 1e-152, self.DM2, 0.7, 100.0)
        # just inside the range both consumers of the figure return
        exp = NeutrinoExperiment(139.57, 2.5e-14, 1e-149, self.DM2, 0.7, 100.0)
        assert math.isfinite(neutrino_oscillation(exp).losc_path)
        assert math.isfinite(oscillation_length_ratio(exp, self.exp()))

    def test_overflowing_oscillation_length_refused(self):
        # ((1 - R_m^2)/R_m)^2 ~ 1.9e306 is a double here, but the path
        # oscillation length 2 pi hbar c m_S times it over dm2 is not: a
        # typed refusal, not losc_path = inf and a subnormal phi_compact
        with pytest.raises(DomainError, match="oscillation length"):
            NeutrinoExperiment(139.57, 2.5e-14, 1e-151, self.DM2, 0.7, 100.0)
        # nor is the oscillation_length_ratio figure m_S (...)^2 / p0 once
        # p0 underflows to 0
        with pytest.raises(DomainError, match="oscillation length"):
            NeutrinoExperiment(1e-200, 1e-3, 0.5e-200, self.DM2, 0.7, 100.0)

    def test_curve_rows(self):
        rows = neutrino_curve(self.exp(), [10.0, 100.0])
        assert len(rows) == 2 and len(rows[0]) == 4

    @staticmethod
    def _rows_one_experiment_per_point(exp, baselines):
        """The curve as it was first written: a new experiment per point."""
        rows = []
        for l in baselines:
            e = NeutrinoExperiment(exp.source_mass, exp.source_width,
                                   exp.recoil_mass, exp.dm2_ev2, exp.theta_12,
                                   float(l), exp.beta_energy_mev,
                                   exp.neutrino_p_mev)
            res = neutrino_oscillation(e)
            s2c2 = math.sin(e.theta_12) ** 2 * math.cos(e.theta_12) ** 2
            inter = -2.0 * s2c2 * res.damping_factor * math.cos(res.phi_path)
            rows.append((float(l), res.probability, 1.0 - res.probability, inter))
        return rows

    @pytest.mark.parametrize("source", ["pion", "kaon", "beta"])
    @pytest.mark.parametrize("grid", [
        [10.0, 100.0], list(np.linspace(1.0, 4e4, 200)),
        list(np.linspace(6879.0 / 50.0, 3.0 * 6879.0, 600))], ids=["two", "200", "cli"])
    def test_curve_equals_one_experiment_per_point(self, source, grid):
        if source == "beta":
            exp = NeutrinoExperiment(CONSTANTS.m_pi, CONSTANTS.hbar_mev_s / CONSTANTS.tau_pi,
                                     CONSTANTS.m_mu, self.DM2, 0.3, 100.0,
                                     beta_energy_mev=3.0, neutrino_p_mev=2.0)
        elif source == "kaon":
            exp = kaon_neutrino_experiment(self.DM2, 0.6, 100.0)
        else:
            exp = self.exp()
        assert neutrino_curve(exp, grid) == self._rows_one_experiment_per_point(exp, grid)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_curve_refuses_non_positive_baseline(self, bad):
        with pytest.raises(DomainError, match="baseline must be positive"):
            neutrino_curve(self.exp(), [10.0, bad])


class TestClassification:
    def test_photon_row(self):
        row = classify_experiment("photon-ydse")
        assert (row.path_difference, row.time_difference,
                row.velocity_difference, row.source_phase_difference,
                row.particle_phase_difference) == (True, True, False, True, False)
        assert row.wavelength_ratio == "1"

    def test_kaon_row(self):
        row = classify_experiment("kaon")
        assert row.wavelength_ratio == "2 (p_bar/(m_S c))^2"
        assert not row.path_difference

    def test_neutrino_row(self):
        row = classify_experiment("neutrino")
        assert not row.path_difference
        assert row.time_difference and row.velocity_difference
        assert row.source_phase_difference and row.particle_phase_difference

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            classify_experiment("muon")


class TestOscillationLengthProperties:
    DM2 = 2e-3

    def test_identical_experiments_ratio_one(self):
        a = pion_neutrino_experiment(self.DM2, math.pi / 4, 50.0)
        b = pion_neutrino_experiment(self.DM2, math.pi / 4, 900.0)
        assert oscillation_length_ratio(a, b) == pytest.approx(1.0, rel=1e-14)

    def test_standard_length_depends_only_on_momentum(self):
        # same neutrino momentum from different sources: the kinematic
        # oscillation length is identical, unlike the path-chain one
        pion = pion_neutrino_experiment(self.DM2, math.pi / 4, 100.0)
        same_p_beta = NeutrinoExperiment(
            CONSTANTS.m_pi, CONSTANTS.hbar_mev_s / CONSTANTS.tau_pi,
            CONSTANTS.m_mu, self.DM2, math.pi / 4, 100.0,
            beta_energy_mev=50.0, neutrino_p_mev=pion.p0)
        l_pion = neutrino_oscillation(pion).losc_standard
        l_beta = neutrino_oscillation(same_p_beta).losc_standard
        assert l_beta == pytest.approx(l_pion, rel=1e-14)
        kaon = kaon_neutrino_experiment(self.DM2, math.pi / 4, 100.0)
        assert neutrino_oscillation(kaon).losc_standard \
            != pytest.approx(l_pion, rel=0.5)  # different p0, different length
