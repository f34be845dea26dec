import cmath
import math
import random
import re

import mpmath
import pytest
from mpmath import arg as mp_arg

from pathamp import refraction
from pathamp.core_num import (
    CONSTANTS,
    ApproximationWarning,
    DomainError,
    PreconditionError,
)
from pathamp.oracle import mc_ordered_volume, quad_nested, quad_oscillatory, series_sum_highprec
from pathamp.refraction import (
    BETA_L_SUMMATION_LIMIT,
    AnnulmentReport,
    CircularBoundary,
    ConvergenceError,
    MediumSpec,
    RectangularBoundary,
    annulment_report,
    boundary_averaged_factor,
    boundary_radial_limit,
    effective_velocity,
    nested_volume_integral,
    refractive_index,
    scattering_length_for_index,
    regime_classification,
    scattering_order_kernel,
    thin_sheet_phase_shift,
    time_budget_factor,
    unconstrained_block_amplitude,
)

LAMBDA = CONSTANTS.lambda_na_d
KAPPA = 2 * math.pi / LAMBDA


def glass_sheet(thickness):
    # scattering length tuned to n = 1.5 at the sodium line
    a_scat = 0.5 * 2 * math.pi / (LAMBDA ** 2 * 2.5e27)
    return MediumSpec(2.5e27, a_scat, thickness)


class TestThinSheet:
    def test_benchmark_value(self):
        sheet = glass_sheet(LAMBDA / 1000.0)
        dphi = thin_sheet_phase_shift(sheet, KAPPA)
        assert dphi == pytest.approx(2 * math.pi * 0.5 / 1000.0, rel=1e-9)

    def test_vacuum_sheet(self):
        sheet = MediumSpec(2.5e27, 0.0, 1e-9)
        assert thin_sheet_phase_shift(sheet, KAPPA) == 0.0

    def test_matches_complex_argument_in_validity_window(self):
        sheet = glass_sheet(LAMBDA / 100.0)
        dphi = thin_sheet_phase_shift(sheet, KAPPA)
        assert dphi < 0.1
        assert dphi == pytest.approx(cmath.phase(1 + 1j * dphi), rel=5e-3)

    def test_warns_outside_validity(self):
        sheet = glass_sheet(LAMBDA)  # dphi ~ pi
        with pytest.warns(ApproximationWarning):
            thin_sheet_phase_shift(sheet, KAPPA)


class TestRefractiveIndex:
    def test_half_integer_case(self):
        # lambda^2 N a = pi  =>  n = 1.5
        lam, density = 5e-7, 1e27
        a = math.pi / (lam ** 2 * density)
        assert refractive_index(density, a, lam) == pytest.approx(1.5, rel=1e-12)

    def test_vacuum(self):
        assert refractive_index(1e27, 0.0, 5e-7) == 1.0

    def test_round_trip_inversion(self):
        a = (1.5 - 1.0) * 2 * math.pi / (LAMBDA ** 2 * 2.5e27)
        assert refractive_index(2.5e27, a, LAMBDA) == pytest.approx(1.5, rel=1e-14)

    @pytest.mark.parametrize("n,density,lam", [
        (1.5, 2.5e27, 589.3e-9), (1.0003, 1e25, 5e-7), (1.0, 1e20, 1e-6),
        (0.9, 3e26, 4e-7)])
    def test_scattering_length_for_index_inverts_index(self, n, density, lam):
        a = scattering_length_for_index(n, density, lam)
        assert a == (n - 1.0) * 2.0 * math.pi / (lam ** 2 * density)
        assert refractive_index(density, a, lam) == pytest.approx(n, rel=1e-14)

    @pytest.mark.parametrize("density,lam", [(0.0, 5e-7), (-1e25, 5e-7),
                                             (1e25, 0.0), (1e25, -5e-7)])
    def test_scattering_length_for_index_refuses_like_index(self, density, lam):
        with pytest.raises(DomainError, match="density and wavelength must be positive"):
            scattering_length_for_index(1.5, density, lam)
        with pytest.raises(DomainError, match="density and wavelength must be positive"):
            refractive_index(density, 1e-10, lam)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [
    lambda x: MediumSpec(1e25, x, 1e-9),
    lambda x: thin_sheet_phase_shift(MediumSpec(1e25, 1e-15, 1e-9), x),
    lambda x: refractive_index(1e25, x, 5e-7),
    lambda x: scattering_length_for_index(x, 1e25, 5e-7),
    lambda x: boundary_averaged_factor(x),
    lambda x: regime_classification(x, 1.0),
], ids=["MediumSpec", "thin_sheet_phase_shift", "refractive_index",
        "scattering_length_for_index", "boundary_averaged_factor",
        "regime_classification"])
def test_entry_points_refuse_non_finite_input(entry, bad):
    # NaN passes every sign check and inf overflows past them: each of
    # these answered nan, inf, 0.0 or a regime label before it refused
    with pytest.raises(DomainError, match="must be finite"):
        entry(bad)


class TestEffectiveVelocity:
    def test_empty_path(self):
        v = effective_velocity(0.0, 1.5)
        assert v.linear == v.reciprocal == CONSTANTS.c

    def test_filled_path(self):
        v = effective_velocity(1.0, 1.5)
        assert v.reciprocal == pytest.approx(CONSTANTS.c / 1.5, rel=1e-12)

    def test_forms_agree_to_first_order(self):
        v = effective_velocity(0.5, 1.001)
        assert v.relative_difference < 2.5e-7

    @pytest.mark.parametrize("f,n,regime", [(0.5, 1.001, "thin-sheet"),
                                            (1.0, 1.5, "thick-block")])
    def test_regime_set_by_n_minus_one_times_f(self, f, n, regime):
        # (n - 1) f is 5e-4 and 0.5 here, either side of the 1e-3 threshold
        assert effective_velocity(f, n).regime == regime

    @pytest.mark.parametrize("f,n", [(0.5, math.inf), (0.0, math.inf),
                                     (0.5, math.nan), (0.0, math.nan)])
    def test_refuses_non_finite_index(self, f, n):
        # n = inf with f > 0 would divide by zero; the others would give
        # NaN fields
        with pytest.raises(DomainError, match="finite"):
            effective_velocity(f, n)


class TestNestedVolume:
    def test_first_order(self):
        assert nested_volume_integral(1, 2.0) == 2.0

    def test_third_order(self):
        assert nested_volume_integral(3, 2.0) == pytest.approx(8.0 / 6.0, rel=1e-12)

    def test_log_space_branch_is_continuous(self):
        direct = nested_volume_integral(20, 1.3)
        logged = nested_volume_integral(21, 1.3)
        assert logged == pytest.approx(direct * 1.3 / 21.0, rel=1e-12)

    def test_fourth_order_against_monte_carlo(self):
        res = mc_ordered_volume(4, 1.0, 1_000_000, seed=5)
        assert res.value.real == pytest.approx(nested_volume_integral(4, 1.0),
                                               rel=0.02)

    def test_monte_carlo_three_sigma_up_to_order_five(self):
        for n in (2, 3, 4, 5):
            res = mc_ordered_volume(n, 1.0, 400_000, seed=n)
            assert abs(res.value.real - nested_volume_integral(n, 1.0)) \
                <= 3.0 * res.error_estimate


def kernel_tail(order, delta_phi):
    """K_n(dphi) = e^{i dphi} sum_{k>=n} (-i dphi)^k / k! in mpmath at the
    working precision, summed as a tail: the form 1 - e^{i dphi} sum_{k<n}
    cancels past every digit once |K_n| is below the precision."""
    z = -1j * mpmath.mpf(delta_phi)
    term = z ** order / mpmath.factorial(order)
    tail, k = term, order
    while abs(term) > mpmath.eps * abs(tail):
        k += 1
        term *= z / k
        tail += term
    return mpmath.exp(-z) * tail


class TestOrderKernel:
    def test_seeded_grid_matches_40_digit_tail(self):
        # the form 1 - e^{i dphi} sum_{k<n} cancels once |K_n| << 1: on
        # this grid it was up to 2.0e146 off, at (40, 1.2e-3), where the
        # tail is now summed backward instead
        rng = random.Random(600)
        for _ in range(600):
            order = rng.randint(1, 40)
            dphi = math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
            got = scattering_order_kernel(order, dphi)
            with mpmath.workdps(40):
                ref = kernel_tail(order, dphi)
                assert abs(got - ref) <= 1e-13 * abs(ref), (order, dphi)

    @pytest.mark.parametrize("order,dphi", [(4, 1e-3), (20, 1.5), (40, 1.3e-3),
                                            (8, 8.0), (9, 8.0), (1, 0.5)])
    def test_either_side_of_the_switch(self, order, dphi):
        with mpmath.workdps(40):
            ref = kernel_tail(order, dphi)
            assert abs(scattering_order_kernel(order, dphi) - ref) <= 1e-14 * abs(ref)

    def test_zero_budget_is_exactly_zero(self):
        assert all(scattering_order_kernel(n, 0.0) == 0 for n in (1, 2, 5, 40))


class TestUnconstrainedBlock:
    def test_no_medium(self):
        assert unconstrained_block_amplitude(0.0).value == 1.0 + 0.0j

    def test_euler_point(self):
        val = unconstrained_block_amplitude(math.pi).value
        assert abs(val - (-1.0)) < 1e-12

    def test_phase_equals_refraction_phase(self):
        beta_l = 2.0
        res = unconstrained_block_amplitude(beta_l)
        assert cmath.phase(res.value) == pytest.approx(beta_l, rel=1e-12)
        assert res.n_terms < 40

    def test_refuses_extreme_strength(self):
        with pytest.raises(PreconditionError):
            unconstrained_block_amplitude(BETA_L_SUMMATION_LIMIT + 1)

    @pytest.mark.parametrize("beta_l", [math.nan, math.inf])
    def test_refuses_non_finite_strength(self, beta_l):
        with pytest.raises(DomainError, match="finite"):
            unconstrained_block_amplitude(beta_l)


class TestTimeBudgetFactor:
    def test_zero_budget_exact_unity(self):
        for beta_l in (0.1, 1.0, 5.0, 10.0):
            assert time_budget_factor(0.0, beta_l).value == 1.0 + 0.0j

    def test_no_medium(self):
        assert time_budget_factor(2.0, 0.0).value == 1.0 + 0.0j

    @pytest.mark.parametrize("beta_l", [0.1, 1.0, 5.0, 10.0])
    @pytest.mark.parametrize("dphi", [0.0, 0.5, 2.0, 10.0])
    def test_route_agreement_on_grid(self, beta_l, dphi):
        f = time_budget_factor(dphi, beta_l)
        scale = abs(f.value)
        assert abs(f.value - f.trig_route) <= 1e-10 * scale

    @pytest.mark.parametrize("beta_l,dphi", [(1.0, 0.5), (5.0, 2.0), (10.0, 10.0)])
    def test_against_high_precision_oracle(self, beta_l, dphi):
        hp = series_sum_highprec(dphi, beta_l)
        hp_c = complex(float(hp.real), float(hp.imag))
        lp = time_budget_factor(dphi, beta_l).value
        assert abs(lp - hp_c) <= 1e-11 * abs(hp_c)

    def test_order3_kernel_against_nested_quadrature(self):
        dphi = 2.0
        res = quad_nested(3, 1.0, dphi)
        closed = cmath.exp(0.4j) * 1j ** 3 * scattering_order_kernel(3, dphi)
        assert abs(res.value - closed) <= 1e-6 * abs(closed)

    def test_order4_kernel_against_nested_quadrature(self):
        # closed-form kernel sign pattern at fourth order, checked against
        # the recursive integral directly
        dphi = 5.0
        res = quad_nested(4, 1.0, dphi, nodes=48)
        closed = cmath.exp(0.4j) * 1j ** 4 * scattering_order_kernel(4, dphi)
        assert abs(res.value - closed) <= 1e-6 * abs(closed)

    def test_order_cap_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(refraction, "_MAX_TERMS", 5)
        with pytest.raises(ConvergenceError, match="after 5 orders"):
            time_budget_factor(2.0, 10.0)

    def test_refusal_above_summation_limit_names_regime(self):
        with pytest.raises(PreconditionError) as err:
            time_budget_factor(10.0, 1000.0)
        assert "annulment" in str(err.value)

    @pytest.mark.parametrize("dphi,beta_l", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
        (math.inf, math.nan)])
    def test_refuses_non_finite_input(self, dphi, beta_l):
        with pytest.raises(DomainError, match="finite"):
            time_budget_factor(dphi, beta_l)

    @pytest.mark.parametrize("dphi,beta_l", [(720.0, 0.5), (800.0, 1.0),
                                             (1000.0, 50.0)])
    def test_float_overflow_stops_at_first_convergence_test(self, dphi, beta_l):
        # the partial exponential of the kernel passes float64 range near
        # dphi = 710; the series must stop as soon as the running sum is
        # tested, not run on to the 100000-order cap
        with pytest.raises(ConvergenceError, match="overflow") as err:
            time_budget_factor(dphi, beta_l)
        stopped = int(re.search(r"order (\d+)", str(err.value)).group(1))
        assert stopped <= dphi + beta_l + 2

    # (dphi, beta_l, value.real, value.imag, trig_route.real, trig_route.imag,
    # n_terms) in hex; n_terms runs from 5 to 652
    PINNED = [
        (0.01, 0.5, "0x1.014815985c129p+0", "0x1.a4205acc884f2p-16",
         "0x1.014815985c129p+0", "0x1.a4205acc8835bp-16", 5),
        (0.02, 2.5, "0x1.0cf5c404a41acp+0", "0x1.0a8813b2677fbp-11",
         "0x1.0cf5c404a41acp+0", "0x1.0a8813b266cd9p-11", 7),
        (0.4, 5.0, "0x1.0972ca0839cf6p+2", "0x1.76d585b239b85p-1",
         "0x1.0972ca0839cf7p+2", "0x1.76d585b239ba1p-1", 12),
        (2.0, 5.0, "0x1.525abee8f3c68p+3", "0x1.3fdfa452ec046p+6",
         "0x1.525abee8f3c67p+3", "0x1.3fdfa452ec045p+6", 17),
        (10.0, 10.0, "-0x1.d09dad25887d4p+24", "0x1.a6f1c0705ddccp+22",
         "-0x1.d09dad25887d4p+24", "0x1.a6f1c0705ddcap+22", 32),
        (50.0, 10.0, "0x1.4aa20c31d1a8dp+56", "-0x1.1ace1123b4bd9p+59",
         "0x1.4aa20c31d1a89p+56", "-0x1.1ace1123b4bd5p+59", 61),
        (300.0, 10.0, "-0x1.c6334075dbcb8p+150", "-0x1.1e0f905c38e38p+148",
         "-0x1.c6334075dbcb5p+150", "-0x1.1e0f905c38e37p+148", 311),
        (200.0, 50.0, "-0x1.537810c423bfap+281", "-0x1.efac7a8e60581p+281",
         "-0x1.537810c423bf4p+281", "-0x1.efac7a8e60577p+281", 251),
        (650.0, 1.0, "0x1.c3c8e699600a1p+62", "0x1.958bfb8c8d5a0p+64",
         "0x1.c3c8e699600a1p+62", "0x1.958bfb8c8d59fp+64", 652),
        (3.0, 25.0, "-0x1.4d513eecf2294p+21", "0x1.521bd17d0257dp+20",
         "-0x1.4d513eecf198ap+21", "0x1.521bd17d028d5p+20", 37),
    ]

    def test_bits_are_pinned(self):
        # a rewrite of either route that claims the same outputs keeps
        # these to the last bit
        got = []
        for dphi, beta_l, *_ in self.PINNED:
            f = time_budget_factor(dphi, beta_l)
            got.append((dphi, beta_l, f.value.real.hex(), f.value.imag.hex(),
                        f.trig_route.real.hex(), f.trig_route.imag.hex(), f.n_terms))
        assert got == self.PINNED


class TestAnnulmentRegime:
    def test_phase_suppressed_on_log_grid(self):
        # scattering strength >= 100x the budget phase: the factor's
        # (principal) phase stays far below the full refraction phase
        # beta_l; the real part dominating is regime-typical but not
        # universal, so only the regime-level bound is asserted
        for dphi, beta_l in ((10.0, 1000.0), (10.0, 2000.0), (20.0, 2000.0)):
            val = series_sum_highprec(dphi, beta_l)
            assert abs(float(mp_arg(val))) < 0.1 * beta_l

    def test_large_budget_recovers_plain_refraction(self):
        # once the budget phase dwarfs the scattering strength the radial
        # upper limits are boundary-regularised away and the block factor
        # returns to exp(i beta_l): phase (n-1) kappa L to within 1%
        for beta_l in (0.5, 2.0):
            dphi = 200.0 * beta_l
            assert regime_classification(dphi, beta_l).startswith("boundary")
            val = boundary_averaged_factor(beta_l)
            series_val = unconstrained_block_amplitude(beta_l).value
            assert cmath.phase(val) == pytest.approx(beta_l, rel=1e-12)
            assert abs(series_val - val) <= 1e-11 * abs(val)


class TestAnnulmentReport:
    REPORT = annulment_report(radius=0.05, axis_distance=2.0,
                              wavelength=5.9e-7, block_length=0.40,
                              n=1.5, tau_s=CONSTANTS.tau_na_annulment)

    def test_budget_length(self):
        assert self.REPORT.delta_s_max == pytest.approx(625e-6, rel=1e-12)

    def test_budget_phase(self):
        assert self.REPORT.delta_phi_max == pytest.approx(6.66e3, rel=0.01)

    def test_scattering_strength(self):
        assert self.REPORT.beta_l == pytest.approx(2.12e6, rel=0.01)

    def test_prompt_fraction_computed_and_flagged(self):
        assert self.REPORT.prompt_fraction == pytest.approx(3.86e-5, rel=0.01)
        flag = self.REPORT.flags[0]
        assert flag.quantity == "prompt_fraction"
        assert flag.reference == 4e-4

    def test_requires_small_radius(self):
        with pytest.raises(PreconditionError):
            annulment_report(2.0, 1.0, 5.9e-7, 0.4, 1.5, 1e-8)


class TestBoundaryRadialLimit:
    def test_centered_circle_is_azimuth_independent(self):
        b = CircularBoundary(radius=0.03)
        x1 = 0.5
        vals = [boundary_radial_limit(b, x1, phi)
                for phi in (0.0, 1.0, 2.5, 4.0, 6.0)]
        expected = x1 + 0.03 ** 2 / (2 * x1)
        for v in vals:
            assert v == pytest.approx(expected, rel=1e-14)

    def test_centered_rectangle_along_axis(self):
        b = RectangularBoundary(l_y=0.08, l_z=0.04)
        x1 = 0.5
        assert boundary_radial_limit(b, x1, 0.0) \
            == pytest.approx(x1 + 0.04 ** 2 / (8 * x1), rel=1e-12)

    def test_rectangle_sector_continuity_at_corners(self):
        b = RectangularBoundary(l_y=0.06, l_z=0.04, y=0.01, z=-0.005)
        corner = math.atan2(0.03 - 0.01, 0.02 + 0.005)
        below = boundary_radial_limit(b, 0.5, corner - 1e-9)
        above = boundary_radial_limit(b, 0.5, corner + 1e-9)
        assert below == pytest.approx(above, rel=1e-6)

    @pytest.mark.parametrize("phi1,h", [
        (0.0, 0.02 + 0.005), (math.pi / 2, 0.03 - 0.01),
        (math.pi, 0.02 - 0.005), (3 * math.pi / 2, 0.03 + 0.01)],
        ids=["+z", "+y", "-z", "-y"])
    def test_off_centre_rectangle_side_by_side(self, phi1, h):
        # along each axis direction the ray meets the side it heads for, at
        # l_z/2 - z, l_y/2 - y, l_z/2 + z and l_y/2 + y from the axis
        b = RectangularBoundary(l_y=0.06, l_z=0.04, y=0.01, z=-0.005)
        x1 = 0.5
        assert boundary_radial_limit(b, x1, phi1) \
            == pytest.approx(x1 + h ** 2 / (2 * x1), rel=1e-12)

    def test_displaced_circle_depends_on_azimuth(self):
        b = CircularBoundary(radius=0.034, y=0.015)
        a = boundary_radial_limit(b, 0.5, 0.0)
        c = boundary_radial_limit(b, 0.5, math.pi / 2)
        assert a != pytest.approx(c, rel=1e-3)

    def test_azimuthal_average_of_upper_limit_vanishes(self):
        # rapid phase turning of kappa*r1max(phi) around the boundary kills
        # the upper-limit contribution: |integral| << 2 pi
        b = CircularBoundary(radius=0.034, y=0.015)
        x1 = 0.5
        assert KAPPA * (boundary_radial_limit(b, x1, 0.0) - x1) > 5e3

        def integrand(phi):
            import numpy as np
            vals = np.array([boundary_radial_limit(b, x1, p) for p in np.atleast_1d(phi)])
            return np.exp(1j * KAPPA * vals)

        # effective azimuthal frequency from the total phase swing
        swing = KAPPA * (boundary_radial_limit(b, x1, math.pi / 2)
                         - boundary_radial_limit(b, x1, 3 * math.pi / 2))
        res = quad_oscillatory(integrand, 0.0, 2 * math.pi,
                               abs(swing) / 2.0)
        assert abs(res.value) < 0.05 * 2 * math.pi

    @staticmethod
    def _circle_reference(b, phi1):
        """(x1, r1_max) at 50 digits, with x1 the transverse distance, so
        the transverse term is half the value and not lost beside x1."""
        with mpmath.workdps(50):
            c, s = mpmath.cos(mpmath.mpf(phi1)), mpmath.sin(mpmath.mpf(phi1))
            t = mpmath.sqrt(mpmath.mpf(b.radius) ** 2 - (b.y * c) ** 2) - b.y * s
            x1 = float(t)
            return x1, x1 + t ** 2 / (2 * x1)

    def test_near_edge_circle_towards_its_near_side(self):
        # sqrt(R^2 - (y cos phi1)^2) - y sin phi1 rounded to 0 here, and
        # the call refused a valid circle
        b = CircularBoundary(0.028642053201353646, 0.028642053201353643)
        x1, ref = self._circle_reference(b, 1.570796335325029)
        assert abs(boundary_radial_limit(b, x1, 1.570796335325029) - ref) <= 1e-15 * ref

    def test_near_edge_circles_are_accurate(self):
        # the axis 1e-16 to 1 radius from the edge, and half the azimuths
        # within ~1e-8 rad of the near side, where the reach cancels
        rng = random.Random(2026)
        for _ in range(400):
            radius = 10 ** rng.uniform(-3, 0)
            y = radius * (1 - 10 ** rng.uniform(-16, 0)) * rng.choice((-1, 1))
            phi1 = (math.copysign(math.pi / 2, y) + rng.gauss(0, 1e-8)
                    if rng.random() < 0.5 else rng.uniform(-math.pi, math.pi))
            b = CircularBoundary(radius, y)
            x1, ref = self._circle_reference(b, phi1)
            assert abs(boundary_radial_limit(b, x1, phi1) - ref) <= 1e-15 * ref, \
                (radius, y, phi1)

    @pytest.mark.parametrize("boundary,x1,phi1", [
        (CircularBoundary(1e155, 1e155 - 1e150), 1.0, math.pi / 2),
        (RectangularBoundary(1e200, 1e200), 1e200, 0.1),
        (CircularBoundary(1e200), 1e200, 0.3),
        (CircularBoundary(1e-10), 1e-320, 0.3)],
        ids=["near-edge-circle", "rectangle", "circle", "subnormal-x1"])
    def test_finite_limits_near_the_double_range(self, boundary, x1, phi1):
        # 5.0e299, 1.126e200 and 1.5e200 were refused because a square on
        # the way passed the largest double; at x1 = 1e-320 the quotient
        # R1/(2 x1) does, though R1^2/(2 x1) is 5.0e299
        with mpmath.workdps(50):
            c, s = mpmath.cos(mpmath.mpf(phi1)), mpmath.sin(mpmath.mpf(phi1))
            if isinstance(boundary, CircularBoundary):
                t = mpmath.sqrt(mpmath.mpf(boundary.radius) ** 2
                                - (boundary.y * c) ** 2) - boundary.y * s
            else:
                t = min(mpmath.mpf(boundary.l_z) / 2 / abs(c),
                        mpmath.mpf(boundary.l_y) / 2 / abs(s))
            ref = x1 + t ** 2 / (2 * x1)
        assert abs(boundary_radial_limit(boundary, x1, phi1) - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("x1,phi1", [
        (math.nan, 0.0), (math.inf, 0.0), (0.5, math.nan), (0.5, math.inf),
        (0.5, -math.inf)], ids=["x1-nan", "x1-inf", "phi1-nan", "phi1-inf", "phi1-minus-inf"])
    @pytest.mark.parametrize("boundary", [
        CircularBoundary(radius=0.03), RectangularBoundary(l_y=0.08, l_z=0.04)],
        ids=["circle", "rectangle"])
    def test_non_finite_input_refused(self, boundary, x1, phi1):
        # NaN came back as NaN, x1 = inf as inf, and phi1 = +-inf raised a
        # bare ValueError from math.cos
        with pytest.raises(DomainError, match="finite"):
            boundary_radial_limit(boundary, x1, phi1)

    def test_interior_required(self):
        with pytest.raises(DomainError):
            CircularBoundary(radius=0.03, y=0.05)
        with pytest.raises(DomainError):
            RectangularBoundary(l_y=0.04, l_z=0.04, y=0.03)
        with pytest.raises(DomainError):
            boundary_radial_limit(None, 0.5, 0.0)


class TestUnconstrainedConvergenceGuard:
    def test_term_cap_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(refraction, "_MAX_TERMS", 4)
        with pytest.raises(ConvergenceError, match="after 4 terms"):
            unconstrained_block_amplitude(20.0)


class TestOrderStructureSymbolically:
    def test_trig_route_brackets_equal_kernel_brackets(self):
        # order-by-order symbolic identity between the complex kernel
        # i^m (1 - e^{ix} sum_{k<m} (-ix)^k/k!) and the real trigonometric
        # bracket built from truncated sine/cosine partial sums: proves the
        # parity and sign pattern at every order, independent of any grid
        import sympy as sp

        x = sp.symbols("x", real=True)
        sin_t = lambda j: sum((-1) ** k * x ** (2 * k + 1)
                              / sp.factorial(2 * k + 1) for k in range(j))
        cos_t = lambda j: sum((-1) ** k * x ** (2 * k)
                              / sp.factorial(2 * k) for k in range(j + 1))
        s, c = sp.sin(x), sp.cos(x)

        for m in range(1, 10):
            esum = sum((-sp.I * x) ** k / sp.factorial(k) for k in range(m))
            kernel = sp.I ** m * (1 - sp.exp(sp.I * x) * esum)
            if m % 2 == 0:
                n = m // 2
                sgn = (-1) ** n
                trig = sgn * ((1 - c * cos_t(n - 1) - s * sin_t(n))
                              + sp.I * (c * sin_t(n) - s * cos_t(n - 1)))
            else:
                n = (m - 1) // 2
                sgn = (-1) ** n
                trig = sgn * ((s * cos_t(n) - c * sin_t(n))
                              + sp.I * (1 - c * cos_t(n) - s * sin_t(n)))
            diff = sp.simplify(sp.expand(kernel.rewrite(sp.sin) - trig))
            assert diff == 0, f"order {m} bracket mismatch"
