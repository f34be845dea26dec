import math
import random

import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from pathamp import ray_optics
from pathamp.core_num import CONSTANTS, DomainError
from pathamp.ray_optics import (
    InterfaceGeometry,
    TotalInternalReflection,
    effective_propagation_time,
    fermat_stationary_angle,
    path_phase,
    phase_curvature,
    snell_angle,
    stationary_phase_angle,
    trajectory_spread,
)

KAPPA = 2 * math.pi / CONSTANTS.lambda_na_d


def geometry(n1, n2, theta_i, d=1.0, segment=0.7):
    return InterfaceGeometry(n1, n2, math.pi / 2 - theta_i, d, segment)


def mirrored(geom):
    """The reflection geometry: the outgoing leg stays in medium n1."""
    return InterfaceGeometry(geom.n1, geom.n1, geom.alpha, geom.d, geom.segment)


class TestSnell:
    def test_normal_incidence_goes_straight(self):
        assert snell_angle(1.5, 1.0, 0.0) == 0.0

    def test_matched_media(self):
        theta = math.radians(33.0)
        assert snell_angle(1.3, 1.3, theta) == pytest.approx(theta, rel=1e-14)

    def test_just_below_critical(self):
        # 87.4 deg out corresponds to ~41.76 deg in for glass-to-vacuum;
        # anything at or past the 41.81 deg critical angle has no
        # transmitted ray at all
        theta_o = snell_angle(1.5, 1.0, math.radians(41.76))
        assert math.degrees(theta_o) == pytest.approx(87.4, abs=0.1)

    def test_total_internal_reflection_carries_critical_angle(self):
        with pytest.raises(TotalInternalReflection) as err:
            snell_angle(1.5, 1.0, math.radians(42.0))
        assert math.degrees(err.value.critical_angle) \
            == pytest.approx(41.81, abs=0.01)

    @pytest.mark.parametrize("n1, n2", [(math.nan, 1.0), (1.5, math.nan),
                                        (math.inf, 1.0), (1.5, math.inf)])
    def test_non_finite_index_refused(self, n1, n2):
        # NaN passed the n >= 1 check (nan out); an infinite n2 gave 0.0
        with pytest.raises(DomainError, match="finite"):
            snell_angle(n1, n2, 0.3)


class TestInterfaceGeometry:
    @pytest.mark.parametrize("field", ["n1", "n2", "alpha", "d", "segment"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_refused(self, field, value):
        # NaN passed every comparison but alpha's, and an infinite index
        # or length made a meaningless geometry
        kwargs = dict(n1=1.5, n2=1.0, alpha=0.5, d=1.0, segment=1.0)
        kwargs[field] = value
        with pytest.raises(DomainError, match=f"^{field} must"):
            InterfaceGeometry(**kwargs)


class TestStationaryPhase:
    def test_refraction_branch_matches_snell(self):
        geom = geometry(1.5, 1.0, math.radians(30.0))
        found = stationary_phase_angle(geom)
        assert math.sin(found.theta) == pytest.approx(0.75, abs=1e-9)
        assert math.degrees(found.theta) == pytest.approx(48.59, abs=0.01)

    @pytest.mark.parametrize("theta_i_deg", [5.0, 15.0, 30.0, 41.0])
    def test_snell_across_angles(self, theta_i_deg):
        theta_i = math.radians(theta_i_deg)
        geom = geometry(1.5, 1.0, theta_i)
        found = stationary_phase_angle(geom)
        expected = snell_angle(1.5, 1.0, theta_i)
        assert found.theta == pytest.approx(expected, abs=1e-6)

    def test_reflection_branch(self):
        theta_i = math.radians(25.0)
        geom = mirrored(geometry(1.5, 1.0, theta_i))
        found = stationary_phase_angle(geom)
        assert found.theta == pytest.approx(theta_i, abs=1e-8)

    def test_reflection_branch_matches_fermat_on_mirrored_geometry(self):
        # the independent check of the law of reflection: stationary time
        # with the outgoing leg in the incidence medium
        for theta_i_deg in (5.0, 25.0, 41.0):
            theta_i = math.radians(theta_i_deg)
            geom = mirrored(geometry(1.5, 1.0, theta_i))
            found = stationary_phase_angle(geom)
            assert found.theta == pytest.approx(theta_i, abs=1e-12)
            assert fermat_stationary_angle(geom) == pytest.approx(found.theta, abs=1e-9)

    @pytest.mark.parametrize("n1, n2", [(1.5, 1.0), (1.0, 1.5), (1.3, 1.3)])
    def test_normal_incidence_goes_straight(self, n1, n2):
        # the root is not 0 but near 6e-17 rad, since cos(pi/2) != 0 in
        # floating point
        geom = geometry(n1, n2, 0.0)
        for g in (geom, mirrored(geom)):
            found = stationary_phase_angle(g)
            assert abs(found.theta) <= 1e-12
            assert found.residual <= 1e-15
        assert abs(fermat_stationary_angle(geom)) <= 1e-12

    def test_matched_media_branches_coincide(self):
        theta_i = math.radians(20.0)
        geom = geometry(1.2, 1.2, theta_i)
        assert mirrored(geom) == geom   # matched media are their own mirror
        refr = stationary_phase_angle(geom).theta
        refl = stationary_phase_angle(mirrored(geom)).theta
        assert refr == pytest.approx(theta_i, abs=1e-9)
        assert refl == pytest.approx(theta_i, abs=1e-9)

    def test_no_root_in_window(self):
        # past the critical angle, n1 sin(theta_i) > n2: no transmitted ray
        geom = geometry(1.5, 1.0, math.radians(45.0))
        with pytest.raises(DomainError, match="no stationary point"):
            stationary_phase_angle(geom)
        with pytest.raises(DomainError, match="no stationary point"):
            fermat_stationary_angle(geom)


def opposite_signs(a, b):
    return a < 0 < b or b < 0 < a


class TestRootSearch:
    def test_roots_bracket_a_sign_change_and_match_scipy_brentq(self, monkeypatch):
        own = ray_optics._window_root
        found = []

        def spy(f):
            theta = own(f)
            found.append((f, theta))
            return theta

        monkeypatch.setattr(ray_optics, "_window_root", spy)
        searches = {
            "refraction": stationary_phase_angle,
            "reflection": lambda g: stationary_phase_angle(mirrored(g)),
            "fermat": fermat_stationary_angle,
        }
        # scipy's Brent search stops within its xtol of the root.  The
        # Fermat residual is a finite difference of travel times, which is
        # rounding noise near its root, so there the two searches may
        # settle ~1e-7 apart.
        tolerance = {"refraction": 1e-12, "reflection": 1e-12, "fermat": 1e-7}
        searched = dict.fromkeys(searches, 0)
        rng = random.Random(2005)
        for _ in range(1000):
            geom = InterfaceGeometry(rng.uniform(1.0, 2.5), rng.uniform(1.0, 2.5),
                                     rng.uniform(0.02, math.pi / 2),
                                     rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
            for name, search in searches.items():
                found.clear()
                try:
                    search(geom)
                except DomainError:
                    continue   # no sign change over the window
                (f, theta), = found
                y = f(theta)
                neighbours = (math.nextafter(theta, -math.inf),
                              math.nextafter(theta, math.inf))
                assert y == 0 or any(opposite_signs(y, f(t)) for t in neighbours), \
                    (name, geom)
                reference = brentq(f, *ray_optics._WINDOW, xtol=1e-12)
                assert abs(theta - reference) <= tolerance[name], (name, geom)
                searched[name] += 1
        assert min(searched.values()) >= 700, searched

    def test_nan_residual_refused(self):
        with pytest.raises(DomainError, match="NaN"):
            ray_optics._window_root(lambda x: -1.0 if x < 0.5 else math.nan)

    def test_step_far_below_the_window_found_to_the_last_bit(self):
        # the bisection halves down to adjacent doubles however small the
        # root: no tolerance or step cap stops it short (a Brent search
        # with xtol = 1e-12 ends within 1e-12 of 0)
        step = 1e-100
        theta = ray_optics._window_root(lambda x: -1.0 if x < step else 1.0)
        assert theta in (step, math.nextafter(step, 0.0))


    @pytest.mark.parametrize("end", [0, 1], ids=["lower", "upper"])
    def test_exact_zero_at_a_window_end_is_that_end(self, end):
        root = ray_optics._WINDOW[end]
        assert ray_optics._window_root(lambda x: x - root) == root

class TestPathPhase:
    def test_undisplaced_value(self):
        geom = geometry(1.5, 1.0, math.radians(30.0))
        theta = math.radians(40.0)
        r = geom.detector_r(theta)
        assert path_phase(geom, KAPPA, theta) \
            == pytest.approx(KAPPA * (1.0 * r + 1.5 * geom.segment), rel=1e-12)

    def test_gradient_vanishes_at_snell_angle(self):
        geom = geometry(1.5, 1.0, math.radians(30.0))
        theta = snell_angle(1.5, 1.0, math.radians(30.0))
        h = 1e-7
        grad = (path_phase(geom, KAPPA, theta, big_r=h)
                - path_phase(geom, KAPPA, theta, big_r=-h)) / (2 * h)
        assert abs(grad) < 1e-8 * KAPPA

    def test_azimuth_free_at_zero_displacement(self):
        geom = geometry(1.5, 1.0, math.radians(30.0))
        theta = math.radians(40.0)
        base = path_phase(geom, KAPPA, theta)
        for phi1 in (0.5, 1.5, 3.0):
            assert path_phase(geom, KAPPA, theta, phi1=phi1) \
                == pytest.approx(base, rel=1e-14)


class TestCurvatureAndSpread:
    GEOM = geometry(1.5, 1.0, math.radians(30.0))
    THETA = snell_angle(1.5, 1.0, math.radians(30.0))

    def test_curvature_matches_closed_form(self):
        # second central difference of the displaced path phase, step 1e-4 d;
        # the closed form holds off the stationary point too
        step = 1e-4 * self.GEOM.d
        for theta in (self.THETA, 0.0, 1.0):
            f = lambda big_r: path_phase(self.GEOM, KAPPA, theta, big_r)
            fd = (f(step) - 2.0 * f(0.0) + f(-step)) / step ** 2
            assert phase_curvature(self.GEOM, KAPPA, theta) == pytest.approx(fd, rel=1e-6)

    def test_pi_phase_across_angular_spread(self):
        # moving the crossing point by dR = r dtheta / cos(theta) with
        # dtheta from trajectory_spread advances the phase by pi within 1%
        r = self.GEOM.detector_r(self.THETA)
        spread = trajectory_spread(KAPPA, self.GEOM.n2, r, self.THETA)
        d_big_r = spread.dtheta * r / math.cos(self.THETA)
        dphi = path_phase(self.GEOM, KAPPA, self.THETA, big_r=d_big_r) \
            - path_phase(self.GEOM, KAPPA, self.THETA)
        assert dphi == pytest.approx(math.pi, rel=0.01)

    def test_benchmark_spreads(self):
        spread = trajectory_spread(2 * math.pi / 5.9e-7, 1.5, 1.0, 0.0)
        assert spread.dtheta == pytest.approx(6.27e-4, rel=1e-3)
        assert spread.dx == pytest.approx(6.27e-4, rel=1e-3)
        assert spread.dy == spread.dx

    def test_secant_factor(self):
        spread = trajectory_spread(KAPPA, 1.5, 1.0, math.radians(60.0))
        assert spread.dy == pytest.approx(2.0 * spread.dx, rel=1e-12)

    @pytest.mark.parametrize("kappa,n2,r,theta_o", [
        (math.nan, 1.5, 1.0, 0.0), (math.inf, 1.5, 1.0, 0.0),
        (1e7, math.nan, 1.0, 0.0), (1e7, math.inf, 1.0, 0.0),
        (1e7, 1.5, math.nan, 0.0), (1e7, 1.5, math.inf, 0.0),
        (1e7, 1.5, 1.0, math.nan), (1e7, 1.5, 1.0, math.inf),
        (1e7, 1.5, 1.0, -math.inf)])
    def test_refuses_non_finite_input(self, kappa, n2, r, theta_o):
        # math.cos would raise a bare ValueError at an infinite theta_o; the
        # others would give a NaN, zero or infinite spread
        with pytest.raises(DomainError):
            trajectory_spread(kappa, n2, r, theta_o)


class TestFermat:
    def test_phase_is_kappa_c_times_time(self):
        geom = geometry(1.5, 1.0, math.radians(30.0))
        for theta_deg in (10.0, 30.0, 55.0):
            theta = math.radians(theta_deg)
            t_eff = effective_propagation_time(geom, theta)
            assert path_phase(geom, KAPPA, theta) \
                == pytest.approx(KAPPA * CONSTANTS.c * t_eff, rel=1e-12)

    @given(st.floats(1.0, 2.0), st.floats(1.0, 2.0),
           st.floats(0.1, 1.2), st.floats(0.2, 3.0), st.floats(0.2, 3.0))
    def test_phase_time_identity_random_geometry(self, n1, n2, theta, d, seg):
        geom = InterfaceGeometry(n1, n2, math.pi / 4, d, seg)
        t_eff = effective_propagation_time(geom, theta)
        assert path_phase(geom, KAPPA, theta) \
            == pytest.approx(KAPPA * CONSTANTS.c * t_eff, rel=1e-12)

    def test_stationary_time_reproduces_snell(self):
        theta_i = math.radians(30.0)
        geom = geometry(1.5, 1.0, theta_i)
        theta = fermat_stationary_angle(geom)
        assert theta == pytest.approx(snell_angle(1.5, 1.0, theta_i), abs=1e-6)

    def test_matched_media_straight_line(self):
        geom = geometry(1.0, 1.0, math.radians(20.0))
        t = effective_propagation_time(geom, math.radians(20.0))
        r = geom.detector_r(math.radians(20.0))
        assert t == pytest.approx((r + geom.segment) / CONSTANTS.c, rel=1e-12)


class TestSpreadBenchmarkFlag:
    def test_reference_figure_is_flagged(self):
        from pathamp.ray_optics import spread_benchmark_flag
        flag = spread_benchmark_flag()
        assert flag.computed == pytest.approx(6.27e-4, rel=1e-3)
        assert flag.reference == 6.3e-6
        assert flag.computed / flag.reference == pytest.approx(100.0, rel=0.01)
