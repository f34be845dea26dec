import ast
import cmath
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from pathamp.core_num import ConvergenceError, DomainError, PreconditionError
from pathamp.oracle import (
    DyadicComplex,
    OracleResult,
    _chebyshev,
    _expi,
    _leggauss,
    damped_radial_integral,
    gaussian_ratio_integral,
    mc_ordered_volume,
    quad_nested,
    quad_oscillatory,
    series_sum_highprec,
)
from pathamp import flavour, oracle, refraction, wave_optics
from pathamp.refraction import scattering_order_kernel
from test_refraction import kernel_tail


class TestQuadOscillatory:
    def test_full_period_vanishes(self):
        res = quad_oscillatory(lambda x: np.exp(1j * x), 0.0, 2 * math.pi, 1.0)
        assert abs(res.value) < 1e-12

    def test_half_period_zone(self):
        kappa, x1 = 3.0e6, 0.75
        res = quad_oscillatory(lambda r: np.exp(1j * kappa * r),
                               x1, x1 + math.pi / kappa, kappa)
        expected = wave_optics.half_period_zone_integral(kappa, x1)
        assert abs(res.value - expected) <= 1e-10 * abs(expected)

    def test_unresolved_integrand_raises_shared_convergence_error(self):
        # the integrand oscillates 50 times faster than the declared kappa,
        # so the 10- and 20-point rules per segment disagree
        with pytest.raises(ConvergenceError):
            quad_oscillatory(lambda x: np.exp(50j * x), 0.0, 10.0, 1.0)
        assert refraction.ConvergenceError is ConvergenceError

    def test_infinite_limit_requires_envelope(self):
        with pytest.raises(PreconditionError):
            quad_oscillatory(lambda x: np.exp(1j * x), 0.0, math.inf, 1.0)

    def test_damped_tail_accelerated(self):
        kappa, x1 = 1.0e7, 0.5
        rho = 1e-7 * kappa

        def f(r):
            return np.exp(1j * kappa * r - rho * (r - x1))

        res = quad_oscillatory(f, x1, math.inf, kappa, damping_scale=1 / rho)
        exact = cmath.exp(1j * kappa * x1) / (rho - 1j * kappa)
        assert abs(res.value - exact) <= 1e-8 * abs(exact)
        assert abs(res.value - exact) <= 5 * max(res.error_estimate, 1e-16 * abs(exact))

    @pytest.mark.parametrize("a,b,kappa", [
        (0.0, 1.0, math.nan), (0.0, 1.0, math.inf), (math.nan, 1.0, 1.0),
        (-math.inf, 1.0, 1.0), (math.inf, math.inf, 1.0), (0.0, math.nan, 1.0)])
    def test_refuses_non_finite_input(self, a, b, kappa):
        with pytest.raises(DomainError):
            quad_oscillatory(lambda x: np.exp(1j * x), a, b, kappa,
                             damping_scale=1.0)

    @pytest.mark.parametrize("rho_over_kappa", [100.0, 1e3])
    def test_envelope_shorter_than_half_period(self, rho_over_kappa):
        # the tail's segments shrink to the damping length, so 64 of them
        # span 64 e-folds instead of ending inside the first one
        kappa, x1 = 2.0 * math.pi / 589.3e-9, 0.5
        rho = rho_over_kappa * kappa
        res = quad_oscillatory(lambda r: np.exp(1j * kappa * r - rho * (r - x1)),
                               x1, math.inf, kappa, damping_scale=1.0 / rho)
        exact = cmath.exp(1j * kappa * x1) / (rho - 1j * kappa)
        assert abs(res.value - exact) <= 1e-6 * abs(exact)

    @pytest.mark.parametrize("x1", [0.05, 0.5, 5.0])
    @pytest.mark.parametrize("rho_over_kappa", [10.0, 100.0, 1e3, 3e4, 1e5, 1e6])
    def test_tail_error_estimate_bounds_true_error(self, x1, rho_over_kappa):
        # node positions round to the spacing of doubles at x1, an error
        # of ~rho ulp(x1) relative that the rule differences do not see
        kappa = 2.0 * math.pi / 589.3e-9
        rho = rho_over_kappa * kappa
        res = quad_oscillatory(lambda r: np.exp(1j * kappa * r - rho * (r - x1)),
                               x1, math.inf, kappa, damping_scale=1.0 / rho)
        exact = cmath.exp(1j * kappa * x1) / (rho - 1j * kappa)
        assert abs(res.value - exact) <= res.error_estimate

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
    def test_refuses_non_positive_damping_scale(self, scale):
        with pytest.raises(DomainError, match="damping_scale"):
            quad_oscillatory(lambda x: np.exp(1j * x - x), 0.0, math.inf, 1.0,
                             damping_scale=scale)

    def test_tail_without_a_correct_digit_refused(self):
        # at x1 = 5e5 m the doubles are 5.8e-11 m apart, over half a segment
        # of the e-folding length 1/rho = 9.4e-11 m, so the tail has no
        # correct digit (an estimate that ignored that rounding let it
        # through 7.6% off); it refuses whichever SIMD or BLAS kernels run
        kappa = 2.0 * math.pi / 589.3e-9
        x1, rho = 5e5, 1e3 * kappa
        with pytest.raises(ConvergenceError, match="tail did not converge"):
            quad_oscillatory(lambda r: np.exp(1j * kappa * r - rho * (r - x1)),
                             x1, math.inf, kappa, damping_scale=1.0 / rho)

    def test_seeded_tails_within_their_estimate(self):
        # 300 draws from the ranges perfbench's oracle-validate and cli-cold
        # take (lambda 400-800 nm, x1 0.1-2 m, rho/kappa 1e-8 to 1e-6), the
        # oracle-validate draw of seed 8101, and a strongly damped grid.
        # Every answered tail lies within its estimate of
        # e^{i kappa x1}/(rho - i kappa), taken at 40 digits from the same
        # doubles, and every draw from the benchmark ranges is answered to
        # 1e-6 (on these 300 an iterated Aitken extrapolation was up to
        # 4.7e-3 off, with its estimate below the true error on 128)
        rng = random.Random(2026)
        drawn = []
        for _ in range(300):
            kappa = 2.0 * math.pi / rng.uniform(400e-9, 800e-9)
            drawn.append((kappa, rng.uniform(0.1, 2.0),
                          kappa * 10.0 ** rng.uniform(-8.0, -6.0)))
        drawn.append((12268699.552076137, 0.3366239658803526, 7.517647076342569))
        kappa = 2.0 * math.pi / 589.3e-9
        grid = [(kappa, x1, q * kappa) for x1 in (0.05, 0.5, 5.0, 50.0, 5e3, 5e5)
                for q in (1e-7, 1e-5, 1e-3, 0.1, 10.0, 100.0, 1e3, 3e4, 1e5, 1e6)]
        for i, (kappa, x1, rho) in enumerate(drawn + grid):
            try:
                res = quad_oscillatory(
                    lambda r: np.exp(1j * kappa * r - rho * (r - x1)),
                    x1, math.inf, kappa, damping_scale=1.0 / rho)
            except ConvergenceError:
                assert i >= len(drawn), (kappa, x1, rho)
                continue
            with mpmath.workdps(40):
                k = mpmath.mpf(kappa)
                exact = complex(mpmath.expj(k * x1) / (mpmath.mpf(rho) - 1j * k))
            assert abs(res.value - exact) <= res.error_estimate, (kappa, x1, rho)
            if i < len(drawn):
                assert abs(res.value - exact) <= 1e-6 * abs(exact), (kappa, x1, rho)

    @pytest.mark.parametrize("wavelength, x1, rho_over_kappa, estimate", [
        (589.3e-9, 0.5, 1e-7, "0x1.9354543945e17p-44"),
        (400e-9, 0.5, 1e-6, "0x1.9250fa89ab7b2p-44")])
    def test_tail_estimate_same_bits_on_every_kernel_set(self, wavelength, x1,
                                                         rho_over_kappa, estimate):
        # numpy's complex abs rounds differently in its AVX2 and pre-AVX2
        # loops, which gave these estimates' last bits (on numpy's rules)
        # as ...9dep-44 and ...610p-44 on the one and ...9dcp-44 and
        # ...60fp-44 on the other
        kappa = 2.0 * math.pi / wavelength
        rho = rho_over_kappa * kappa
        res = quad_oscillatory(lambda r: np.exp(1j * kappa * r - rho * (r - x1)),
                               x1, math.inf, kappa, damping_scale=1.0 / rho)
        assert res.error_estimate.hex() == estimate

    def test_collapsed_tail_refused(self):
        # at x1 = 1e147 m a half period of 589.3 nm is below the spacing of
        # doubles, so every segment edge rounds to x1 and the sums would
        # be an exact 0 (huygens_zone_value gives ~9.4e-8 in modulus)
        kappa = 2.0 * math.pi / 589.3e-9
        with pytest.raises(ConvergenceError, match="spacing of doubles"):
            damped_radial_integral(kappa, 1e147, kappa * 1e-7)

    def test_negative_infinite_upper_limit_refused(self):
        # b = -inf lies below a; it is not the damped tail to +inf
        with pytest.raises(DomainError, match="b > a"):
            quad_oscillatory(lambda x: np.exp(1j * x - x), 0.0, -math.inf, 1.0,
                             damping_scale=1.0)

    @pytest.mark.parametrize("kappa", [2000.0, 340.0])
    def test_error_estimate_covers_true_error(self, kappa):
        # e^{2000ix}/(1 + x) on [0, 1]: at kappa = 2000 both rules are
        # resolved and only rounding is left; at 340 each segment spans
        # about six half periods, the fewest the 10-point rule resolves
        # well enough to be accepted
        f = lambda x: np.exp(2000j * x) / (1.0 + x)
        res = quad_oscillatory(f, 0.0, 1.0, kappa)
        with mpmath.workdps(30):
            w = mpmath.mpf(2000)
            # int_1^2 e^{iwt}/t dt = E1(-iw) - E1(-2iw), with t = 1 + x
            exact = complex(mpmath.expj(-w) * (mpmath.e1(-1j * w) - mpmath.e1(-2j * w)))
        assert abs(res.value - exact) <= res.error_estimate


class TestQuadNested:
    def test_single_level_closed_form(self):
        kappa, ds, x1 = 1.0, 2.0, 0.1
        res = quad_nested(1, kappa, ds, x1=x1)
        expected = (cmath.exp(1j * kappa * ds) - 1) \
            * cmath.exp(1j * kappa * x1) / (1j * kappa)
        assert abs(res.value - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("kappa,delta_s", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (-math.inf, 1.0),
        (1.0, math.inf), (1.0, -3.0), (1.0, -1e-300)])
    def test_refuses_non_finite_or_negative_input(self, kappa, delta_s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                quad_nested(2, kappa, delta_s)

    @pytest.mark.parametrize("nodes", [0, -3, 1.5, "64", None, 101, 2001])
    def test_refuses_bad_node_count(self, nodes):
        # numpy tests its rule only up to 100 points
        with pytest.raises(DomainError, match="nodes"):
            quad_nested(2, 1.0, 1.0, nodes=nodes)

    def test_accepts_largest_node_count(self):
        res = quad_nested(1, 1.0, 2.0, x1=0.1, nodes=100)
        expected = (cmath.exp(2j) - 1) * cmath.exp(0.1j) / 1j
        assert abs(res.value - expected) <= 1e-14 * abs(expected)

    def test_accepts_numpy_integer_node_count(self):
        assert quad_nested(2, 1.0, 3.0, nodes=np.int64(24)) \
            == quad_nested(2, 1.0, 3.0, nodes=24)

    def test_zero_budget_vanishes(self):
        res = quad_nested(3, 1.0, 0.0)
        assert abs(res.value) < 1e-14

    @pytest.mark.parametrize("order,dphi", [(1, 2.0), (2, 2.0), (3, 2.0),
                                            (3, 7.5), (4, 5.0)])
    def test_matches_order_kernel(self, order, dphi):
        kappa, x1 = 1.0, 0.4
        res = quad_nested(order, kappa, dphi / kappa, x1=x1)
        closed = cmath.exp(1j * kappa * x1) * (1j / kappa) ** order \
            * scattering_order_kernel(order, dphi)
        assert abs(res.value - closed) <= 1e-6 * abs(closed)

    @pytest.mark.parametrize("order,kappa,delta_s", [(1, 2.0, 1.5), (2, 0.5, 6.0),
                                                     (3, 1.7, 2.5), (4, 1.0, 5.0)])
    def test_nested_phase_integral_closed_form(self, order, kappa, delta_s):
        # the default x1 is NESTED_X_START
        res = quad_nested(order, kappa, delta_s)
        closed = refraction.nested_phase_integral(order, kappa, delta_s,
                                                  oracle.NESTED_X_START)
        assert abs(res.value - closed) <= 1e-6 * abs(closed)
        assert quad_nested(order, kappa, delta_s, oracle.NESTED_X_START) == res

    def test_nested_phase_integral_at_unit_kappa_is_the_cli_form(self):
        for order in (1, 2, 3, 4):
            for dphi in (0.1, 2.0, 7.5):
                assert refraction.nested_phase_integral(order, 1.0, dphi, 0.4) \
                    == cmath.exp(1j * 0.4) * (1j) ** order \
                    * scattering_order_kernel(order, dphi)

    def test_nested_phase_integral_refuses_non_positive_kappa(self):
        with pytest.raises(DomainError):
            refraction.nested_phase_integral(2, 0.0, 1.0, 0.4)

    def test_cost_bound_enforced(self):
        with pytest.raises(PreconditionError):
            quad_nested(3, 1.0, 51.0)
        with pytest.raises(PreconditionError):
            quad_nested(5, 1.0, 1.0)
        with pytest.raises(PreconditionError):
            quad_nested(1, -200.0, 1.0, x1=0.1)

    @staticmethod
    def _tensor_reference(order, kappa, delta_s, x1, nodes):
        """The nested quadrature written out: the full tensor product of the
        nodes-point Gauss rule over every level, with the phase factor from
        complex exp and no tabulation.  The outermost leg starts at x1 and
        every inner leg at 0."""
        glx, glw = np.polynomial.legendre.leggauss(nodes)

        def level(j, rsum):
            # level j at each outer partial sum r_{j+1}+...+r_n in rsum
            if j == 0:
                return 1.0
            half = 0.5 * (delta_s - rsum)
            r = half[..., None] * (1.0 + glx)
            terms = glw * np.exp(1j * kappa * r) * level(j - 1, rsum[..., None] + r)
            return half * np.sum(terms, axis=-1)

        # the outermost nodes one at a time, so that no array holds more
        # than nodes**(order - 1) points
        half = 0.5 * delta_s
        r = half * (1.0 + glx)
        return complex(half * sum(w * np.exp(1j * kappa * (x1 + ri))
                                  * level(order - 1, np.array(ri))
                                  for w, ri in zip(glw, r)))

    @staticmethod
    def _mp_reference(order, kappa, delta_s, x1):
        """e^{i kappa x1} (i/kappa)^n K_n(kappa delta_s) at 60 digits."""
        with mpmath.workdps(60):
            kappa = mpmath.mpf(kappa)
            return complex(mpmath.exp(1j * kappa * x1) * (1j / kappa) ** order
                           * kernel_tail(order, kappa * delta_s))

    # x1 None takes the default start; the ids are spelt out so that they
    # stay put when a value changes
    @pytest.mark.parametrize("order,kappa,delta_s,x1,nodes", [
        (4, 1.0, 5.0, None, 64),
        (4, 2.7, 1.9, 0.3, 48),
        (3, 2.7, 7.3, 0.2, 64),
    ], ids=["4-1.0-5.0-None-64", "4-2.7-1.9-x1-48", "3-2.7-7.3-x2-64"])
    def test_agrees_with_complex_exp_at_benchmark_sizes(
            self, order, kappa, delta_s, x1, nodes):
        # the tabulated levels round differently from the tensor product,
        # so the two agree to rounding, not bit for bit
        if x1 is None:
            got = quad_nested(order, kappa, delta_s, nodes=nodes)
            x1 = oracle.NESTED_X_START
        else:
            got = quad_nested(order, kappa, delta_s, x1, nodes)
        ref = self._tensor_reference(order, kappa, delta_s, x1, nodes)
        assert abs(got.value - ref) <= 1e-14 * abs(ref)
        assert got.error_estimate >= abs(got.value - ref)
        m = math.ceil(abs(kappa) * delta_s) + 16
        assert got.evaluations == nodes * (1 + (order - 1) * m) \
            + nodes // 2 * (1 + (order - 1) * (m - 4))

    # (order, kappa, delta_s, x1, nodes): hex of value.real, value.imag and
    # error_estimate.  Any rewrite of the tabulation must keep these bits,
    # under every SIMD kernel numpy selects
    @pytest.mark.parametrize("args,bits", [
        ((2, 1.3, 4.1, 0.4, 64),
         ("-0x1.4ce147965b972p+0", "-0x1.b3d4b44854910p+1", "0x1.fe1ed3a674227p-44")),
        ((2, -0.8, 11.0, -1.1, 7),
         ("0x1.93e2a8f84091cp+3", "-0x1.d5d1795ec8b1cp+1", "0x1.a5794217bda32p+1")),
        ((3, 1.0, 9.5, 0.4, 64),
         ("-0x1.c3f25b1c259e2p+4", "0x1.0fbe465a4df6ep+5", "0x1.afb3d15c498a8p-40")),
        ((3, 0.6, 20.0, -0.7, 7),
         ("-0x1.eac51f0f47c59p+7", "-0x1.cfd28fe6f6676p+7", "0x1.c00c16cb91055p+6")),
        ((4, 1.0, 9.5, 0.4, 64),
         ("-0x1.8d643ac584237p+6", "0x1.8b429a5317c94p+6", "0x1.70e6806e33b9cp-38")),
        ((4, -1.9, 3.2, 1.3, 48),
         ("0x1.dae8b8ba1632fp-1", "-0x1.4f7fb053914fdp+1", "0x1.6b80c56a74955p-44")),
    ], ids=["2-64", "2-7-negative-kappa", "3-64", "3-7", "4-64", "4-48-negative-kappa"])
    def test_bits_are_pinned(self, args, bits):
        got = quad_nested(*args)
        assert (got.value.real.hex(), got.value.imag.hex(),
                got.error_estimate.hex()) == bits

    def test_seeded_grid_matches_order_kernel_and_complex_exp(self):
        # 300 points, orders 1-4, budget phases 0.1-20, even and odd
        # node counts; order 4 takes fewer nodes, for the tensor
        # product's cost only
        rng = random.Random(2024)
        for i in range(300):
            order = 1 + i % 4
            dphi = math.exp(rng.uniform(math.log(0.1), math.log(20.0)))
            nodes = rng.randint(12, 24) if order == 4 else rng.randint(16, 64)
            got = quad_nested(order, 1.0, dphi, nodes=nodes).value
            closed = cmath.exp(0.4j) * (1j) ** order \
                * scattering_order_kernel(order, dphi)
            assert abs(got - closed) <= 1e-6 * abs(closed)
            exact = self._mp_reference(order, 1.0, dphi, 0.4)
            assert abs(got - exact) <= 1e-13 * abs(exact), (order, dphi, nodes)
            tensor = self._tensor_reference(order, 1.0, dphi, 0.4, nodes)
            assert abs(got - tensor) <= 1e-13 * abs(tensor), (order, dphi, nodes)

    def test_seeded_grid_matches_60_digit_reference(self):
        # orders 1-4 at the default nodes and order 4 also at 48 (the
        # benchmark's sizes), |kappa| delta_s log-uniform on [0.1, 50],
        # kappa of either sign; every other point draws x1 from
        # [-1.5, 1.5], so large start phases stay covered
        rng = random.Random(21)
        for i in range(250):
            order = 1 + i % 4
            nodes = 48 if i % 5 == 4 else 64
            if nodes == 48:
                order = 4
            phase = math.exp(rng.uniform(math.log(0.1), math.log(50.0)))
            kappa = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-1.0, 1.0))
            delta_s = phase / abs(kappa)
            x1 = rng.uniform(-1.5, 1.5) if i % 2 else oracle.NESTED_X_START
            got = quad_nested(order, kappa, delta_s, x1, nodes)
            exact = self._mp_reference(order, kappa, delta_s, x1)
            err = abs(got.value - exact)
            # order 1 cancels to |I_1| = 2|sin(kappa delta_s/2)|/|kappa|
            # near kappa delta_s = 2 pi k, so its rounding is measured
            # against delta_s, the sum of the moduli of its terms
            scale = delta_s if order == 1 else abs(exact)
            assert err <= 1e-13 * scale, (order, kappa, delta_s, x1, nodes)
            if err > 1e-14 * abs(exact):
                assert got.error_estimate >= err, (order, kappa, delta_s, x1, nodes)

    def test_error_estimate_covers_an_unresolved_rule(self):
        # 8 Gauss points over kappa delta_s = 30 are about 35 off in
        # modulus; the check run must take a different rule, or the
        # estimate reads 0
        got = quad_nested(3, 1.0, 30.0, nodes=8)
        exact = self._mp_reference(3, 1.0, 30.0, oracle.NESTED_X_START)
        assert abs(got.value - exact) > 30.0
        assert got.error_estimate >= abs(got.value - exact)

    def test_chebyshev_tables_are_read_only_and_built_once(self):
        cheb, to_coef = _chebyshev(20)
        assert _chebyshev(20)[0] is cheb and _chebyshev(20)[1] is to_coef
        with pytest.raises(ValueError):
            cheb[0] = 0.0
        with pytest.raises(ValueError):
            to_coef[0, 0] = 0.0

    def test_order4_memory_is_capped(self):
        # the tensor product at 64 nodes holds 64**4 complex values
        # (~270 MB with temporaries); the tabulation holds M x nodes
        tracemalloc.start()
        try:
            res = quad_nested(4, 1.0, 5.0, nodes=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.evaluations == 64 * (1 + 3 * 21) + 32 * (1 + 3 * 17)
        assert peak < 2 ** 20


@pytest.mark.parametrize("call", [
    pytest.param(lambda: quad_nested(2.0, 1.0, 1.0), id="quad-float-order"),
    pytest.param(lambda: mc_ordered_volume(2.5, 1.0, 10), id="mc-float-order"),
    pytest.param(lambda: scattering_order_kernel(2.5, 1.0), id="kernel-float-order"),
    pytest.param(lambda: refraction.nested_volume_integral(2.5, 1.0),
                 id="volume-float-order"),
    pytest.param(lambda: quad_nested(2, 1.0, 1.0, x1=math.nan), id="quad-nan-x1"),
    pytest.param(lambda: quad_nested(2, 1.0, 1.0, x1=math.inf), id="quad-inf-x1"),
    pytest.param(lambda: scattering_order_kernel(2, math.inf), id="kernel-inf-dphi"),
    pytest.param(lambda: scattering_order_kernel(300, 2000.0), id="kernel-overflow"),
    pytest.param(lambda: refraction.nested_phase_integral(2, 1e-300, 1.0, 0.4),
                 id="phase-integral-tiny-kappa"),
    pytest.param(lambda: refraction.nested_phase_integral(2, 1e300, 1e-300, 1e10),
                 id="phase-integral-phase-overflow"),
    pytest.param(lambda: refraction.nested_volume_integral(2, math.inf),
                 id="volume-inf-length"),
    pytest.param(lambda: refraction.nested_volume_integral(2, 1e300),
                 id="volume-overflow"),
])
def test_nested_entry_points_refuse_with_domain_error(call):
    # each of these once raised a bare TypeError or OverflowError, or
    # returned nan or inf
    with pytest.raises(DomainError):
        call()


class TestMonteCarlo:
    def test_degenerate_first_order(self):
        res = mc_ordered_volume(1, 2.0, 10)
        assert res.value == 2.0 and res.error_estimate == 0.0

    def test_low_orders_within_three_sigma(self):
        for n in (2, 3, 4, 5):
            res = mc_ordered_volume(n, 1.0, 200_000, seed=11)
            target = 1.0 / math.factorial(n)
            assert abs(res.value.real - target) <= 3.0 * res.error_estimate

    def test_deterministic_for_fixed_seed(self):
        a = mc_ordered_volume(4, 1.0, 50_000, seed=123)
        b = mc_ordered_volume(4, 1.0, 50_000, seed=123)
        assert a.value == b.value and a.error_estimate == b.error_estimate

    def test_error_bar_validated_by_doubling(self):
        a = mc_ordered_volume(3, 1.0, 100_000, seed=7)
        b = mc_ordered_volume(3, 1.0, 200_000, seed=7)
        assert abs(a.value.real - b.value.real) <= 2.0 * a.error_estimate

    def test_order_cap(self):
        with pytest.raises(PreconditionError):
            mc_ordered_volume(9, 1.0, 100)

    @pytest.mark.parametrize("order", [1, 3])
    @pytest.mark.parametrize("samples", [0, -5])
    def test_refuses_non_positive_sample_count(self, order, samples):
        with pytest.raises(DomainError, match="samples"):
            mc_ordered_volume(order, 1.0, samples)

    @pytest.mark.parametrize("order", [1, 3])
    @pytest.mark.parametrize("samples", [10.5, 1e3, "100", None])
    def test_refuses_non_integer_sample_count(self, order, samples):
        with pytest.raises(DomainError, match="samples"):
            mc_ordered_volume(order, 1.0, samples)

    @pytest.mark.parametrize("order", [1, 3])
    @pytest.mark.parametrize("seed", [None, -1, 1.5, "3"])
    def test_refuses_seed_that_is_not_a_non_negative_integer(self, order, seed):
        # None would seed PCG64 from OS entropy, so no fixed seed
        with pytest.raises(DomainError, match="seed"):
            mc_ordered_volume(order, 1.0, 100, seed=seed)

    def test_accepts_numpy_integer_seed(self):
        a = mc_ordered_volume(3, 1.0, 5000, seed=np.int64(4))
        b = mc_ordered_volume(3, 1.0, 5000, seed=4)
        assert a == b

    def test_memory_is_one_batch(self):
        # a fresh (262144, 8) draw per batch, bound while the next was
        # built, peaked at 32.25 MiB, and a reused 32768-sample buffer at
        # 2.06 MiB; the 8192-sample buffer is 512 KiB and its two masks
        # 16 KiB (530 KiB measured).  A first call imports numpy.random,
        # which the trace would count too
        mc_ordered_volume(8, 1.0, 10)
        tracemalloc.start()
        try:
            res = mc_ordered_volume(8, 1.0, 1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.evaluations == 1_000_000
        assert peak < 600 * 2 ** 10

    def test_accepts_numpy_integer_sample_count(self):
        a = mc_ordered_volume(3, 1.0, np.int64(5000), seed=4)
        b = mc_ordered_volume(3, 1.0, 5000, seed=4)
        assert a == b

    @pytest.mark.parametrize("order", [1, 3])
    @pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_length(self, order, length):
        with pytest.raises(DomainError, match="length"):
            mc_ordered_volume(order, length, 100)

    # hit counts for seeds 0, 1, 2, each recorded from one unbatched
    # Generator(PCG64(seed)).random((samples, order)) draw.  The rows at
    # 8192 and 8193 sit at the batch of 8192 and just above it, and the
    # larger rows span several batches, so they show the counts do not
    # depend on the batch size; 32768 and 40000 did the same for the
    # earlier batch of 32768.
    SEED_HITS = {
        (2, 8_192): (4128, 4053, 4125),
        (2, 8_193): (4129, 4053, 4126),
        (5, 8_192): (60, 59, 75),
        (5, 8_193): (60, 59, 75),
        (8, 8_192): (0, 0, 0),
        (8, 8_193): (0, 0, 0),
        (2, 32_768): (16326, 16260, 16332),
        (2, 40_000): (19930, 19878, 19901),
        (2, 100_000): (49918, 49810, 49963),
        (2, 262_144): (130980, 131040, 131295),
        (2, 300_000): (149858, 149952, 150332),
        (3, 32_768): (5544, 5462, 5442),
        (3, 40_000): (6762, 6650, 6632),
        (3, 100_000): (16637, 16560, 16673),
        (3, 262_144): (43603, 43830, 43666),
        (3, 300_000): (49902, 50101, 49928),
        (4, 32_768): (1345, 1427, 1330),
        (4, 40_000): (1652, 1735, 1635),
        (4, 100_000): (4188, 4365, 4166),
        (4, 262_144): (10912, 11143, 10801),
        (4, 300_000): (12520, 12697, 12349),
        (5, 32_768): (265, 281, 287),
        (5, 40_000): (341, 341, 331),
        (5, 100_000): (861, 872, 841),
        (5, 262_144): (2220, 2222, 2256),
        (5, 300_000): (2527, 2536, 2579),
        (6, 32_768): (56, 40, 37),
        (6, 40_000): (66, 48, 47),
        (6, 100_000): (164, 133, 143),
        (6, 262_144): (386, 326, 363),
        (6, 300_000): (442, 390, 418),
        (7, 32_768): (9, 7, 4),
        (7, 40_000): (11, 10, 5),
        (7, 100_000): (29, 16, 14),
        (7, 262_144): (67, 50, 42),
        (7, 300_000): (76, 58, 51),
        (8, 32_768): (0, 0, 1),
        (8, 40_000): (0, 0, 1),
        (8, 100_000): (1, 2, 1),
        (8, 262_144): (3, 6, 4),
        (8, 300_000): (4, 7, 4),
    }

    @pytest.mark.parametrize("order,samples", sorted(SEED_HITS))
    def test_seed_contract_pins_hit_counts(self, order, samples):
        # a fixed seed fixes the PCG64 stream, hence the exact hit count
        length = 2.0
        for seed, hits in enumerate(self.SEED_HITS[order, samples]):
            res = mc_ordered_volume(order, length, samples, seed=seed)
            p = hits / samples
            vol = length ** order
            assert res.value == complex(vol * p)
            assert res.error_estimate \
                == vol * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
            assert res.evaluations == samples


class TestGaussianRatio:
    def test_zero_phase_is_unity(self):
        res = gaussian_ratio_integral(
            lambda p: np.exp(-(p - 5.0) ** 2 / 2.0),
            lambda p: np.zeros_like(p), -3.0, 13.0)
        assert abs(res.value - 1.0) < 1e-12

    def test_linear_phase_gaussian_damping(self):
        # <e^{i a p}> over a unit Gaussian = e^{i a mu - a^2/2}
        a, mu = 0.7, 2.0
        res = gaussian_ratio_integral(
            lambda p: np.exp(-(p - mu) ** 2 / 2.0),
            lambda p: a * p, mu - 10, mu + 10)
        expected = cmath.exp(1j * a * mu - a * a / 2.0)
        assert abs(res.value - expected) <= 1e-10 * abs(expected)

    def test_matches_interference_closed_form(self):
        # the box perfbench oracle-validate draws from; the worst relative
        # error measured on 4000 draws was 5.9e-14 (one dense rule: 5.4e-14)
        rng = random.Random(20261018)
        for _ in range(400):
            sigma, mean_p = rng.uniform(0.5, 2.0), rng.uniform(10.0, 100.0)
            dr, dp = rng.uniform(0.1, 2.0), sigma * rng.random()
            centre = mean_p - dp / 2.0
            res = gaussian_ratio_integral(
                lambda p: np.exp(-((p - mean_p) ** 2 + (p + dp - mean_p) ** 2)
                                 / (2.0 * sigma ** 2)),
                lambda p: -(p + dp / 2.0) * dr,
                centre - 10.0 * sigma, centre + 10.0 * sigma)
            # the closed form is normalised by pi sigma^2, the ratio by the
            # weight integral sqrt(pi) sigma e^{-dp^2 / (4 sigma^2)}
            closed = (flavour.gaussian_interference_integral(sigma, mean_p, dr, dp)
                      * math.sqrt(math.pi) * sigma
                      * math.exp(dp ** 2 / (4.0 * sigma ** 2)))
            assert abs(res.value - closed) <= 1e-12 * abs(closed)
            assert res.error_estimate <= 1e-12 * abs(closed)
            assert res.evaluations == 3000

    def test_builds_no_rule_above_twenty_points(self, monkeypatch):
        built = []

        def recording(n):
            built.append(n)
            return _leggauss(n)

        monkeypatch.setattr(oracle, "_leggauss", recording)
        gaussian_ratio_integral(lambda p: np.exp(-p * p), np.sin, -8.0, 8.0)
        assert built and max(built) <= 20

    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (0.0, math.inf),
                                     (-math.inf, 0.0)])
    def test_refuses_non_finite_limits(self, a, b):
        with pytest.raises(DomainError, match="finite"):
            gaussian_ratio_integral(lambda p: np.exp(-p * p), np.sin, a, b)

    @pytest.mark.parametrize("weight,a,b", [
        (np.zeros_like, -1.0, 1.0),
        (lambda p: np.exp(-p * p), 100.0, 101.0),     # underflows to 0
        (lambda p: np.exp(-p * p), 27.0, 28.0),       # subnormal: 2e-4 off
        (lambda p: np.exp(p * p), -40.0, 40.0)],      # overflows
        ids=["zero", "far-window", "subnormal", "overflow"])
    def test_refuses_weight_integral_without_digits(self, weight, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                gaussian_ratio_integral(weight, np.sin, a, b)


class TestLegGauss:
    def test_arrays_are_read_only(self):
        x, w = _leggauss(10)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_built_once_per_size(self):
        x, w = _leggauss(20)
        x2, w2 = _leggauss(20)
        assert x2 is x and w2 is w

    # 100 is the largest rule any quadrature accepts
    RULE_SIZES = range(1, 101)

    @staticmethod
    def reference(n, x):
        # the root of P_n and its weight, as integers scaled by 2**160
        # (48 digits), after one Newton step from the double x: from
        # within 1e-16 of a root, one step leaves it below 1e-28 off
        scale = 1 << 160

        def legendre(r):
            p0, p1 = scale, r
            for k in range(2, n + 1):
                p0, p1 = p1, (((2 * k - 1) * r * p1 >> 160) - (k - 1) * p0) // k
            one_r2 = (scale - r) * (scale + r) >> 160
            return p1, n * (p0 - (r * p1 >> 160)) * scale // one_r2, one_r2

        r = int(math.ldexp(x, 160))
        p, dp, _ = legendre(r)
        r -= p * scale // dp
        _, dp, one_r2 = legendre(r)
        return r, (2 << 480) // (one_r2 * dp * dp >> 160)

    def test_matches_high_precision_newton(self):
        # measured: nodes 1.2e-16 off at worst, weights 8.7e-14 relative
        # (numpy's eigensolver rule: 8.9e-17 and 8.2e-12)
        for n in self.RULE_SIZES:
            x, w = _leggauss(n)
            assert x.shape == w.shape == (n,)
            assert np.all(np.diff(x) > 0) and -1 < x[0]
            # the negative half is the exact mirror image of the other
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
            for xi, wi in zip(x[n // 2:].tolist(), w[n // 2:].tolist()):
                r, rw = self.reference(n, xi)
                assert abs(int(math.ldexp(xi, 160)) - r) <= math.ldexp(2e-16, 160), (n, xi)
                assert abs(int(math.ldexp(wi, 160)) - rw) <= 2e-13 * rw, (n, xi)

    def test_integrates_monomials_exactly(self):
        # x^k for every k <= 2n - 1: an odd k gives exactly 0 by the
        # mirror image, an even k 2/(k + 1) within the weights' bound, as
        # every term of the sum is positive (2.1e-14 measured)
        for n in self.RULE_SIZES:
            x, w = (a.tolist() for a in _leggauss(n))
            for k in range(2 * n):
                moment = math.fsum(wi * xi ** k for xi, wi in zip(x, w))
                if k % 2:
                    assert moment == 0.0, (n, k)
                else:
                    assert abs(moment * (k + 1) / 2 - 1) <= 2e-13, (n, k)

    @pytest.mark.parametrize("n", [10, 20, 48, 64, 100])
    def test_agrees_with_numpy_rule(self, n):
        # a second opinion: numpy's eigensolver rule, whose weights were
        # measured up to 2.1e-12 relative off the reference at these sizes
        x, w = _leggauss(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.allclose(x, ref_x, rtol=0, atol=2.2e-12)
        assert np.allclose(w, ref_w, rtol=2.2e-12, atol=0)

    def test_gaussian_ratio_repeatable(self):
        args = (lambda p: np.exp(-(p - 2.0) ** 2 / 2.0), lambda p: 0.7 * p,
                -8.0, 12.0)
        first = gaussian_ratio_integral(*args)
        second = gaussian_ratio_integral(*args)
        assert first.value == second.value
        assert first.error_estimate == second.error_estimate
        assert first.evaluations == second.evaluations


class TestHighPrecisionSeries:
    @staticmethod
    def _mpc_loop(delta_phi, beta_l):
        """The series summed term by term in mpmath complex arithmetic at
        30 digits more than the sum's own dps, always to the cap N with no
        early stop: the reference the fixed-point sum must reproduce."""
        from mpmath import exp as mp_exp, mpc, mpf, workdps
        dps = int(30 + 1.1 * beta_l / math.log(10)
                  + 0.7 * delta_phi / math.log(10)) + 30
        n_max = int(beta_l + delta_phi + 12 * math.sqrt(beta_l + delta_phi) + 40)
        with workdps(dps):
            dp = mpf(delta_phi)
            bl = mpf(beta_l)
            i = mpc(0, 1)
            eid = mp_exp(i * dp)
            term = mpc(1)
            esum = mpc(0)
            epow = mpc(1)
            total = mpc(1)
            for n in range(1, n_max + 1):
                term *= i * bl / n
                esum += epow
                epow *= -i * dp / n
                total += term * (1 - eid * esum)
            return total

    @staticmethod
    def _rel_diff(got, ref):
        # mpmath reads the exact value through its _mpc_
        from mpmath import mpc, workdps
        with workdps(40):
            return float(abs(mpc(got) - ref) / abs(ref))

    # the worst relative error on every point below was 2.6e-49, at
    # (0.5, 1) (9 units of 2**-P there); stopping the sum once
    # v < 2**(P/2) gave 1.2e-29 at that point
    WORKING_PRECISION = 1e-47

    # the (delta_phi, beta_l) pairs at which the suite calls the sum
    SUITE_POINTS = [(0.5, 1.0), (2.0, 5.0), (10.0, 10.0), (15.0, 30.0),
                    (10.0, 1000.0), (10.0, 2000.0), (20.0, 2000.0)]

    @pytest.mark.parametrize("dphi,bl", [
        *SUITE_POINTS, (0.0, 0.5), (0.0, 40.0), (0.0, 300.0), (3.0, 0.0),
        (250.0, 0.0), (0.0, 0.0), (1e-300, 1e-300), (5e-324, 7.0)])
    def test_matches_mpc_loop(self, dphi, bl):
        got = series_sum_highprec(dphi, bl)
        assert self._rel_diff(got, self._mpc_loop(dphi, bl)) <= self.WORKING_PRECISION

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_mpc_loop_on_seeded_grid(self, seed):
        rng = random.Random(seed)
        if seed % 2:
            dphi, bl = rng.uniform(0.0, 500.0), rng.uniform(0.0, 2000.0)
        else:
            dphi = 10 ** rng.uniform(-2.0, math.log10(500.0))
            bl = 10 ** rng.uniform(-2.0, math.log10(2000.0))
        got = series_sum_highprec(dphi, bl)
        assert self._rel_diff(got, self._mpc_loop(dphi, bl)) <= self.WORKING_PRECISION

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_mpc_loop_where_the_stop_drops_most_orders(self, seed):
        # at beta_l >= 500 and a moderate dphi the sum stops at about half
        # of N: 671 of 1431 orders at (10, 1000), 1100 of 2587 at (10, 2000)
        rng = random.Random(100 + seed)
        dphi = 10 ** rng.uniform(-2.0, math.log10(50.0))
        bl = rng.uniform(500.0, 2000.0)
        got = series_sum_highprec(dphi, bl)
        assert self._rel_diff(got, self._mpc_loop(dphi, bl)) <= self.WORKING_PRECISION

    # complex() of the sum, as float.hex of its real and imaginary parts,
    # recorded when every call ran to N: the early stop moves no bit.  The
    # last three are points where N binds before the stop rule does
    HEX_PINS = {
        (0.5, 1.0): ("0x1.8a9890e44c29dp+0", "0x1.270073c0ac281p-3"),
        (2.0, 5.0): ("0x1.525abee8f3c62p+3", "0x1.3fdfa452ec046p+6"),
        (10.0, 10.0): ("-0x1.d09dad25887d5p+24", "0x1.a6f1c0705ddc3p+22"),
        (15.0, 30.0): ("-0x1.d0b8b9c800c26p+54", "0x1.cfa5e8f9b1dbcp+56"),
        (10.0, 1000.0): ("-0x1.2934093451d8ep+283", "-0x1.32482a5a73eb9p+282"),
        (10.0, 2000.0): ("-0x1.60e08f45f32dap+402", "-0x1.85eb9e308b5a3p+401"),
        (20.0, 2000.0): ("0x1.552e16116606ap+570", "0x1.2a02694a1bbfep+571"),
        (700.0, 0.5): ("0x1.d2090f4be60adp+43", "0x1.7c7c0872faf5cp+44"),
        (650.0, 10.0): ("0x1.232a3c4a6b7f6p+222", "0x1.7fe552d5031b5p+224"),
        (250.0, 0.0): ("0x1.0000000000000p+0", "0x0.0p+0"),
    }

    def test_hex_pins_cover_the_suite_points(self):
        assert set(self.SUITE_POINTS) <= set(self.HEX_PINS)

    @pytest.mark.parametrize("dphi,bl", HEX_PINS)
    def test_complex_value_keeps_its_bits(self, dphi, bl):
        got = complex(series_sum_highprec(dphi, bl))
        assert (got.real.hex(), got.imag.hex()) == self.HEX_PINS[dphi, bl]

    @pytest.mark.parametrize("dphi,bl", [(0.0, 0.0), (0.0, 7.5), (0.0, 300.0),
                                         (4.0, 0.0), (250.0, 0.0)])
    def test_trivial_points_are_exactly_one(self, dphi, bl):
        # no medium, or no budget: every scattered term vanishes exactly
        assert series_sum_highprec(dphi, bl) == 1

    @pytest.mark.parametrize("dphi,bl", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
        (-math.inf, 1.0), (math.nan, math.inf)])
    def test_refuses_non_finite_input(self, dphi, bl):
        with pytest.raises(DomainError, match="finite"):
            series_sum_highprec(dphi, bl)

    def test_refused_call_loads_no_mpmath(self):
        # the arguments are checked before mpmath is imported; a fresh
        # interpreter, since the suite itself has loaded mpmath
        script = ("import sys\n"
                  "from pathamp.oracle import series_sum_highprec\n"
                  "try:\n"
                  "    series_sum_highprec(-1.0, 1.0)\n"
                  "except Exception as exc:\n"
                  "    print(type(exc).__name__, 'mpmath' in sys.modules)\n")
        src = str(pathlib.Path(oracle.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.stdout.split() == ["DomainError", "False"], proc.stderr

    def test_answers_without_mpmath(self):
        # a fresh interpreter in which importing mpmath fails still gives
        # every pinned value, bit for bit
        script = ("import sys\n"
                  "sys.modules['mpmath'] = None\n"
                  "from pathamp.oracle import series_sum_highprec\n"
                  f"for dphi, bl in {list(self.HEX_PINS)!r}:\n"
                  "    z = complex(series_sum_highprec(dphi, bl))\n"
                  "    print(z.real.hex(), z.imag.hex())\n")
        src = str(pathlib.Path(oracle.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert [tuple(line.split()) for line in proc.stdout.splitlines()] \
            == list(self.HEX_PINS.values())

    def test_no_package_module_imports_mpmath(self):
        src = pathlib.Path(oracle.__file__).parent
        assert [path.name for path in sorted(src.rglob("*.py"))
                if "mpmath" in {name.split(".")[0] for name in
                                _imported_modules(path, "pathamp")}] == []

    def test_agrees_with_float_summation_in_easy_regime(self):
        from pathamp.refraction import time_budget_factor
        for dphi, bl in ((0.5, 1.0), (2.0, 5.0), (10.0, 10.0), (15.0, 30.0)):
            hp = series_sum_highprec(dphi, bl)
            lp = time_budget_factor(dphi, bl).value
            hp_c = complex(float(hp.real), float(hp.imag))
            assert abs(hp_c - lp) <= 1e-10 * abs(hp_c)

    def test_extreme_strength_regression_pins(self):
        # frozen values from this deterministic arbitrary-precision sum;
        # magnitudes exceed float range, so compare phase and log-magnitude
        from mpmath import arg as mp_arg, fabs as mp_fabs, log10 as mp_log10
        pins = {
            (10.0, 1000.0): (-2.665801087488, 85.307435),
            (20.0, 2000.0): (1.050894401101, 172.015664),
        }
        for (dphi, bl), (phase_pin, logmag_pin) in pins.items():
            val = series_sum_highprec(dphi, bl)
            assert float(mp_arg(val)) == pytest.approx(phase_pin, abs=1e-9)
            assert float(mp_log10(mp_fabs(val))) \
                == pytest.approx(logmag_pin, abs=1e-4)


class TestDyadicComplex:
    @pytest.mark.parametrize("theta", [0.0, 5e-324, 1e-300, 1e-5, 0.5, 3.0, 10.0, 20.0,
                                       250.0, 700.0, 1e6])
    @pytest.mark.parametrize("prec", [64, 164, 3410])
    def test_expi_is_within_one_unit(self, theta, prec):
        # cos and sin of the float theta, each within 1 of 2**prec times
        # a 60-digit-finer mpmath value
        cos, sin = _expi(*oracle._mantissa(theta), prec)
        with mpmath.workprec(prec + 200):
            ref = mpmath.expj(mpmath.mpf(theta)) * mpmath.mpf(2) ** prec
            assert abs(cos - ref.real) <= 1 and abs(sin - ref.imag) <= 1

    @pytest.mark.parametrize("dphi,bl", TestHighPrecisionSeries.HEX_PINS)
    def test_sum_is_exact_dyadic(self, dphi, bl):
        got = series_sum_highprec(dphi, bl)
        assert isinstance(got, DyadicComplex)
        for part in (got.real, got.imag):
            assert isinstance(part, Fraction)
            assert part.denominator & (part.denominator - 1) == 0

    @pytest.mark.parametrize("re,im,scale", [
        (3, -5, 0), (12, 0, 3), (-(3 << 70), 1, 200), (0, 0, 7), (5 << 4000, -7, 40)],
        ids=["odd", "even", "large-exponent", "zero", "wide"])
    def test_mpc_is_what_mpmath_builds(self, re, im, scale):
        x = DyadicComplex(re, im, scale)
        from mpmath.libmp import from_man_exp
        assert x._mpc_ == (from_man_exp(re, -scale), from_man_exp(im, -scale))
        assert mpmath.mpc(x)._mpc_ == x._mpc_

    # (re, im, scale) of (re + i im) 2**-scale
    ROUNDING_CASES = {
        "overflow": (1 << 1100, -(1 << 1100), 0),
        # the largest double, and the midpoint above it, which rounds to inf
        "largest-double": ((1 << 1024) - (1 << 971), -((1 << 1024) - (1 << 970)), 0),
        "exact-one": (1 << 50, 0, 50),
        # exact zeros are +0.0; a negative value below half the smallest
        # subnormal rounds to -0.0
        "zeros": (0, 0, 9),
        "signed-zero": (-1, 1, 1200),
        # a subnormal, and a tie that rounds to even
        "subnormal": (3, (1 << 54) + 1, 1075),
        "tie": (1, (1 << 53) + 1, 0),
    }

    @pytest.mark.parametrize("case", ROUNDING_CASES)
    def test_complex_rounds_as_mpmath_does(self, case):
        re, im, scale = self.ROUNDING_CASES[case]
        got = complex(DyadicComplex(re, im, scale))
        ref = complex(mpmath.mpc(mpmath.mpf(re) * mpmath.mpf(2) ** -scale,
                                 mpmath.mpf(im) * mpmath.mpf(2) ** -scale))
        assert (got.real.hex(), got.imag.hex()) == (ref.real.hex(), ref.imag.hex())

    def test_signs_of_infinities_and_zeros(self):
        got = complex(DyadicComplex(-(1 << 1100), 1 << 1100, 1))
        assert (got.real, got.imag) == (-math.inf, math.inf)
        got = complex(DyadicComplex(0, -1, 1200))
        assert (got.real.hex(), got.imag.hex()) == ("0x0.0p+0", "-0x0.0p+0")

    def test_equality_with_numbers(self):
        one = DyadicComplex(1 << 50, 0, 50)
        assert one == 1 and one == 1.0 and one == 1 + 0j and one == Fraction(1)
        assert one == DyadicComplex(1, 0, 0)
        assert one != 1 + 1e-300j and one != 2 and one != "1"
        assert DyadicComplex(1, -3, 2) == complex(0.25, -0.75)
        x = series_sum_highprec(0.5, 1.0)
        assert eval(repr(x), {"DyadicComplex": DyadicComplex}) == x

    def test_has_no_value_attribute(self):
        # perfbench/inproc.timed_call unwraps any result with a .value
        assert not hasattr(series_sum_highprec(1.0, 1.0), "value")

    def test_is_immutable(self):
        x = DyadicComplex(1, 2, 3)
        with pytest.raises(AttributeError, match="immutable DyadicComplex"):
            x.real = Fraction(0)
        with pytest.raises(AttributeError, match="immutable DyadicComplex"):
            del x.imag
        with pytest.raises(AttributeError):
            x.other = 1
        assert (x.real, x.imag) == (Fraction(1, 8), Fraction(1, 4))


def _imported_modules(path: pathlib.Path, package: str) -> set:
    """Every module an import statement in the file at path names, with
    relative imports resolved against package; ``from m import n`` names
    both m and m.n, since n may be a submodule."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")[:len(package.split(".")) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_the_oracle_command_imports_the_oracle():
    # the closed forms stay separate from the brute force that checks them
    src = pathlib.Path(oracle.__file__).parent
    importers = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src.parent)
        package = ".".join(rel.parent.parts)
        if "pathamp.oracle" in _imported_modules(path, package):
            importers.append(rel.as_posix())
    assert importers == ["pathamp/commands/oracle.py"]
