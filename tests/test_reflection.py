import math

import numpy as np
import pytest

from pathamp.core_num import CONSTANTS, DomainError
from pathamp.oracle import quad_oscillatory
from pathamp.reflection import (
    ReflectionSetup,
    fresnel_comparison,
    rate_ratio,
    reflection_amplitude_path,
    reflection_coeff_fresnel,
    reflection_coeff_path,
    reflection_phase_path,
    thin_film_coeff,
)


class TestCoefficients:
    def test_glass_vacuum_path_value(self):
        assert reflection_coeff_path(1.0, 1.5) == pytest.approx(1.0 / 36.0,
                                                                rel=1e-12)

    def test_glass_vacuum_fresnel_value(self):
        assert reflection_coeff_fresnel(1.0, 1.5) == pytest.approx(0.04,
                                                                   rel=1e-12)

    def test_uniform_medium_has_no_backscatter(self):
        assert reflection_coeff_path(1.3, 1.3) == 0.0
        assert reflection_coeff_fresnel(1.0, 1.0) == 0.0

    def test_comparison_quotes_both_normalisations(self):
        comp = fresnel_comparison(1.0, 1.5)
        assert comp.fresnel_excess == pytest.approx(0.44, abs=0.005)
        assert comp.path_deficit == pytest.approx(0.306, abs=0.005)

    def test_fresnel_never_below_path_value(self):
        for n in np.linspace(1.0 + 1e-6, 3.0, 50):
            assert reflection_coeff_fresnel(1.0, n) \
                >= reflection_coeff_path(1.0, n)

    def test_amplitude_swap_relation(self):
        # swapping the media scales the amplitude by -n2/n1 (so the
        # coefficients differ by (n2/n1)^2); follows directly from the
        # (n2-n1)/(2 n1^2 n2) structure
        for n1, n2 in ((1.0, 1.5), (1.2, 1.8), (1.1, 2.6)):
            a12 = reflection_amplitude_path(n1, n2)
            a21 = reflection_amplitude_path(n2, n1)
            assert a12 == pytest.approx(-(n2 / n1) * a21, rel=1e-12)
            assert reflection_coeff_path(n1, n2) \
                == pytest.approx((n2 / n1) ** 2
                                 * reflection_coeff_path(n2, n1), rel=1e-12)


class TestPhase:
    def test_into_denser_medium(self):
        assert reflection_phase_path(1.0, 1.5) == math.pi

    def test_out_of_denser_medium(self):
        assert reflection_phase_path(1.5, 1.0) == 0.0

    def test_matched_media_phase_undefined(self):
        with pytest.raises(DomainError):
            reflection_phase_path(1.3, 1.3)


class TestRateRatio:
    def test_ideal_splitter(self):
        setup = ReflectionSetup(1.0, 1.5, t_hsm=1.0)
        assert rate_ratio(setup) == pytest.approx(1.0 / 36.0, rel=1e-12)

    def test_balanced_splitter(self):
        setup = ReflectionSetup(1.0, 1.5, t_hsm=1.0 / math.sqrt(2.0))
        assert rate_ratio(setup) == pytest.approx(2.0 / 36.0, rel=1e-12)

    def test_matched_media(self):
        setup = ReflectionSetup(1.0, 1.0, t_hsm=0.9)
        assert rate_ratio(setup) == 0.0


class TestThinFilm:
    N, LAM = 1.5, CONSTANTS.lambda_na_d

    def test_quarter_wave_quadruples(self):
        rho0 = reflection_coeff_path(1.0, self.N)
        for p in (0, 1, 3):
            t = self.LAM * (1 + 2 * p) / (4 * self.N)
            assert thin_film_coeff(self.N, self.LAM, t) \
                == pytest.approx(4.0 * rho0, rel=1e-9)

    def test_half_wave_vanishes(self):
        for p in (0, 1, 4):
            t = self.LAM * (1 + p) / (2 * self.N)
            assert thin_film_coeff(self.N, self.LAM, t) < 1e-12

    def test_thick_limit_period_average(self):
        # averaged over one thickness period the coefficient sits between 0
        # and the quarter-wave maximum, at twice the half-space value
        rho0 = reflection_coeff_path(1.0, self.N)
        period = self.LAM / (2 * self.N)
        thicknesses = np.linspace(100 * period, 101 * period, 2000,
                                  endpoint=False)
        vals = [thin_film_coeff(self.N, self.LAM, t) for t in thicknesses]
        assert max(vals) <= 4 * rho0 * (1 + 1e-9)
        assert min(vals) >= 0.0
        assert np.mean(vals) == pytest.approx(2.0 * rho0, rel=1e-3)

    @pytest.mark.parametrize("wavelength", [math.inf, math.nan])
    def test_non_finite_wavelength_refused(self, wavelength):
        # an infinite wavelength gave a coefficient of 0.0, a NaN one nan
        with pytest.raises(DomainError, match="wavelength must be finite"):
            thin_film_coeff(self.N, wavelength, 1e-7)

    @pytest.mark.parametrize("wavelength,message", [
        (0.0, "wavelength 0.0 gives no finite wavenumber"),
        (-6e-7, "wavelength must be positive, got -6e-07")], ids=["zero", "negative"])
    def test_zero_or_negative_wavelength_refused_as_by_wavenumber(self, wavelength, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            thin_film_coeff(self.N, wavelength, 1e-7)


class TestHalfZoneDerivation:
    def test_depth_integral_reproduces_coefficient(self):
        # brute-force the back-scattering depth integral with a weak
        # damping envelope (the boundary regularisation) and rebuild the
        # reflection coefficient from first principles
        n = 1.5
        lam = CONSTANTS.lambda_na_d
        kappa = 2 * math.pi / lam
        density = 2.5e27
        a_scat = (n - 1.0) * 2 * math.pi / (lam ** 2 * density)
        eps = 1e-6 * kappa * n

        def integrand(x):
            return np.exp(2j * kappa * n * x - eps * x)

        res = quad_oscillatory(integrand, 0.0, math.inf, 2 * kappa * n,
                               damping_scale=1 / eps)
        # transverse path sum contributes 2 pi N a / kappa; the depth
        # integral supplies the remaining 1/(2 kappa n)
        amp = 2 * math.pi * density * a_scat / kappa * abs(res.value)
        assert amp ** 2 == pytest.approx(reflection_coeff_path(1.0, n),
                                         rel=0.02)
