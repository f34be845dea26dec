"""Every typed refusal under src/pathamp that no other in-process test
raises, at least one row per `raise` site.

Each row calls the library with an input the site refuses and asserts the
exact exception type (not a subclass) and a fragment of the site's
message, so the row pins that site and not another refusal of the same
function.
"""

import math
import re

import numpy as np
import pytest

from pathamp import flavour, michelson, oracle, propagators, ray_optics, reflection, \
    refraction, wave_optics
from pathamp.core_num import (
    CONSTANTS,
    ConvergenceError,
    DomainError,
    PreconditionError,
    wavenumber,
)

KAPPA = wavenumber(CONSTANTS.lambda_na_d)
GEOM = flavour.SlitGeometry(l=0.10, r_prime=1.0, d=0.95e-3, h=0.1e-3, w=1e-3)
BEAM = flavour.ElectronBeam(mean_p=229.0, sigma_p=229.0 * 6.0e-7)
SPEC = michelson.InterferometerSpec(0.5, 0.25, 1e-8, KAPPA)
NA_MASS_KG = 3.82e-26


def _wave(x):
    return np.exp(1j * x)


def _grows(x):
    return np.exp(1e3 * x)


ROWS = {
    # flavour
    "photon_double_slit-kappa": (
        lambda: flavour.photon_double_slit(GEOM, 0.0, 1e-8),
        DomainError, "kappa and tau_s must be positive"),
    "electron_phase_difference-large-dr": (
        lambda: flavour.electron_phase_difference(BEAM, 1.0, 0.0, 0.2, "equal-times"),
        DomainError, "first-order treatment needs"),
    "electron_phase_difference-mode": (
        lambda: flavour.electron_phase_difference(BEAM, 1.0, 0.0, 1e-3, "sideways"),
        DomainError, "unknown mode 'sideways'"),
    "electron_double_slit-wide-spread": (
        lambda: flavour.electron_double_slit(GEOM, flavour.ElectronBeam(1.0, 0.5)),
        DomainError, "Gaussian treatment needs"),
    "gaussian_interference_integral-sigma": (
        lambda: flavour.gaussian_interference_integral(0.0, 1.0, 1.0, 0.0),
        DomainError, "sigma_p must be positive"),
    "kaon_detection_probability-tau": (
        lambda: flavour.kaon_detection_probability(flavour.KaonSystem(), "e+", -1e-10),
        DomainError, "tau must be >= 0"),
    "kaon_detection_probability-charge": (
        lambda: flavour.kaon_detection_probability(flavour.KaonSystem(), "mu+", 1e-10),
        DomainError, "charge must be 'e+' or 'e-'"),
    # michelson
    "detection_probability-t_max": (
        lambda: michelson.detection_probability(SPEC, -1e-9),
        DomainError, "t_max must be >= 0"),
    "lifetime_from_half_visibility-delta": (
        lambda: michelson.lifetime_from_half_visibility(0.0, 1e-8),
        DomainError, "delta_exp must be positive"),
    "rayleigh_doppler_visibility-d": (
        lambda: michelson.rayleigh_doppler_visibility(-1.0, 589e-9, 300.0, NA_MASS_KG),
        DomainError, "bad Doppler-visibility inputs"),
    "source_motion_correction-kappa": (
        lambda: michelson.source_motion_correction(0.0, 0.25, NA_MASS_KG, 300.0),
        DomainError, "bad source-motion inputs"),
    "source_motion_correction-fast-source": (
        lambda: michelson.source_motion_correction(KAPPA, 0.25, 1e-35, 300.0),
        DomainError, "requires p_rms/(Mc) << 1"),
    # oracle
    "quad_oscillatory-kappa": (
        lambda: oracle.quad_oscillatory(_wave, 0.0, 1.0, 0.0),
        DomainError, "kappa must be positive"),
    "quad_oscillatory-segment-budget": (
        lambda: oracle.quad_oscillatory(_wave, 0.0, 1.0, 1e7),
        PreconditionError, "segments exceed budget"),
    "quad_oscillatory-overflow": (
        lambda: oracle.quad_oscillatory(_grows, 0.0, 1.0, 1.0),
        ConvergenceError, "oscillatory quadrature left float64"),
    "damped_radial_integral-rho": (
        lambda: oracle.damped_radial_integral(KAPPA, 1.0, 0.0),
        DomainError, "rho must be positive"),
    "mc_ordered_volume-length": (
        lambda: oracle.mc_ordered_volume(2, -1.0, 10),
        DomainError, "length must be positive"),
    "gaussian_ratio_integral-empty-window": (
        lambda: oracle.gaussian_ratio_integral(_wave, _wave, 1.0, 0.0),
        DomainError, "need b > a"),
    "series_sum_highprec-negative": (
        lambda: oracle.series_sum_highprec(-1.0, 1.0),
        DomainError, "beta_l and delta_phi must be >= 0"),
    # propagators
    "EmitterSpec.from_line-wavelength": (
        lambda: propagators.EmitterSpec.from_line(0.0, 1e-8),
        DomainError, "wavelength and lifetime must be positive"),
    "covariant_propagator-r": (
        lambda: propagators.covariant_propagator(
            propagators.OnShellParticle(0.511, 0.5), 0.0, 1e-9),
        DomainError, "r must be positive"),
    "free_decay_detection_probability-sigma_t": (
        lambda: propagators.free_decay_detection_probability(1e-8, 0.0, -1e-9, 1.0, 1e-8),
        DomainError, "sigma_t must be >= 0"),
    "free_decay_detection_probability-tau_s": (
        lambda: propagators.free_decay_detection_probability(1e-8, 0.0, 0.0, 1.0, 0.0),
        DomainError, "tau_s must be positive"),
    "free_decay_detection_probability-r": (
        lambda: propagators.free_decay_detection_probability(1e-8, 0.0, 0.0, 0.0, 1e-8),
        DomainError, "r must be positive"),
    # ray_optics
    "snell_angle-grazing": (
        lambda: ray_optics.snell_angle(1.0, 1.5, math.pi / 2),
        DomainError, "theta_i must lie in [0, pi/2)"),
    # reflection
    "reflection_coeff_fresnel-index": (
        lambda: reflection.reflection_coeff_fresnel(0.5, 1.5),
        DomainError, "indices must be >= 1"),
    "thin_film_coeff-thickness": (
        lambda: reflection.thin_film_coeff(1.5, 589e-9, 0.0),
        DomainError, "thickness must be positive"),
    # refraction
    "thin_sheet_phase_shift-kappa": (
        lambda: refraction.thin_sheet_phase_shift(
            refraction.MediumSpec(1e25, 1e-15, 1e-9), 0.0),
        DomainError, "kappa must be positive"),
    "effective_velocity-filling": (
        lambda: refraction.effective_velocity(1.5, 1.5),
        DomainError, "filling fraction must lie in [0, 1]"),
    "nested_volume_integral-length": (
        lambda: refraction.nested_volume_integral(2, -1.0),
        DomainError, "length must be positive"),
    "unconstrained_block_amplitude-beta_l": (
        lambda: refraction.unconstrained_block_amplitude(-1.0),
        DomainError, "beta_l must be >= 0"),
    "scattering_order_kernel-delta_phi": (
        lambda: refraction.scattering_order_kernel(2, -1.0),
        DomainError, "delta_phi must be >= 0"),
    "nested_phase_integral-x1": (
        lambda: refraction.nested_phase_integral(2, 1.0, 1.0, math.nan),
        DomainError, "x1 must be finite"),
    "time_budget_factor-delta_phi": (
        lambda: refraction.time_budget_factor(-1.0, 1.0),
        DomainError, "delta_phi must be >= 0"),
    "time_budget_factor-beta_l": (
        lambda: refraction.time_budget_factor(1.0, -1.0),
        DomainError, "beta_l must be >= 0"),
    "boundary_averaged_factor-beta_l": (
        lambda: refraction.boundary_averaged_factor(-1.0),
        DomainError, "beta_l must be >= 0"),
    "annulment_report-wavelength": (
        lambda: refraction.annulment_report(1e-3, 1.0, 0.0, 0.4, 1.5, 1e-8),
        DomainError, "all lengths and times must be positive"),
    "annulment_report-index": (
        lambda: refraction.annulment_report(1e-3, 1.0, 589e-9, 0.4, 0.5, 1e-8),
        DomainError, "n must be >= 1"),
    # a lifetime of inf gave prompt_fraction 0.0, and NaN gave nan
    "annulment_report-infinite-tau": (
        lambda: refraction.annulment_report(1e-3, 1.0, 589e-9, 0.4, 1.5, math.inf),
        DomainError, "tau_s must be finite, got inf"),
    "annulment_report-nan-tau": (
        lambda: refraction.annulment_report(1e-3, 1.0, 589e-9, 0.4, 1.5, math.nan),
        DomainError, "tau_s must be finite, got nan"),
    # a non-finite boundary was refused only by boundary_radial_limit, as
    # "radial limit nan", which names no input
    "CircularBoundary-nan-radius": (
        lambda: refraction.CircularBoundary(math.nan),
        DomainError, "radius must be finite, got nan"),
    "CircularBoundary-infinite-radius": (
        lambda: refraction.CircularBoundary(math.inf, 1.0),
        DomainError, "radius must be finite, got inf"),
    "RectangularBoundary-nan-offset": (
        lambda: refraction.RectangularBoundary(2.0, 3.0, z=math.nan),
        DomainError, "z must be finite, got nan"),
    "boundary_radial_limit-x1": (
        lambda: refraction.boundary_radial_limit(refraction.CircularBoundary(0.03), 0.0, 0.0),
        DomainError, "x1 must be positive"),
    # a finite reach whose limit passes the largest double
    "boundary_radial_limit-rectangle-overflow": (
        lambda: refraction.boundary_radial_limit(
            refraction.RectangularBoundary(1e200, 1e200), 0.5, 0.1),
        DomainError, "radial limit inf is not a finite double"),
    "boundary_radial_limit-displaced-circle-overflow": (
        lambda: refraction.boundary_radial_limit(
            refraction.CircularBoundary(1e200, 5e199), 0.5, 0.1),
        DomainError, "radial limit inf is not a finite double"),
    "boundary_radial_limit-circle-overflow": (
        lambda: refraction.boundary_radial_limit(
            refraction.CircularBoundary(1e200), 0.5, 0.1),
        DomainError, "radial limit inf is not a finite double"),
    "boundary_radial_limit-tiny-x1": (
        lambda: refraction.boundary_radial_limit(
            refraction.CircularBoundary(0.03), 1e-320, 0.1),
        DomainError, "radial limit inf is not a finite double"),
    # wave_optics
    "spherical_wave-kappa": (
        lambda: wave_optics.spherical_wave(0.0, 1.0),
        DomainError, "kappa must be positive"),
    "half_period_zone_integral-x1": (
        lambda: wave_optics.half_period_zone_integral(KAPPA, 0.0),
        DomainError, "kappa and x1 must be positive"),
}


@pytest.mark.parametrize("call,exc,message", ROWS.values(), ids=ROWS.keys())
def test_refusal_raises_its_exact_type(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)) as info:
        call()
    assert type(info.value) is exc
