"""Every typed refusal under src/pathamp that no other in-process test
raises, at least one row per `raise` site.

Each row calls the library with an input the site refuses and asserts the
exact exception type (not a subclass) and a fragment of the site's
message, so the row pins that site and not another refusal of the same
function.  NON_FINITE then gives each entry point that refuses NaN and
+-inf through ``core_num.refuse_non_finite`` and checks the helper's text
for every argument it names; a function or class that calls the helper
and has no row fails the suite.
"""

import ast
import functools
import math
import pathlib
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
    # b = +inf is a valid upper limit, so b is refused only as NaN
    "quad_oscillatory-nan-b": (
        lambda: oracle.quad_oscillatory(_wave, 0.0, math.nan, 1.0),
        DomainError, "b must not be NaN"),
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
    # a square that passes the largest double raised a bare OverflowError
    "ElectronBeam.gamma_sq-overflow": (
        lambda: flavour.electron_double_slit(GEOM, flavour.ElectronBeam(1e200, 1e190)),
        DomainError, "gamma^2 at momentum 1e+200 MeV/c overflows a double"),
    "neutrino_oscillation-p0-squared-overflow": (
        lambda: flavour.neutrino_oscillation(flavour.NeutrinoExperiment(
            139.57, 2.5e-14, 105.66, 1e-3, 0.7, 1.0,
            beta_energy_mev=1e300, neutrino_p_mev=1e200)),
        DomainError, "(p0 c)^2 in eV^2 at p0 = 1e+200 MeV/c overflows a double"),
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
    "trajectory_spread-kappa": (
        lambda: ray_optics.trajectory_spread(0.0, 1.5, 1.0, 0.0),
        DomainError, "kappa, r must be finite and positive"),
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
    # past the double range: a bare OverflowError from wavelength ** 2, an
    # index of inf, a scattering length of 0.0 from an infinite column, and
    # one of inf from a subnormal column
    "refractive_index-wavelength-squared-overflow": (
        lambda: refraction.refractive_index(1e-20, 1e200, 1e200),
        DomainError, "wavelength^2 overflows a double"),
    "refractive_index-column-overflow": (
        lambda: refraction.refractive_index(1e10, 1e10, 1e150),
        DomainError, "wavelength^2 * density overflows a double"),
    "refractive_index-overflow": (
        lambda: refraction.refractive_index(1.0, -1e10, 1e150),
        DomainError, "the index -inf is not a finite double"),
    "scattering_length_for_index-column-overflow": (
        lambda: refraction.scattering_length_for_index(1.5, 1e300, 1e10),
        DomainError, "wavelength^2 * density overflows a double"),
    "scattering_length_for_index-overflow": (
        lambda: refraction.scattering_length_for_index(1.5, 1e-10, 1e-150),
        DomainError, "the scattering length inf is not a finite double"),
    "effective_velocity-filling": (
        lambda: refraction.effective_velocity(1.5, 1.5),
        DomainError, "filling fraction must lie in [0, 1]"),
    "effective_velocity-index": (
        lambda: refraction.effective_velocity(0.5, 0.5),
        DomainError, "n must be finite and >= 1, got 0.5"),
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


# entry point: (call, valid keyword arguments); each keyword is one that
# the entry point refuses through refuse_non_finite, by that name
NON_FINITE = {
    # core_num, wave_optics
    "wavenumber": (wavenumber, dict(wavelength=589e-9)),
    "diffraction_amplitude": (
        wave_optics.diffraction_amplitude, dict(kappa=KAPPA, alpha=0.0, alpha1=0.3)),
    # flavour
    "ElectronBeam": (flavour.ElectronBeam, dict(mean_p=229.0, sigma_p=1e-3)),
    "KaonSystem": (flavour.KaonSystem, dict(mean_p=194.0)),
    "NeutrinoExperiment": (flavour.NeutrinoExperiment, dict(
        source_mass=139.57, source_width=2.5e-14, recoil_mass=105.66, dm2_ev2=2e-3,
        theta_12=0.7, baseline=100.0)),
    "NeutrinoExperiment-beta": (
        functools.partial(flavour.NeutrinoExperiment, 139.57, 2.5e-14, 105.66, 2e-3,
                          0.7, 100.0),
        dict(beta_energy_mev=1.0, neutrino_p_mev=0.3)),
    # oracle
    "quad_oscillatory": (
        functools.partial(oracle.quad_oscillatory, _wave, b=1.0), dict(a=0.0, kappa=1.0)),
    "quad_nested": (
        functools.partial(oracle.quad_nested, 2), dict(kappa=1.0, delta_s=1.0, x1=1.0)),
    "mc_ordered_volume": (
        functools.partial(oracle.mc_ordered_volume, 2, samples=10), dict(length=1.0)),
    "gaussian_ratio_integral": (
        functools.partial(oracle.gaussian_ratio_integral, _wave, _wave), dict(a=0.0, b=1.0)),
    "series_sum_highprec": (oracle.series_sum_highprec, dict(delta_phi=1.0, beta_l=1.0)),
    # ray_optics
    "InterfaceGeometry": (
        functools.partial(ray_optics.InterfaceGeometry, alpha=0.5),
        dict(n1=1.5, n2=1.0, d=1.0, segment=1.0)),
    "snell_angle": (functools.partial(ray_optics.snell_angle, theta_i=0.3),
                    dict(n1=1.0, n2=1.5)),
    "trajectory_spread": (
        ray_optics.trajectory_spread, dict(kappa=KAPPA, n2=1.5, r=1.0, theta_o=0.2)),
    # reflection
    "ReflectionSetup": (reflection.ReflectionSetup, dict(n1=1.0, n2=1.5)),
    "reflection_amplitude_path": (reflection.reflection_amplitude_path, dict(n1=1.0, n2=1.5)),
    "reflection_coeff_path": (reflection.reflection_coeff_path, dict(n1=1.0, n2=1.5)),
    "reflection_coeff_fresnel": (reflection.reflection_coeff_fresnel, dict(n1=1.0, n2=1.5)),
    "reflection_phase_path": (reflection.reflection_phase_path, dict(n1=1.0, n2=1.5)),
    "fresnel_comparison": (reflection.fresnel_comparison, dict(n1=1.0, n2=1.5)),
    "thin_film_coeff": (
        reflection.thin_film_coeff, dict(n=1.5, wavelength=589e-9, thickness=1e-7)),
    # refraction
    "RectangularBoundary": (
        refraction.RectangularBoundary, dict(l_y=2.0, l_z=3.0, y=0.1, z=0.2)),
    "CircularBoundary": (refraction.CircularBoundary, dict(radius=1.0, y=0.1)),
    "MediumSpec": (
        refraction.MediumSpec, dict(density=1e25, scattering_length=1e-15, thickness=1e-9)),
    "thin_sheet_phase_shift": (
        functools.partial(refraction.thin_sheet_phase_shift,
                          refraction.MediumSpec(1e25, 1e-15, 1e-9)),
        dict(kappa=KAPPA)),
    "refractive_index": (
        refraction.refractive_index,
        dict(density=2.5e25, scattering_length=3e-10, wavelength=589e-9)),
    "scattering_length_for_index": (
        refraction.scattering_length_for_index, dict(n=1.5, density=2.5e27, wavelength=589e-9)),
    "effective_velocity": (
        functools.partial(refraction.effective_velocity, 0.5), dict(n=1.5)),
    "nested_volume_integral": (
        functools.partial(refraction.nested_volume_integral, 2), dict(length=1.0)),
    "unconstrained_block_amplitude": (
        refraction.unconstrained_block_amplitude, dict(beta_l=1.0)),
    "scattering_order_kernel": (
        functools.partial(refraction.scattering_order_kernel, 2), dict(delta_phi=1.0)),
    "nested_phase_integral": (
        functools.partial(refraction.nested_phase_integral, 2),
        dict(kappa=1.0, delta_s=1.0, x1=1.0)),
    "time_budget_factor": (refraction.time_budget_factor, dict(delta_phi=1.0, beta_l=1.0)),
    "regime_classification": (
        refraction.regime_classification, dict(delta_phi=1.0, beta_l=1.0)),
    "boundary_averaged_factor": (refraction.boundary_averaged_factor, dict(beta_l=1.0)),
    "annulment_report": (refraction.annulment_report, dict(
        radius=5e-2, axis_distance=2.0, wavelength=590e-9, block_length=0.4, n=1.5,
        tau_s=54e-9)),
    "boundary_radial_limit": (
        functools.partial(refraction.boundary_radial_limit, refraction.CircularBoundary(0.03)),
        dict(x1=1.0, phi1=0.1)),
}

NON_FINITE_CASES = {
    f"{entry}-{name}-{bad!r}": (call, dict(kwargs, **{name: bad}), name, bad)
    for entry, (call, kwargs) in NON_FINITE.items()
    for name in kwargs
    for bad in (math.nan, math.inf, -math.inf)
}


def _callers_of_refuse_non_finite() -> set:
    """Names of the module-level functions and classes under src/pathamp
    whose code calls refuse_non_finite."""
    callers = set()
    for path in pathlib.Path(refraction.__file__).parent.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "refuse_non_finite" for call in ast.walk(node)):
                callers.add(node.name)
    return callers


def test_every_caller_of_refuse_non_finite_has_a_row():
    # a row may also name an entry point that reaches the helper through
    # another, as fresnel_comparison does
    assert _callers_of_refuse_non_finite() - {key.split("-")[0] for key in NON_FINITE} \
        == set()


@pytest.mark.parametrize("call,kwargs,name,bad", NON_FINITE_CASES.values(),
                         ids=NON_FINITE_CASES.keys())
def test_entry_points_refuse_non_finite_input(call, kwargs, name, bad):
    # NaN passes every sign check and +-inf overflows past them or meets
    # one with another message; each entry point names the argument
    message = re.escape(f"{name} must be finite, got {bad!r}")
    with pytest.raises(DomainError, match=f"^{message}$") as info:
        call(**kwargs)
    assert type(info.value) is DomainError
