"""Every public function of the package has a row saying what checks it.

The package's claim is that every closed form of the paper is backed by an
independent brute-force oracle.  LEDGER makes that claim a checked fact.
It maps each public module-level function under src/pathamp (the command
line's entry points in cli.py aside) to one of three rows:

- ORACLE, naming the test that compares the function with a public
  function of pathamp.oracle;
- NOT_A_CLOSED_FORM, with the reason: an oracle itself, a numerical or
  argument helper, a search, a tabulator or a table;
- NO_ORACLE_YET, saying what checks the function today: a stored figure,
  an identity, scipy.integrate.quad in a test, or nothing.

The guard fails when a public function has no row, when a row names no
public function, and when an ORACLE row's test does not exist or the
bodies of its test function and its class (the class's other tests aside)
do not name both the ledger's function and a public function of
pathamp.oracle.  A new function therefore arrives with a row, and a
function without an oracle says so.
"""

import ast
import pathlib

import pytest

import pathamp

PACKAGE = pathlib.Path(pathamp.__file__).parent
ROOT = PACKAGE.parent.parent

ORACLE = "oracle"
NOT_A_CLOSED_FORM = "not a closed form"
NO_ORACLE_YET = "no oracle yet"

LEDGER = {
    # core_num
    "core_num.phase": (NOT_A_CLOSED_FORM, "the argument of a complex number"),
    "core_num.complex_out": (NOT_A_CLOSED_FORM, "formats an amplitude for the JSON summaries"),
    "core_num.wavenumber": (NOT_A_CLOSED_FORM, "the definition 2 pi / wavelength, with its refusals"),
    "core_num.finite_phase": (NOT_A_CLOSED_FORM, "refuses a phase that overflowed"),
    "core_num.phase_exp": (NOT_A_CLOSED_FORM, "cmath.exp that refuses an infinite phase"),
    "core_num.linspace": (NOT_A_CLOSED_FORM, "a grid helper, numpy.linspace bit for bit"),
    "core_num.checked_int": (NOT_A_CLOSED_FORM, "an argument check"),
    "core_num.refuse_non_finite": (NOT_A_CLOSED_FORM, "an argument check"),
    # flavour
    "flavour.photon_double_slit": (
        NO_ORACLE_YET, "the stored 29 um fringe spacing; its damping is a DiscrepancyFlag site"),
    "flavour.electron_phase_difference": (
        NO_ORACLE_YET, "identities: a full turn per de Broglie wavelength, the (m/p)^2 ratio"),
    "flavour.electron_double_slit": (
        NO_ORACLE_YET,
        "identities with the photon slit; its equal-time coefficient is a DiscrepancyFlag site"),
    "flavour.gaussian_interference_integral": (
        ORACLE, "tests/test_oracle.py::TestGaussianRatio::test_matches_interference_closed_form"),
    "flavour.kaon_detection_probability": (
        NO_ORACLE_YET, "identities at tau = 0 and in the charge sum"),
    "flavour.kaon_oscillation_phase_lab": (
        NO_ORACLE_YET, "equals the proper-time phase, an identity"),
    "flavour.kaon_oscillation_period": (NO_ORACLE_YET, "a stored figure, 1.19e-9 s"),
    "flavour.kaon_equal_velocity_report": (
        NO_ORACLE_YET,
        "stored figures; dt_production is a DiscrepancyFlag site"),
    "flavour.kaon_curve": (NOT_A_CLOSED_FORM, "tabulates kaon_detection_probability"),
    "flavour.pion_neutrino_experiment": (
        NOT_A_CLOSED_FORM, "builds the pion-decay NeutrinoExperiment from frozen constants"),
    "flavour.kaon_neutrino_experiment": (
        NOT_A_CLOSED_FORM, "builds the kaon-decay NeutrinoExperiment from frozen constants"),
    "flavour.neutrino_oscillation": (
        NO_ORACLE_YET,
        "stored figures and the phase-ratio identity; three DiscrepancyFlag sites"),
    "flavour.half_oscillation_distance": (
        NO_ORACLE_YET, "a stored figure, L dm^2 = 13.8 m eV^2"),
    "flavour.emission_time_offset_closed_form": (
        NO_ORACLE_YET, "agrees with neutrino_oscillation's dt_21 to 1%"),
    "flavour.oscillation_length_ratio": (
        NO_ORACLE_YET, "a stored figure, 28 for kaon against pion"),
    "flavour.neutrino_curve": (NOT_A_CLOSED_FORM, "tabulates neutrino_oscillation"),
    "flavour.classify_experiment": (NOT_A_CLOSED_FORM, "the classification table"),
    # michelson
    "michelson.detection_probability": (
        NO_ORACLE_YET, "the single-path window in closed form, continuity and limits"),
    "michelson.visibility": (
        NO_ORACLE_YET, "equals the fringe extremes of detection_probability, an identity"),
    "michelson.visibility_asymptote": (NO_ORACLE_YET, "stored figures at three imbalances"),
    "michelson.gated_visibility_table": (NOT_A_CLOSED_FORM, "tabulates visibility"),
    "michelson.pressure_broadening": (NO_ORACLE_YET, "a stored figure and the parallel-rate identity"),
    "michelson.lifetime_from_half_visibility": (NO_ORACLE_YET, "stored hydrogen figures"),
    "michelson.visibility_benchmark_table": (
        NOT_A_CLOSED_FORM,
        "tabulates the benchmark rows; the Na rows' tau_p is a DiscrepancyFlag site"),
    "michelson.rayleigh_doppler_visibility": (
        NO_ORACLE_YET, "nothing but d = 0 and T = 0, where it is 1 whatever its formula"),
    "michelson.source_motion_correction": (
        NO_ORACLE_YET, "scipy.integrate.quad of the Maxwell average in a test"),
    # oracle
    "oracle.quad_oscillatory": (
        NOT_A_CLOSED_FORM, "an oracle: checked on known integrals and by its error estimate"),
    "oracle.damped_radial_integral": (
        NOT_A_CLOSED_FORM, "an oracle: quad_oscillatory with an Abel regulator"),
    "oracle.quad_nested": (
        NOT_A_CLOSED_FORM, "an oracle: checked against a 60-digit reference and its estimate"),
    "oracle.mc_ordered_volume": (
        NOT_A_CLOSED_FORM, "an oracle: Monte Carlo with a pinned seed contract"),
    "oracle.gaussian_ratio_integral": (
        NOT_A_CLOSED_FORM, "an oracle: checked on Gaussian averages known in closed form"),
    "oracle.series_sum_highprec": (
        NOT_A_CLOSED_FORM, "an oracle: checked against an mpmath loop"),
    # propagators
    "propagators.covariant_propagator": (
        NO_ORACLE_YET, "an mpmath recomputation of its phase and Lorentz invariance"),
    "propagators.temporal_propagator": (
        NO_ORACLE_YET, "identities: factorisation in time, a full turn per optical period"),
    "propagators.energy_propagator": (
        NO_ORACLE_YET, "scipy.integrate.quad of its Fourier transform in a test"),
    "propagators.free_decay_detection_probability": (
        NO_ORACLE_YET, "scipy.integrate.quad of the smeared onset in a test"),
    # ray_optics
    "ray_optics.path_phase": (
        NOT_A_CLOSED_FORM,
        "the exact phase of one displaced path, which tests differentiate to check"
        " phase_curvature and the stationary point"),
    "ray_optics.snell_angle": (
        NO_ORACLE_YET, "equals the roots of the stationary-phase and Fermat searches"),
    "ray_optics.stationary_phase_angle": (
        NOT_A_CLOSED_FORM, "a root search, checked against snell_angle and scipy's brentq"),
    "ray_optics.phase_curvature": (
        NO_ORACLE_YET, "a finite difference of path_phase in a test"),
    "ray_optics.trajectory_spread": (
        NO_ORACLE_YET, "a phase advance of pi through path_phase, and stored figures"),
    "ray_optics.spread_benchmark_flag": (
        NOT_A_CLOSED_FORM, "a DiscrepancyFlag site, computed by trajectory_spread"),
    "ray_optics.effective_propagation_time": (
        NO_ORACLE_YET, "path_phase = kappa c T_eff, an identity"),
    "ray_optics.fermat_stationary_angle": (
        NOT_A_CLOSED_FORM, "a root search, checked against snell_angle"),
    # reflection
    "reflection.reflection_amplitude_path": (
        NO_ORACLE_YET, "the swap relation, an identity"),
    "reflection.reflection_coeff_path": (
        ORACLE,
        "tests/test_reflection.py::TestHalfZoneDerivation::test_depth_integral_reproduces_coefficient"),
    "reflection.reflection_coeff_fresnel": (NO_ORACLE_YET, "a stored figure, 0.04 at n = 1.5"),
    "reflection.reflection_phase_path": (NO_ORACLE_YET, "the sign of the path amplitude"),
    "reflection.rate_ratio": (NO_ORACLE_YET, "identities at ideal splitters"),
    "reflection.thin_film_coeff": (
        NO_ORACLE_YET, "quarter-wave, half-wave and thick-film identities"),
    "reflection.fresnel_comparison": (
        NOT_A_CLOSED_FORM, "reports reflection_coeff_path beside reflection_coeff_fresnel"),
    # refraction
    "refraction.thin_sheet_phase_shift": (
        NO_ORACLE_YET, "the benchmark value and the phase of 1 + i dphi"),
    "refraction.refractive_index": (
        NO_ORACLE_YET, "the vacuum and n = 1.5 cases, and a round trip through its inverse"),
    "refraction.scattering_length_for_index": (
        NO_ORACLE_YET, "a round trip through refractive_index"),
    "refraction.effective_velocity": (
        NO_ORACLE_YET, "limits and the first-order agreement of its two forms"),
    "refraction.nested_volume_integral": (
        ORACLE,
        "tests/test_refraction.py::TestNestedVolume::test_monte_carlo_three_sigma_up_to_order_five"),
    "refraction.unconstrained_block_amplitude": (
        NO_ORACLE_YET, "its limit e^{i beta_l} at beta_l <= pi, an identity"),
    "refraction.scattering_order_kernel": (
        ORACLE, "tests/test_oracle.py::TestQuadNested::test_matches_order_kernel"),
    "refraction.nested_phase_integral": (
        ORACLE, "tests/test_oracle.py::TestQuadNested::test_nested_phase_integral_closed_form"),
    "refraction.time_budget_factor": (
        ORACLE, "tests/test_refraction.py::TestTimeBudgetFactor::test_against_high_precision_oracle"),
    "refraction.regime_classification": (NOT_A_CLOSED_FORM, "a coarse regime label"),
    "refraction.boundary_averaged_factor": (
        NO_ORACLE_YET,
        "e^{i beta_l} by definition; quad_oscillatory checks its premise, that the"
        " upper limits average away, in TestBoundaryRadialLimit"),
    "refraction.annulment_report": (
        NO_ORACLE_YET, "stored figures; the prompt fraction is a DiscrepancyFlag site"),
    "refraction.boundary_radial_limit": (
        NO_ORACLE_YET, "the exact side distances along the axes, and continuity at corners"),
    # wave_optics
    "wave_optics.spherical_wave": (
        NO_ORACLE_YET, "the Helmholtz residual, by a finite difference in a test"),
    "wave_optics.diffraction_amplitude": (
        NO_ORACLE_YET, "1/lambda at normal incidence, and its oblique and grazing values"),
    "wave_optics.half_period_zone_integral": (
        ORACLE, "tests/test_oracle.py::TestQuadOscillatory::test_half_period_zone"),
    "wave_optics.huygens_zone_value": (
        ORACLE, "tests/test_wave_optics.py::TestHalfPeriodZone::test_rule_matches_damped_integral"),
    "wave_optics.hole_path_amplitude": (
        NO_ORACLE_YET, "the product of its factors, an identity"),
    "wave_optics.plane_sum_factor": (
        NO_ORACLE_YET,
        "its radial factor against damped_radial_integral, an Abel-regulated stand-in"
        " for the time-gated plane sum"),
    "wave_optics.direct_factor": (
        NOT_A_CLOSED_FORM, "the direct-path phase e^{i kappa x1}, the reference of the plane sum"),
}


def _public_functions():
    """{"module.function"} for every public module-level function, cli.py aside."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "cli.py":
            continue
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found.add(f"{module}.{node.name}")
    return found


def _names_in(node):
    """Every name and attribute that node reads or binds."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _is_test(node):
    return isinstance(node, ast.FunctionDef) and node.name.startswith("test")


def _test_names(test_id):
    """The names in a test function and in its class body, the class's
    other tests aside, or None where the test does not exist."""
    path, *classes, func = test_id.split("::")
    if not (ROOT / path).is_file() or len(classes) > 1:
        return None
    body, names = ast.parse((ROOT / path).read_text()).body, set()
    for name in classes:
        cls = next((n for n in body if isinstance(n, ast.ClassDef) and n.name == name), None)
        if cls is None:
            return None
        body = cls.body
        names = names.union(*(_names_in(n) for n in body if not _is_test(n)))
    test = next((n for n in body if _is_test(n) and n.name == func), None)
    return None if test is None else names | _names_in(test)


def test_every_public_function_has_a_row():
    assert sorted(_public_functions() - set(LEDGER)) == []


def test_every_row_names_a_public_function():
    assert sorted(set(LEDGER) - _public_functions()) == []


def test_every_row_is_of_one_kind_and_says_why():
    assert [name for name, (kind, text) in LEDGER.items()
            if kind not in (ORACLE, NOT_A_CLOSED_FORM, NO_ORACLE_YET) or not text] == []


@pytest.mark.parametrize("name", sorted(n for n, (kind, _) in LEDGER.items() if kind == ORACLE))
def test_oracle_row_names_a_test_that_calls_an_oracle(name):
    oracles = {f.split(".", 1)[1] for f in _public_functions() if f.startswith("oracle.")}
    names = _test_names(LEDGER[name][1])
    assert names is not None, f"{LEDGER[name][1]} does not exist"
    assert name.rsplit(".", 1)[1] in names
    assert names & oracles
