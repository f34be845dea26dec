"""Acceptance suite: every release-gating criterion at its stated
tolerance, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import cmath
import math
import time

import numpy as np
import pytest

from pathamp import flavour, michelson, ray_optics, reflection, refraction, wave_optics
from pathamp.core_num import CONSTANTS
from pathamp.oracle import damped_radial_integral, mc_ordered_volume, quad_nested

C = CONSTANTS.c
KAPPA_NA = 2 * math.pi / CONSTANTS.lambda_na_d


def verdict(number, text):
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def test_criterion_01_reflection_coefficients():
    t0 = time.perf_counter()
    rho_path = reflection.reflection_coeff_path(1.0, 1.5)
    rho_fresnel = reflection.reflection_coeff_fresnel(1.0, 1.5)
    phase = reflection.reflection_phase_path(1.0, 1.5)
    elapsed = time.perf_counter() - t0
    assert rho_path == 1.0 / 36.0
    assert abs(rho_path - 0.027778) < 5e-7
    assert rho_fresnel == 0.2 ** 2
    assert abs(rho_fresnel - 0.040000) < 1e-12
    assert phase == math.pi
    assert elapsed < 1e-3
    verdict(1, f"rho_path=1/36, rho_fresnel=0.04, phase=pi in {elapsed*1e6:.0f} us")


def test_criterion_02_thin_film_special_cases():
    n, lam = 1.5, CONSTANTS.lambda_na_d
    rho0 = reflection.reflection_coeff_path(1.0, n)
    quarter = reflection.thin_film_coeff(n, lam, lam / (4 * n))
    half = reflection.thin_film_coeff(n, lam, lam / (2 * n))
    assert quarter == pytest.approx(4.0 * rho0, rel=1e-12)
    assert half == pytest.approx(0.0, abs=1e-15 * rho0)
    verdict(2, "quarter-wave film = 4x half-space, half-wave film = 0")


def test_criterion_03_double_slit_benchmarks():
    geom = flavour.SlitGeometry(l=0.10, r_prime=1.0, d=0.95e-3, h=0.1e-3,
                                w=1e-3)
    photon = flavour.photon_double_slit(geom, 2 * math.pi / 5893e-10,
                                        CONSTANTS.tau_na_fringe)
    assert abs(photon.fringe_spacing - 29e-6) <= 0.5e-6

    beam = flavour.ElectronBeam(mean_p=229.0, sigma_p=229.0 * 6.0e-7)
    electron = flavour.electron_double_slit(geom, beam)
    # the sigma_p-driven coefficient is derivable from the quoted inputs
    assert abs(electron.spread_coeff - 1.9e-6) <= 0.1 * 1.9e-6
    # the equal-time coefficient is not (see the decisions ledger): the
    # quoted pair is carried as a stored reference, with the value the
    # formula actually gives computed and flagged beside it
    ref_et, ref_sp = flavour.ELECTRON_SLIT_REFERENCE_DAMPING
    assert abs(ref_et - 1.7e-9) <= 0.1 * 1.7e-9
    assert abs(ref_sp - 1.9e-6) <= 0.1 * 1.9e-6
    flag = electron.flags[0]
    assert flag.reference == ref_et and flag.computed == electron.equal_time_coeff
    verdict(3, f"fringe spacing {photon.fringe_spacing*1e6:.2f} um; electron "
               f"damping 1.9e-6 reproduced, 1.7e-9 stored+flagged")


def test_criterion_04_michelson_visibility():
    # asymptote formula to 1e-10 across the stated imbalance range
    for x in np.linspace(0.01, 3.0, 25):
        tau = 1e-8
        d = x * C * tau
        spec = michelson.InterferometerSpec(0.5, d, tau, KAPPA_NA)
        late = spec.long_path / C + 60 * tau
        assert abs(michelson.visibility(spec, late) - math.exp(-x)) < 1e-10

    for d, expected in ((0.125, 0.959), (0.25, 0.920), (0.50, 0.846)):
        spec = michelson.InterferometerSpec(0.5, d, 1e-8, KAPPA_NA)
        assert abs(michelson.visibility_asymptote(spec) - expected) <= 1e-3

    table = michelson.visibility_benchmark_table()
    hb = table["H_b 4p-2s"]
    hr = table["H_r 3p-2s"]
    na = table["Na D 3p-3s"]
    assert abs(hb["tau_s_s"] - 0.204e-9) <= 0.01 * 0.204e-9
    assert abs(hr["tau_p_s"] - 0.50e-9) <= 0.02 * 0.50e-9
    assert na["flags"], "sodium row must carry a discrepancy flag"
    verdict(4, "asymptote exp(-d/c tau) to 1e-10; 0.959/0.920/0.846; "
               "H rows reproduced, Na row flagged")


def test_criterion_05_source_motion():
    ntp = 293.15
    corr = michelson.source_motion_correction(KAPPA_NA, 0.25,
                                              CONSTANTS.mass_na_kg, ntp)
    assert abs(corr.relative_correction - 1.6e-12) <= 0.2 * 1.6e-12

    # closed form against direct Maxwellian quadrature
    from scipy.integrate import quad
    p2 = 2 * CONSTANTS.mass_na_kg * CONSTANTS.k_boltzmann * ntp
    eps = KAPPA_NA * 0.25 * p2 / (CONSTANTS.mass_na_kg * C) ** 2
    num = complex(
        quad(lambda u: u * u * math.exp(-u * u) * math.cos(eps * u * u),
             0, 12)[0],
        -quad(lambda u: u * u * math.exp(-u * u) * math.sin(eps * u * u),
              0, 12)[0])
    den = quad(lambda u: u * u * math.exp(-u * u), 0, 12)[0]
    averaged = num / den
    shift = corr.phase_argument - 2 * KAPPA_NA * 0.25
    closed = corr.damping * cmath.exp(1j * shift)
    assert abs(averaged - closed) <= 1e-6 * abs(closed)
    assert abs(corr.damping - 1.0) <= eps * eps
    verdict(5, f"thermal phase correction {corr.relative_correction:.2e} "
               f"(ref 1.6e-12); closed form = quadrature to 1e-6; damping = 1")


def test_criterion_06_refraction_series():
    for beta_l in (0.1, 1.0, 5.0, 10.0):
        val = refraction.time_budget_factor(0.0, beta_l).value
        assert abs(val - 1.0) <= 1e-12

    for beta_l in (0.1, 1.0, 5.0, 10.0):
        for dphi in (0.0, 0.5, 2.0, 10.0):
            f = refraction.time_budget_factor(dphi, beta_l)
            assert abs(f.value - f.trig_route) <= 1e-10 * abs(f.value)

    t0 = time.perf_counter()
    kappa = 2.0
    for ds in (1.0, 5.0, 10.0):  # kappa*ds up to 20
        res = quad_nested(3, kappa, ds)
        closed = cmath.exp(1j * kappa * 0.4) * (1j / kappa) ** 3 \
            * refraction.scattering_order_kernel(3, kappa * ds)
        assert abs(res.value - closed) <= 1e-6 * abs(closed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    verdict(6, f"budget factor: exact unity at zero budget, routes agree to "
               f"1e-10, order-3 kernel vs quadrature 1e-6 in {elapsed:.1f} s")


def test_criterion_07_ordered_volume_monte_carlo():
    t0 = time.perf_counter()
    for n in (2, 3, 4, 5):
        res = mc_ordered_volume(n, 1.0, 1_000_000, seed=n)
        target = refraction.nested_volume_integral(n, 1.0)
        assert abs(res.value.real - target) <= 3.0 * res.error_estimate
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    verdict(7, f"L^n/n! within 3 sigma for n = 2..5 at 1e6 samples "
               f"in {elapsed:.1f} s")


def test_criterion_08_annulment_report():
    rep = refraction.annulment_report(radius=0.05, axis_distance=2.0,
                                      wavelength=5.9e-7, block_length=0.40,
                                      n=1.5, tau_s=CONSTANTS.tau_na_annulment)
    assert abs(rep.delta_s_max - 625e-6) <= 0.01 * 625e-6
    assert abs(rep.delta_phi_max - 6.66e3) <= 0.01 * 6.66e3
    assert abs(rep.beta_l - 2.12e6) <= 0.01 * 2.12e6
    assert rep.prompt_fraction == pytest.approx(3.9e-5, rel=0.02)
    flag = rep.flags[0]
    assert flag.quantity == "prompt_fraction" and flag.reference == 4e-4
    verdict(8, "delta_s 625 um, 6.66e3 rad, beta_l 2.12e6; prompt fraction "
               "3.9e-5 computed with 4e-4 flagged")


def test_criterion_09_ray_laws_from_stationary_phase():
    t0 = time.perf_counter()
    for deg in (5.0, 15.0, 30.0, 41.0):
        theta_i = math.radians(deg)
        geom = ray_optics.InterfaceGeometry(1.5, 1.0, math.pi / 2 - theta_i,
                                            1.0, 0.7)
        found = ray_optics.stationary_phase_angle(geom)
        assert abs(found.theta - ray_optics.snell_angle(1.5, 1.0, theta_i)) \
            <= 1e-6
        # reflection: the outgoing leg stays in the incidence medium
        mirrored = ray_optics.InterfaceGeometry(1.5, 1.5, geom.alpha, 1.0, 0.7)
        refl = ray_optics.stationary_phase_angle(mirrored)
        assert abs(refl.theta - theta_i) <= 1e-8
        fermat = ray_optics.fermat_stationary_angle(geom)
        assert abs(fermat - ray_optics.snell_angle(1.5, 1.0, theta_i)) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    verdict(9, f"Snell to 1e-6, reflection to 1e-8, Fermat to 1e-6 over "
               f"four angles in {elapsed:.2f} s")


def test_criterion_10_kaon_oscillations():
    sys_ = flavour.KaonSystem()
    hbar = CONSTANTS.hbar_mev_s
    for tau in np.linspace(0.0, 4 * CONSTANTS.tau_ks, 29):
        total = flavour.kaon_detection_probability(sys_, "e+", tau=float(tau)) \
            + flavour.kaon_detection_probability(sys_, "e-", tau=float(tau))
        direct = 2 * (math.exp(-sys_.gamma_s * tau / hbar)
                      + math.exp(-sys_.gamma_l * tau / hbar))
        assert abs(total - direct) <= 1e-14 * direct

    low = flavour.kaon_equal_velocity_report(flavour.KaonSystem(mean_p=10.0))
    high = flavour.kaon_equal_velocity_report(flavour.KaonSystem(mean_p=1000.0))
    ratio = low.dt_production / high.dt_production
    assert abs(ratio - 6.27 / 2.8) <= 0.01 * (6.27 / 2.8)
    assert low.dt_production == pytest.approx(6.27e-25, rel=0.01)
    assert low.flags[0].quantity == "dt_production"   # ~1e3 scale flagged
    verdict(10, f"charge-sum interference cancellation to 1e-14; production-"
                f"time ratio {ratio:.3f} (ref 2.239); absolute value flagged")


def test_criterion_11_neutrino_oscillations():
    dm2 = 2e-3
    exp = flavour.pion_neutrino_experiment(dm2, math.pi / 4, 100.0)
    assert abs(exp.p0 - 29.79) <= 1e-3 * 29.79

    product = flavour.half_oscillation_distance(exp) * dm2
    assert abs(product - 13.8) <= 0.01 * 13.8

    res = flavour.neutrino_oscillation(exp)
    ratio = res.phi_path / res.phi_standard
    assert abs(ratio - 2.685) <= 1e-3 * 2.685

    k_exp = flavour.kaon_neutrino_experiment(dm2, math.pi / 4, 100.0)
    losc_ratio = flavour.oscillation_length_ratio(k_exp, exp)
    assert abs(losc_ratio - 28.0) <= 1.0

    # lifetime damping: the quoted benchmark exponent is carried as a
    # stored reference; the value the formula gives (about half of it) is
    # computed and flagged beside it (see decisions ledger)
    flags = {f.quantity: f for f in res.flags}
    damp = flags["damping_exponent_unit_phase"]
    assert abs(damp.reference - 4.0e-16) <= 0.05 * 4.0e-16
    assert damp.computed == pytest.approx(2.12e-16, rel=0.01)

    at_half = flavour.pion_neutrino_experiment(dm2, math.pi / 4,
                                               13.757 / dm2)
    dt = flavour.neutrino_oscillation(at_half).dt_21
    assert dt == pytest.approx(2.59e-23, rel=0.01)
    closed, dt_flags = flavour.emission_time_offset_closed_form(exp)
    assert dt_flags[0].reference == pytest.approx(8.22e-24, rel=0.01)
    verdict(11, f"p0 29.79 MeV/c, L(pi)*dm2 {product:.2f} m eV^2, phase ratio "
                f"{ratio:.3f}, kaon/pion length ratio {losc_ratio:.1f}, "
                f"dt21 2.59e-23 s with 8.22e-24 flagged")


def test_criterion_12_rectilinear_consistency():
    for x1 in (0.5, 1.0, 2.0):
        ps = wave_optics.plane_sum_factor(KAPPA_NA, x1)
        assert abs(ps - wave_optics.direct_factor(KAPPA_NA, x1)) < 1e-10
    # the brute-force sum: the rule's radial value replaced by the
    # physically damped radial integral
    damped = wave_optics.plane_sum_factor(KAPPA_NA, 1.0) \
        * damped_radial_integral(KAPPA_NA, 1.0, 1e-7 * KAPPA_NA) \
        / wave_optics.huygens_zone_value(KAPPA_NA, 1.0)
    assert abs(damped - wave_optics.direct_factor(KAPPA_NA, 1.0)) < 0.02
    verdict(12, "plane sum of secondary sources = direct amplitude to 1e-10 "
                "(analytic rule), to 2% (damped quadrature)")
