import cmath
import math
import sys

import pytest
from hypothesis import assume, given, strategies as st

from pathamp.core_num import (
    CONSTANTS,
    DomainError,
    complex_out,
    linspace,
    phase,
    refuse_non_finite,
    wavenumber,
)


def test_constants_positive_and_consistent():
    for name in vars(type(CONSTANTS)):
        if not name.startswith("_"):
            value = getattr(CONSTANTS, name)
            assert math.isfinite(value) and value > 0, name
    assert abs(CONSTANTS.h_ev_s - 2 * math.pi * CONSTANTS.hbar_ev_s) \
        <= 1e-9 * CONSTANTS.h_ev_s
    assert CONSTANTS.hbar_mev_s == CONSTANTS.hbar_ev_s * 1e-6


@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max,
                                   -sys.float_info.max, 1])
def test_refuse_non_finite_passes_every_finite_value(value):
    assert refuse_non_finite(x=value, y=1.0) is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_refuse_non_finite_names_the_first_non_finite_keyword(bad):
    with pytest.raises(DomainError, match=f"^second must be finite, got {bad!r}$"):
        refuse_non_finite(first=1.0, second=bad, third=math.nan)
    with pytest.raises(DomainError, match=f"^third must be finite, got {bad!r}$"):
        refuse_non_finite(third=bad, first=math.nan)


def test_wavenumber():
    assert wavenumber(CONSTANTS.lambda_na_d) == 2.0 * math.pi / CONSTANTS.lambda_na_d


@pytest.mark.parametrize("wavelength", [math.inf, -math.inf, math.nan])
def test_wavenumber_refuses_non_finite_wavelength(wavelength):
    # these gave a wavenumber of 0.0, -0.0 and nan
    with pytest.raises(DomainError, match="wavelength must be finite"):
        wavenumber(wavelength)


@pytest.mark.parametrize("wavelength", [-5e-7, -1.0, -5e-324])
def test_wavenumber_refuses_negative_wavelength(wavelength):
    # -5e-7 gave a wavenumber of -1.2566e7
    with pytest.raises(DomainError, match=f"^wavelength must be positive, got {wavelength!r}$"):
        wavenumber(wavelength)


@pytest.mark.parametrize("wavelength", [0.0, -0.0, 5e-324])
def test_wavenumber_refuses_overflow(wavelength):
    with pytest.raises(DomainError, match=f"^wavelength {wavelength!r} gives no finite"
                                          " wavenumber$"):
        wavenumber(wavelength)


@pytest.mark.parametrize("z", [complex(-1.0, -0.0), complex(-1.0, -1e-17),
                               complex(-2.5, -0.0), complex(-1.0, 0.0)])
def test_phase_on_negative_real_axis_is_plus_pi(z):
    assert phase(z) == math.pi


@pytest.mark.parametrize("z", [complex(-1.0, -0.0), complex(-1.0, -1e-17),
                               complex(-2.5, -0.0)])
def test_printed_phase_on_negative_real_axis_is_plus_pi(z):
    # the JSON summaries print phase's (-pi, pi], not atan2's [-pi, pi]
    assert complex_out(z) == {"re": z.real, "im": z.imag, "modulus": abs(z),
                              "phase_rad": math.pi}


@given(st.floats(0.1, 10.0), st.floats(-math.pi, math.pi),
       st.floats(0.1, 10.0), st.floats(-math.pi, math.pi))
def test_phase_of_product_adds(m1, p1, m2, p2):
    z1, z2 = m1 * cmath.exp(1j * p1), m2 * cmath.exp(1j * p2)
    total = phase(z1 * z2)
    expected = cmath.phase(cmath.exp(1j * (p1 + p2)))
    diff = abs(cmath.exp(1j * total) - cmath.exp(1j * expected))
    assert diff < 1e-12
    assert -math.pi < total <= math.pi
    assert abs(z1 * z2) == pytest.approx(m1 * m2, rel=1e-12)


@pytest.mark.parametrize("start,stop,num", [
    (0.0, 6.0 * 0.8954e-10, 600), (6879.0 / 50.0, 3.0 * 6879.0, 600),
    (8.389102379953801 - 0.05, 128.339102379953801, 400), (-5.0, 5.0, 801),
    (1.0, 1.0, 5), (3.0, -2.0, 2), (1e-300, 1e300, 17)])
def test_linspace_is_numpy_linspace(start, stop, num):
    np = pytest.importorskip("numpy")
    got = linspace(start, stop, num)
    assert got == np.linspace(start, stop, num).tolist()
    assert all(type(x) is float for x in got)


@given(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12), st.integers(2, 2000))
def test_linspace_matches_numpy_everywhere(start, stop, num):
    np = pytest.importorskip("numpy")
    # numpy takes another route when a non-zero step underflows to zero
    assume(start == stop or (stop - start) / (num - 1) != 0.0)
    assert linspace(start, stop, num) == np.linspace(start, stop, num).tolist()
