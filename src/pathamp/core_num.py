"""Complex-amplitude helpers, frozen physical constants, argument checks,
the package's exception types, and ``Record``, the base of its immutable
value classes.

``refuse_non_finite`` is the package's one check of a non-finite argument
or ``Record`` field: every entry point that refuses NaN or +-inf calls it,
so each such refusal reads "<name> must be finite, got <value>".

Amplitudes are plain Python ``complex`` numbers throughout the package;
``abs`` gives the modulus and ``phase`` the argument in (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
import operator


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """Inputs are individually valid but mutually inconsistent."""


class ConvergenceError(RuntimeError):
    """An iteration or quadrature failed to reach its tolerance."""


class ApproximationWarning(UserWarning):
    """A result was produced outside the validity window of its approximation."""


# bypasses Record.__setattr__, which refuses every assignment
_set_field = object.__setattr__


class Record:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``__slots__``, in constructor order, and
    the defaults of trailing fields in ``_defaults``; a default is shared by
    every instance, so it must itself be immutable.  Fields are accepted by
    position or keyword; ``__post_init__`` then checks them.
    Assigning or deleting a field raises AttributeError.  Equality, hashing,
    repr and ``as_dict`` go field by field, in order.  A result is read by
    attribute; it does not unpack as a tuple.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} positional"
                            f" arguments but {len(args)} were given")
        for name, value in zip(names, args):
            _set_field(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing required argument"
                                f" {name!r}")
            _set_field(self, name, value)
        for name in kwargs:
            cls = type(self).__name__
            if name in names:
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
            raise TypeError(f"{cls}() got an unexpected keyword argument {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable"
                             f" {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable"
                             f" {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # rebuilt through the constructor, so copies and pickles are checked
        return type(self), self._values()

    def as_dict(self) -> dict:
        """The fields in slot order, with a Record value as its dict and a
        tuple as a list, each Record in it as its dict."""
        return {name: _plain(getattr(self, name)) for name in self.__slots__}


def _plain(value):
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class DiscrepancyFlag(Record):
    """A computed value that disagrees with a commonly quoted reference figure.

    The library never silently substitutes the reference figure for the
    computed one; both are carried so reports can show the disagreement.
    """

    __slots__ = ("quantity", "computed", "reference", "note")
    _defaults = {"note": ""}


def phase(z: complex) -> float:
    """Argument of z in (-pi, pi]."""
    # cmath.phase gives -pi on the negative real axis approached from below
    # (imaginary part -0.0, or rounded away); the interval excludes it
    p = cmath.phase(z)
    return math.pi if p == -math.pi else p


def complex_out(z: complex) -> dict:
    """z as the command line's JSON summaries give an amplitude: re, im,
    modulus and phase_rad, the last from ``phase``, so in (-pi, pi]."""
    return {"re": z.real, "im": z.imag, "modulus": abs(z), "phase_rad": phase(z)}


def refuse_non_finite(**values: float) -> None:
    """DomainError naming the first of values, in call order, that is not
    finite: NaN passes every sign and ordering check, and inf overflows
    past them."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def wavenumber(wavelength: float) -> float:
    """2 pi / wavelength; DomainError for a wavelength that is not finite
    (it would give 0 or NaN) or is negative, and when 2 pi / wavelength is
    not a finite double, as for a zero or subnormal wavelength."""
    refuse_non_finite(wavelength=wavelength)
    if wavelength < 0:
        raise DomainError(f"wavelength must be positive, got {wavelength!r}")
    kappa = 2.0 * math.pi / wavelength if wavelength else math.inf
    if math.isinf(kappa):
        raise DomainError(f"wavelength {wavelength!r} gives no finite wavenumber")
    return kappa


def finite_phase(phase: float, name: str) -> float:
    """phase (rad), or DomainError naming it when it overflowed to inf,
    where a cos could not take it."""
    if math.isinf(phase):
        raise DomainError(f"the phase {name} overflows a double")
    return phase


def phase_exp(z: complex, name: str) -> complex:
    """cmath.exp(z), or DomainError naming the phase Im z where cmath.exp
    cannot take it: an infinite phase whose modulus e^{Re z} is not 0."""
    try:
        return cmath.exp(z)
    except ValueError:
        raise DomainError(f"the phase {name} overflows a double") from None


class _Constants:
    """Physical constants frozen to the values used by the reproduced
    benchmark tables (PDG-2004-era particle data, exact SI definitions).

    Deliberately not refreshed to current PDG fits: the benchmark numbers
    this package reproduces were computed with these inputs.  Read them
    from ``CONSTANTS``, the one instance; assigning to it raises
    AttributeError.
    """

    __slots__ = ()

    c = 2.99792458e8                    # m/s, exact SI definition
    hbar_ev_s = 6.582119569e-16         # eV s, CODATA, exact since 2019 SI
    hbar_mev_s = hbar_ev_s * 1e-6       # MeV s, the same double as 6.582119569e-22
    h_ev_s = 4.135667696e-15            # eV s
    k_boltzmann = 1.380649e-23          # J/K, exact SI definition

    m_electron = 0.51099895             # MeV/c^2
    m_pi = 139.57018                    # MeV/c^2, charged pion, PDG 2004
    m_mu = 105.658369                   # MeV/c^2, PDG 2004
    m_k_charged = 493.677               # MeV/c^2, PDG 2004
    tau_k_charged = 1.2385e-8           # s, charged-kaon lifetime
    m_k0_mean = 497.7                   # MeV/c^2, (m_L + m_S)/2, frozen benchmark input
    dm_ls = 3.49e-12                    # MeV/c^2, m_L - m_S, frozen benchmark input
    tau_ks = 0.8954e-10                 # s, frozen benchmark input
    tau_kl = 5.116e-8                   # s, PDG 2004
    tau_pi = 2.6033e-8                  # s, PDG 2004

    lambda_na_d = 589.3e-9              # m, sodium D doublet centre, 5893 A
    # two frozen benchmark lifetimes of the sodium line; they differ, and
    # each benchmark keeps its own
    tau_na_annulment = 5.4e-8           # s, used in the annulment benchmark
    tau_na_fringe = 5.4e-9              # s, used in the double-slit damping benchmark

    atomic_mass_unit = 1.66053906660e-27  # kg, CODATA 2018
    mass_na_u = 22.98976928             # u
    mass_h_u = 1.008                    # u

    # derived, so unit conversions stay self-consistent
    hbarc_ev_m = hbar_ev_s * c          # eV m
    hc_ev_m = h_ev_s * c                # eV m
    mass_na_kg = mass_na_u * atomic_mass_unit
    mass_h_kg = mass_h_u * atomic_mass_unit


CONSTANTS = _Constants()


def linspace(start: float, stop: float, num: int) -> list[float]:
    """num >= 2 evenly spaced floats from start to stop, both included, as
    numpy.linspace gives them bit for bit: point i is i*step + start with
    step = (stop - start)/(num - 1), and the last point is stop.  (numpy
    takes another route only when the step underflows to zero.)"""
    step = (stop - start) / (num - 1)
    points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def checked_int(name: str, value, most: int | None = None, least: int = 1) -> int:
    """value as a Python int from least to most (no upper bound if None);
    anything else, a float such as 2.0 included, raises DomainError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, not {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}")
    if most is not None and value > most:
        raise DomainError(f"{name} must be <= {most}, not {value}")
    return value

