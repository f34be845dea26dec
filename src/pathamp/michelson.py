"""Time-dependent interference in a Michelson interferometer fed by a
single decaying source atom.

The photon reaches the detector via the short arm (path length L2 = 4L) or
the long arm (L1 = 4L + 2d).  At a fixed detection time the two histories
require different decay times of the source, so the interference term is
weighted by the source propagator evaluated at that time difference:
gating the detection time below the long-arm arrival suppresses
interference entirely, and the time-integrated fringe visibility decays as
exp(-d/(c tau_S)) with the arm imbalance.
"""

from __future__ import annotations

import math

from pathamp.core_num import CONSTANTS, DiscrepancyFlag, DomainError, Record, finite_phase

#: Benchmark fringe-visibility rows: transition label -> (wavelength m,
#: measured half-visibility path difference m, quoted natural lifetime s,
#: reference tau_s s and tau_p s quoted alongside the row).
VISIBILITY_BENCHMARK_ROWS = {
    "H_r 3p-2s": (6563e-10, 0.190, 5.4e-9, 0.46e-9, 0.50e-9),
    "H_b 4p-2s": (4861e-10, 0.085, 12.4e-9, 0.204e-9, 0.207e-9),
    "Na D 3p-3s": (5893e-10, 0.800, 12.4e-9, 1.92e-9, 2.98e-9),
}


class InterferometerSpec(Record):
    """Equal-arm scale L (source-splitter = splitter-mirror2 = splitter-
    detector), arm imbalance d (mirror1 arm is L + d), source lifetime
    tau_s, photon wavenumber kappa and residual instrumental phase phi_12.
    The arms are compensated: each path amplitude is proportional to its
    length, so both carry unit weight after the free-flight 1/L."""

    __slots__ = ("arm_length", "imbalance", "tau_s", "kappa", "phi_12")
    _defaults = {"phi_12": 0.0}

    def __post_init__(self):
        if min(self.arm_length, self.imbalance, self.tau_s, self.kappa) <= 0:
            raise DomainError(
                "arm_length, imbalance, tau_s and kappa must be positive")

    @property
    def long_path(self) -> float:
        return 4.0 * self.arm_length + 2.0 * self.imbalance

    @property
    def short_path(self) -> float:
        return 4.0 * self.arm_length


def detection_probability(spec: InterferometerSpec, t_max: float) -> float:
    """Probability of detecting the photon before t_max (source excited at
    t = 0), with both compensated arms at unit weight.

    Piecewise in t_max: zero before the short-arm arrival L2/c; a single
    decaying exponential while only the short arm can contribute; and the
    full two-path expression, including the interference term damped by
    exp(-d/(c tau_s)), once both arrivals are possible.
    """
    if t_max < 0:
        raise DomainError("t_max must be >= 0")
    c, tau = CONSTANTS.c, spec.tau_s
    l1, l2 = spec.long_path, spec.short_path
    if t_max <= l2 / c:
        return 0.0
    p = tau * (1.0 - math.exp(-(t_max - l2 / c) / tau))
    if t_max <= l1 / c:
        return p
    gate1 = 1.0 - math.exp(-(t_max - l1 / c) / tau)
    interference = 2.0 * math.exp(-(l1 - l2) / (2.0 * c * tau)) \
        * math.cos(finite_phase(spec.kappa * (l1 - l2) + spec.phi_12, "kappa (L1 - L2)"))
    return p + tau * gate1 * (1.0 + interference)


def visibility(spec: InterferometerSpec, t_max: float) -> float:
    """Fringe visibility (P_max - P_min)/(P_max + P_min) over the
    instrumental phase, for detection gated at t_max:

        2 (e^{-d/(c tau)} - f e^{d/(c tau)}) / (2 - f (1 + e^{2d/(c tau)}))

    with f = exp(-(t_max - 4L/c)/tau).  Only defined once both arrivals are
    inside the gate (t_max > L1/c).
    """
    c, tau, d = CONSTANTS.c, spec.tau_s, spec.imbalance
    if t_max <= spec.long_path / c:
        raise DomainError("visibility undefined before the long-arm arrival")
    f = math.exp(-(t_max - spec.short_path / c) / tau)
    x = d / (c * tau)
    num = 2.0 * (math.exp(-x) - f * math.exp(x))
    den = 2.0 - f * (1.0 + math.exp(2.0 * x))
    if den == 0:
        raise DomainError("visibility is 0/0 in double precision at this gate"
                          " (tau_s too long)")
    return num / den


def visibility_asymptote(spec: InterferometerSpec) -> float:
    """Time-integrated visibility exp(-d/(c tau_s))."""
    return math.exp(-spec.imbalance / (CONSTANTS.c * spec.tau_s))


def gated_visibility_table(specs, t_ns):
    """Rows (t_ns, V_first, V_second, ...) of gated visibility, one column
    per InterferometerSpec, on a common gate-time grid in nanoseconds.

    Gate times at or before a curve's long-arm arrival yield NaN for that
    curve; the CSV written by the command line keeps those cells empty.
    """
    cols = []
    for spec in specs:
        col = []
        for t in t_ns:
            t_s = t * 1e-9
            if t_s <= spec.long_path / CONSTANTS.c:
                col.append(math.nan)
            else:
                col.append(visibility(spec, t_s))
        cols.append(col)
    return [(t, *(c[i] for c in cols)) for i, t in enumerate(t_ns)]


def pressure_broadening(tau_s_nat: float, tau_p: float) -> float:
    """Observed lifetime 1/(1/tau_nat + 1/tau_p) when collisions and decay
    compete as independent destruction channels."""
    if tau_s_nat <= 0 or tau_p <= 0:
        raise DomainError("lifetimes must be positive")
    if math.isinf(tau_p):
        return tau_s_nat
    return 1.0 / (1.0 / tau_s_nat + 1.0 / tau_p)


class LifetimeAnalysis(Record):
    __slots__ = (
        "tau_s",
        "tau_p",                    # inf when no pressure broadening is resolvable
        "resolvable",
    )


def lifetime_from_half_visibility(delta_exp: float,
                                  tau_s_nat: float) -> LifetimeAnalysis:
    """Invert a measured half-visibility path difference into the observed
    lifetime tau_s = delta/(2 c ln 2), then split off the pressure part.

    If the observed lifetime is not below the natural one the pressure
    parameter is unresolvable and returned as inf.
    """
    if delta_exp <= 0:
        raise DomainError("delta_exp must be positive")
    tau_s = delta_exp / (2.0 * CONSTANTS.c * math.log(2.0))
    if tau_s >= tau_s_nat:
        return LifetimeAnalysis(tau_s, math.inf, False)
    tau_p = 1.0 / (1.0 / tau_s - 1.0 / tau_s_nat)
    return LifetimeAnalysis(tau_s, tau_p, True)


def visibility_benchmark_table() -> dict:
    """Reanalysis of the benchmark visibility rows.

    The hydrogen rows reproduce their reference values; the sodium row is
    internally inconsistent (its quoted lifetimes do not satisfy the
    parallel-channel relation with its own path difference) and is flagged
    rather than matched.
    """
    out = {}
    for label, (wl, delta, tau_nat, ref_tau_s, ref_tau_p) \
            in VISIBILITY_BENCHMARK_ROWS.items():
        ana = lifetime_from_half_visibility(delta, tau_nat)
        flags = []
        if label.startswith("Na"):
            flags.append(DiscrepancyFlag(
                f"{label} tau_p", ana.tau_p, ref_tau_p,
                "row is internally inconsistent; computed from its"
                " path difference and quoted natural lifetime"))
        out[label] = {
            "wavelength_m": wl,
            "delta_exp_m": delta,
            "tau_s_nat_s": tau_nat,
            "tau_s_s": ana.tau_s,
            "tau_p_s": ana.tau_p,
            "reference_tau_s_s": ref_tau_s,
            "reference_tau_p_s": ref_tau_p,
            "flags": [f.as_dict() for f in flags],
        }
    return out


def rayleigh_doppler_visibility(d: float, wavelength: float,
                                temperature: float, mass: float) -> float:
    """Classical first-order Doppler prediction for the time-integrated
    visibility, exp[-pi (2 pi d / lambda)^2 kT/(M c^2)]; kept for
    comparison with the path-amplitude result, which has no such damping."""
    if d < 0 or wavelength <= 0 or temperature < 0 or mass <= 0:
        raise DomainError("bad Doppler-visibility inputs")
    ratio = CONSTANTS.k_boltzmann * temperature / (mass * CONSTANTS.c ** 2)
    return math.exp(-math.pi * (2.0 * math.pi * d / wavelength) ** 2 * ratio)


class SourceMotionCorrection(Record):
    __slots__ = (
        "phase_argument",           # cosine argument, 2 kappa d (1 - correction)
        "relative_correction",      # (3/4) (p_rms/(M c))^2
        "damping",                  # modulus of the averaged interference factor
    )


def source_motion_correction(kappa: float, d: float, mass: float,
                             temperature: float) -> SourceMotionCorrection:
    """Effect of thermal source motion on the interference term.

    Averaging the time-dilated phase over a Maxwellian momentum
    distribution (mean square momentum 2 M k T) multiplies the interference
    factor by (1 + i eps)^{-3/2} with eps = kappa d (p/(Mc))^2: a pure
    phase shift 2 kappa d (3/4)(p/(Mc))^2 at leading order.  The modulus
    deviates from one only at O(eps^2), so there is no visibility damping
    at order (p/(Mc))^2 -- unlike the classical Doppler prediction.
    """
    if kappa <= 0 or d < 0 or mass <= 0 or temperature < 0:
        raise DomainError("bad source-motion inputs")
    p2_over_mc2 = 2.0 * CONSTANTS.k_boltzmann * temperature / (mass * CONSTANTS.c ** 2)
    if p2_over_mc2 > 1e-4:
        raise DomainError("source motion treatment requires p_rms/(Mc) << 1")
    correction = 0.75 * p2_over_mc2
    eps = kappa * d * p2_over_mc2
    damping = (1.0 + eps * eps) ** -0.75
    return SourceMotionCorrection(2.0 * kappa * d * (1.0 - correction),
                                  correction, damping)
