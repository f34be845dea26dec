"""Seeded inputs of the three workloads.

Everything here depends only on the seed (random.Random with a string
seed is stable across platforms and Python versions), so the same seed
gives the same inputs.  The program under test never sees the seed.
"""

from __future__ import annotations

import math
import random

C = 299792458.0  # m/s, to place Michelson gate times after the long-arm arrival

# ---------------------------------------------------------------- budget-sweep
# The part of the accepted domain where the seed is right: on a 40 x 51 grid
# over the whole domain and on 3000 random points inside this box, every
# time_budget_factor result met its 1e-9 reference (worst 3e-13), and
# unconstrained_block_amplitude met e^{i beta_l} to 1e-11 up to beta_l =
# 12.6.  Beyond it the seed refuses (SeriesDisagreement at beta_l >~ 19,
# ConvergenceError at delta_phi >~ 600) or loses digits: the defect probe
# of a traced run covers the whole accepted domain (ACCEPTED_*).
DPHI_RANGE = (1e-2, 500.0)   # log-uniform
BETA_L_RANGE = (0.0, 10.0)   # uniform
ACCEPTED_DPHI_RANGE = (1e-2, 1e3)
ACCEPTED_BETA_L_RANGE = (0.0, 50.0)
FACTOR_POINTS = 89           # per block; a Fibonacci number, for the lattice below
FACTOR_LATTICE_STEP = 55     # the Fibonacci number before it
BLOCK_POINTS = 22            # unconstrained_block_amplitude calls per block


def latin_hypercube(rng: random.Random, n: int, dims: int):
    """n points in [0, 1)^dims whose every margin has exactly one point in
    each of n equal bins: uniform draws with far less seed-to-seed spread
    in how many points land in the costly or failing corners."""
    cols = []
    for _ in range(dims):
        col = [(i + rng.random()) / n for i in range(n)]
        rng.shuffle(col)
        cols.append(col)
    return list(zip(*cols))


def shifted_lattice(rng: random.Random, n: int, step: int):
    """Randomly shifted rank-1 lattice: point i is (i/n, i*step/n) plus one
    seeded shift, modulo 1.  Each point is uniform in [0, 1)^2 and each
    margin has one point per bin, as in a Latin hypercube.  With
    consecutive Fibonacci numbers n and step the points also fill the
    square evenly, so quantiles of any smooth function of both coordinates
    (the cost of an evaluation, say) barely change with the shift."""
    s1, s2 = rng.random(), rng.random()
    return [((i / n + s1) % 1.0, (i * step / n + s2) % 1.0) for i in range(n)]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def budget_block(rng: random.Random, dphi=DPHI_RANGE, beta_l=BETA_L_RANGE):
    """One shuffled block of (function, args): time_budget_factor on a
    freshly shifted lattice over (delta_phi, beta_l) and
    unconstrained_block_amplitude on a fresh stratified beta_l sample."""
    ops = [("time_budget_factor", (_log_uniform(u, *dphi), _uniform(v, *beta_l)))
           for u, v in shifted_lattice(rng, FACTOR_POINTS, FACTOR_LATTICE_STEP)]
    ops += [("unconstrained_block_amplitude", (_uniform(u, *beta_l),))
            for (u,) in latin_hypercube(rng, BLOCK_POINTS, 1)]
    rng.shuffle(ops)
    return ops


def budget_defect_probe(seed: int):
    """One block over the whole accepted domain, where the seed's known
    defects show; a traced run evaluates it outside the timed loop."""
    return budget_block(random.Random(f"budget-probe:{seed}"),
                        ACCEPTED_DPHI_RANGE, ACCEPTED_BETA_L_RANGE)


# ------------------------------------------------------------- oracle-validate
# The oracle calls one run of the test suite makes with valid input, counted
# by wrapping the five oracle functions during `pytest tests` (289 tests):
# (function, order, size, count).  Size is the node count of quad_nested,
# the sample count of mc_ordered_volume and (delta_phi, beta_l) of
# series_sum_highprec.  Calls that test error paths are left out.
SUITE_ORACLE_CALLS = (
    ("quad_oscillatory", None, None, 12),
    ("quad_nested", 1, 64, 2), ("quad_nested", 2, 64, 1),
    ("quad_nested", 3, 64, 8), ("quad_nested", 4, 64, 1), ("quad_nested", 4, 48, 1),
    ("mc_ordered_volume", 1, 10, 1),
    ("mc_ordered_volume", 2, 200_000, 1), ("mc_ordered_volume", 2, 400_000, 1),
    ("mc_ordered_volume", 2, 1_000_000, 1),
    ("mc_ordered_volume", 3, 100_000, 1), ("mc_ordered_volume", 3, 200_000, 2),
    ("mc_ordered_volume", 3, 400_000, 1), ("mc_ordered_volume", 3, 1_000_000, 1),
    ("mc_ordered_volume", 4, 20_000, 4), ("mc_ordered_volume", 4, 50_000, 2),
    ("mc_ordered_volume", 4, 200_000, 1), ("mc_ordered_volume", 4, 400_000, 1),
    ("mc_ordered_volume", 4, 1_000_000, 2),
    ("mc_ordered_volume", 5, 200_000, 1), ("mc_ordered_volume", 5, 400_000, 1),
    ("mc_ordered_volume", 5, 1_000_000, 1),
    ("gaussian_ratio_integral", None, None, 2),
    ("series_sum_highprec", None, (0.5, 1.0), 2),
    ("series_sum_highprec", None, (2.0, 5.0), 2),
    ("series_sum_highprec", None, (10.0, 10.0), 2),
    ("series_sum_highprec", None, (15.0, 30.0), 1),
    ("series_sum_highprec", None, (10.0, 1000.0), 2),
    ("series_sum_highprec", None, (10.0, 2000.0), 1),
    ("series_sum_highprec", None, (20.0, 2000.0), 2),
)
MC_SAMPLES = 1_000_000        # largest sampling batch of the suite (set-up uses it)
JITTER = (0.95, 1.05)         # seeded log-uniform factor on each suite parameter


def _jitter(rng: random.Random, x: float) -> float:
    return x * _log_uniform(rng.random(), *JITTER)


def _oracle_args(rng: random.Random, fn: str, order, size):
    if fn == "quad_nested":
        # kappa = 1, so delta_s is the budget phase (the suite's lie in 0-20)
        return (order, 1.0, _log_uniform(rng.random(), 0.1, 20.0), size)
    if fn == "mc_ordered_volume":
        # seed = order, so each (order, samples) draws the same points and
        # its 3-sigma verdict does not depend on the run's seed
        return (order, _uniform(rng.random(), 0.5, 2.0), size, order)
    if fn == "series_sum_highprec":
        return tuple(_jitter(rng, x) for x in size)
    if fn == "quad_oscillatory":
        # rho/kappa from the suite's 1e-7 up: below it the damped radial
        # integral misses huygens_zone_value by up to 4% (3 in 3000 draws)
        kappa = 2.0 * math.pi / _uniform(rng.random(), 400e-9, 800e-9)
        return (kappa, _uniform(rng.random(), 0.1, 2.0),
                kappa * _log_uniform(rng.random(), 1e-7, 1e-6))
    sigma = _uniform(rng.random(), 0.5, 2.0)
    return (sigma, _uniform(rng.random(), 10.0, 100.0),
            _uniform(rng.random(), 0.1, 2.0), sigma * rng.random())


def oracle_block(rng: random.Random):
    """One shuffled block holding every oracle call of SUITE_ORACLE_CALLS,
    each with fresh seeded parameters near the suite's."""
    block = [(fn, order, size) for fn, order, size, count in SUITE_ORACLE_CALLS
             for _ in range(count)]
    rng.shuffle(block)
    return [(fn, _oracle_args(rng, fn, order, size)) for fn, order, size in block]


def blocks(workload: str, seed: int):
    """Endless stream of blocks of (function, args) for an in-process
    workload.  Every block has fresh inputs, so no input repeats in a run
    and a cache inside the program cannot turn repeats into hits."""
    rng = random.Random(f"{workload}:{seed}")
    make = budget_block if workload == "budget-sweep" else oracle_block
    while True:
        yield make(rng)


# ------------------------------------------------------------------- cli-cold

def _num(rng, lo, hi, log=False):
    u = rng.random()
    return f"{_log_uniform(u, lo, hi) if log else _uniform(u, lo, hi):.6g}"


def _propagator_covariant(rng):
    return ["propagator", "--mode", "covariant",
            "--mass", _num(rng, 0.1, 1000.0, log=True) + "MeV",
            "--beta", _num(rng, 0.05, 0.99), "--r", _num(rng, 0.1, 100.0) + "m",
            "--width", _num(rng, 0.0, 1.0) + "keV"]


def _propagator_temporal(rng):
    return ["propagator", "--mode", "temporal",
            "--wavelength", _num(rng, 400, 800) + "nm",
            "--tau", _num(rng, 1, 100) + "ns", "--dtau", _num(rng, 0, 50) + "ns"]


def _propagator_energy(rng):
    return ["propagator", "--mode", "energy",
            "--energy", _num(rng, 1.5, 2.5) + "eV",
            "--energy0", _num(rng, 1.5, 2.5) + "eV",
            "--width", _num(rng, 1e-8, 1e-6, log=True) + "eV"]


def _diffraction(rng):
    return ["diffraction", "--wavelength", _num(rng, 400, 800) + "nm",
            "--alpha", _num(rng, 0, 80) + "deg", "--alpha1", _num(rng, 0, 80) + "deg"]


def _refract_index(rng):
    argv = ["refract-index", "--wavelength", _num(rng, 400, 800) + "nm",
            "--density", _num(rng, 1e24, 1e26, log=True) + "m-3"]
    if rng.random() < 0.5:
        return argv + ["--n", _num(rng, 1.0001, 1.5)]
    return argv + ["--scattering-length", _num(rng, 1e-12, 1e-9, log=True) + "m"]


def _refract_series(rng):
    return ["refract-series", "--dphi", _num(rng, *DPHI_RANGE, log=True),
            "--betal", _num(rng, *BETA_L_RANGE)]


def _annulment(rng):
    return ["annulment", "--radius", _num(rng, 1, 10) + "cm",
            "--axis-distance", _num(rng, 50, 500) + "cm",
            "--wavelength", _num(rng, 400, 800) + "nm",
            "--block-length", _num(rng, 10, 100) + "cm",
            "--n", _num(rng, 1.1, 1.8), "--tau", _num(rng, 5, 100) + "ns"]


def _snell(rng):
    n1, n2 = _uniform(rng.random(), 1.0, 1.8), _uniform(rng.random(), 1.0, 1.8)
    limit = math.degrees(math.asin(n2 / n1)) if n1 > n2 else 90.0
    argv = ["snell", "--n1", f"{n1:.6g}", "--n2", f"{n2:.6g}",
            "--theta-i", f"{0.9 * limit * rng.random():.6g}deg"]
    return argv + (["--search"] if rng.random() < 0.5 else [])


def _reflect(rng):
    argv = ["reflect", "--n2", _num(rng, 1.0, 2.5)]
    if rng.random() < 0.5:
        argv += ["--n1", _num(rng, 1.0, 2.5)]
    if rng.random() < 0.5:
        argv += ["--thsm", _num(rng, 0.1, 1.0)]
    if rng.random() < 0.5:
        argv += ["--film-thickness", _num(rng, 50, 500) + "nm",
                 "--wavelength", _num(rng, 400, 800) + "nm"]
    return argv


def _michelson(rng, curve=False):
    arm, d = _uniform(rng.random(), 0.1, 1.0), _uniform(rng.random(), 0.0, 0.5)
    argv = ["michelson", "--L", f"{100 * arm:.6g}cm", "--d", f"{100 * d:.6g}cm",
            "--tau", _num(rng, 1, 50) + "ns"]
    if rng.random() < 0.5:
        t_max_ns = (4 * arm + 2 * d) / C * 1e9 * 1.001 + _uniform(rng.random(), 0.5, 50)
        argv += ["--tmax", f"{t_max_ns:.6g}ns"]
    return argv + (["--curve", "{csv}"] if curve else [])


def _ydse(rng, curve=False):
    if rng.random() < 0.5:
        argv = ["ydse", "--kind", "photon", "--wavelength", _num(rng, 400, 800) + "nm",
                "--tau", _num(rng, 1, 50) + "ns"]
    else:
        argv = ["ydse", "--kind", "electron", "--p", _num(rng, 50, 500) + "MeV/c",
                "--sigma-p", _num(rng, 1e-5, 1e-3, log=True) + "MeV/c"]
    return argv + (["--curve", "{csv}"] if curve else [])


def _kaon(rng, curve=False):
    argv = ["kaon", "--p", _num(rng, 50, 5000, log=True) + "MeV/c"]
    if rng.random() < 0.5:
        argv += ["--tau", _num(rng, 0, 5) + "ns"]
    if rng.random() < 0.5:
        argv += ["--distance", _num(rng, 0.01, 10, log=True) + "m"]
    return argv + (["--curve", "{csv}"] if curve else [])


def _neutrino(rng, curve=False):
    source = rng.choice(("pion", "kaon", "beta"))
    argv = ["neutrino", "--source", source,
            "--dm2", _num(rng, 1e-5, 1e-2, log=True) + "eV2",
            "--L", _num(rng, 10, 1e6, log=True) + "m"]
    if rng.random() < 0.5:
        argv += ["--theta12", _num(rng, 5, 45) + "deg"]
    if source == "beta":
        argv += ["--beta-energy", _num(rng, 1, 10) + "MeV",
                 "--p-nu", _num(rng, 0.5, 5) + "MeV/c"]
    return argv + (["--curve", "{csv}"] if curve else [])


def _classify(rng):
    return ["classify", "--kind",
            rng.choice(("photon-ydse", "electron-ydse", "kaon", "neutrino"))]


def _oracle_mc(rng):
    # order 8 at the default 1e6 samples is the largest sampling batch, and
    # the largest memory peak of any cold call; fixed so peak_rss_mb is
    return ["oracle", "--op", "mc-volume", "--order", "8",
            "--length", _num(rng, 0.5, 2.0) + "m",
            "--seed", str(rng.randint(0, 2**31 - 1))]


def _oracle_half_zone(rng):
    return ["oracle", "--op", "half-zone", "--wavelength", _num(rng, 400, 800) + "nm",
            "--x1", _num(rng, 0.1, 2.0) + "m",
            "--rho-over-kappa", _num(rng, 1e-8, 1e-6, log=True)]


def _oracle_nested(rng):
    # orders 1-3: order 4 costs seconds and belongs to oracle-validate
    return ["oracle", "--op", "nested", "--order", str(rng.randint(1, 3)),
            "--dphi", _num(rng, 0.1, 20.0, log=True)]


RECIPES = ("fig9", "table1", "table2-ratios", "table3", "eq7.8", "eq9.65")


def _recipe(name):
    def make(rng):
        return ["reproduce", "--recipe", name] + (
            ["--csv", "{csv}"] if rng.random() < 0.5 else [])
    return make


VALID_TEMPLATES = (
    _propagator_covariant, _propagator_temporal, _propagator_energy,
    _diffraction, _refract_index, _refract_series, _annulment, _snell, _reflect,
    _michelson, lambda r: _michelson(r, curve=True),
    _ydse, lambda r: _ydse(r, curve=True),
    _kaon, lambda r: _kaon(r, curve=True),
    _neutrino, lambda r: _neutrino(r, curve=True),
    _classify, _oracle_mc, _oracle_half_zone, _oracle_nested,
) + tuple(_recipe(name) for name in RECIPES)


def _missing_unit(rng):
    return rng.choice((
        ["michelson", "--L", _num(rng, 10, 100), "--d", "25cm", "--tau", "10ns"],
        ["diffraction", "--wavelength", _num(rng, 400, 800)],
        ["kaon", "--p", _num(rng, 50, 5000)],
        ["neutrino", "--dm2", _num(rng, 1e-5, 1e-2, log=True), "--L", "6900m"],
    ))


def _unknown_unit(rng):
    return rng.choice((
        ["propagator", "--mode", "temporal", "--wavelength", _num(rng, 400, 800) + "furlong",
         "--tau", "16ns", "--dtau", "1ns"],
        ["michelson", "--L", "50cm", "--d", "25cm", "--tau", _num(rng, 1, 50) + "fortnight"],
        ["neutrino", "--dm2", _num(rng, 1e-5, 1e-2, log=True) + "eV", "--L", "6900m"],
        ["ydse", "--kind", "electron", "--p", _num(rng, 50, 500) + "MeV/s"],
    ))


def _out_of_domain(rng):
    return rng.choice((
        ["refract-series", "--dphi", _num(rng, 0.1, 10), "--betal", _num(rng, 50.5, 200)],
        ["refract-series", f"--dphi=-{_num(rng, 0.1, 10)}", "--betal", _num(rng, 0, 50)],
        ["annulment", "--radius", _num(rng, 300, 500) + "cm", "--axis-distance", "200cm",
         "--wavelength", "590nm", "--block-length", "40cm", "--n", "1.5", "--tau", "54ns"],
        ["oracle", "--op", "nested", "--order", str(rng.randint(5, 8))],
        ["reflect", "--n2", _num(rng, 0.1, 0.99)],
        ["snell", "--n1", "1.5", "--n2", "1.0", "--theta-i", _num(rng, 42, 89) + "deg"],
        ["propagator", "--mode", "covariant", "--r", "1m", "--beta", _num(rng, 1.01, 2)],
    ))


INVALID_TEMPLATES = (_missing_unit, _unknown_unit, _out_of_domain)

# The seed's known CLI defects, as (argv, valid): a traced cli-cold run
# spawns them after its loop.  Refusal of in-domain input, acceptance of a
# negative sample count, and a traceback on a zero one.
CLI_DEFECT_PROBE = (
    (["refract-series", "--dphi", "1", "--betal", "40"], True),
    (["oracle", "--op", "mc-volume", "--samples=-5"], False),
    (["oracle", "--op", "mc-volume", "--samples", "0"], False),
)
CLI_CYCLE = len(VALID_TEMPLATES) + len(INVALID_TEMPLATES)


def cli_deck(seed: int, cycles: int):
    """Argv for the cold-CLI loop as (argv, valid).  Each cycle holds every
    valid template once (every subcommand, propagator mode, oracle op,
    --curve variant and recipe) plus one input of each invalid kind, about
    10% of the cycle, in shuffled order.  "{csv}" marks where the caller
    puts a CSV path."""
    rng = random.Random(f"cli-cold:{seed}")
    deck = []
    for _ in range(cycles):
        cycle = [(make, True) for make in VALID_TEMPLATES]
        cycle += [(make, False) for make in INVALID_TEMPLATES]
        rng.shuffle(cycle)
        deck += [(make(rng), valid) for make, valid in cycle]
    return deck
