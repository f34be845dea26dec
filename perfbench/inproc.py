"""In-process workloads (budget-sweep, oracle-validate), run in a fresh
worker process so that their imports land in set-up time and their memory
in RUSAGE_SELF; also the set-up probe of every workload.

The package is imported inside the functions below, never at module load,
so that set-up time covers it.  References are computed after the timed
loop and after the memory reading.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import random
import resource
import sys
import time
from array import array

import inputs
from common import Outcome, Tally, corrected_ms, loop_seconds, peak_rss_mb, rel_err
from layers import add_failure_counts, metrics_from_tracer, traced_targets
from tracing import Tracer

NESTED_X1 = 0.4      # quad_nested's default x_1, which sets its overall phase

# Relative tolerances the test suite states for each comparison.
TOL_BUDGET_FACTOR = 1e-9     # time_budget_factor vs series_sum_highprec
TOL_BLOCK = 1e-11            # unconstrained_block_amplitude vs e^{i beta_l}
TOL_NESTED = 1e-6            # quad_nested vs scattering_order_kernel
MC_SIGMAS = 3.0              # mc_ordered_volume vs L^n/n!, in error bars
TOL_HALF_ZONE = 0.02         # damped radial integral vs huygens_zone_value
TOL_GAUSSIAN = 1e-8          # gaussian_ratio_integral vs closed form
TOL_HIGHPREC = 1e-10         # series_sum_highprec vs independent quadrature

MIN_OPS = 180    # at least three oracle blocks, and >= 18 ops beyond the p90
# Each budget-factor reference costs ~8 ms, several times the call it
# checks, so budget-sweep checks a seeded sample of this many of each
# block's 89 (about 1000 in a 20-s run); every refusal and every block
# amplitude is checked.
FACTOR_CHECKS_PER_BLOCK = 6
SETUP_CALIBRATION_REPEATS = 5


def setup(workload: str):
    """Import the layers the workload calls and make one small call into
    each, so lazy initialisation is paid before the timed loop.  Returns
    (seconds, corrected as the latencies are, module the ops are looked
    up in)."""
    loop_before = loop_seconds(SETUP_CALIBRATION_REPEATS)
    t0 = time.perf_counter()
    if workload == "cli-cold":
        # each cold call pays its own imports; this is what one of them costs
        import pathamp.cli as module
    elif workload == "budget-sweep":
        from pathamp import refraction as module
        module.time_budget_factor(1.0, 1.0)
        module.unconstrained_block_amplitude(1.0)
    else:
        import numpy as np
        from pathamp import oracle as module
        # Monte Carlo and the Gaussian ratio at the loop's sizes, in this
        # order: their large temporaries set the heap's high-water mark here,
        # not at whichever point of the shuffled mix they first meet
        module.quad_nested(1, 1.0, 1.0)
        module.mc_ordered_volume(5, 1.0, inputs.MC_SAMPLES)
        module.gaussian_ratio_integral(lambda p: np.exp(-p * p), np.sin, -5.0, 5.0)
        module.quad_oscillatory(lambda r: np.exp(1j * r), 0.0, 1.0, 1.0)
        module.series_sum_highprec(1.0, 1.0)
    seconds = time.perf_counter() - t0
    loop_after = loop_seconds(SETUP_CALIBRATION_REPEATS)
    return corrected_ms(seconds, (loop_before, loop_after)) / 1e3, module


def _call_args(fn: str, args):
    """Positional and keyword arguments of the call; oracle integrands are
    built here, outside the timed call, from the op's parameters."""
    if fn == "quad_nested":
        order, kappa, delta_s, nodes = args
        return (order, kappa, delta_s), {"nodes": nodes}
    if fn == "quad_oscillatory":
        import numpy as np
        kappa, x1, rho = args
        return ((lambda r: np.exp(1j * kappa * r - rho * (r - x1))),
                x1, math.inf, kappa), {"damping_scale": 1.0 / rho}
    if fn == "gaussian_ratio_integral":
        import numpy as np
        sigma, mean_p, dr, dp = args
        centre = mean_p - dp / 2.0
        return ((lambda p: np.exp(-((p - mean_p) ** 2 + (p + dp - mean_p) ** 2)
                                  / (2.0 * sigma ** 2))),
                (lambda p: -(p + dp / 2.0) * dr),
                centre - 10.0 * sigma, centre + 10.0 * sigma), {}
    if fn == "mc_ordered_volume":
        order, length, samples, seed = args
        return (order, length, samples), {"seed": seed}
    return tuple(args), {}


def timed_call(module, fn: str, args, tracer: Tracer | None = None):
    """One op.  Returns (fn, args, latency ms, result, error): result is
    (value, error estimate) or a bare number, error None or (exception
    type name, raised by the package)."""
    cargs, ckw = _call_args(fn, args)
    call = getattr(module, fn)
    err = res = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            res = call(*cargs, **ckw)
        else:
            with tracer.span("op"):
                res = call(*cargs, **ckw)
    except Exception as exc:  # classified later: typed refusal or crash
        # keep the name, not the exception: its traceback pins big frames
        err = (type(exc).__name__, type(exc).__module__.split(".")[0] == "pathamp")
    ms = 1e3 * (time.perf_counter() - t0)
    # keep only what the checks read, so memory does not grow with the
    # number of ops a run completes (series_sum_highprec returns a number)
    if hasattr(res, "value"):
        res = (res.value, getattr(res, "error_estimate", None))
    return fn, args, ms, res, err


def check_sample(workload: str, seed: int):
    """positions(block): the positions of a block whose outputs get a
    reference.  All of them, except on budget-sweep: there a seeded
    FACTOR_CHECKS_PER_BLOCK of its time_budget_factor calls and every
    block amplitude."""
    if workload != "budget-sweep":
        return lambda block: range(len(block))
    rng = random.Random(f"check:{seed}")

    def positions(block):
        factors = [j for j, (fn, _) in enumerate(block) if fn == "time_budget_factor"]
        chosen = set(rng.sample(factors, FACTOR_CHECKS_PER_BLOCK))
        return {j for j, (fn, _) in enumerate(block)
                if fn != "time_budget_factor" or j in chosen}
    return positions


class Log:
    """What a loop keeps: every op's latency (corrected and raw) and input
    hash in flat arrays, and the full record only of the ops to check and
    of those that raised.  So memory barely grows with the number of ops a
    run completes, and peak_rss_mb stays the program's."""

    def __init__(self):
        self.latencies_ms, self.raw_ms = array("d"), array("d")
        self.keys = array("q")
        self.records = []
        self.unchecked = {}   # fn -> ops that returned and were not checked

    def add(self, rec, corrected: float, keep: bool) -> None:
        fn, args, ms, res, err = rec
        self.latencies_ms.append(corrected)
        self.raw_ms.append(ms)
        self.keys.append(hash((fn, args)))
        if keep or err is not None:
            self.records.append((fn, args, corrected, res, err))
        else:
            self.unchecked[fn] = self.unchecked.get(fn, 0) + 1

    def distinct(self) -> "Log":
        """Fail loudly if an input repeats (by its 64-bit hash): every op
        must be a first call."""
        if len(set(self.keys)) != len(self.keys):
            raise RuntimeError("an input repeated within the run")
        return self


def timed_loop(module, stream, seconds: float, sample) -> Log:
    """Closed loop over whole blocks of the stream until the ops' latencies
    add up to `seconds` and MIN_OPS have run.  The calibration loop runs
    between consecutive ops, so each op is bracketed by two, and each op's
    latency is corrected by them (common.corrected_ms).  Counting corrected
    time makes the number of blocks (three on oracle-validate at 10 s)
    independent of the machine's load, and ending on a block boundary
    keeps the run's mix the stratified mix of the blocks."""
    log = Log()
    busy_ms = 0.0
    loop_before = loop_seconds()
    while len(log.keys) < MIN_OPS or busy_ms < 1e3 * seconds:
        block = next(stream)
        keep = sample(block)
        for j, (fn, args) in enumerate(block):
            rec = timed_call(module, fn, args)
            loop_after = loop_seconds()
            ms = corrected_ms(rec[2] / 1e3, (loop_before, loop_after))
            log.add(rec, ms, j in keep)
            busy_ms += ms
            loop_before = loop_after
    return log


def traced_loop(module, stream, seconds: float, tracer: Tracer, sample):
    """Each op twice, untraced and traced back to back, alternating which
    goes first, over whole blocks until `seconds` have passed.  Adjacent
    pairs see the same machine load and neither call always gets the
    other's warm caches.  Returns the Log of the traced calls and the
    untraced and traced busy time in ms."""
    log, plain_ms, traced_ms = Log(), 0.0, 0.0
    start = time.perf_counter()
    traced_first = False
    while time.perf_counter() - start < seconds:
        block = next(stream)
        keep = sample(block)
        for j, (fn, args) in enumerate(block):
            for with_trace in (traced_first, not traced_first):
                if with_trace:
                    with tracer.installed(traced_targets()):
                        rec = timed_call(module, fn, args, tracer)
                    log.add(rec, rec[2], j in keep)
                    traced_ms += rec[2]
                else:
                    plain_ms += timed_call(module, fn, args)[2]
            traced_first = not traced_first
    return log, plain_ms, traced_ms


def _highprec_reference(dphi: float, beta_l: float):
    """Independent reference for the budget factor at any beta_l:

        F = 1 + x * int_0^1 I_1(x u) e^{i dphi u^2} du,  x = 2 sqrt(beta_l dphi),

    the sum over scattering orders with each order kernel in integral
    (Taylor-remainder) form, by mpmath quadrature at 20 digits."""
    import mpmath
    with mpmath.workdps(20):
        x = 2 * mpmath.sqrt(mpmath.mpf(beta_l) * dphi)
        integral = mpmath.quad(
            lambda u: mpmath.besseli(1, x * u) * mpmath.expj(dphi * u * u), [0, 1])
        return 1 + x * integral


def outcome(fn: str, args, res, err) -> Outcome:
    """Verdict on one op against its independent reference."""
    if err is not None:
        name, typed = err
        return Outcome(valid=True, refused=name if typed else None, crashed=not typed)
    from pathamp import flavour, oracle, refraction, wave_optics
    if fn == "series_sum_highprec":
        # magnitudes may pass float range, compare in mpmath
        ref = _highprec_reference(*args)
        return Outcome(True, rel_err=float(abs(res - ref) / abs(ref)), tol=TOL_HIGHPREC)
    value, error_estimate = res
    if fn == "time_budget_factor":
        ref = complex(oracle.series_sum_highprec(*args))
        return Outcome(True, rel_err=rel_err(value, ref), tol=TOL_BUDGET_FACTOR)
    if fn == "unconstrained_block_amplitude":
        # sum_n (i beta_l)^n / n! is exactly e^{i beta_l}
        return Outcome(True, rel_err=rel_err(value, cmath.exp(1j * args[0])),
                       tol=TOL_BLOCK)
    if fn == "quad_nested":
        order, kappa, delta_s, _nodes = args
        ref = (cmath.exp(1j * kappa * NESTED_X1) * (1j / kappa) ** order
               * refraction.scattering_order_kernel(order, kappa * delta_s))
        return Outcome(True, rel_err=rel_err(value, ref), tol=TOL_NESTED)
    if fn == "mc_ordered_volume":
        target = refraction.nested_volume_integral(args[0], args[1])
        return Outcome(True, matches=abs(value.real - target)
                       <= MC_SIGMAS * error_estimate)
    if fn == "quad_oscillatory":
        kappa, x1, _rho = args
        return Outcome(True, rel_err=rel_err(value,
                                             wave_optics.huygens_zone_value(kappa, x1)),
                       tol=TOL_HALF_ZONE)
    # gaussian_ratio_integral
    sigma, mean_p, dr, dp = args
    # closed form = ratio * int(weight) / (pi sigma^2), and
    # int(weight) = sqrt(pi) sigma e^{-dp^2 / (4 sigma^2)}
    ref = (flavour.gaussian_interference_integral(sigma, mean_p, dr, dp)
           * math.sqrt(math.pi) * sigma * math.exp(dp ** 2 / (4.0 * sigma ** 2)))
    return Outcome(True, rel_err=rel_err(value, ref), tol=TOL_GAUSSIAN)


def check(records, tracer: Tracer | None = None, allow_known: bool = False,
          unchecked=None):
    """Classify every record; `unchecked` ({fn: count}) adds ops that
    returned without getting a reference, as attempted successes.  Returns
    the Tally, a per-function breakdown {fn: {attempted, failed,
    max_rel_err, max_ms}} and check time in ms."""
    tally, by_fn, max_ms = Tally(allow_known), {}, {}
    t0 = time.perf_counter()
    for fn, args, ms, res, err in records:
        part = by_fn.setdefault(fn, Tally(allow_known))
        max_ms[fn] = max(max_ms.get(fn, 0.0), ms)
        with tracer.span("check") if tracer else contextlib.nullcontext():
            try:
                verdict = outcome(fn, args, res, err)
            except Exception as exc:  # a reference failed: the run is not verified
                print(f"no reference for {fn}{args}: {exc!r}", file=sys.stderr)
                for t in (tally, part):
                    t.attempted += 1
                    t.unverified += 1
                continue
            tally.add(verdict, fn)
            if part.add(verdict, fn) is not None:
                print(f"{fn}{args} failed: {verdict}", file=sys.stderr)
    for fn, count in (unchecked or {}).items():
        tally.attempted += count
        by_fn.setdefault(fn, Tally(allow_known)).attempted += count
    summary = {fn: {"attempted": t.attempted, "failed": t.failed,
                    "max_rel_err": t.max_rel_err, "max_ms": max_ms.get(fn, 0.0)}
               for fn, t in by_fn.items()}
    return tally, summary, 1e3 * (time.perf_counter() - t0)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the timed loop, read peak memory, then check.  With
    trace, each block runs untraced and traced; the per-layer numbers come
    from the traced passes and the overhead from the difference, and
    budget-sweep then runs its defect probe."""
    setup_s, module = setup(workload)
    stream = inputs.blocks(workload, seed)
    sample = check_sample(workload, seed)
    if not trace:
        log = timed_loop(module, stream, seconds, sample)
        rss = peak_rss_mb(resource.RUSAGE_SELF)
        tally, by_fn, check_ms = check(log.distinct().records, unchecked=log.unchecked)
        return {"setup_s": setup_s, "latencies_ms": list(log.latencies_ms),
                "raw_latencies_ms": list(log.raw_ms), "peak_rss_mb": rss,
                "tally": tally.__dict__, "unchecked": sum(log.unchecked.values()),
                "by_fn": by_fn, "check_ms": check_ms}
    tracer = Tracer()
    log, plain_ms, traced_ms = traced_loop(module, stream, seconds / 2.0, tracer, sample)
    tally, by_fn, _ = check(log.distinct().records, tracer, unchecked=log.unchecked)
    layers = {}
    metrics_from_tracer(tracer, layers)
    probe = Tally(allow_known=True)
    if workload == "budget-sweep":
        probe_tracer = Tracer()
        with probe_tracer.installed(traced_targets()):
            recs = [timed_call(module, fn, args)
                    for fn, args in inputs.budget_defect_probe(seed)]
        probe, _, _ = check(recs, allow_known=True)
        add_failure_counts(probe_tracer, layers)
    return {"setup_s": setup_s, "tally": tally.__dict__, "probe_tally": probe.__dict__,
            "by_fn": by_fn, "layers": layers, "check_ms": tracer.busy_ms("check"),
            "overhead_ms": traced_ms - plain_ms,
            "overhead_pct": 100.0 * (traced_ms - plain_ms) / plain_ms,
            "spans": tracer.dump()}
