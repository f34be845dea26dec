"""Shared pieces of the benchmark: percentiles, the failure classifier,
rusage and process helpers.  Standard library only, so run.py can import
it before it knows whether the package is importable."""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass

# Failure kinds, one per way an operation can fail (see classify()).
REFUSED_VALID = "refused_valid"        # in-domain input refused with a typed error
WRONG_RESULT = "wrong_result"          # result off its reference beyond tolerance
ACCEPTED_INVALID = "accepted_invalid"  # invalid input accepted
CRASHED = "crashed"                    # untyped exception, bad exit code or traceback
FAILURE_KINDS = (REFUSED_VALID, WRONG_RESULT, ACCEPTED_INVALID, CRASHED)

SETUP_SAMPLES = 5   # set-up is timed in this many fresh processes per run

# Speed correction.  On a shared host other tenants slow the core by up to
# 1.7x, in bursts from milliseconds to a minute long, and CPU time slows
# with wall time.  So the benchmark times a fixed pure-Python loop right
# before and right after every operation, on the same pinned core, and
# scales the operation's latency by REF_LOOP_S / (mean of those loop
# times): latencies as on an undisturbed core.  REF_LOOP_S is the loop's
# time on an undisturbed core of the machine the benchmark was tuned on.
CALIBRATION_ITERATIONS = 3000
REF_LOOP_S = 185e-6


@dataclass
class Outcome:
    """What one operation did, as the checking code saw it.

    valid: the input lies inside the documented domain.
    refused: name of the typed error the program raised (or printed as
      {"error", "message"} with exit 2); None when it returned a result.
    crashed: an untyped exception escaped, the process exited with a code
      other than 0 or 2, or printed a traceback.
    rel_err / tol: relative error against a numeric reference and the
      tolerance the test suite states for that comparison.
    matches: verdict of a non-numeric check (byte identity, sigma test).
    """

    valid: bool
    refused: str | None = None
    crashed: bool = False
    rel_err: float | None = None
    tol: float | None = None
    matches: bool | None = None


def classify(o: Outcome) -> str | None:
    """Failure kind of an operation, or None when it succeeded.

    A refused invalid input is a success; NaN errors count as wrong."""
    if o.crashed:
        return CRASHED
    if not o.valid:
        return None if o.refused else ACCEPTED_INVALID
    if o.refused:
        return REFUSED_VALID
    if o.matches is False:
        return WRONG_RESULT
    if o.rel_err is not None and not o.rel_err <= o.tol:
        return WRONG_RESULT
    return None


# Failures the seed program already has, as (operation, kind) -> the error
# names a refusal may carry (None: any).  An operation is a package function
# in-process, or the CLI subcommand (with its --op for `oracle`).  Only the
# defect probes of traced runs meet them: the workloads stay where the seed
# is right.  Any other failure is a regression: it makes `correct` false.
KNOWN_DEFECTS = {
    # budget-sweep's probe: refusals at beta_l >~ 19 and delta_phi >~ 600,
    # digit loss, and cancellation in the block amplitude for beta_l >~ 12.6
    ("time_budget_factor", REFUSED_VALID): {"SeriesDisagreement", "ConvergenceError"},
    ("time_budget_factor", WRONG_RESULT): None,
    ("unconstrained_block_amplitude", WRONG_RESULT): None,
    # cli-cold: the same refusals, and --samples <= 0 accepted or crashing
    # (a crash on valid input is never known, see is_known_defect)
    ("refract-series", REFUSED_VALID): {"SeriesDisagreement", "ConvergenceError"},
    ("oracle mc-volume", ACCEPTED_INVALID): None,
    ("oracle mc-volume", CRASHED): None,
}


def is_known_defect(op: str, kind: str, o: Outcome) -> bool:
    """Whether a failure of this kind is one the seed program already has.
    The seed crashes only on invalid input, so a crash on valid input is
    always a regression."""
    if (op, kind) not in KNOWN_DEFECTS or (kind == CRASHED and o.valid):
        return False
    names = KNOWN_DEFECTS[(op, kind)]
    return names is None or o.refused in names


class Tally:
    """Failure counts by kind over a run, the failures that are regressions,
    and the worst relative error of the operations that succeeded.

    The workloads draw their inputs from where the seed program is right,
    so there every failure is a regression.  A defect probe (allow_known)
    runs inputs where the seed is known to fail; there only failures that
    are not in KNOWN_DEFECTS are regressions."""

    def __init__(self, allow_known: bool = False):
        self.allow_known = allow_known
        self.attempted = 0
        self.by_kind = dict.fromkeys(FAILURE_KINDS, 0)
        self.max_rel_err = 0.0
        self.unverified = 0   # operations whose reference could not be computed
        self.unexpected = {}  # "operation kind" -> count, for regressions

    def add(self, o: Outcome, op: str) -> str | None:
        kind = classify(o)
        self.attempted += 1
        if kind is not None:
            self.by_kind[kind] += 1
            if not (self.allow_known and is_known_defect(op, kind, o)):
                key = f"{op} {kind}" + (f" {o.refused}" if o.refused else "")
                self.unexpected[key] = self.unexpected.get(key, 0) + 1
        elif o.rel_err is not None:
            self.max_rel_err = max(self.max_rel_err, o.rel_err)
        return kind

    @property
    def failed(self) -> int:
        return sum(self.by_kind.values())


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks, as
    numpy.percentile's default and statistics.quantiles(method='inclusive')."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Number of the n samples ranked strictly above the q-th percentile."""
    if n <= 0:
        return 0
    return n - 1 - math.floor((n - 1) * q / 100.0)


def rel_err(value: complex, ref: complex) -> float:
    """|value - ref| / |ref|; NaN when either is not finite."""
    if not (math.isfinite(abs(value)) and math.isfinite(abs(ref))):
        return math.nan
    if ref == 0:
        return 0.0 if value == 0 else math.inf
    return abs(value - ref) / abs(ref)


def peak_rss_mb(who: int) -> float:
    """Peak resident set of this process (RUSAGE_SELF) or of its waited-for
    children (RUSAGE_CHILDREN), in MiB; Linux reports ru_maxrss in KiB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def median(values) -> float:
    return percentile(values, 50)


def calibration_loop() -> int:
    s = 0
    for i in range(CALIBRATION_ITERATIONS):
        s += i * i % 7
    return s


def loop_seconds(repeats: int = 1) -> float:
    """Mean wall time of the calibration loop over `repeats` runs."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        calibration_loop()
    return (time.perf_counter() - t0) / repeats


def corrected_ms(seconds: float, loops, ref: float = REF_LOOP_S) -> float:
    """Latency in ms as on an undisturbed core, from the times of the
    calibration taken around the operation and its undisturbed time ref."""
    return 1e3 * seconds * ref / (sum(loops) / len(loops))


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU, so the
    calibration loop and the operation it brackets share a core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env(src_dir: str) -> dict:
    """Environment for every process the benchmark starts: the package comes
    from the checkout's source tree and no stored seed leaks in."""
    env = dict(os.environ)
    env.pop("PATHAMP_SEED", None)
    env["PYTHONPATH"] = src_dir
    return env


def run_child(argv, env, cwd, timeout=120.0):
    """Run a child to completion; return (seconds, CompletedProcess).

    The child is killed and waited for when it overruns."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                          timeout=timeout)
    return time.perf_counter() - t0, proc


def strict_json(text: str):
    """Parse JSON that must not contain NaN or Infinity."""
    def bad(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=bad)


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the one-line JSON result that ends every run's output."""
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
