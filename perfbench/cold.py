"""cli-cold: sequential fresh `python -m pathamp.cli <argv>` processes.

Before the timed loop, pathamp.cli.main runs in-process on every argv of
the deck and its stdout and CSV are recorded; each cold process must
reproduce both byte for byte.  An invalid argv must exit 2 with a strict
JSON {"error", "message"} object on stderr and no traceback.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import subprocess
import sys
import time

import inputs
from common import (SETUP_SAMPLES, Outcome, Tally, corrected_ms, peak_rss_mb, percentile,
                    run_child, strict_json)
from layers import metrics_from_tracer, traced_targets
from tracing import Tracer

COLD_CALL_S = 0.5        # lower bound of one cold call, to size the deck
CHILD_TIMEOUT_S = 60.0
# A cold process is mostly exec, dynamic loading and unmarshalling, which
# other tenants slow more than they slow the pure-Python calibration loop.
# So the calibration between two cold processes is a bare interpreter
# start, `python -c pass`, and REF_START_S its time on an undisturbed core
# of the machine the benchmark was tuned on (common.REF_LOOP_S likewise).
REF_START_S = 0.040
TRACEBACK = "Traceback (most recent call last)"


class Case:
    """One argv of the deck with its in-process reference."""

    def __init__(self, argv, valid, csv_path):
        self.argv = [csv_path if a == "{csv}" else a for a in argv]
        self.valid = valid
        self.csv_path = csv_path if "{csv}" in argv else None
        self.files = csv_path     # stem of the files the cold run's output goes to
        self.ref = None       # (exit code or exception name, stdout, csv bytes)
        self.ref_ms = None
        # the operation, for the known-defect list: the subcommand, with
        # the --op of `oracle`
        self.op = argv[0] + (f" {argv[argv.index('--op') + 1]}" if "--op" in argv else "")


def _take_csv(path):
    """Bytes of a CSV the program wrote, removing the file; None if absent."""
    if path is None or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


def run_in_process(cases, main):
    """Run main(argv) for every case, recording exit code, stdout and CSV."""
    for case in cases:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = main(list(case.argv))
            except Exception as exc:  # the cold run must then crash too
                rc = type(exc).__name__
        case.ref_ms = 1e3 * (time.perf_counter() - t0)
        case.ref = (rc, out.getvalue(), _take_csv(case.csv_path))


def outcome(case: Case, rc: int, stdout: str, stderr: str, csv) -> Outcome:
    """Verdict on one cold run against the CLI's exit-code and error-object
    rules and against the in-process reference."""
    if rc not in (0, 2) or TRACEBACK in stderr:
        return Outcome(case.valid, crashed=True)
    if rc == 2:
        lines = [ln for ln in stderr.splitlines() if ln.strip()]
        try:
            err = strict_json(lines[-1])
        except (IndexError, ValueError):
            return Outcome(case.valid, crashed=True)
        if not isinstance(err, dict) or set(err) != {"error", "message"}:
            return Outcome(case.valid, crashed=True)
        return Outcome(case.valid, refused=str(err["error"]))
    try:
        strict_json(stdout)
        same = (0, stdout, csv) == case.ref
    except ValueError:
        same = False
    return Outcome(case.valid, matches=same)


def spawn_loop(cases, python, env, root, seconds, min_ops=0, cycle=1):
    """Cold processes one after another, until their corrected latencies
    add up to `seconds` and at least `min_ops` have run, ending on a
    multiple of `cycle`.  Each one's exit code, stdout and stderr go to
    files beside its CSV path.  A bare interpreter start runs between
    consecutive processes, and each latency is corrected by the two around
    it (see REF_START_S and common.corrected_ms).  Returns the corrected
    and raw latencies in ms.

    Runs in a lean worker that never imports the package: a child's peak
    RSS starts from its parent's at fork, so only there does
    RUSAGE_CHILDREN measure the CLI processes alone."""
    def start_seconds():
        return run_child([python, "-c", "pass"], env, root)[0]

    corrected, raw = [], []
    start_before = start_seconds()
    for case in cases:
        if (len(raw) >= min_ops and len(raw) % cycle == 0
                and sum(corrected) >= 1e3 * seconds):
            break
        try:
            secs, proc = run_child([python, "-m", "pathamp.cli", *case.argv], env, root,
                                   timeout=CHILD_TIMEOUT_S)
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            secs, rc, out, err = CHILD_TIMEOUT_S, -9, b"", b"timed out"
        start_after = start_seconds()
        corrected.append(corrected_ms(secs, (start_before, start_after), REF_START_S))
        raw.append(1e3 * secs)
        start_before = start_after
        for suffix, data in ((".rc", str(rc).encode()), (".out", out), (".err", err)):
            with open(case.files + suffix, "wb") as fh:
                fh.write(data)
    return corrected, raw


def collect(cases, count, tally):
    """Classify the first `count` cases from the files spawn_loop wrote."""
    for case in cases[:count]:
        got = {}
        for suffix in (".rc", ".out", ".err"):
            with open(case.files + suffix, "rb") as fh:
                got[suffix] = fh.read().decode(errors="replace")
            os.remove(case.files + suffix)
        verdict = outcome(case, int(got[".rc"]), got[".out"], got[".err"],
                          _take_csv(case.csv_path))
        if tally.add(verdict, case.op) is not None:
            print(f"{case.argv} failed: {verdict}", file=sys.stderr)


def make_cases(seed: int, seconds: float, work_dir: str):
    cycles = math.ceil(seconds / COLD_CALL_S / inputs.CLI_CYCLE) + 1
    deck = inputs.cli_deck(seed, cycles)
    return [Case(argv, valid, os.path.join(work_dir, f"op{i}.csv"))
            for i, (argv, valid) in enumerate(deck)]


def probe_cases(work_dir: str):
    return [Case(argv, valid, os.path.join(work_dir, f"probe{i}.csv"))
            for i, (argv, valid) in enumerate(inputs.CLI_DEFECT_PROBE)]


def worker(seed, seconds, trace, python, env, root, work_dir):
    """Body of the lean cold-loop worker; returns the loop's latencies and
    the peak RSS of the CLI processes.  A traced loop runs for half the
    time and then spawns the defect probe."""
    if trace:
        lat, raw = spawn_loop(make_cases(seed, seconds, work_dir), python, env, root,
                              seconds / 2.0)
        spawn_loop(probe_cases(work_dir), python, env, root, 0.0,
                   min_ops=len(inputs.CLI_DEFECT_PROBE))
    else:
        # whole cycles, so every template is in every run equally often
        lat, raw = spawn_loop(make_cases(seed, seconds, work_dir), python, env, root,
                              seconds, min_ops=inputs.CLI_CYCLE, cycle=inputs.CLI_CYCLE)
    return {"latencies_ms": lat, "raw_latencies_ms": raw,
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)}


def run(seed, seconds, trace, work_dir, setup_probe, cold_worker):
    """Untraced: references, set-up probes, then the cold loop in a lean
    worker.  Traced: references, then warm untraced and traced in-process
    passes over the same argv (warm cli.main per subcommand, and the
    package layers it calls), then the cold loop for half the time for the
    failure counts, and the defect probe."""
    from pathamp import cli
    cases = make_cases(seed, seconds, work_dir)
    t0 = time.perf_counter()
    run_in_process(cases, cli.main)
    check_ms = 1e3 * (time.perf_counter() - t0)
    if not trace:
        setup = [setup_probe() for _ in range(SETUP_SAMPLES)]
        res = cold_worker()
        tally = Tally()
        collect(cases, len(res["latencies_ms"]), tally)
        return {"setup_samples": setup, "latencies_ms": res["latencies_ms"],
                "raw_latencies_ms": res["raw_latencies_ms"],
                "peak_rss_mb": res["peak_rss_mb"],
                "tally": tally.__dict__, "check_ms": check_ms}
    refs = [c.ref for c in cases]
    # the reference pass paid each subcommand's first-call warm-up; then
    # warm untraced and traced passes alternate, and each case keeps its
    # fastest time of each kind.  The spans come from the first traced pass.
    tracer, plain, traced = Tracer(), [], []
    for pass_tracer in (tracer, Tracer()):
        run_in_process(cases, cli.main)
        plain.append([c.ref_ms for c in cases])
        with pass_tracer.installed(traced_targets()):
            run_in_process(cases, cli.main)
        traced.append([c.ref_ms for c in cases])
    plain_ms = sum(map(min, zip(*plain)))
    traced_ms = sum(map(min, zip(*traced)))
    for case, ref, ms in zip(cases, refs, map(min, zip(*traced))):
        if case.ref != ref:
            print(f"in-process output changed on a later run: {case.argv}", file=sys.stderr)
        case.ref, case.ref_ms = ref, ms
    layers = {}
    metrics_from_tracer(tracer, layers)
    by_sub = {}
    for case in cases:
        by_sub.setdefault(case.argv[0], []).append(case.ref_ms)
    for sub, values in by_sub.items():
        layers[f"cli.main.{sub}_ms"] = percentile(values, 50)
    probes = probe_cases(work_dir)
    run_in_process(probes, cli.main)
    tally, probe = Tally(), Tally(allow_known=True)
    collect(cases, len(cold_worker()["latencies_ms"]), tally)
    collect(probes, len(probes), probe)
    return {"tally": tally.__dict__, "probe_tally": probe.__dict__, "layers": layers,
            "check_ms": check_ms, "overhead_ms": traced_ms - plain_ms,
            "overhead_pct": 100.0 * (traced_ms - plain_ms) / plain_ms,
            "spans": tracer.dump()}
