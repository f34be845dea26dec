"""pathamp benchmark: one command, every end-to-end metric, verified outputs.

    python3 perfbench/run.py --workload {cli-cold,budget-sweep,oracle-validate,all}
                             --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it uses the package in src/.
Workloads are closed loops with one client:

  cli-cold         fresh `python -m pathamp.cli` processes, one after another
  budget-sweep     warm time_budget_factor / unconstrained_block_amplitude calls
  oracle-validate  warm brute-force oracle calls, each checked against the
                   closed form it exists to validate

The in-process workloads run in a fresh worker process each.  With --trace 0
the last stdout line is {"correct", "attempted", "failed", "metrics"} with
the end-to-end metrics; with --trace 1 it carries the per-layer metrics and
the spans go to .perfbench_out/.  Lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys

import layers
from common import (REF_LOOP_S, SETUP_SAMPLES, child_env, emit_result, median,
                    percentile, pin_to_one_cpu, run_child, samples_beyond)
from tracing import parse_importtime

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cli-cold", "budget-sweep", "oracle-validate")
P90_MIN_SAMPLES = 100    # below this, fewer than 10 samples lie beyond the p90


def worker_timeout(seconds):
    """A worker measures for `seconds`, then checks its outputs, which
    takes about as long again."""
    return 2.0 * seconds + 120.0


def _spawn_worker(role, workload, seed, seconds, trace, work_dir=""):
    """Run a worker process and return the JSON object on its last line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", role,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir]
    _, proc = run_child(cmd, child_env(SRC), ROOT, timeout=worker_timeout(seconds))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"{role} worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _setup_probe(workload):
    return _spawn_worker("setup", workload, 0, 0, 0)["setup_s"]


def run_workload(workload, seed, seconds, trace, work_dir):
    """Raw result of one workload run (see cold.run and inproc.run)."""
    if workload == "cli-cold":
        import cold
        return cold.run(seed, seconds, trace, work_dir, lambda: _setup_probe(workload),
                        lambda: _spawn_worker("cold", workload, seed, seconds, trace,
                                              work_dir))
    res = _spawn_worker("run", workload, seed, seconds, trace)
    if not trace:
        res["setup_samples"] = [res["setup_s"]] + [_setup_probe(workload)
                                                   for _ in range(SETUP_SAMPLES - 1)]
    return res


def end_to_end(res):
    """End-to-end metrics of an untraced run, and report lines.

    Every latency is corrected to an undisturbed core (common.corrected_ms).
    The percentiles are over every operation of the run, and ops_per_s is
    the run's operations over the sum of their corrected latencies: one
    closed-loop client, with the calibration loops between operations left
    out.  The report also gives the uncorrected figures."""
    tally = res["tally"]
    failed, attempted = sum(tally["by_kind"].values()), tally["attempted"]
    lat, raw = res["latencies_ms"], res["raw_latencies_ms"]
    n = len(lat)
    values = {
        "op_p50_ms": (percentile(lat, 50), "ms"),
        "op_p90_ms": (percentile(lat, 90), "ms"),
        "ops_per_s": (1e3 * n / sum(lat), "1/s"),
        "setup_s": (median(res["setup_samples"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "op_p50_ms": f"n={n}, each operation a first call on a fresh input; "
                     f"uncorrected {percentile(raw, 50):.6g}",
        "op_p90_ms": f"n={n}, {samples_beyond(n, 90)} beyond; "
                     f"uncorrected {percentile(raw, 90):.6g}",
        "ops_per_s": f"one client, closed loop; uncorrected {1e3 * n / sum(raw):.6g}",
        "setup_s": f"median of {len(res['setup_samples'])} fresh processes, corrected",
    }
    lines = [f"  {name:<13} {v:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else "")
             for name, (v, unit) in values.items()]
    lines.append(f"  (latencies corrected to a core that runs the calibration loop in "
                 f"{1e6 * REF_LOOP_S:g} us)")
    lines.append(f"  failed_frac   {failed / attempted:.6g} ratio  ({failed} of {attempted}: "
                 + ", ".join(f"{k} {c}" for k, c in tally["by_kind"].items()) + ")")
    lines.append(f"  max_rel_err   {tally['max_rel_err']:.3g} ratio  "
                 "(worst successful result with a numeric reference)")
    if res.get("unchecked"):
        lines.append(f"  {res['unchecked']} time_budget_factor results outside the "
                     "seeded check sample: checked for refusals only")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, lines


def _probe_imports(samples=3):
    per_module = {}
    for _ in range(samples):
        _, proc = run_child([sys.executable, "-X", "importtime", "-c", "import pathamp.cli"],
                            child_env(SRC), ROOT)
        found = parse_importtime(proc.stderr.decode(errors="replace"))
        for m in layers.IMPORT_MODULES:
            per_module.setdefault(m, []).append(found.get(m, 0.0))
    return {f"import.{m}_ms": median(v) for m, v in per_module.items()}


def per_layer(res, workload, seed):
    """Per-layer metrics of a traced run, and report lines."""
    metrics = {name: 0 for name, _, _ in layers.per_layer_metrics()}
    metrics.update(res["layers"])
    metrics["process.interp_start_ms"] = median(
        [1e3 * run_child([sys.executable, "-c", "pass"], child_env(SRC), ROOT)[0]
         for _ in range(5)])
    metrics.update(_probe_imports())
    # failure counts cover the workload and the defect probe, where the
    # seed's known defects show
    tally, probe = res["tally"], res["probe_tally"]
    for kind, count in tally["by_kind"].items():
        metrics[f"check.failed.{kind}"] = count + probe["by_kind"][kind]
    metrics["check.failed_frac"] = ((sum(tally["by_kind"].values())
                                     + sum(probe["by_kind"].values()))
                                    / max(tally["attempted"] + probe["attempted"], 1))
    metrics["check.max_rel_err"] = tally["max_rel_err"]
    metrics["check.busy_ms"] = res["check_ms"]
    metrics["trace.overhead_ms"] = res["overhead_ms"]
    metrics["trace.overhead_pct"] = res["overhead_pct"]
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                   "spans": res["spans"]}, fh)
    units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
    lines = [f"  {name:<48} {metrics[name]:.6g} {units[name]}" for name in units]
    if probe["attempted"]:
        lines.append(f"  defect probe: {sum(probe['by_kind'].values())} of {probe['attempted']} "
                     "failed, " + ", ".join(f"{k} {c}" for k, c in probe["by_kind"].items()))
    lines.append(f"  spans written to {os.path.relpath(path, ROOT)}")
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}, lines


def run_one(workload, seed, seconds, trace, work_dir):
    res = run_workload(workload, seed, seconds, trace, work_dir)
    metrics, lines = (per_layer(res, workload, seed) if trace else end_to_end(res))
    tally = res["tally"]
    print(f"{workload} seed={seed} seconds={seconds} trace={trace}: "
          f"{tally['attempted']} operations, {sum(tally['by_kind'].values())} failed")
    print("\n".join(lines))
    for fn, part in res.get("by_fn", {}).items():
        print(f"  {fn}: {part['attempted']} calls, {part['failed']} failed, "
              f"slowest {part['max_ms']:.4g} ms, max_rel_err {part['max_rel_err']:.3g}")
    tallies = [tally] + ([res["probe_tally"]] if "probe_tally" in res else [])
    correct = True
    for t in tallies:
        if t["unverified"]:
            print(f"  {t['unverified']} operations could not be verified")
        for what, count in t["unexpected"].items():
            print(f"  REGRESSION: {count} x {what}")
        correct = correct and not t["unverified"] and not t["unexpected"]
    return tally["attempted"], sum(tally["by_kind"].values()), metrics, correct


def worker_main(args):
    if args.worker == "cold":
        import cold
        print(json.dumps(cold.worker(args.seed, args.seconds, bool(args.trace),
                                     sys.executable, child_env(SRC), ROOT, args.work_dir)))
        return 0
    import inproc
    if args.worker == "setup":
        setup_s, _ = inproc.setup(args.workload)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(json.dumps(inproc.run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", choices=("run", "setup", "cold"), help=argparse.SUPPRESS)
    p.add_argument("--work-dir", default="", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pathamp", "cli.py")):
        print(f"perfbench: no package source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.worker:
        return worker_main(args)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    os.chdir(ROOT)
    pin_to_one_cpu()
    sys.path.insert(0, SRC)
    os.environ.pop("PATHAMP_SEED", None)
    work_dir = os.path.join(".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_one(w, args.seed, args.seconds, args.trace, work_dir)
                   for w in workloads}
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(work_dir))
    attempted = sum(r[0] for r in results.values())
    failed = sum(r[1] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))[2]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r[2].items()}
    emit_result(all(r[3] for r in results.values()), attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
