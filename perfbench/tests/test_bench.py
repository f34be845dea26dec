"""Tests of the benchmark's own code: the failure classifier, the
percentile code and its sample counts, the seeded inputs and the metric
list.  Run with `python3 -m pytest perfbench/tests`; no timing here."""

import json
import math
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import cold  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from common import (ACCEPTED_INVALID, CRASHED, REF_LOOP_S, REFUSED_VALID,  # noqa: E402
                    WRONG_RESULT, Outcome, Tally, classify, corrected_ms, is_known_defect,
                    percentile, rel_err, samples_beyond)
from tracing import Tracer, parse_importtime  # noqa: E402


class TestClassifier:
    def test_success_kinds(self):
        assert classify(Outcome(True, rel_err=1e-12, tol=1e-9)) is None
        assert classify(Outcome(True, matches=True)) is None
        assert classify(Outcome(False, refused="UnitError")) is None

    def test_refused_valid(self):
        assert classify(Outcome(True, refused="SeriesDisagreement")) == REFUSED_VALID

    def test_wrong_result(self):
        assert classify(Outcome(True, rel_err=2e-9, tol=1e-9)) == WRONG_RESULT
        assert classify(Outcome(True, rel_err=math.nan, tol=1e-9)) == WRONG_RESULT
        assert classify(Outcome(True, matches=False)) == WRONG_RESULT

    def test_tolerance_is_inclusive(self):
        assert classify(Outcome(True, rel_err=1e-9, tol=1e-9)) is None

    def test_accepted_invalid(self):
        assert classify(Outcome(False)) == ACCEPTED_INVALID
        assert classify(Outcome(False, matches=True)) == ACCEPTED_INVALID

    def test_crash_wins(self):
        assert classify(Outcome(True, crashed=True)) == CRASHED
        assert classify(Outcome(False, refused="X", crashed=True)) == CRASHED

    def test_tally(self):
        t = Tally(allow_known=True)
        t.add(Outcome(True, rel_err=3e-12, tol=1e-9), "time_budget_factor")
        # failed: not in max_rel_err
        t.add(Outcome(True, rel_err=5e-9, tol=1e-9), "time_budget_factor")
        t.add(Outcome(True, refused="ConvergenceError"), "time_budget_factor")
        t.add(Outcome(False, refused="UnitError"), "kaon")
        assert t.attempted == 4 and t.failed == 2
        assert t.by_kind[WRONG_RESULT] == 1 and t.by_kind[REFUSED_VALID] == 1
        assert t.max_rel_err == 3e-12
        assert t.unexpected == {}    # both failures are known seed defects

    def test_workload_failures_are_all_regressions(self):
        t = Tally()
        t.add(Outcome(True, refused="SeriesDisagreement"), "time_budget_factor")
        assert t.unexpected == {"time_budget_factor refused_valid SeriesDisagreement": 1}


class TestKnownDefects:
    def test_seed_defects_are_known(self):
        assert is_known_defect("time_budget_factor", REFUSED_VALID,
                               Outcome(True, refused="SeriesDisagreement"))
        assert is_known_defect("refract-series", REFUSED_VALID,
                               Outcome(True, refused="ConvergenceError"))
        assert is_known_defect("unconstrained_block_amplitude", WRONG_RESULT,
                               Outcome(True, rel_err=1e-9, tol=1e-11))
        assert is_known_defect("oracle mc-volume", ACCEPTED_INVALID, Outcome(False))

    def test_only_crashes_on_invalid_input_are_known(self):
        assert is_known_defect("oracle mc-volume", CRASHED, Outcome(False, crashed=True))
        assert not is_known_defect("oracle mc-volume", CRASHED, Outcome(True, crashed=True))

    def test_other_refusals_of_a_known_operation_are_not(self):
        assert not is_known_defect("time_budget_factor", REFUSED_VALID,
                                   Outcome(True, refused="PreconditionError"))

    def test_new_failures_are_regressions(self):
        t = Tally(allow_known=True)
        t.add(Outcome(True, rel_err=1e-3, tol=1e-8), "gaussian_ratio_integral")
        t.add(Outcome(True, crashed=True), "time_budget_factor")
        t.add(Outcome(True, refused="UnitError"), "kaon")
        t.add(Outcome(False), "oracle nested")
        assert t.unexpected == {"gaussian_ratio_integral wrong_result": 1,
                                "time_budget_factor crashed": 1,
                                "kaon refused_valid UnitError": 1,
                                "oracle nested accepted_invalid": 1}

    def test_rel_err(self):
        assert rel_err(1 + 1e-10j, 1.0) == pytest.approx(1e-10)
        assert math.isnan(rel_err(complex(math.inf, 0), 1.0))
        assert rel_err(0.0, 0.0) == 0.0


class TestPercentile:
    @pytest.mark.parametrize("n", [2, 3, 10, 31, 100, 101])
    def test_matches_statistics_inclusive(self, n):
        values = [((7 * i) % n) ** 1.5 for i in range(n)]
        q = statistics.quantiles(values, n=10, method="inclusive")
        assert percentile(values, 10) == pytest.approx(q[0])
        assert percentile(values, 50) == pytest.approx(statistics.median(values))
        assert percentile(values, 90) == pytest.approx(q[-1])

    def test_edges(self):
        assert percentile([4.0], 90) == 4.0
        assert percentile([1.0, 2.0], 0) == 1.0 and percentile([1.0, 2.0], 100) == 2.0
        with pytest.raises(ValueError):
            percentile([], 50)

    @pytest.mark.parametrize("n,beyond", [(100, 10), (101, 10), (30, 3), (9, 1), (1, 0),
                                          (0, 0), (1000, 100)])
    def test_samples_beyond_p90(self, n, beyond):
        assert samples_beyond(n, 90) == beyond

    @pytest.mark.parametrize("n", [5, 30, 99, 100, 250])
    def test_samples_beyond_counts_values_above(self, n):
        values = list(range(n))
        p = percentile(values, 90)
        assert samples_beyond(n, 90) == sum(v > p for v in values)

    def test_hundred_operations_leave_ten_beyond(self):
        assert all(samples_beyond(n, 90) >= 10 for n in range(100, 1000))



class TestEndToEnd:
    def test_figures_are_over_every_operation(self):
        import run
        res = {"latencies_ms": [float(i) for i in range(1, 101)],
               "raw_latencies_ms": [2.0 * i for i in range(1, 101)],
               "tally": Tally().__dict__ | {"attempted": 100},
               "setup_samples": [0.2, 0.1, 0.3], "peak_rss_mb": 10.0}
        metrics, lines = run.end_to_end(res)
        assert metrics["op_p50_ms"]["value"] == 50.5
        assert metrics["op_p90_ms"]["value"] == pytest.approx(90.1)
        assert metrics["ops_per_s"]["value"] == pytest.approx(1e3 * 100 / 5050)
        assert metrics["setup_s"]["value"] == 0.2
        assert set(metrics) == {"op_p50_ms", "op_p90_ms", "ops_per_s", "setup_s",
                                "peak_rss_mb"}
        assert "n=100, 10 beyond" in "".join(lines)
        assert "uncorrected 101" in "".join(lines)


def test_corrected_ms_scales_to_the_reference_loop():
    assert corrected_ms(0.5, (REF_LOOP_S, REF_LOOP_S)) == pytest.approx(500.0)
    # a core running the loop at half speed ran the operation at half speed too
    assert corrected_ms(1.0, (2 * REF_LOOP_S,) * 3) == pytest.approx(500.0)
    assert corrected_ms(0.75, (REF_LOOP_S, 2 * REF_LOOP_S)) == pytest.approx(500.0)


class TestColdOutcome:
    CASE_OK = cold.Case(["reflect", "--n2", "1.5"], True, "x.csv")
    CASE_OK.ref = (0, '{"a": 1}\n', None)
    CASE_BAD = cold.Case(["kaon", "--p", "5"], False, "x.csv")

    def test_reproduced_output(self):
        o = cold.outcome(self.CASE_OK, 0, '{"a": 1}\n', "", None)
        assert classify(o) is None

    def test_changed_output_or_csv(self):
        assert classify(cold.outcome(self.CASE_OK, 0, '{"a": 2}\n', "", None)) == WRONG_RESULT
        assert classify(cold.outcome(self.CASE_OK, 0, '{"a": 1}\n', "", b"x")) == WRONG_RESULT

    def test_non_strict_json_is_wrong(self):
        case = cold.Case(["reflect"], True, "x.csv")
        case.ref = (0, '{"a": NaN}\n', None)
        assert classify(cold.outcome(case, 0, '{"a": NaN}\n', "", None)) == WRONG_RESULT

    def test_refusals(self):
        err = '{"error": "UnitError", "message": "missing unit"}\n'
        assert classify(cold.outcome(self.CASE_BAD, 2, "", err, None)) is None
        assert classify(cold.outcome(self.CASE_OK, 2, "", err, None)) == REFUSED_VALID

    def test_operation_names(self):
        assert self.CASE_OK.op == "reflect"
        assert cold.Case(["oracle", "--op", "mc-volume"], True, "x.csv").op == "oracle mc-volume"

    def test_contract_breaks(self):
        tb = "Traceback (most recent call last):\n  ...\nZeroDivisionError\n"
        assert classify(cold.outcome(self.CASE_BAD, 1, "", tb, None)) == CRASHED
        assert classify(cold.outcome(self.CASE_BAD, 2, "", "usage: pathamp\n", None)) == CRASHED
        assert classify(cold.outcome(self.CASE_BAD, 2, "", '{"error": "E"}\n', None)) == CRASHED
        assert classify(cold.outcome(self.CASE_BAD, 0, "{}\n", "", None)) == ACCEPTED_INVALID


class TestInputs:
    @staticmethod
    def take(workload, seed, n):
        stream = inputs.blocks(workload, seed)
        return [next(stream) for _ in range(n)]

    def test_same_seed_same_inputs(self):
        for w in ("budget-sweep", "oracle-validate"):
            assert self.take(w, 3, 2) == self.take(w, 3, 2)
            assert self.take(w, 3, 1) != self.take(w, 4, 1)
        assert inputs.cli_deck(3, 2) == inputs.cli_deck(3, 2)

    @pytest.mark.parametrize("workload", ["budget-sweep", "oracle-validate"])
    def test_no_input_repeats(self, workload):
        ops = [op for block in self.take(workload, 5, 4) for op in block]
        assert len(set(ops)) == len(ops)

    def test_repeats_are_refused(self):
        import inproc
        rec = ("time_budget_factor", (1.0, 2.0), 0.1, (1j, None), None)
        log = inproc.Log()
        log.add(rec, 0.1, keep=True)
        assert log.distinct() is log
        log.add(rec, 0.1, keep=False)
        with pytest.raises(RuntimeError):
            log.distinct()

    def test_log_keeps_only_records_to_check(self):
        import inproc
        log = inproc.Log()
        log.add(("f", (1.0,), 0.2, (1j, None), None), 0.1, keep=False)
        log.add(("f", (2.0,), 0.2, None, ("ConvergenceError", True)), 0.1, keep=False)
        log.add(("g", (3.0,), 0.2, (1j, None), None), 0.1, keep=True)
        assert [r[1] for r in log.records] == [(2.0,), (3.0,)]   # raised, or sampled
        assert log.unchecked == {"f": 1} and list(log.latencies_ms) == [0.1] * 3
        tally, by_fn, _ = inproc.check([], unchecked=log.unchecked)
        assert tally.attempted == 1 and tally.failed == 0 and by_fn["f"]["attempted"] == 1

    def test_latin_hypercube_strata(self):
        import random
        pts = inputs.latin_hypercube(random.Random(1), 50, 2)
        for dim in range(2):
            assert sorted(int(p[dim] * 50) for p in pts) == list(range(50))

    def test_shifted_lattice_strata(self):
        import random
        n = inputs.FACTOR_POINTS
        pts = inputs.shifted_lattice(random.Random(2), n, inputs.FACTOR_LATTICE_STEP)
        for dim in range(2):
            assert sorted(int(p[dim] * n) for p in pts) == list(range(n))

    def test_budget_block_covers_domain(self):
        (block,) = self.take("budget-sweep", 0, 1)
        factor = [a for fn, a in block if fn == "time_budget_factor"]
        assert len(factor) == inputs.FACTOR_POINTS
        assert len(block) == inputs.FACTOR_POINTS + inputs.BLOCK_POINTS
        # one point in each of 89 bins per margin reaches the domain's ends
        assert min(d for d, _ in factor) < 1.2e-2 and 430 < max(d for d, _ in factor) <= 500
        assert 9.8 < max(b for _, b in factor) <= 10.0
        assert max(a[0] for fn, a in block if fn != "time_budget_factor") <= 10.0

    def test_defect_probe_covers_the_accepted_domain(self):
        probe = inputs.budget_defect_probe(7)
        assert probe == inputs.budget_defect_probe(7)
        factor = [a for fn, a in probe if fn == "time_budget_factor"]
        assert max(d for d, _ in factor) > 8.5e2 and max(b for _, b in factor) > 49.4

    def test_factor_check_sample(self):
        import inproc
        (block,) = self.take("budget-sweep", 0, 1)
        keep = inproc.check_sample("budget-sweep", 1)(block)
        assert keep == inproc.check_sample("budget-sweep", 1)(block)
        kinds = [block[j][0] for j in keep]
        assert kinds.count("time_budget_factor") == inproc.FACTOR_CHECKS_PER_BLOCK
        assert kinds.count("unconstrained_block_amplitude") == inputs.BLOCK_POINTS
        (oblock,) = self.take("oracle-validate", 0, 1)
        assert set(inproc.check_sample("oracle-validate", 1)(oblock)) == set(range(61))

    def test_oracle_block_is_the_suite_mix(self):
        (block,) = self.take("oracle-validate", 0, 1)
        assert len(block) == sum(c for *_, c in inputs.SUITE_ORACLE_CALLS) == 61
        order4 = [a for fn, a in block if fn == "quad_nested" and a[0] == 4]
        assert sorted(a[3] for a in order4) == [48, 64]    # 64: the default nodes
        mc = sorted((a[0], a[2]) for fn, a in block if fn == "mc_ordered_volume")
        assert mc.count((4, 20_000)) == 4 and (5, 1_000_000) in mc
        hp = sorted(a[1] for fn, a in block if fn == "series_sum_highprec")
        assert len(hp) == 12 and 0.9 < hp[0] < 1.1 and 1900 < hp[-1] < 2100

    def test_cli_deck_covers_every_subcommand(self):
        deck = inputs.cli_deck(0, 1)
        subs = {argv[0] for argv, valid in deck if valid}
        assert subs == set(layers.CLI_SUBCOMMANDS)
        recipes = {argv[2] for argv, _ in deck if argv[0] == "reproduce"}
        assert recipes == set(inputs.RECIPES)
        invalid = sum(not valid for _, valid in deck)
        assert 0.08 <= invalid / len(deck) <= 0.12


def test_worker_timeout_follows_run_length():
    import run
    assert run.worker_timeout(200) > 2 * 200
    assert run.worker_timeout(1) >= 120


def test_tracer_spans_and_layers():
    tracer = Tracer()

    def f(x):
        if x < 0:
            raise ValueError("negative")
        return x

    g = tracer.wrap("m.f", f, lambda args, res: {"n": res})
    with tracer.span("op"):
        g(2)
    with pytest.raises(ValueError):
        g(-1)
    lay = tracer.layer("m.f")
    assert lay["calls"] == 2 and lay["failed"] == 1
    assert lay["errors"] == {"ValueError": 1} and lay["n_mean"] == 2
    assert tracer.spans[1][3] == 0     # the first call ran inside "op"


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        120 |   _io\n"
            "import time:      1500 |     512000 | scipy.optimize\n"
            "import time:       300 |     700300 | pathamp.cli\n")
    got = parse_importtime(text)
    assert got["scipy.optimize"] == 512.0 and got["pathamp.cli"] == 700.3


def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == layers.per_layer_metrics()
