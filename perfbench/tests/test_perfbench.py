"""The benchmark's own tests: seeded inputs, oracles, span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import layers
from inputs import TRAIN_SEED, make_suite, oracle_units, request_loops, request_plan
from loadgen import StepResult
from oracle import Expected, check_responses
from serve_workload import Step, max_rate_at_p99
from spans import Patches, Span, Tracer, self_times, totals_by_name

ROOT = Path(__file__).resolve().parents[2]


def _suite_fingerprint(seed):
    from repro.features.extract import extract_features
    from repro.machine.itanium2 import ITANIUM2

    loops = [loop for b in make_suite(seed).benchmarks for loop in b.loops]
    return [loop.name for loop in loops], np.array(
        [extract_features(loop, ITANIUM2) for loop in loops]
    )


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def test_suite_is_a_function_of_the_seed():
    names_a, X_a = _suite_fingerprint(7)
    names_b, X_b = _suite_fingerprint(7)
    _, X_c = _suite_fingerprint(11)
    assert names_a == names_b and len(names_a) == 216
    assert X_a.tobytes() == X_b.tobytes()
    assert X_a.shape == X_c.shape and X_a.tobytes() != X_c.tobytes()


def test_request_plan_is_a_function_of_seed_and_step():
    a = request_plan(7, 0, 200.0, 2.0, 216, 1 / 8)
    b = request_plan(7, 0, 200.0, 2.0, 216, 1 / 8)
    for field in ("offsets", "loop_index", "ensemble"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    for other in (request_plan(11, 0, 200.0, 2.0, 216, 1 / 8),
                  request_plan(7, 1, 200.0, 2.0, 216, 1 / 8)):
        assert not np.array_equal(a.loop_index[:50], other.loop_index[:50])
    assert 0 < a.offsets[0] and np.all(np.diff(a.offsets) > 0) and a.offsets[-1] < 2.0
    assert 300 < len(a) < 500  # Poisson count around rate x seconds
    assert 0.05 < a.ensemble.mean() < 0.2


def test_oracle_sample_is_seeded_and_distinct():
    units = oracle_units(3, 72, 8, 12)
    assert units == oracle_units(3, 72, 8, 12) != oracle_units(4, 72, 8, 12)
    assert len(set(units)) == 12
    assert all(0 <= bi < 72 and 1 <= f <= 8 for bi, f in units)


def test_request_suite_must_differ_from_training_suite():
    with pytest.raises(ValueError):
        request_loops(TRAIN_SEED)


@pytest.mark.parametrize("seed", [7, 11])
def test_generated_loops_round_trip_through_source(seed):
    from oracle import round_trip_failures

    loops = request_loops(seed)
    assert len(loops) == 216
    assert round_trip_failures(loops) == []


# ---------------------------------------------------------------------------
# Serve oracle
# ---------------------------------------------------------------------------

EXPECTED = Expected(
    svm=np.array([2, 4]),
    ensemble=np.array([3, 1]),
    votes=({"nn": 3, "svm": 2}, {"nn": 1, "svm": 4}),
)
SENT = {10: (0, "svm"), 11: (1, "ensemble"), 12: (1, "svm")}


def _good_responses():
    return {
        10: {"id": 10, "ok": True, "factor": 2, "classifier": "svm"},
        11: {"id": 11, "ok": True, "factor": 1, "classifier": "ensemble",
             "votes": {"nn": 1, "svm": 4}, "confidence": 0.5},
        12: {"id": 12, "ok": True, "factor": 4, "classifier": "svm",
             "loops": [{"loop": "x", "factor": 4}]},
    }


def test_serve_oracle_accepts_right_answers_and_refusals():
    assert check_responses(SENT, _good_responses(), EXPECTED) == []
    responses = _good_responses()
    responses[12] = {"id": 12, "ok": False, "error": {"type": "overloaded", "message": ""}}
    assert check_responses(SENT, responses, EXPECTED) == []


def test_serve_oracle_rejects_a_planted_wrong_factor():
    responses = _good_responses()
    responses[10]["factor"] = 8
    problems = check_responses(SENT, responses, EXPECTED)
    assert len(problems) == 1 and "request 10" in problems[0]
    responses = _good_responses()
    responses[11]["votes"] = {"nn": 2, "svm": 4}
    assert len(check_responses(SENT, responses, EXPECTED)) == 1


def test_serve_oracle_rejects_a_missing_or_unknown_id():
    responses = _good_responses()
    del responses[11]
    problems = check_responses(SENT, responses, EXPECTED)
    assert problems == ["request 11: no response"]
    responses = _good_responses()
    responses[99] = {"id": 99, "ok": True, "factor": 1, "classifier": "svm"}
    assert len(check_responses(SENT, responses, EXPECTED)) == 1


def test_serve_oracle_rejects_an_error_for_a_valid_request():
    responses = _good_responses()
    responses[10] = {"id": 10, "ok": False, "error": {"type": "internal-error", "message": ""}}
    assert len(check_responses(SENT, responses, EXPECTED)) == 1


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span(1, 0, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 6.0),  # overlaps a: the union [1, 6] counts once
        Span(4, 2, "leaf", 2.0, 3.0),
        Span(5, 1, "late", 9.5, 12.0),  # runs past its parent: clipped at 10
        Span(6, 0, "root", 20.0, 21.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 10.0 - 5.0 - 0.5, 2: 2.0, 3: 3.0, 4: 1.0, 5: 2.5, 6: 1.0})
    totals = totals_by_name(spans)
    assert totals["root"].calls == 2
    assert totals["root"].total_s == pytest.approx(11.0)
    assert totals["root"].self_s == pytest.approx(5.5)


def test_tracer_nests_spans_and_records_failures():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_leaf = tracer.wrap(leaf, "leaf", lambda a, k, r, e: {"failed": e is not None})
    with tracer.span("outer"):
        traced_leaf(1)
        with pytest.raises(ValueError):
            traced_leaf(-1)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    outer = by_name["outer"][0]
    assert outer.parent == 0
    assert [s.parent for s in by_name["leaf"]] == [outer.sid, outer.sid]
    assert [s.extra["failed"] for s in by_name["leaf"]] == [False, True]


def test_patches_restore_the_originals():
    from repro.sched.precompute import SchedPrecomp
    from repro.simulate import executor

    before = (executor.optimize_for_factor, executor.SchedPrecomp,
              executor.CostModel.__dict__["loop_cost"])
    tracer = Tracer()
    with layers.build_patches(tracer):
        assert executor.optimize_for_factor is not before[0]
        assert executor.SchedPrecomp is not SchedPrecomp
    assert (executor.optimize_for_factor, executor.SchedPrecomp,
            executor.CostModel.__dict__["loop_cost"]) == before
    with Patches([(executor, "optimize_for_factor", lambda f: None)]):
        assert executor.optimize_for_factor is None
    assert executor.optimize_for_factor is before[0]


def test_dumped_spans_load_back(tmp_path):
    from spans import load_spans

    tracer = Tracer()
    tracer.record("wait", 1.0, 2.5, rid=7)
    tracer.dump(tmp_path / "spans.jsonl")
    (span,) = load_spans(tmp_path / "spans.jsonl")
    assert (span.name, span.start, span.end, span.rid) == ("wait", 1.0, 2.5, 7)


# ---------------------------------------------------------------------------
# Rate search and the benchmark's declaration
# ---------------------------------------------------------------------------


def _step(rate, latencies_ms, backlog=0):
    n = len(latencies_ms)
    result = StepResult(
        rate=rate, sent=n, latencies_s=np.array(latencies_ms) / 1e3,
        lateness_s=np.zeros(n),
        responses={i: {"id": i, "ok": True} for i in range(n)}, backlog_at_end=backlog,
    )
    return Step(result, {i: (0, "svm") for i in range(n)}, cpu_s=0.0, counters={})


def test_max_rate_interpolates_where_p99_crosses_the_limit():
    lo, hi = _step(100.0, [10.0] * 100), _step(200.0, [250.0] * 100)
    assert lo.passes() and not hi.passes()
    # log(p99) runs from log 10 to log 250; the 50 ms limit sits halfway.
    assert max_rate_at_p99([lo, hi]) == pytest.approx(150.0)
    assert max_rate_at_p99([hi, lo]) == pytest.approx(150.0)
    # Never over the limit: the highest rate tried is a lower bound.
    assert max_rate_at_p99([lo]) == 100.0
    # A grown backlog fails the rate whatever its p99.
    assert max_rate_at_p99([lo, _step(200.0, [10.0] * 100, backlog=50)]) < 200.0


def test_max_rate_treats_a_latency_dip_above_a_failure_as_noise():
    steps = [_step(100.0, [10.0] * 100), _step(150.0, [250.0] * 100),
             _step(200.0, [20.0] * 100)]
    # The non-decreasing fit pools 150 and 200 (mean of log 250 and log 20
    # is log ~70.7 > 50), so the crossing stays between 100 and 150.
    assert 100.0 < max_rate_at_p99(steps) < 150.0


def test_benchmark_declares_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.ALL_METRICS)
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]
