"""Which calls are traced, and how spans become per-layer metrics.

Build: the wrappers replace the names :mod:`repro.simulate.executor` and
:mod:`repro.pipeline.labeling` call (plus two class attributes the
labeller reaches through instances).  Serve: the daemon's launcher
installs :func:`serve_patches` before handing control to the CLI.
Layer names are the ``repro.*`` module names.
"""

from __future__ import annotations

import time
import types

from spans import Patches, Span, Tracer, totals_by_name

#: Per-layer metrics of the build path, all zero on the serve workloads.
BUILD_METRICS = (
    "transforms.optimize_s", "transforms.calls", "transforms.emitted_insts",
    "ir.dependence_s", "sched.precompute_s", "sched.modulo_s",
    "sched.modulo_calls", "sched.modulo_fail_ratio", "sched.list_s",
    "sched.regpressure_s", "simulate.noise_s", "simulate.cost_self_s",
    "simulate.analysis_hit_rate", "features.extract_s", "pipeline.self_s",
    "ml.select_s", "ml.train_s", "workloads.generate_s",
)

#: Per-layer metrics read from the daemon from outside (healthz, /proc).
SERVE_COUNTER_METRICS = (
    "serve.admitted", "serve.served_ok", "serve.served_error",
    "serve.overloaded", "serve.deadline_exceeded", "serve.batch_mean",
    "serve.batches", "serve.window_ms_final", "serve.window_grows",
    "serve.window_shrinks", "serve.cpu_us_per_req", "serve.p50_ms", "serve.p99_ms",
)

#: Per-layer metrics of the traced daemon.
SERVE_TRACE_METRICS = (
    "serve.batch_wait_ms", "serve.pool_wait_ms", "serve.engine_us_per_req",
    "serve.vectorized_share", "serve.io_self_us_per_req",
    "ml.svm.predict_us_per_row", "ml.ensemble.predict_us_per_row",
    "frontend.parse_us", "features.extract_us", "registry.load_s",
)

COMMON_METRICS = ("trace.overhead_ratio", "loadgen.late_ms_max")

ALL_METRICS = BUILD_METRICS + SERVE_COUNTER_METRICS + SERVE_TRACE_METRICS + COMMON_METRICS


def _modulo_note(args, kwargs, result, error):
    return {"failed": 1} if error is not None else None


def _optimize_note(args, kwargs, result, error):
    return {"insts": int(result.emitted_size)} if result is not None else None


def build_patches(tracer: Tracer) -> Patches:
    """Wrappers for the labelling chain, installed where its callers
    look the names up."""
    from repro.pipeline import labeling
    from repro.simulate import executor
    from repro.simulate.noise import NoiseModel

    wrap = tracer.wrap
    return Patches([
        (executor, "optimize_for_factor",
         lambda f: wrap(f, "transforms.optimize", _optimize_note)),
        (executor, "analyze_dependences", lambda f: wrap(f, "ir.dependence")),
        (executor, "SchedPrecomp",
         lambda cls: types.SimpleNamespace(build=wrap(cls.build, "sched.precompute"))),
        (executor, "modulo_schedule", lambda f: wrap(f, "sched.modulo", _modulo_note)),
        (executor, "list_schedule", lambda f: wrap(f, "sched.list")),
        (executor, "steady_state_cycles", lambda f: wrap(f, "sched.list")),
        (executor, "max_live", lambda f: wrap(f, "sched.regpressure")),
        (executor, "spill_cycles", lambda f: wrap(f, "sched.regpressure")),
        (executor, "swp_register_pressure", lambda f: wrap(f, "sched.regpressure")),
        (executor.CostModel, "loop_cost", lambda f: wrap(f, "simulate.cost")),
        (NoiseModel, "batch_medians", lambda f: wrap(f, "simulate.noise")),
        (labeling, "extract_features", lambda f: wrap(f, "features.extract")),
    ])


def build_layer_metrics(spans: list[Span], hit_rate: float, n_builds: int) -> dict:
    """Per-build seconds and counts from one or more traced builds."""
    t = totals_by_name(spans)
    per = 1.0 / max(1, n_builds)
    modulo = t["sched.modulo"]
    failed = sum(1 for s in spans if s.name == "sched.modulo" and s.extra)
    insts = sum((s.extra or {}).get("insts", 0) for s in spans
                if s.name == "transforms.optimize")
    return {
        "transforms.optimize_s": t["transforms.optimize"].total_s * per,
        "transforms.calls": t["transforms.optimize"].calls * per,
        "transforms.emitted_insts": insts * per,
        "ir.dependence_s": t["ir.dependence"].total_s * per,
        "sched.precompute_s": t["sched.precompute"].total_s * per,
        "sched.modulo_s": modulo.total_s * per,
        "sched.modulo_calls": modulo.calls * per,
        "sched.modulo_fail_ratio": failed / modulo.calls if modulo.calls else 0.0,
        "sched.list_s": t["sched.list"].total_s * per,
        "sched.regpressure_s": t["sched.regpressure"].total_s * per,
        "simulate.noise_s": t["simulate.noise"].total_s * per,
        "simulate.cost_self_s": t["simulate.cost"].self_s * per,
        "simulate.analysis_hit_rate": hit_rate,
        "features.extract_s": t["features.extract"].total_s * per,
        "pipeline.self_s": t["pipeline.measure_suite_pair"].self_s * per,
        "ml.select_s": t["ml.select"].total_s * per,
        "ml.train_s": t["ml.train"].total_s * per,
        "workloads.generate_s": t["workloads.generate"].total_s,
    }


# ---------------------------------------------------------------------------
# Serve (runs inside the daemon process, installed by launcher.py).
# ---------------------------------------------------------------------------


def serve_patches(tracer: Tracer) -> Patches:
    """Wrappers for the daemon's layers.

    Waits are spans measured between two boundaries: admission (the
    token's own ``enqueued`` stamp) to :meth:`ServeGateway.execute_batch`,
    and ``execute_batch`` to :meth:`PredictionEngine.handle_batch` on a
    pool thread.  The tracer's clock must be ``time.monotonic``, the clock
    the gateway stamps tokens with.
    """
    import repro.frontend
    from repro.heuristics import learned
    from repro.serve import daemon
    from repro.serve.engine import PredictionEngine
    from repro.serve.gateway import ServeGateway

    wrap = tracer.wrap
    handed_off: dict = {}
    cpu_spent: dict = {}

    def execute_batch(original):
        def traced(self, tokens):
            now = time.monotonic()
            for token in tokens:
                if token.admitted:
                    tracer.record("serve.batch_wait", token.enqueued, now, token.request_id)
                    handed_off[token.request_id] = now
            return original(self, tokens)
        return traced

    def handle_batch(original):
        # The engine span also carries the pool thread's CPU time, so the
        # daemon's CPU can be split into engine and everything else.
        def timed(self, requests):
            cpu = time.thread_time()
            responses = original(self, requests)
            cpu_spent[id(requests)] = time.thread_time() - cpu
            return responses

        inner = wrap(timed, "serve.engine", lambda args, kwargs, result, error: {
            "rows": len(args[1]), "cpu_s": cpu_spent.pop(id(args[1]), 0.0)})

        def traced(self, requests):
            requests = list(requests)
            now = time.monotonic()
            for request in requests:
                rid = request.get("id") if isinstance(request, dict) else None
                start = handed_off.pop(rid, None)
                if start is not None:
                    tracer.record("serve.pool_wait", start, now, rid)
            return inner(self, requests)
        return traced

    def rows_note(args, kwargs, result, error):
        X = args[1]
        return {"rows": int(getattr(X, "shape", (1,))[0]) if getattr(X, "ndim", 1) > 1 else 1}

    def family(heuristic, *args, **kwargs) -> str:
        return f"ml.{heuristic.name}.predict"

    return Patches([
        (ServeGateway, "execute_batch", execute_batch),
        (PredictionEngine, "handle_batch", handle_batch),
        (PredictionEngine, "handle", lambda f: wrap(f, "serve.handle")),
        (learned.LearnedHeuristic, "predict_features", lambda f: wrap(f, family, rows_note)),
        (learned.LearnedHeuristic, "predict_loop", lambda f: wrap(f, family)),
        (learned.EnsembleHeuristic, "predict_detail", lambda f: wrap(f, family, rows_note)),
        (learned.EnsembleHeuristic, "predict_loop_detail", lambda f: wrap(f, family)),
        (learned, "extract_features", lambda f: wrap(f, "features.extract")),
        (repro.frontend, "parse_program", lambda f: wrap(f, "frontend.parse")),
        (daemon, "load_serving_artifact", lambda f: wrap(f, "registry.load")),
    ])


def serve_layer_metrics(spans: list[Span], cpu_us_per_req: float) -> dict:
    """Per-request waits and engine work from the daemon's spans.

    ``cpu_us_per_req`` is the traced daemon's CPU per request; the
    wire/JSON/asyncio share is what remains after the engine threads'
    CPU time."""
    t = totals_by_name(spans)
    engine = t["serve.engine"]
    requests = engine.rows
    by_sid = {s.sid: s for s in spans}
    scalar = sum(
        1 for s in spans
        if s.name == "serve.handle" and s.parent in by_sid
        and by_sid[s.parent].name == "serve.engine"
    )

    def per_row_us(name: str) -> float:
        layer = t.get(name)
        return layer.self_s / layer.rows * 1e6 if layer and layer.rows else 0.0

    def mean(name: str, scale: float) -> float:
        layer = t.get(name)
        return layer.total_s / layer.calls * scale if layer and layer.calls else 0.0

    engine_us = engine.total_s / requests * 1e6 if requests else 0.0
    engine_cpu_s = sum((s.extra or {}).get("cpu_s", 0.0) for s in spans if s.name == "serve.engine")
    engine_cpu_us = engine_cpu_s / requests * 1e6 if requests else 0.0
    return {
        "serve.batch_wait_ms": mean("serve.batch_wait", 1e3),
        "serve.pool_wait_ms": mean("serve.pool_wait", 1e3),
        "serve.engine_us_per_req": engine_us,
        "serve.vectorized_share": 1.0 - scalar / requests if requests else 0.0,
        "serve.io_self_us_per_req": cpu_us_per_req - engine_cpu_us,
        "ml.svm.predict_us_per_row": per_row_us("ml.svm.predict"),
        "ml.ensemble.predict_us_per_row": per_row_us("ml.ensemble.predict"),
        "frontend.parse_us": mean("frontend.parse", 1e6),
        "features.extract_us": mean("features.extract", 1e6),
        "registry.load_s": t["registry.load"].total_s if "registry.load" in t else 0.0,
    }
