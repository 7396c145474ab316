"""The ``repro bench`` harness: time measure -> label -> select -> serve.

Every stage is timed through two implementations:

* **reference** — the seed's code paths, kept verbatim behind
  ``engine="reference"`` switches (from-scratch loop analysis per regime,
  from-scratch NN/SVM refits per candidate feature subset);
* **optimized** — the current defaults (the incremental two-stage cost
  model with the shared analysis cache, incremental Gram/distance
  workspaces, artifact-served batch prediction).

The report is written as ``BENCH_<date>.json`` (schema below, versioned by
:data:`BENCH_SCHEMA_VERSION`) so the repository accumulates a perf
trajectory one data point per PR.  See ``docs/architecture.md`` for the
schema documentation.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.registry.artifact import ARTIFACT_FAMILIES

#: Version of the BENCH_<date>.json schema; bump on layout changes.
#: v2: added the ``serve`` stage (retrain-per-request vs artifact-served
#: batch prediction) and its sizing knobs in ``config``.
#: v3: added the ``dedup`` stage (content-addressed class-level
#: measurement + incremental cross-factor analysis vs the seed's
#: measurement path; ``reference_seconds`` is shared with the ``measure``
#: stage and marked ``reference_reused_from_measure`` in its detail).
#: v4: added the ``daemon`` stage (concurrent clients against the serve
#: daemon over real sockets: per-request serving as the reference side,
#: coalesced vectorized micro-batching as the optimized side, plus a hot
#: artifact reload performed under the batched run's live traffic).
#: v5: added the ``families`` stage (every predictor family — NN, SVM,
#: MLP, random forest, and the calibrated ensemble — scalar per-request
#: prediction as the reference side vs one vectorized batch as the
#: optimized side, with a differential ``predictions_match`` check:
#: scalar == batched per family, the single-family-restricted ensemble
#: agrees with each member, and a save/load registry round trip answers
#: bit-identically) and its ``families_rows`` sizing knob in ``config``.
#: v6: added the ``multiproc`` stage (the multi-process serve tier driven
#: over real sockets at each worker count in ``multiproc_workers``:
#: per-count wall/throughput/p95/p99, throughput scaling relative to one
#: worker, the sharding mode actually used, ``cpus`` — scaling is
#: physically bounded by the cores available — a cross-worker-count
#: ``predictions_match`` differential, and aggregated-healthz counter
#: balance after each run) plus its ``multiproc_*`` sizing knobs in
#: ``config``.
#: v7: added the ``lifecycle`` stage (the closed serve→train→promote
#: loop's hot paths: drift-scanning a synthetic request log row-at-a-time
#: as the reference side vs one vectorized ``scan_drift`` replay as the
#: optimized side, the canary gate's replay cost, a
#: ``promotion_atomic`` differential — the two-phase registry promotion
#: killed at every checkpoint and resumed, asserting the live artifact is
#: always whole old bytes or whole new bytes — and ``rollback_ok``: the
#: last-good restore returns the registry to the incumbent's exact
#: checksum) plus its ``lifecycle_rows`` sizing knob in ``config``.
#: v8: removed the ``dedup`` stage (content-addressed measurement is
#: gone); the ``measure`` stage's reference side now uses the production
#: noise contract, and its detail gains ``picks_match`` — the reference
#: engine's tables are byte-identical to the production tables.
#: v9: dropped the per-daemon engine count from the ``daemon`` and
#: ``multiproc`` details and its knob from ``config`` (a daemon runs one
#: engine on one compute thread); the ``serve`` stage's optimized side goes
#: through ``ServeGateway`` (4 pool threads) instead of the engine's own pool.
BENCH_SCHEMA_VERSION = 9


@dataclasses.dataclass(frozen=True)
class BenchConfig:
    """What the bench runs.

    ``loops_scale`` controls suite size (the default is large enough that
    stage times dwarf timer noise); ``subsample`` bounds the greedy
    selection rows exactly like ``selected_feature_union`` does.
    """

    suite_seed: int = 20050320
    loops_scale: float = 0.35
    subsample: int = 600
    n_greedy: int = 5
    serve_requests: int = 64
    serve_retrains: int = 3
    daemon_clients: int = 8
    daemon_requests: int = 48
    families_rows: int = 192
    multiproc_workers: tuple[int, ...] = (1, 2, 4)
    multiproc_clients: int = 8
    multiproc_requests: int = 64
    lifecycle_rows: int = 256
    quick: bool = False

    @classmethod
    def quick_config(cls) -> "BenchConfig":
        """A CI-smoke-sized bench (small suite, small subsample)."""
        return cls(
            loops_scale=0.08,
            subsample=200,
            serve_requests=16,
            serve_retrains=2,
            daemon_clients=4,
            daemon_requests=16,
            families_rows=64,
            multiproc_workers=(1, 2),
            multiproc_clients=4,
            multiproc_requests=24,
            lifecycle_rows=96,
            quick=True,
        )


@dataclasses.dataclass(frozen=True)
class StageTiming:
    """One stage's reference-vs-optimized wall-clock comparison."""

    stage: str
    reference_seconds: float
    optimized_seconds: float
    detail: dict

    @property
    def speedup(self) -> float:
        if self.optimized_seconds <= 0.0:
            return float("inf")
        return self.reference_seconds / self.optimized_seconds

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "reference_seconds": round(self.reference_seconds, 4),
            "optimized_seconds": round(self.optimized_seconds, 4),
            "speedup": round(self.speedup, 3),
            "detail": self.detail,
        }


@dataclasses.dataclass(frozen=True)
class BenchReport:
    """The full bench result: config, environment, per-stage timings."""

    config: BenchConfig
    date: str
    stages: tuple[StageTiming, ...]

    def stage(self, name: str) -> StageTiming:
        for timing in self.stages:
            if timing.stage == name:
                return timing
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "bench_schema_version": BENCH_SCHEMA_VERSION,
            "date": self.date,
            "config": dataclasses.asdict(self.config),
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
            },
            "stages": [timing.to_json() for timing in self.stages],
        }

    def summary(self) -> str:
        lines = [f"bench {self.date} (scale={self.config.loops_scale}, "
                 f"subsample={self.config.subsample})"]
        for timing in self.stages:
            lines.append(
                f"  {timing.stage:8s} reference {timing.reference_seconds:8.2f}s"
                f"  optimized {timing.optimized_seconds:8.2f}s"
                f"  speedup {timing.speedup:5.2f}x"
            )
        return "\n".join(lines)


def _bench_measure(suite, config: BenchConfig) -> tuple[StageTiming, object, object]:
    """Time serial suite measurement, both SWP regimes combined.

    Reference: two standalone :func:`measure_suite` runs through the
    seed's from-scratch cost model.  Optimized: one
    :func:`measure_suite_pair` run on the production (incremental) engine,
    sharing loop analyses across regimes.  ``picks_match`` asserts the two
    sides' tables are byte-identical.  Returns the timing and both
    optimized tables (the SWP-off table feeds the label stage).
    """
    from repro.instrument import MeasurementRollup
    from repro.pipeline import LabelingConfig, measure_suite, measure_suite_pair

    reference_off = LabelingConfig(seed=config.suite_seed, engine="reference")
    reference_on = dataclasses.replace(reference_off, swp=True)
    start = time.perf_counter()
    ref_off = measure_suite(suite, reference_off)
    ref_on = measure_suite(suite, reference_on)
    reference_seconds = time.perf_counter() - start

    optimized = LabelingConfig(seed=config.suite_seed)
    rollup_off, rollup_on = MeasurementRollup(), MeasurementRollup()
    start = time.perf_counter()
    table_off, table_on = measure_suite_pair(
        suite, optimized, rollup_off=rollup_off, rollup_on=rollup_on
    )
    optimized_seconds = time.perf_counter() - start

    def identical(a, b) -> bool:
        return (
            a.measured.tobytes() == b.measured.tobytes()
            and a.true_cycles.tobytes() == b.true_cycles.tobytes()
        )

    hits = rollup_off.analysis_hits() + rollup_on.analysis_hits()
    misses = rollup_off.analysis_misses() + rollup_on.analysis_misses()
    timing = StageTiming(
        stage="measure",
        reference_seconds=reference_seconds,
        optimized_seconds=optimized_seconds,
        detail={
            "n_benchmarks": len(suite.benchmarks),
            "n_loops": suite.n_loops,
            "analysis_hits": hits,
            "analysis_misses": misses,
            "analysis_hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
            "picks_match": identical(ref_off, table_off) and identical(ref_on, table_on),
        },
    )
    return timing, table_off, table_on


def _bench_label(table, config: BenchConfig) -> tuple[StageTiming, object]:
    """Time dataset construction (filter + label).  No fast/reference
    duality exists here; the stage is reported for trajectory only."""
    from repro.pipeline import LabelingConfig

    defaults = LabelingConfig()
    start = time.perf_counter()
    dataset = table.to_dataset(defaults.min_cycles, defaults.min_benefit)
    seconds = time.perf_counter() - start
    timing = StageTiming(
        stage="label",
        reference_seconds=seconds,
        optimized_seconds=seconds,
        detail={"rows": len(dataset)},
    )
    return timing, dataset


def _bench_select(dataset, config: BenchConfig) -> StageTiming:
    """Time feature selection: MIS ranking plus greedy forward selection
    for both classifiers, fast engines vs the seed's from-scratch refits."""
    from repro.ml import (
        greedy_forward_selection,
        mutual_information_score_reference,
        rank_by_mutual_information,
    )

    X, y = dataset.X, dataset.labels
    detail: dict = {"rows": int(min(len(y), config.subsample))}
    picks_match = True

    start = time.perf_counter()
    ranked = rank_by_mutual_information(X, y)
    mis_fast = time.perf_counter() - start
    start = time.perf_counter()
    reference_scores = [
        mutual_information_score_reference(X[:, j], y) for j in range(X.shape[1])
    ]
    mis_reference = time.perf_counter() - start
    detail["mis"] = {
        "reference_seconds": round(mis_reference, 4),
        "optimized_seconds": round(mis_fast, 4),
    }
    by_index = sorted(ranked, key=lambda s: s.index)
    picks_match &= all(
        abs(by_index[j].score - reference_scores[j]) < 1e-9 for j in range(X.shape[1])
    )

    fast_total, reference_total = mis_fast, mis_reference
    for classifier in ("nn", "svm"):
        start = time.perf_counter()
        fast = greedy_forward_selection(
            X, y, classifier, config.n_greedy, config.subsample, engine="fast"
        )
        fast_seconds = time.perf_counter() - start
        start = time.perf_counter()
        reference = greedy_forward_selection(
            X, y, classifier, config.n_greedy, config.subsample, engine="reference"
        )
        reference_seconds = time.perf_counter() - start
        picks_match &= [s.index for s in fast] == [s.index for s in reference]
        detail[f"greedy_{classifier}"] = {
            "reference_seconds": round(reference_seconds, 4),
            "optimized_seconds": round(fast_seconds, 4),
            "speedup": round(reference_seconds / fast_seconds, 3),
            "picks": [s.index for s in fast],
        }
        fast_total += fast_seconds
        reference_total += reference_seconds

    detail["picks_match"] = bool(picks_match)
    return StageTiming(
        stage="select",
        reference_seconds=reference_total,
        optimized_seconds=fast_total,
        detail=detail,
    )


def _bench_serve(dataset, artifact, config: BenchConfig) -> StageTiming:
    """Time the deployment path: retrain-per-request (how ``repro predict``
    worked before model artifacts existed) against a served batch through
    a saved-then-loaded artifact, the prediction engine and the gateway —
    the ``repro serve --input`` path.

    The reference side retrains the SVM for ``serve_retrains`` requests
    and extrapolates to the batch size (retraining is uniform per
    request); the optimized side times the *whole* serve path — artifact
    load, engine and gateway construction, and the full batch.
    """
    import tempfile
    from pathlib import Path

    from repro.heuristics import train_svm_heuristic
    from repro.registry import load_artifact
    from repro.serve import GatewayConfig, PredictionEngine, ServeGateway

    n_requests = config.serve_requests
    rows = dataset.X[np.arange(n_requests) % len(dataset)]

    start = time.perf_counter()
    reference_predictions = []
    for i in range(config.serve_retrains):
        heuristic = train_svm_heuristic(dataset)
        reference_predictions.append(int(heuristic.predict_features(rows[i][None, :])[0]))
    reference_timed = time.perf_counter() - start
    per_request_reference = reference_timed / config.serve_retrains
    reference_seconds = per_request_reference * n_requests

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench-model.rma"
        artifact.save(path)
        requests = [
            {"id": i, "features": [float(v) for v in rows[i]]} for i in range(n_requests)
        ]
        start = time.perf_counter()
        served = PredictionEngine(load_artifact(path), classifier="svm")
        with ServeGateway(served, GatewayConfig(max_workers=4)) as gateway:
            responses = gateway.serve_batch(requests)
        optimized_seconds = time.perf_counter() - start

    served_predictions = [r["factor"] for r in responses if r["ok"]]
    predictions_match = (
        len(served_predictions) == n_requests
        and served_predictions[: len(reference_predictions)] == reference_predictions
    )
    per_request_served = optimized_seconds / n_requests
    return StageTiming(
        stage="serve",
        reference_seconds=reference_seconds,
        optimized_seconds=optimized_seconds,
        detail={
            "n_requests": n_requests,
            "reference_requests_timed": config.serve_retrains,
            "reference_ms_per_request": round(per_request_reference * 1e3, 3),
            "served_ms_per_request": round(per_request_served * 1e3, 3),
            "reference_extrapolated": True,
            "predictions_match": bool(predictions_match),
        },
    )


def _daemon_traffic(address, config: BenchConfig, rows) -> dict:
    """Drive ``daemon_clients`` concurrent pipelining clients at a running
    daemon; returns wall, per-request p95, and the id -> factor map."""
    import json as json_mod
    import socket
    import threading

    host, port = address
    per_client = config.daemon_requests
    results: dict[int, dict] = {}
    latencies: list[float] = []
    lock = threading.Lock()
    progress = {"received": 0}
    barrier = threading.Barrier(config.daemon_clients + 1)

    def client(client_index: int) -> None:
        ids = [client_index * per_client + i for i in range(per_client)]
        with socket.create_connection((host, port), timeout=60) as sock:
            stream = sock.makefile("rw", encoding="utf-8", newline="\n")
            barrier.wait()
            sent = {}
            for request_id in ids:
                payload = {
                    "id": request_id,
                    "features": [float(v) for v in rows[request_id]],
                }
                sent[request_id] = time.perf_counter()
                stream.write(json_mod.dumps(payload) + "\n")
            stream.flush()
            for _ in ids:
                response = json_mod.loads(stream.readline())
                received = time.perf_counter()
                with lock:
                    results[response["id"]] = response
                    latencies.append(received - sent[response["id"]])
                    progress["received"] += 1

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(config.daemon_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    n_requests = config.daemon_clients * per_client
    latencies.sort()
    p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))] if latencies else 0.0
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))] if latencies else 0.0
    return {
        "wall_s": wall,
        "n_requests": n_requests,
        "received": progress["received"],
        "throughput_rps": n_requests / wall if wall > 0 else 0.0,
        "p95_ms": p95 * 1e3,
        "p99_ms": p99 * 1e3,
        "responses": results,
    }


def _bench_daemon(dataset, artifact, config: BenchConfig) -> StageTiming:
    """Time the network serve tier over real sockets, per-request vs
    coalesced micro-batches, with a hot reload under the batched run.

    Both sides are the same daemon and the same concurrent pipelining
    clients; only the coalescing differs.  Reference: ``max_batch=1``,
    window 0 — every request is its own gateway batch (the scalar engine
    path).  Optimized: the default adaptive window, so concurrent clients'
    requests merge into vectorized ``(B, width)`` predictions.  During the
    batched run a provenance-tweaked copy of the artifact is stored and
    hot-swapped in mid-traffic; the detail records that no accepted
    request was dropped (``responses_dropped``, ``counters_balanced``) and
    that every batched factor equals its per-request counterpart
    (``predictions_match`` — the tweaked artifact trains to identical
    weights, so a reload must not change answers).
    """
    import dataclasses as dc
    import tempfile
    from pathlib import Path

    from repro.registry import ArtifactStore
    from repro.serve import BackgroundDaemon, DaemonConfig, ServeDaemon

    n_requests = config.daemon_clients * config.daemon_requests
    rows = dataset.X[np.arange(n_requests) % len(dataset)]
    queue_limit = 2 * n_requests

    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(Path(tmp))
        path = store.store("bench", artifact)

        per_request_config = DaemonConfig(
            batch_window_ms=0.0,
            max_batch=1,
            queue_limit=queue_limit,
        )
        with BackgroundDaemon(
            ServeDaemon(path, per_request_config, store=store)
        ) as daemon:
            per_request = _daemon_traffic(daemon.address, config, rows)
        per_request_ok = all(r.get("ok") for r in per_request["responses"].values())

        batched_config = DaemonConfig(queue_limit=queue_limit)
        reload_result = {"reloaded": False}

        batched_daemon = ServeDaemon(path, batched_config, store=store)
        checksum_before = batched_daemon.checksum

        def reload_midway() -> None:
            # Wait for the run to be genuinely live, then swap in a
            # provenance-tweaked (bit-different, weight-identical) artifact.
            target = max(1, n_requests // 4)
            live = batched_daemon.gateway.counters
            while (
                live.served_ok < target
                and live.served_ok + live.served_error + live.deadline_exceeded
                < n_requests
            ):
                time.sleep(0.001)
            tweaked = dc.replace(
                artifact,
                provenance={**artifact.provenance, "bench_reload": True},
            )
            store.store("bench-reload", tweaked)
            reload_result["reloaded"] = batched_daemon.maybe_reload()

        import threading

        with BackgroundDaemon(batched_daemon) as daemon:
            reloader = threading.Thread(target=reload_midway)
            reloader.start()
            batched = _daemon_traffic(daemon.address, config, rows)
            reloader.join()
        counters = batched_daemon.gateway.counters
        batch_stats = batched_daemon.gateway.batch_stats

    predictions_match = (
        per_request_ok
        and all(r.get("ok") for r in batched["responses"].values())
        and len(per_request["responses"]) == n_requests
        and len(batched["responses"]) == n_requests
        and all(
            per_request["responses"][i]["factor"] == batched["responses"][i]["factor"]
            for i in range(n_requests)
        )
    )
    return StageTiming(
        stage="daemon",
        reference_seconds=per_request["wall_s"],
        optimized_seconds=batched["wall_s"],
        detail={
            "n_clients": config.daemon_clients,
            "requests_per_client": config.daemon_requests,
            "n_requests": n_requests,
            "per_request": {
                "wall_s": round(per_request["wall_s"], 4),
                "throughput_rps": round(per_request["throughput_rps"], 1),
                "p95_ms": round(per_request["p95_ms"], 3),
            },
            "batched": {
                "wall_s": round(batched["wall_s"], 4),
                "throughput_rps": round(batched["throughput_rps"], 1),
                "p95_ms": round(batched["p95_ms"], 3),
                "batches": batch_stats.batches,
                "mean_batch": round(batch_stats.mean_batch(), 2),
                "max_batch": batch_stats.max_batch,
            },
            "batched_speedup": round(
                per_request["wall_s"] / batched["wall_s"], 3
            ) if batched["wall_s"] > 0 else float("inf"),
            "predictions_match": bool(predictions_match),
            "reload": {
                "reloaded": bool(reload_result["reloaded"]),
                "checksum_before": checksum_before,
                "checksum_after": batched_daemon.checksum,
                "responses_dropped": n_requests - batched["received"],
                "counters_balanced": bool(counters.balanced()),
                "counters": dc.asdict(counters),
            },
        },
    )


def _bench_families(dataset, artifact, config: BenchConfig) -> StageTiming:
    """Time every predictor family (NN, SVM, MLP, forest, and the
    calibrated ensemble) scalar-per-request vs one vectorized batch, and
    run the differential checks that make the stage trustworthy.

    Reference: each of ``families_rows`` feature rows predicted through a
    separate single-row call per family — the per-request path a compiler
    without batching would take.  Optimized: the same rows as one
    ``(B, width)`` matrix per family.  ``predictions_match`` is the AND of
    three bit-exactness properties: scalar == batched for every family,
    the single-family-restricted ensemble agrees with each member, and an
    artifact save/load round trip answers identically for every family.
    """
    import tempfile
    from pathlib import Path

    from repro.heuristics import EnsembleHeuristic
    from repro.registry import load_artifact

    n_rows = config.families_rows
    rows = dataset.X[np.arange(n_rows) % len(dataset)]
    families = artifact.families

    reference_seconds = 0.0
    scalar_predictions: dict[str, list[int]] = {}
    for name in families:
        heuristic = artifact.heuristic(name)
        start = time.perf_counter()
        scalar_predictions[name] = [
            int(heuristic.predict_features(rows[i][None, :])[0]) for i in range(n_rows)
        ]
        reference_seconds += time.perf_counter() - start

    optimized_seconds = 0.0
    batched_predictions: dict[str, np.ndarray] = {}
    for name in families:
        heuristic = artifact.heuristic(name)
        start = time.perf_counter()
        batched_predictions[name] = heuristic.predict_features(rows)
        optimized_seconds += time.perf_counter() - start

    scalar_match = all(
        scalar_predictions[name] == [int(v) for v in batched_predictions[name]]
        for name in families
    )

    # Differential: restricting the ensemble to one member must reproduce
    # that member's own predictions exactly (same tie-break paths).
    ensemble = artifact.ensemble
    restricted_match = all(
        np.array_equal(
            EnsembleHeuristic(
                ensemble.classifier.restrict((name,)),
                feature_indices=ensemble.feature_indices,
                machine=ensemble.machine,
            ).predict_features(rows),
            batched_predictions[name],
        )
        for name in families
        if name != "ensemble"
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench-families.rma"
        artifact.save(path)
        reloaded = load_artifact(path)
        roundtrip_match = all(
            np.array_equal(
                reloaded.heuristic(name).predict_features(rows),
                batched_predictions[name],
            )
            for name in families
        )

    accuracies = {
        name: round(
            float(
                np.mean(
                    artifact.heuristic(name).predict_features(dataset.X)
                    == dataset.labels
                )
            ),
            4,
        )
        for name in families
    }
    ensemble_detail = artifact.ensemble.predict_detail(rows)

    return StageTiming(
        stage="families",
        reference_seconds=reference_seconds,
        optimized_seconds=optimized_seconds,
        detail={
            "n_rows": n_rows,
            "families": list(families),
            "train_accuracy": accuracies,
            "ensemble_mean_confidence": round(
                float(np.mean(ensemble_detail.confidence)), 4
            ),
            "scalar_batched_match": bool(scalar_match),
            "restricted_ensemble_match": bool(restricted_match),
            "roundtrip_match": bool(roundtrip_match),
            "predictions_match": bool(
                scalar_match and restricted_match and roundtrip_match
            ),
        },
    )


def _bench_multiproc(dataset, artifact, config: BenchConfig) -> StageTiming:
    """Time the multi-process serve tier at each worker count over real
    sockets: the same concurrent pipelining clients as the ``daemon``
    stage, against a full :class:`~repro.serve.ServeCluster` (supervisor,
    ``SO_REUSEPORT`` sharding or the balancer fallback, per-worker
    adaptive batch windows).

    Reference: ``workers=1`` (one process — PR 7's daemon with a
    supervisor in front).  Optimized: the largest worker count.  The
    detail records every count's wall/throughput/p95/p99, throughput
    scaling relative to one worker, and ``cpus`` — on a single-core host
    the workload is CPU-bound and no multi-process speedup is physically
    possible, so scaling numbers must always be read against the core
    count.  ``predictions_match`` asserts every worker count answered
    every request with the same factor; ``balanced`` asserts each run's
    aggregated healthz counters balanced across all workers.
    """
    import dataclasses as dc
    import os
    import tempfile
    from pathlib import Path

    from repro.registry import ArtifactStore
    from repro.serve import ClusterConfig, DaemonConfig, ServeCluster

    traffic_config = dc.replace(
        config,
        daemon_clients=config.multiproc_clients,
        daemon_requests=config.multiproc_requests,
    )
    warmup_config = dc.replace(
        traffic_config,
        daemon_requests=max(1, config.multiproc_requests // 8),
    )
    n_requests = config.multiproc_clients * config.multiproc_requests
    rows = dataset.X[np.arange(n_requests) % len(dataset)]
    queue_limit = 2 * n_requests
    cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )

    runs: dict[int, dict] = {}
    factors: dict[int, dict] = {}
    mode = None
    with tempfile.TemporaryDirectory() as tmp:
        store_root = Path(tmp)
        store = ArtifactStore(store_root)
        path = store.store("bench", artifact)
        for workers in config.multiproc_workers:
            daemon_config = DaemonConfig(queue_limit=queue_limit)
            cluster_config = ClusterConfig(workers=workers, daemon=daemon_config)
            with ServeCluster(path, cluster_config, store_root=store_root) as cluster:
                mode = cluster.mode
                # Warm every worker (artifact deserialization, first-call
                # numpy paths) before the timed run.
                _daemon_traffic(cluster.address, warmup_config, rows)
                result = _daemon_traffic(cluster.address, traffic_config, rows)
                health = cluster.healthz()
            factors[workers] = {
                i: r.get("factor")
                for i, r in result["responses"].items()
                if r.get("ok")
            }
            runs[workers] = {
                "wall_s": round(result["wall_s"], 4),
                "throughput_rps": round(result["throughput_rps"], 1),
                "p95_ms": round(result["p95_ms"], 3),
                "p99_ms": round(result["p99_ms"], 3),
                "received": result["received"],
                "workers_alive": health["workers_alive"],
                "balanced": bool(health["balanced"]),
                "restarts": cluster.restarts,
            }

    counts = sorted(runs)
    base = counts[0]
    base_rps = runs[base]["throughput_rps"]
    predictions_match = all(
        len(factors[w]) == n_requests and factors[w] == factors[base] for w in counts
    )
    balanced = all(runs[w]["balanced"] for w in counts)
    return StageTiming(
        stage="multiproc",
        reference_seconds=runs[base]["wall_s"],
        optimized_seconds=runs[counts[-1]]["wall_s"],
        detail={
            "n_clients": config.multiproc_clients,
            "requests_per_client": config.multiproc_requests,
            "n_requests": n_requests,
            "worker_counts": list(counts),
            "cpus": cpus,
            "mode": mode,
            "runs": {str(w): runs[w] for w in counts},
            "scaling": {
                str(w): round(runs[w]["throughput_rps"] / base_rps, 3)
                if base_rps > 0
                else 0.0
                for w in counts
            },
            "predictions_match": bool(predictions_match),
            "balanced": bool(balanced),
        },
    )


def _bench_lifecycle(dataset, artifact, config: BenchConfig) -> StageTiming:
    """Time the closed-loop lifecycle's hot paths against a synthetic
    request log built from dataset rows (back half shifted off the
    training distribution so the scan has real drift to find).

    Reference: the drift monitor replaying the log one record at a time
    (one ``predict_detail`` call per row — what a naive tail-follower
    would do).  Optimized: one vectorized :func:`scan_drift` over the
    whole snapshot.  The detail also records the canary gate's replay
    cost and two correctness differentials no timing can substitute for:
    ``promotion_atomic`` — the two-phase registry promotion is killed at
    every checkpoint and resumed, and the live artifact must be whole old
    bytes or whole new bytes at every step — and ``rollback_ok`` — the
    last-good restore returns the registry to the incumbent's exact
    checksum.
    """
    import dataclasses as dc
    import hashlib
    import tempfile
    from pathlib import Path

    from repro.lifecycle import (
        DriftConfig,
        evaluate_canary,
        file_checksum,
        promote_artifact,
        rollback_artifact,
        scan_drift,
    )
    from repro.registry import ArtifactStore, save_artifact
    from repro.resilience import (
        AbortRun,
        CheckpointJournal,
        FaultPlan,
        FaultRule,
        fault_plan,
    )

    n_rows = config.lifecycle_rows
    rows = np.asarray(
        dataset.X[np.arange(n_rows) % len(dataset)], dtype=np.float64
    ).copy()
    rows[n_rows // 2 :] += 25.0  # covariate shift the scan must catch
    records = [
        {
            "id": i,
            "ok": True,
            "features_sha256": hashlib.sha256(row.tobytes()).hexdigest(),
            "features": [float(value) for value in row],
            "confidence": 0.9,
        }
        for i, row in enumerate(rows)
    ]
    drift_config = DriftConfig(window=32)

    start = time.perf_counter()
    for record in records:
        scan_drift([record], artifact, DriftConfig(window=1))
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    report = scan_drift(records, artifact, drift_config)
    optimized_seconds = time.perf_counter() - start

    start = time.perf_counter()
    canary = evaluate_canary(artifact, artifact, rows)
    canary_seconds = time.perf_counter() - start

    # A candidate with different bytes but identical behaviour: the
    # promotion machinery only cares about the files.
    candidate = dc.replace(
        artifact, provenance={**artifact.provenance, "bench": "lifecycle"}
    )
    promotion_atomic = True
    rollback_ok = False
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(Path(tmp))
        live = store.path_for("bench")
        save_artifact(artifact, live)
        incumbent_checksum = file_checksum(live)
        journal_path = Path(tmp) / "promote.journal.jsonl"
        candidate_checksum = None
        for kill_at in range(4):  # 3 checkpoints + one uninterrupted pass
            save_artifact(artifact, live)
            CheckpointJournal(journal_path, run_key="bench-promote").discard()
            plan = FaultPlan(
                rules=(FaultRule(op="run.abort", match="*", skip=kill_at),)
            )
            try:
                with fault_plan(plan):
                    with CheckpointJournal(
                        journal_path, run_key="bench-promote"
                    ) as journal:
                        result = promote_artifact(store, "bench", candidate, journal)
            except AbortRun:
                promotion_atomic &= file_checksum(live) == incumbent_checksum or (
                    candidate_checksum is not None
                    and file_checksum(live) == candidate_checksum
                )
                with CheckpointJournal(
                    journal_path, run_key="bench-promote"
                ) as journal:
                    journal.load()
                    result = promote_artifact(store, "bench", candidate, journal)
            candidate_checksum = result.candidate_checksum
            promotion_atomic &= file_checksum(live) == candidate_checksum
        with CheckpointJournal(journal_path, run_key="bench-rollback") as journal:
            rollback = rollback_artifact(store, "bench", journal)
        rollback_ok = (
            rollback["restored_checksum"] == incumbent_checksum
            and file_checksum(live) == incumbent_checksum
        )

    drifted = sum(1 for window in report.windows if window.drifted)
    return StageTiming(
        stage="lifecycle",
        reference_seconds=reference_seconds,
        optimized_seconds=optimized_seconds,
        detail={
            "n_records": n_rows,
            "drift_lines_per_s": round(n_rows / optimized_seconds, 1)
            if optimized_seconds > 0
            else float("inf"),
            "reference_lines_per_s": round(n_rows / reference_seconds, 1)
            if reference_seconds > 0
            else float("inf"),
            "n_windows": len(report.windows),
            "drifted_windows": drifted,
            "flagged": len(report.flagged),
            "has_fingerprint": bool(report.has_fingerprint),
            "canary_replay_s": round(canary_seconds, 4),
            "canary_accepted": bool(canary.accepted),
            "promotion_atomic": bool(promotion_atomic),
            "rollback_ok": bool(rollback_ok),
        },
    )


def run_bench(config: BenchConfig | None = None) -> BenchReport:
    """Run the full measure -> label -> select -> serve ->
    daemon -> families -> multiproc -> lifecycle bench, serially."""
    from repro.registry import train_model_artifact
    from repro.workloads import generate_suite

    config = config or BenchConfig()
    suite = generate_suite(seed=config.suite_seed, loops_scale=config.loops_scale)
    measure_timing, table_off, table_on = _bench_measure(suite, config)
    label_timing, dataset = _bench_label(table_off, config)
    select_timing = _bench_select(dataset, config)
    artifact = train_model_artifact(dataset)  # offline: not part of any stage
    serve_timing = _bench_serve(dataset, artifact, config)
    daemon_timing = _bench_daemon(dataset, artifact, config)
    families_timing = _bench_families(dataset, artifact, config)
    multiproc_timing = _bench_multiproc(dataset, artifact, config)
    lifecycle_timing = _bench_lifecycle(dataset, artifact, config)
    return BenchReport(
        config=config,
        date=datetime.date.today().isoformat(),
        stages=(
            measure_timing,
            label_timing,
            select_timing,
            serve_timing,
            daemon_timing,
            families_timing,
            multiproc_timing,
            lifecycle_timing,
        ),
    )


#: Detail fields that must be exactly ``True`` in every report, per stage.
_TRUE_FLAGS = {
    "measure": ("picks_match",),
    "select": ("picks_match",),
    "serve": ("predictions_match",),
    "daemon": ("predictions_match",),
    "families": (
        "predictions_match", "scalar_batched_match",
        "restricted_ensemble_match", "roundtrip_match",
    ),
    "multiproc": ("predictions_match", "balanced"),
    "lifecycle": (
        "promotion_atomic", "rollback_ok", "canary_accepted", "has_fingerprint",
    ),
}


def check_report(report: dict) -> list[str]:
    """Every correctness invariant a bench report (``to_json`` form) must
    satisfy; returns one ``"<stage>: ..."`` message per violation, so an
    empty list means the report is sound.  A missing stage or field is a
    violation, not a skip.  Timing thresholds are not checked here: they
    depend on the machine, so CI asserts them on its own runner."""
    details = {stage["stage"]: stage["detail"] for stage in report.get("stages", ())}
    failures = []
    for name, flags in _TRUE_FLAGS.items():
        if name not in details:
            failures.append(f"{name}: stage missing")
            continue
        for flag in flags:
            value = details[name].get(flag)
            if value is not True:
                failures.append(f"{name}: {flag} is {value!r}, not True")
    reload = details.get("daemon", {}).get("reload", {})
    families = details.get("families", {})
    multiproc = details.get("multiproc", {})
    checks = {
        "daemon: hot reload did not happen": reload.get("reloaded") is True,
        "daemon: reload dropped responses": reload.get("responses_dropped") == 0,
        "daemon: counters did not balance after reload":
            reload.get("counters_balanced") is True,
        "families: not every artifact family was benched":
            set(families.get("families", ())) == set(ARTIFACT_FAMILIES),
        "multiproc: runs do not match worker_counts": sorted(multiproc.get("runs", {}))
            == sorted(map(str, multiproc.get("worker_counts", ()))),
        "multiproc: cpus not recorded": multiproc.get("cpus", 0) >= 1,
        "lifecycle: drift_lines_per_s is not positive":
            details.get("lifecycle", {}).get("drift_lines_per_s", 0) > 0,
    }
    return failures + [message for message, holds in checks.items() if not holds]


def write_report(report: BenchReport, directory: str | Path = ".") -> Path:
    """Write ``BENCH_<date>.json`` into ``directory``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{report.date}.json"
    path.write_text(json.dumps(report.to_json(), indent=2) + "\n")
    return path
