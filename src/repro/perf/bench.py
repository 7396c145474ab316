"""The ``repro bench`` harness: the serve tier's two timing gates.

Two stages drive the network serve tier over real sockets with concurrent
pipelining clients:

* ``daemon`` — one daemon, per-request serving (``max_batch=1``) against
  coalesced micro-batches, with a hot artifact reload under the batched
  run's live traffic;
* ``multiproc`` — the multi-process tier at each worker count in
  ``multiproc_workers``, with throughput scaling relative to one worker.

Their dataset is one production SWP-off :func:`~repro.pipeline.measure_suite`
at ``suite_seed``/``loops_scale``.  The report is written as
``BENCH_<date>.json`` (schema below, versioned by
:data:`BENCH_SCHEMA_VERSION`); see ``docs/architecture.md`` for the schema
documentation.  :func:`check_report` holds its correctness invariants;
the timing thresholds are machine-dependent, so CI asserts them on its
own runner.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import platform
import socket
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

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
#: worker, ``cpus`` — scaling is physically bounded by the cores
#: available — a cross-worker-count ``predictions_match`` differential,
#: and aggregated-healthz counter balance after each run) plus its
#: ``multiproc_*`` sizing knobs in ``config``.
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
#: v10: removed the ``measure``, ``label``, ``select``, ``serve``,
#: ``families`` and ``lifecycle`` stages and their sizing knobs; tier-1
#: tests hold their invariants.  The bench keeps the two stages its
#: CI timing gates read.  The ``multiproc`` detail no longer names a
#: sharding mode (``SO_REUSEPORT`` is the only one); ``check_report``
#: never read it, so the version stands.
BENCH_SCHEMA_VERSION = 10


@dataclasses.dataclass(frozen=True)
class BenchConfig:
    """What the bench runs: the suite its dataset is measured on, and the
    client traffic each serve stage drives."""

    suite_seed: int = 20050320
    loops_scale: float = 0.35
    daemon_clients: int = 8
    daemon_requests: int = 48
    multiproc_workers: tuple[int, ...] = (1, 2, 4)
    multiproc_clients: int = 8
    multiproc_requests: int = 64


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
        lines = [f"bench {self.date} (scale={self.config.loops_scale})"]
        for timing in self.stages:
            lines.append(
                f"  {timing.stage:8s} reference {timing.reference_seconds:8.2f}s"
                f"  optimized {timing.optimized_seconds:8.2f}s"
                f"  speedup {timing.speedup:5.2f}x"
            )
        return "\n".join(lines)


def _daemon_traffic(address, config: BenchConfig, rows) -> dict:
    """Drive ``daemon_clients`` concurrent pipelining clients at a running
    daemon; returns wall, per-request p95, and the id -> factor map."""
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
                stream.write(json.dumps(payload) + "\n")
            stream.flush()
            for _ in ids:
                response = json.loads(stream.readline())
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
            tweaked = dataclasses.replace(
                artifact,
                provenance={**artifact.provenance, "bench_reload": True},
            )
            store.store("bench-reload", tweaked)
            reload_result["reloaded"] = batched_daemon.maybe_reload()

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
                "counters": dataclasses.asdict(counters),
            },
        },
    )


def _bench_multiproc(dataset, artifact, config: BenchConfig) -> StageTiming:
    """Time the multi-process serve tier at each worker count over real
    sockets: the same concurrent pipelining clients as the ``daemon``
    stage, against a full :class:`~repro.serve.ServeCluster` (supervisor,
    ``SO_REUSEPORT`` sharding, per-worker adaptive batch windows).

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
    from repro.registry import ArtifactStore
    from repro.serve import ClusterConfig, DaemonConfig, ServeCluster

    traffic_config = dataclasses.replace(
        config,
        daemon_clients=config.multiproc_clients,
        daemon_requests=config.multiproc_requests,
    )
    warmup_config = dataclasses.replace(
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
    with tempfile.TemporaryDirectory() as tmp:
        store_root = Path(tmp)
        store = ArtifactStore(store_root)
        path = store.store("bench", artifact)
        for workers in config.multiproc_workers:
            daemon_config = DaemonConfig(queue_limit=queue_limit)
            cluster_config = ClusterConfig(workers=workers, daemon=daemon_config)
            with ServeCluster(path, cluster_config, store_root=store_root) as cluster:
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


def run_bench(config: BenchConfig | None = None) -> BenchReport:
    """Measure the dataset, train the artifact, then run the ``daemon``
    and ``multiproc`` stages, serially."""
    from repro.pipeline import LabelingConfig, measure_suite
    from repro.registry import train_model_artifact
    from repro.workloads import generate_suite

    config = config or BenchConfig()
    suite = generate_suite(seed=config.suite_seed, loops_scale=config.loops_scale)
    labeling = LabelingConfig(seed=config.suite_seed)
    dataset = measure_suite(suite, labeling).to_dataset(
        labeling.min_cycles, labeling.min_benefit
    )
    artifact = train_model_artifact(dataset)  # offline: not part of any stage
    return BenchReport(
        config=config,
        date=datetime.date.today().isoformat(),
        stages=(
            _bench_daemon(dataset, artifact, config),
            _bench_multiproc(dataset, artifact, config),
        ),
    )


#: Detail fields that must be exactly ``True`` in every report, per stage.
_TRUE_FLAGS = {
    "daemon": ("predictions_match",),
    "multiproc": ("predictions_match", "balanced"),
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
    multiproc = details.get("multiproc", {})
    checks = {
        "daemon: hot reload did not happen": reload.get("reloaded") is True,
        "daemon: reload dropped responses": reload.get("responses_dropped") == 0,
        "daemon: counters did not balance after reload":
            reload.get("counters_balanced") is True,
        "multiproc: runs do not match worker_counts": sorted(multiproc.get("runs", {}))
            == sorted(map(str, multiproc.get("worker_counts", ()))),
        "multiproc: cpus not recorded": multiproc.get("cpus", 0) >= 1,
    }
    return failures + [message for message, holds in checks.items() if not holds]


def write_report(report: BenchReport, directory: str | Path = ".") -> Path:
    """Write ``BENCH_<date>.json`` into ``directory``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{report.date}.json"
    path.write_text(json.dumps(report.to_json(), indent=2) + "\n")
    return path
