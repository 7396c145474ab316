"""The ``build`` workload: a full suite build, as every retrain runs it.

generate_suite -> measure_suite_pair (both SWP regimes, serial, no
measurement cache) -> to_dataset -> selected_feature_union ->
train_model_artifact -> save.  The serve workloads reuse :func:`one_build`
to train their artifact from the fixed training seed.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path


from inputs import make_suite, oracle_units
from layers import build_layer_metrics, build_patches
from spans import Tracer

#: Units re-measured through the reference engine by the oracle.
ORACLE_UNITS = 12
#: Timed generate_suite repeats; setup_s is their median.
SETUP_REPEATS = 9


@dataclass
class BuildResult:
    wall_s: float
    cpu_s: float  # this process's CPU time over the build
    measure_s: float
    n_loops: int
    n_units: int
    quarantined: int
    hit_rate: float
    tables: tuple
    dataset: object
    artifact: object
    path: Path


def one_build(suite, seed: int, path: Path, tracer: Tracer | None = None) -> BuildResult:
    """Label ``suite`` in both regimes, train every family, save."""
    from repro.instrument import MeasurementRollup
    from repro.ml import selected_feature_union
    from repro.pipeline.labeling import LabelingConfig, measure_suite_pair
    from repro.registry import train_model_artifact

    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    config = LabelingConfig(seed=seed)
    rollup_off, rollup_on = MeasurementRollup(), MeasurementRollup()
    cpu = time.process_time()
    start = time.perf_counter()
    with span("pipeline.measure_suite_pair"):
        off, on = measure_suite_pair(
            suite, config, jobs=1, rollup_off=rollup_off, rollup_on=rollup_on
        )
    measured = time.perf_counter()
    dataset = off.to_dataset(config.min_cycles, config.min_benefit)
    with span("ml.select"):
        indices = selected_feature_union(dataset.X, dataset.labels, subsample=500)
    with span("ml.train"):
        artifact = train_model_artifact(
            dataset, feature_indices=indices,
            provenance={"suite_seed": seed, "loops_scale": 0.0, "swp": False},
        )
    artifact.save(path)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    hits = rollup_off.analysis_hits() + rollup_on.analysis_hits()
    lookups = hits + rollup_off.analysis_misses() + rollup_on.analysis_misses()
    return BuildResult(
        wall_s=wall,
        cpu_s=cpu,
        measure_s=measured - start,
        n_loops=suite.n_loops,
        n_units=len(suite.benchmarks) * 8,
        quarantined=len(rollup_off.quarantined_units()),
        hit_rate=hits / lookups if lookups else 0.0,
        tables=(off, on),
        dataset=dataset,
        artifact=artifact,
        path=path,
    )


def check_build(suite, seed: int, build: BuildResult) -> list[str]:
    from oracle import check_round_trip, check_tables
    from repro.pipeline.labeling import LabelingConfig

    units = oracle_units(seed, len(suite.benchmarks), 8, ORACLE_UNITS)
    problems = check_tables(suite, LabelingConfig(seed=seed), *build.tables, units)
    problems += check_round_trip(build.artifact, build.path, build.dataset.X)
    return problems


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        suite = make_suite(seed)
        setup.append(time.perf_counter() - start)
    provenance = {"suite_seed": seed, "suite_loops": suite.n_loops,
                  "units_per_build": len(suite.benchmarks) * 8}
    if trace:
        return _run_traced(suite, seed, work, provenance)

    # Builds are long: start another only if it should end by the deadline,
    # so a run never lasts much longer than --seconds.
    builds: list[BuildResult] = []
    start = time.perf_counter()
    while not builds or (
        time.perf_counter() - start + statistics.mean(b.wall_s for b in builds) <= seconds
    ):
        builds.append(one_build(suite, seed, work / f"model-{len(builds)}.rma"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_build(suite, seed, builds[-1])
    attempted = sum(b.n_units for b in builds)
    failed = sum(b.quarantined for b in builds)
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "ok_rate": 1.0 - failed / attempted,
            "build_loops_per_s": suite.n_loops / statistics.median(b.wall_s for b in builds),
            "cpu_ms_per_op": statistics.median(b.cpu_s for b in builds) / suite.n_loops * 1e3,
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "report": {
            **provenance,
            "builds": len(builds),
            "build_wall_s": [b.wall_s for b in builds],
            "measure_wall_s": [b.measure_s for b in builds],
            "setup_s": setup,
            "oracle_units": ORACLE_UNITS,
        },
    }


def _run_traced(suite, seed: int, work: Path, provenance: dict) -> dict:
    """One untraced build, then the same build traced; spans give the
    per-layer metrics and the wall ratio the tracing overhead."""
    plain = one_build(suite, seed, work / "model-plain.rma")
    tracer = Tracer()
    with tracer.span("workloads.generate"):
        make_suite(seed)
    with build_patches(tracer):
        traced = one_build(suite, seed, work / "model-traced.rma", tracer)
    problems = check_build(suite, seed, traced)
    metrics = build_layer_metrics(tracer.spans, traced.hit_rate, n_builds=1)
    metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    metrics["loadgen.late_ms_max"] = 0.0
    return {
        "metrics": metrics,
        "attempted": traced.n_units,
        "failed": traced.quarantined,
        "problems": problems,
        "report": {**provenance, "spans": len(tracer.spans),
                   "untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s},
    }
