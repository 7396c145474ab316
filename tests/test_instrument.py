"""Unit tests for the measurement protocol and raw-data export."""

import numpy as np
import pytest

from repro.instrument import (
    LoopRecord,
    read_records,
    write_records,
)
from repro.ir.program import Benchmark
from repro.pipeline import LabelingConfig, measure_benchmark_factor
from repro.simulate import CostModel, NOISELESS, NoiseModel
from repro.workloads.kernels import daxpy


def _one_loop_benchmark(loop) -> Benchmark:
    return Benchmark(
        name="t.daxpy", suite="test", language=loop.language, loops=(loop,)
    )


def _measure(benchmark, factor, seed, config=None, **overrides):
    """One (benchmark, factor) work unit on a private cost model (the
    process-shared models key their caches by loop name, and these tests
    reuse names across different loops)."""
    config = config or LabelingConfig(**overrides)
    return measure_benchmark_factor(
        benchmark, 0, factor, config, np.random.SeedSequence(seed),
        CostModel(machine=config.machine, swp=config.swp),
    )


class TestMeasurement:
    def test_noiseless_measurement_equals_cost_model(self):
        loop = daxpy(trip=256, entries=8)
        unit = _measure(_one_loop_benchmark(loop), 2, 0, noise=NOISELESS, n_runs=5)
        truth = CostModel().loop_cost(loop, 2).total_cycles
        assert unit.true_cycles[0] == truth
        assert unit.measured[0] == truth

    def test_median_of_thirty_default(self, monkeypatch):
        runs = []
        original = NoiseModel.batch_medians

        def spy(self, true_cycles, entry_counts, rng, n=30):
            runs.append(n)
            return original(self, true_cycles, entry_counts, rng, n)

        monkeypatch.setattr(NoiseModel, "batch_medians", spy)
        _measure(_one_loop_benchmark(daxpy(trip=256, entries=8)), 1, 1)
        assert runs == [30]

    def test_benchmark_measurement_covers_all_loops(self, mini_suite, mini_config):
        bench = mini_suite.benchmarks[0]
        unit = _measure(bench, 4, 2, mini_config)
        assert unit.measured.shape == unit.true_cycles.shape == (bench.n_loops,)
        assert np.isfinite(unit.measured).all()

    def test_noise_does_not_bias_the_median_much(self):
        loop = daxpy(trip=512, entries=16)
        benchmark = _one_loop_benchmark(loop)
        truth = CostModel().loop_cost(loop, 1).total_cycles
        noise = NoiseModel(sigma=0.02, outlier_rate=0.02, counter_overhead=0)
        medians = [_measure(benchmark, 1, seed, noise=noise).measured[0] for seed in range(10)]
        assert abs(np.mean(medians) / truth - 1.0) < 0.02


class TestRawDataRelease:
    def _records(self, dataset, limit=10):
        return [
            LoopRecord(
                loop_name=str(dataset.loop_names[i]),
                benchmark=str(dataset.benchmarks[i]),
                suite=str(dataset.suites[i]),
                language=str(dataset.languages[i]),
                features=tuple(float(v) for v in dataset.X[i]),
                median_cycles=tuple(float(v) for v in dataset.cycles[i]),
            )
            for i in range(min(limit, len(dataset)))
        ]

    def test_round_trip(self, mini_dataset, tmp_path):
        records = self._records(mini_dataset)
        path = tmp_path / "loops.jsonl"
        count = write_records(records, path)
        loaded = read_records(path)
        assert count == len(loaded) == len(records)
        for original, restored in zip(records, loaded):
            assert restored == original

    def test_best_factor_property(self, mini_dataset, tmp_path):
        records = self._records(mini_dataset, limit=5)
        for i, record in enumerate(records):
            assert record.best_factor == int(mini_dataset.labels[i])

    def test_header_mismatch_detected(self, mini_dataset, tmp_path):
        path = tmp_path / "loops.jsonl"
        write_records(self._records(mini_dataset, 2), path)
        content = path.read_text().splitlines()
        content[0] = content[0].replace("nest_level", "bogus_feature")
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(ValueError, match="catalog mismatch"):
            read_records(path)

    def test_version_mismatch_detected(self, mini_dataset, tmp_path):
        path = tmp_path / "loops.jsonl"
        write_records(self._records(mini_dataset, 2), path)
        content = path.read_text().splitlines()
        content[0] = content[0].replace('"format_version": 1', '"format_version": 99')
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(ValueError, match="unsupported"):
            read_records(path)
