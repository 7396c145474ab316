"""Measurement differentials: the production path against the oracle.

The module keeps its historical name (it once also covered the
content-addressed measurement dedup, since removed); what it pins now:

* **The bit-identity helper**: :func:`assert_tables_bit_identical`
  accepts a table against itself and rejects any float, NaN-hole, or
  provenance difference.
* **Incremental engine == reference engine**, loop by loop, for every
  unroll factor and both SWP regimes, including mid-sequence eviction of
  the incremental engine's cross-factor state.
* **Pipeline-level bit-identity**: the production
  :func:`measure_suite_pair` tables equal the ``engine="reference"``
  tables in both SWP regimes, serially and over a process pool.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.program import Suite
from repro.ir.types import MAX_UNROLL
from repro.machine.itanium2 import ITANIUM2
from repro.pipeline import LabelingConfig, measure_suite, measure_suite_pair
from repro.simulate import CostModel
from repro.simulate.noise import NoiseModel
from repro.workloads.generator import generate_benchmark
from repro.workloads.spec_names import ROSTER
from tests.strategies import (
    assert_tables_bit_identical,
    awkward_trip_loops,
    early_exit_loops,
    measurement_tables,
    predicated_loops,
    random_loops,
)

QUIET = NoiseModel(sigma=0.01, outlier_rate=0.0, counter_overhead=5)


def make_suite(seed: int, scale: float = 0.04, picks: tuple[int, ...] = (1, 0)) -> Suite:
    infos = [ROSTER[i] for i in picks]
    seeds = np.random.SeedSequence(seed).spawn(len(infos))
    benchmarks = tuple(
        generate_benchmark(info, np.random.default_rng(child), loops_scale=scale)
        for info, child in zip(infos, seeds)
    )
    return Suite(name=f"differential{seed}", benchmarks=benchmarks)


def make_config(seed: int, **overrides) -> LabelingConfig:
    return LabelingConfig(seed=seed, noise=QUIET, n_runs=3, **overrides)


@functools.lru_cache(maxsize=None)
def reference_table(seed: int, scale: float, swp: bool):
    """Serial ``engine="reference"`` table for one (seed, scale, regime).

    Cached because the pool and serial production runs compare against the
    same oracle table."""
    return measure_suite(
        make_suite(seed, scale), make_config(seed, swp=swp, engine="reference")
    )


# ---------------------------------------------------------------------------
# The bit-identity helper itself.
# ---------------------------------------------------------------------------


class TestAssertHelper:
    @given(table=measurement_tables())
    @settings(max_examples=20, deadline=None)
    def test_accepts_a_table_against_itself(self, table):
        assert_tables_bit_identical(table, table)

    @given(table=measurement_tables())
    @settings(max_examples=20, deadline=None)
    def test_rejects_any_float_perturbation(self, table):
        measured = table.measured.copy()
        # Flip the sign bit of one cell: even -0.0 vs 0.0 must be caught.
        measured.view(np.uint64)[0, 0] ^= np.uint64(1 << 63)
        other = dataclasses.replace(table, measured=measured)
        with pytest.raises(AssertionError, match="measured"):
            assert_tables_bit_identical(table, other)

    @given(table=measurement_tables())
    @settings(max_examples=20, deadline=None)
    def test_rejects_a_provenance_mismatch(self, table):
        names = table.loop_names.copy().astype(object)
        names[0] = str(names[0]) + "x"
        other = dataclasses.replace(table, loop_names=names.astype(str))
        with pytest.raises(AssertionError, match="loop_names"):
            assert_tables_bit_identical(table, other)

    def test_nan_holes_must_match_positionally(self):
        base = make_suite(3, 0.04)
        table = measure_suite(base, make_config(3))
        holed = table.measured.copy()
        holed[0, 0] = np.nan
        other = dataclasses.replace(table, measured=holed)
        assert_tables_bit_identical(other, dataclasses.replace(other))
        with pytest.raises(AssertionError):
            assert_tables_bit_identical(table, other)


# ---------------------------------------------------------------------------
# Incremental engine == reference engine, factor by factor.
# ---------------------------------------------------------------------------


def _assert_engines_agree(loop, evict_at: int | None = None):
    for swp in (False, True):
        reference = CostModel(machine=ITANIUM2, swp=swp, engine="reference")
        incremental = CostModel(machine=ITANIUM2, swp=swp, engine="incremental")
        for factor in range(1, MAX_UNROLL + 1):
            if factor == evict_at:
                # Mid-sequence eviction: the engine must rebuild, not
                # assume factor f-1 state is still resident.
                incremental.analysis.clear()
                incremental._stores.clear()
            got = incremental.loop_cost(loop, factor)
            want = reference.loop_cost(loop, factor)
            assert got == want, f"swp={swp} factor={factor}: {got} != {want}"


class TestIncrementalEngine:
    @given(loop=predicated_loops())
    @settings(max_examples=10, deadline=None)
    def test_predicated_loops(self, loop):
        _assert_engines_agree(loop)

    @given(pair=early_exit_loops())
    @settings(max_examples=10, deadline=None)
    def test_early_exit_loops(self, pair):
        _assert_engines_agree(pair[0])

    @given(pair=awkward_trip_loops(), evict_at=st.integers(min_value=2, max_value=MAX_UNROLL))
    @settings(max_examples=10, deadline=None)
    def test_awkward_trips_survive_mid_sequence_eviction(self, pair, evict_at):
        _assert_engines_agree(pair[0], evict_at=evict_at)

    @given(loop=random_loops(), evict_at=st.integers(min_value=2, max_value=MAX_UNROLL))
    @settings(max_examples=10, deadline=None)
    def test_random_loops_survive_mid_sequence_eviction(self, loop, evict_at):
        _assert_engines_agree(loop, evict_at=evict_at)


# ---------------------------------------------------------------------------
# Differential bit-identity at the pipeline level.
# ---------------------------------------------------------------------------


class TestDifferentialMeasurement:
    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("swp", [False, True])
    def test_production_pair_matches_reference(self, swp, jobs):
        off, on = measure_suite_pair(make_suite(3, 0.04), make_config(3), jobs=jobs)
        assert_tables_bit_identical(on if swp else off, reference_table(3, 0.04, swp))
