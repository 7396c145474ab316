"""Seeded inputs: suites, request streams and oracle samples.

Everything here is a pure function of the ``--seed`` argument (plus the
fixed training seed), so one seed always yields the same inputs.  The
program under test only ever receives the generated inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from loadgen import poisson_offsets

#: Seed of the serve workloads' training suite (the CLI's default seed);
#: request suites must be seeded differently.
TRAIN_SEED = 20050320
#: Every roster benchmark at its 3-loop floor: 72 x 3 = 216 loops.
LOOPS_SCALE = 0.0
#: Share of serve-features requests that ask for the ensemble.
ENSEMBLE_SHARE = 1 / 8


def make_suite(seed: int):
    from repro.workloads.generator import generate_suite

    return generate_suite(seed=seed, loops_scale=LOOPS_SCALE)


def request_loops(seed: int) -> list:
    """The loops requests are drawn from: a suite seeded apart from the
    training suite."""
    if seed == TRAIN_SEED:
        raise ValueError(f"seed {seed} is the training seed; choose another")
    return [loop for benchmark in make_suite(seed).benchmarks for loop in benchmark.loops]


@dataclass(frozen=True)
class RequestPlan:
    """One rate step: arrival offsets and, per request, the loop it
    carries and whether it asks for the ensemble."""

    rate: float
    offsets: np.ndarray
    loop_index: np.ndarray
    ensemble: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets)


def request_plan(
    seed: int, step: int, rate: float, seconds: float, n_loops: int, ensemble_share: float
) -> RequestPlan:
    """Poisson arrivals at ``rate`` for ``seconds``; step ``step`` of a run
    draws from its own child stream, so a step's inputs do not depend on
    how many requests earlier steps sent."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, step]))
    offsets = poisson_offsets(rng, rate, seconds)
    n = len(offsets)
    return RequestPlan(
        rate=rate,
        offsets=offsets,
        loop_index=rng.integers(n_loops, size=n),
        ensemble=rng.random(n) < ensemble_share,
    )


def encode_request(request: dict) -> bytes:
    return (json.dumps(request, separators=(",", ":")) + "\n").encode("utf-8")


def feature_request(request_id: int, vector: list[float], ensemble: bool) -> dict:
    request = {"id": request_id, "features": vector}
    if ensemble:
        request["classifier"] = "ensemble"
    return request


def source_request(request_id: int, source: str) -> dict:
    return {"id": request_id, "source": source}


def oracle_units(seed: int, n_benchmarks: int, n_factors: int, k: int) -> list[tuple[int, int]]:
    """A seeded sample of ``k`` distinct (benchmark index, factor) units."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1 << 20]))
    flat = rng.choice(n_benchmarks * n_factors, size=k, replace=False)
    return sorted((int(u) // n_factors, int(u) % n_factors + 1) for u in flat)
