"""Output oracles, run outside every timed region.

Each check returns a list of problems; an empty list means the outputs
are right.  The references are computed independently of the path being
timed: the reference cost engine for measurement tables, and the loaded
artifact's heuristics applied one row at a time, in-process, for served
predictions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def check_tables(suite, config, table_off, table_on, units) -> list[str]:
    """Re-measure ``units`` ((benchmark index, factor) pairs) through the
    reference engine; the production tables must hold the same bits."""
    from repro.pipeline.labeling import _unit_seeds, measure_benchmark_factor_pair

    ref_off = dataclasses.replace(config, swp=False, engine="reference")
    ref_on = dataclasses.replace(config, swp=True, engine="reference")
    seeds = _unit_seeds(config.seed, len(suite.benchmarks))
    starts = np.cumsum([0] + [b.n_loops for b in suite.benchmarks])
    problems = []
    for bi, factor in units:
        benchmark = suite.benchmarks[bi]
        pair = measure_benchmark_factor_pair(
            benchmark, bi, factor, ref_off, ref_on, seeds[bi][factor - 1]
        )
        lo, hi = starts[bi], starts[bi + 1]
        for table, unit, regime in zip((table_off, table_on), pair, ("off", "on")):
            for column in ("measured", "true_cycles"):
                production = getattr(table, column)[lo:hi, factor - 1]
                if not _same_bits(production, getattr(unit, column)):
                    problems.append(
                        f"{benchmark.name} u{factor} swp-{regime} {column}: table "
                        f"{production.tolist()} != reference {getattr(unit, column).tolist()}"
                    )
    return problems


def check_round_trip(artifact, path, X: np.ndarray) -> list[str]:
    """Every family must answer the same after save -> load."""
    from repro.registry import load_artifact

    loaded = load_artifact(path)
    problems = []
    for family in artifact.families:
        before = artifact.predict_features(X, family)
        after = loaded.predict_features(X, family)
        if not np.array_equal(before, after):
            problems.append(f"{family}: predictions changed across save/load")
    return problems


# ---------------------------------------------------------------------------
# Serve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """In-process answers per request loop: the SVM factor, and the
    ensemble's factor and per-family votes."""

    svm: np.ndarray
    ensemble: np.ndarray
    votes: tuple[dict, ...]


def expected_answers(artifact, X: np.ndarray) -> Expected:
    """The artifact's heuristics applied to each row on its own."""
    svm = artifact.heuristic("svm")
    ensemble = artifact.heuristic("ensemble")
    svm_factors, ensemble_factors, votes = [], [], []
    for row in np.asarray(X, dtype=np.float64):
        svm_factors.append(int(svm.predict_features(row[None, :])[0]))
        detail = ensemble.predict_detail(row[None, :])
        ensemble_factors.append(int(detail.labels[0]))
        votes.append({family: int(v[0]) for family, v in detail.votes.items()})
    return Expected(np.array(svm_factors), np.array(ensemble_factors), tuple(votes))


#: The one error a valid request may get: a refusal under load.  It is
#: counted as a failure, not as a wrong answer.
REFUSAL = "overloaded"


def check_responses(sent: dict, responses: dict, expected: Expected) -> list[str]:
    """``sent`` maps request id -> (loop index, classifier).  Every id must
    be answered; every ``ok`` answer must equal the expected one; an error
    other than a refusal is wrong for a valid request."""
    problems = []
    for rid, (j, classifier) in sent.items():
        response = responses.get(rid)
        if response is None:
            problems.append(f"request {rid}: no response")
            continue
        if not response.get("ok"):
            kind = (response.get("error") or {}).get("type")
            if kind != REFUSAL:
                problems.append(f"request {rid}: error {kind!r} for a valid request")
            continue
        want = expected.ensemble[j] if classifier == "ensemble" else expected.svm[j]
        if response.get("factor") != want or response.get("classifier") != classifier:
            problems.append(
                f"request {rid}: got {response.get('classifier')}={response.get('factor')}, "
                f"expected {classifier}={want}"
            )
        elif classifier == "ensemble" and response.get("votes") != expected.votes[j]:
            problems.append(f"request {rid}: votes {response.get('votes')} != {expected.votes[j]}")
        elif "loops" in response and len(response["loops"]) != 1:
            problems.append(f"request {rid}: {len(response['loops'])} loops parsed, expected 1")
    for rid in responses.keys() - sent.keys():
        problems.append(f"response for unknown request id {rid}")
    return problems


def round_trip_failures(loops) -> list[str]:
    """Loops whose rendered source does not parse back to the same
    features (the serve-source oracle assumes it does)."""
    from repro.features.extract import extract_features
    from repro.frontend import parse_program
    from repro.frontend.unparse import to_source
    from repro.machine.itanium2 import ITANIUM2

    failures = []
    for loop in loops:
        entries = parse_program(to_source(loop))
        if len(entries) != 1 or not _same_bits(
            extract_features(entries[0].loop, ITANIUM2), extract_features(loop, ITANIUM2)
        ):
            failures.append(loop.name)
    return failures
