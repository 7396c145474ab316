"""repro: a full reproduction of "Predicting Unroll Factors Using Supervised
Classification" (Stephenson & Amarasinghe, CGO 2005) on a simulated EPIC
substrate.

Layering (bottom up):

- :mod:`repro.ir` — executable loop IR with dependence analysis;
- :mod:`repro.machine` — EPIC machine descriptions (Itanium-2-like default);
- :mod:`repro.transforms` — unrolling and the post-unroll cleanup passes;
- :mod:`repro.sched` — list scheduling, modulo scheduling, register pressure;
- :mod:`repro.simulate` — the cycle cost model, caches, measurement noise;
- :mod:`repro.instrument` — measurement rollups and the raw-data release format;
- :mod:`repro.features` — the 38-feature catalog and extractor;
- :mod:`repro.workloads` — kernels, body patterns, the 72-benchmark suite;
- :mod:`repro.ml` — NN, LS-SVM with output codes, LDA, CV, selection;
- :mod:`repro.heuristics` — ORC-like baselines, oracle, learned wrappers;
- :mod:`repro.pipeline` — measure, label, cache, evaluate speedups.

Quickstart::

    from repro import quick_predict
    from repro.workloads.kernels import daxpy

    factor = quick_predict(daxpy())
"""

from repro.ir import Loop, LoopBuilder, TripInfo
from repro.machine import ITANIUM2, MachineModel
from repro.ml import LoopDataset, NearNeighborClassifier, OutputCodeClassifier
from repro.pipeline import build_artifacts
from repro.simulate import CostModel

__version__ = "1.0.0"


def quick_predict(loop, swp: bool = False, loops_scale: float = 0.25, seed: int = 20050320):
    """Predict an unroll factor for ``loop`` with an SVM heuristic trained
    on the (cached) default dataset — the one-call demo entry point."""
    from repro.heuristics import train_svm_heuristic

    artifacts = build_artifacts(suite_seed=seed, loops_scale=loops_scale, swp=swp)
    heuristic = train_svm_heuristic(artifacts.dataset)
    return heuristic.predict_loop(loop)


__all__ = [
    "CostModel",
    "ITANIUM2",
    "Loop",
    "LoopBuilder",
    "LoopDataset",
    "MachineModel",
    "NearNeighborClassifier",
    "OutputCodeClassifier",
    "TripInfo",
    "build_artifacts",
    "quick_predict",
    "__version__",
]
