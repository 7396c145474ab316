"""Pairwise (one-vs-one) LS-SVM multi-class coupling.

The output-code construction in :mod:`repro.ml.multiclass` is the paper's
described scheme; LSSVMlab (the toolkit the paper used) also ships pairwise
coupling, which trains one binary machine per *pair* of classes on just
those two classes' examples and predicts by voting.  Pairwise coupling is
usually stronger on hard multi-class problems — each binary problem is
smaller and cleaner — at the cost of ``k(k-1)/2`` machines.

Leave-one-out stays exact and cheap: leaving out example ``i`` only
perturbs the machines whose training set contains ``i`` (the ``k-1`` pairs
involving ``i``'s class); for those, the closed-form LS-SVM LOO identity
applies within the pair's own solve, and every other machine's decision
value for ``i`` is unchanged.

Inference is one array program over the whole model (:class:`_InferencePlan`):
every machine's dual coefficients live in one ``(n_train x n_pairs)``
matrix, zero outside the pair's rows, so a query costs one kernel pass
against the shared training matrix and one product, ``D = K @ W + b``.
Votes come from class-incidence tables (exact integer counts) and margins
accumulate in the same per-class pair order as a sequential loop would, so
labels match a per-machine vote; decision values agree with the per-machine
``LSSVM.decision_values`` to rounding (BLAS accumulates the kernel's cross
term and the product over all training rows, not just the pair's).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.normalize import Normalizer, fit_normalizer
from repro.ml.svm import LSSVM, kernel_matrix


def _frozen(array: np.ndarray) -> np.ndarray:
    array = np.array(array)  # a private copy: callers' arrays stay writeable
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class _InferencePlan:
    """The fitted pair machines as whole-model arrays (read-only; built
    once at fit or restore and shared by every thread that predicts).

    ``margin_pairs[c]`` lists, in machine order, the columns of ``D`` that
    class ``c`` takes part in (``n_pairs`` pads to a zero column), and
    ``margin_signs[c]`` is ``+1`` where ``c`` is the pair's first class.
    """

    Z: np.ndarray  # (n_train, d) prepared training matrix
    W: np.ndarray  # (n_train, n_pairs) dual coefficients, zero off-pair
    bias: np.ndarray  # (n_pairs,)
    vote_delta: np.ndarray  # (n_pairs, k) one-hot(first class) - one-hot(second)
    vote_base: np.ndarray  # (k,) votes if every machine voted for its second class
    margin_pairs: np.ndarray  # (k, m) int column indices into [D | 0]
    margin_signs: np.ndarray  # (k, m) +1 / -1
    proba_columns: np.ndarray  # (k, k') 0/1 map from ``classes`` to ``classes_``

    @classmethod
    def build(cls, classes, present, Z, machines, rows) -> "_InferencePlan":
        pairs = list(machines)
        n_pairs, k = len(pairs), len(classes)
        position = {int(c): i for i, c in enumerate(classes)}
        W = np.zeros((len(Z), n_pairs))
        bias = np.zeros(n_pairs)
        vote_delta = np.zeros((n_pairs, k))
        vote_base = np.zeros(k)
        members = [[] for _ in range(k)]
        for p, (a, b) in enumerate(pairs):
            solution = machines[(a, b)]._solution
            W[rows[(a, b)], p] = np.ravel(solution.alpha)
            bias[p] = np.ravel(solution.bias)[0]
            vote_delta[p, position[a]] = 1.0
            vote_delta[p, position[b]] = -1.0
            vote_base[position[b]] += 1.0
            members[position[a]].append((p, 1.0))
            members[position[b]].append((p, -1.0))
        width = max(1, max(len(m) for m in members))
        margin_pairs = np.full((k, width), n_pairs, dtype=np.int64)
        margin_signs = np.ones((k, width))
        for c, entries in enumerate(members):
            for j, (p, sign) in enumerate(entries):
                margin_pairs[c, j] = p
                margin_signs[c, j] = sign
        proba_columns = np.asarray([[float(c == q) for q in present] for c in classes])
        return cls(*map(_frozen, (
            Z, W, bias, vote_delta, vote_base, margin_pairs, margin_signs, proba_columns
        )))

    def votes_and_margins(self, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-class vote counts and accumulated pair margins for decision
        values ``D`` (one column per machine, in machine order)."""
        # Integer counts in float64: exact.
        votes = (D >= 0.0).astype(np.float64) @ self.vote_delta + self.vote_base
        padded = np.concatenate([D, np.zeros((len(D), 1))], axis=1)
        terms = padded[:, self.margin_pairs] * self.margin_signs
        # An in-order running sum: bit-identical to ``+=`` / ``-=`` per
        # machine in machine order.
        margins = np.cumsum(terms, axis=2)[:, :, -1]
        return votes, margins


class PairwiseLSSVM:
    """One-vs-one LS-SVM with margin-weighted voting."""

    def __init__(
        self,
        classes=tuple(range(1, 9)),
        C: float = 10.0,
        sigma: float = 0.65,
        feature_weights: np.ndarray | None = None,
        normalization: str = "minmax",
        kernel: str = "rbf",
        scale_ratio: float = 30.0,
        mix: float = 0.5,
    ):
        self.classes = np.asarray(classes, dtype=np.int64)
        self.C = C
        self.sigma = sigma
        self.feature_weights = (
            None if feature_weights is None else np.asarray(feature_weights, dtype=np.float64)
        )
        self.normalization = normalization
        self.kernel = kernel
        self.scale_ratio = scale_ratio
        self.mix = mix
        self._machines: dict[tuple[int, int], LSSVM] = {}
        self._rows: dict[tuple[int, int], np.ndarray] = {}
        self._normalizer = None
        self._Z: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._plan: _InferencePlan | None = None

    def _prepare(self, X: np.ndarray) -> np.ndarray:
        """Normalise, then stretch axes by the (optional) feature weights —
        a diagonal-metric RBF, i.e. per-feature bandwidths."""
        Z = self._normalizer.transform(X)
        if self.feature_weights is not None:
            Z = Z * self.feature_weights
        return Z

    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "PairwiseLSSVM":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._normalizer = fit_normalizer(X, self.normalization)
        Z = self._prepare(X)
        self._Z = Z
        self._y = y
        self._machines.clear()
        self._rows.clear()
        present = [c for c in self.classes if np.any(y == c)]
        for ai in range(len(present)):
            for bi in range(ai + 1, len(present)):
                a, b = int(present[ai]), int(present[bi])
                rows = np.flatnonzero((y == a) | (y == b))
                targets = np.where(y[rows] == a, 1.0, -1.0)
                machine = LSSVM(
                    C=self.C,
                    sigma=self.sigma,
                    kernel=self.kernel,
                    scale_ratio=self.scale_ratio,
                    mix=self.mix,
                )
                machine.fit(Z[rows], targets)
                self._machines[(a, b)] = machine
                self._rows[(a, b)] = rows
        self._build_plan()
        return self

    def _build_plan(self) -> None:
        self._plan = _InferencePlan.build(
            self.classes, np.unique(self._y), self._Z, self._machines, self._rows
        )

    def _require_fitted(self) -> None:
        if self._normalizer is None:
            raise RuntimeError("classifier is not fitted")

    # ------------------------------------------------------------------
    # Persistence (consumed by repro.registry model artifacts).
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """The fitted ensemble as plain arrays/scalars.

        The prepared (normalised, weighted) training matrix is stored once;
        each pair machine contributes only its row indices and dual
        solution, so the artifact stays compact and reconstruction is an
        exact slice — no refitting, no drift.
        """
        self._require_fitted()
        pairs = []
        for (a, b), machine in sorted(self._machines.items()):
            solution = machine._solution
            pairs.append(
                {
                    "a": int(a),
                    "b": int(b),
                    "rows": np.asarray(self._rows[(a, b)], dtype=np.int64),
                    "alpha": np.asarray(solution.alpha, dtype=np.float64),
                    "bias": np.asarray(solution.bias, dtype=np.float64),
                }
            )
        return {
            "classes": np.asarray(self.classes, dtype=np.int64),
            "C": float(self.C),
            "sigma": float(self.sigma),
            "feature_weights": (
                None
                if self.feature_weights is None
                else np.asarray(self.feature_weights, dtype=np.float64)
            ),
            "normalization": self.normalization,
            "kernel": self.kernel,
            "scale_ratio": float(self.scale_ratio),
            "mix": float(self.mix),
            "Z": self._Z,
            "y": self._y,
            "normalizer": self._normalizer.get_state(),
            "pairs": pairs,
        }

    @classmethod
    def from_state(cls, state: dict) -> "PairwiseLSSVM":
        """Rebuild a fitted ensemble with bit-identical predictions."""
        clf = cls(
            classes=tuple(int(c) for c in state["classes"]),
            C=float(state["C"]),
            sigma=float(state["sigma"]),
            feature_weights=state["feature_weights"],
            normalization=str(state["normalization"]),
            kernel=str(state["kernel"]),
            scale_ratio=float(state["scale_ratio"]),
            mix=float(state["mix"]),
        )
        clf._normalizer = Normalizer.from_state(state["normalizer"])
        Z = np.asarray(state["Z"], dtype=np.float64)
        y = np.asarray(state["y"], dtype=np.int64)
        clf._Z = Z
        clf._y = y
        for pair in state["pairs"]:
            a, b = int(pair["a"]), int(pair["b"])
            rows = np.asarray(pair["rows"], dtype=np.int64)
            clf._machines[(a, b)] = LSSVM.from_state(
                {
                    "C": clf.C,
                    "sigma": clf.sigma,
                    "kernel": clf.kernel,
                    "scale_ratio": clf.scale_ratio,
                    "mix": clf.mix,
                    "X": Z[rows],
                    "alpha": pair["alpha"],
                    "bias": pair["bias"],
                    "targets": np.where(y[rows] == a, 1.0, -1.0),
                }
            )
            clf._rows[(a, b)] = rows
        clf._build_plan()
        return clf

    # ------------------------------------------------------------------

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """Every machine's decision value for query rows, one column per
        pair in machine order: one kernel pass, one product."""
        self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        plan = self._plan
        K = kernel_matrix(
            self._prepare(X), plan.Z, self.kernel, self.sigma, self.scale_ratio, self.mix
        )
        return K @ plan.W + plan.bias

    def _labels(self, D: np.ndarray) -> np.ndarray:
        """Labels from pair decisions (votes, margin tie-break)."""
        votes, margins = self._plan.votes_and_margins(D)
        # Lexicographic: votes first, accumulated margin as tie-break.
        score = votes + 1e-6 * np.tanh(margins)
        return self.classes[np.argmax(score, axis=1)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._labels(self.decision_values(X))

    @property
    def classes_(self) -> np.ndarray:
        """Distinct training labels, ascending (the proba column order)."""
        self._require_fitted()
        return np.unique(self._y)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-query class distribution over :attr:`classes_`: each pair
        machine casts one vote, so the vote shares form a distribution
        (every row sums to the machine count, normalised to 1).  Vote ties
        that :meth:`predict` breaks by accumulated margin keep their tied
        shares here; consumers needing exact ``predict`` agreement use the
        label from ``predict`` and this distribution for confidence only.
        """
        D = self.decision_values(X)
        plan = self._plan
        if not self._machines:  # degenerate single-class fit
            width = plan.proba_columns.shape[1]
            return np.full((len(D), width), 1.0 / width)
        votes, _ = plan.votes_and_margins(D)
        votes = votes @ plan.proba_columns
        return votes / votes.sum(axis=1, keepdims=True)

    def loocv_predictions(self) -> np.ndarray:
        """Exact LOO labels over the training set."""
        self._require_fitted()
        D = np.zeros((len(self._y), len(self._machines)))
        for p, (pair, machine) in enumerate(self._machines.items()):
            # Decision values for everyone from the machine as trained...
            D[:, p] = np.asarray(machine.decision_values(self._Z), dtype=np.float64).ravel()
            # ...then patch the training rows with their exact LOO values.
            D[self._rows[pair], p] = np.asarray(
                machine.loo_decision_values(), dtype=np.float64
            ).ravel()
        return self._labels(D)


def make_tuned_pairwise_svm() -> "PairwiseLSSVM":
    """The SVM configuration the reproduction experiments use (LOOCV-tuned;
    see ``TUNED_SVM_PARAMS`` and EXPERIMENTS.md)."""
    from repro.ml.svm import TUNED_SVM_PARAMS

    return PairwiseLSSVM(**TUNED_SVM_PARAMS)
