"""Unit tests for the LS-SVM and its exact leave-one-out shortcut, plus
the pairwise SVM's whole-model inference checked against a per-machine
oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ml.pairwise import PairwiseLSSVM, make_tuned_pairwise_svm
from repro.ml.svm import LSSVM, multiscale_rbf_kernel, rbf_kernel
from tests.strategies import labelled_datasets

_PROPERTY_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _blobs(n_per=40, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(-gap / 2, 0), scale=0.5, size=(n_per, 2))
    b = rng.normal(loc=(+gap / 2, 0), scale=0.5, size=(n_per, 2))
    X = np.vstack([a, b])
    y = np.array([1.0] * n_per + [-1.0] * n_per)
    return X, y


class TestKernels:
    def test_rbf_diagonal_is_one(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        K = rbf_kernel(X, X, sigma=0.7)
        np.testing.assert_allclose(np.diag(K), 1.0)

    def test_rbf_symmetric_and_bounded(self):
        X = np.random.default_rng(1).normal(size=(15, 4))
        K = rbf_kernel(X, X, sigma=1.0)
        np.testing.assert_allclose(K, K.T)
        assert (K >= 0).all() and (K <= 1.0 + 1e-12).all()

    def test_rbf_decays_with_distance(self):
        A = np.array([[0.0], [1.0], [5.0]])
        K = rbf_kernel(A, np.array([[0.0]]), sigma=1.0)
        assert K[0, 0] > K[1, 0] > K[2, 0]

    def test_multiscale_is_convex_combination(self):
        X = np.random.default_rng(2).normal(size=(8, 3))
        sharp = rbf_kernel(X, X, 0.1)
        smooth = rbf_kernel(X, X, 3.0)
        mixed = multiscale_rbf_kernel(X, X, 0.1, scale_ratio=30.0, mix=0.25)
        np.testing.assert_allclose(mixed, 0.25 * sharp + 0.75 * smooth)

    def test_multiscale_kernel_matrix_is_psd(self):
        X = np.random.default_rng(3).normal(size=(20, 3))
        K = multiscale_rbf_kernel(X, X, 0.2)
        eigenvalues = np.linalg.eigvalsh(K)
        assert eigenvalues.min() > -1e-9


class TestBinaryLSSVM:
    def test_separable_blobs_classified(self):
        X, y = _blobs()
        model = LSSVM(C=10.0, sigma=1.0).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.98

    def test_decision_values_sign_matches_predict(self):
        X, y = _blobs(seed=3)
        model = LSSVM(C=5.0, sigma=0.8).fit(X, y)
        values = model.decision_values(X)
        np.testing.assert_array_equal(np.sign(values) >= 0, model.predict(X) == 1)

    def test_multi_rhs_trains_independent_machines(self):
        X, y = _blobs(seed=4)
        Y = np.stack([y, -y], axis=1)
        model = LSSVM(C=10.0, sigma=1.0).fit(X, Y)
        values = model.decision_values(X)
        assert values.shape == (len(X), 2)
        np.testing.assert_allclose(values[:, 0], -values[:, 1], atol=1e-8)

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            LSSVM(C=0.0)
        with pytest.raises(ValueError):
            LSSVM(sigma=-1.0)
        with pytest.raises(ValueError):
            LSSVM(kernel="poly")

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            LSSVM().decision_values(np.zeros((1, 2)))


class TestLeaveOneOutIdentity:
    """The closed-form LOO decision values must match explicit refits."""

    @pytest.mark.parametrize("kernel", ["rbf", "multiscale"])
    def test_loo_matches_refit(self, kernel):
        X, y = _blobs(n_per=15, gap=2.0, seed=5)
        model = LSSVM(C=4.0, sigma=0.9, kernel=kernel).fit(X, y)
        fast = model.loo_decision_values()
        for i in range(len(X)):
            mask = np.ones(len(X), dtype=bool)
            mask[i] = False
            refit = LSSVM(C=4.0, sigma=0.9, kernel=kernel).fit(X[mask], y[mask])
            expected = float(np.asarray(refit.decision_values(X[i : i + 1])).ravel()[0])
            assert fast[i] == pytest.approx(expected, rel=1e-6, abs=1e-8), i

    def test_loo_matches_refit_multi_rhs(self):
        X, y = _blobs(n_per=12, seed=6)
        Y = np.stack([y, np.where(X[:, 1] > 0, 1.0, -1.0)], axis=1)
        model = LSSVM(C=2.0, sigma=1.1).fit(X, Y)
        fast = model.loo_decision_values()
        for i in range(0, len(X), 3):
            mask = np.ones(len(X), dtype=bool)
            mask[i] = False
            refit = LSSVM(C=2.0, sigma=1.1).fit(X[mask], Y[mask])
            expected = np.asarray(refit.decision_values(X[i : i + 1])).ravel()
            np.testing.assert_allclose(fast[i], expected, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# Pairwise SVM: whole-model inference vs. a per-machine sequential oracle.
# ---------------------------------------------------------------------------


def sequential_vote(model: PairwiseLSSVM, columns: list) -> tuple:
    """Labels and vote shares from per-pair decision columns, voted one
    machine at a time in machine order (the oracle for the matrix vote)."""
    classes = model.classes
    position = {int(c): i for i, c in enumerate(classes)}
    n = len(columns[0])
    votes = np.zeros((n, len(classes)))
    margins = np.zeros((n, len(classes)))
    for (a, b), values in zip(model._machines, columns):
        winner_a = values >= 0.0
        votes[winner_a, position[a]] += 1.0
        votes[~winner_a, position[b]] += 1.0
        margins[:, position[a]] += values
        margins[:, position[b]] -= values
    labels = classes[np.argmax(votes + 1e-6 * np.tanh(margins), axis=1)]
    present = model.classes_
    shares = votes[:, [position[int(c)] for c in present]]
    return labels, shares / shares.sum(axis=1, keepdims=True)


def per_machine_oracle(model: PairwiseLSSVM, X: np.ndarray) -> tuple:
    """Decision columns from each pair's own ``LSSVM``, then the
    sequential vote: ``(columns, labels, proba)``."""
    Z = model._prepare(np.atleast_2d(X))
    columns = [
        np.asarray(machine.decision_values(Z), dtype=np.float64).ravel()
        for machine in model._machines.values()
    ]
    if not columns:  # single-class fit: no machines
        present = model.classes_
        labels = np.full(len(Z), model.classes[0])
        return columns, labels, np.ones((len(Z), len(present))) / len(present)
    labels, proba = sequential_vote(model, columns)
    return columns, labels, proba


def assert_matches_oracle(model: PairwiseLSSVM, X: np.ndarray) -> None:
    columns, labels, proba = per_machine_oracle(model, X)
    decisions = model.decision_values(X)
    assert decisions.shape == (len(X), len(columns))
    for p, column in enumerate(columns):
        # Rounding only.  The kernel's cross term ``A @ B.T`` is a BLAS
        # call whose accumulation order depends on how many training rows
        # it sees (all of them here, the pair's own in the oracle), and
        # the tuned bandwidth (sigma = 0.012) scales that last-bit
        # difference by 1 / (2 sigma^2) ~ 3.5e3 before it reaches ``D``.
        np.testing.assert_allclose(decisions[:, p], column, rtol=1e-12, atol=1e-10)
    np.testing.assert_array_equal(model.predict(X), labels)
    np.testing.assert_array_equal(model.predict_proba(X), proba)
    singles = [model.predict(X[i : i + 1])[0] for i in range(len(X))]
    np.testing.assert_array_equal(singles, labels)
    single_proba = np.vstack([model.predict_proba(X[i : i + 1]) for i in range(len(X))])
    np.testing.assert_array_equal(single_proba, proba)


def _queries(data, seed: int) -> np.ndarray:
    """Training rows plus fresh rows spread around them."""
    rng = np.random.default_rng(seed)
    fresh = data.X[rng.integers(len(data.X), size=6)] + rng.normal(size=(6, data.X.shape[1]))
    return np.vstack([data.X, fresh])


def _pairwise(kind: str) -> PairwiseLSSVM:
    if kind == "tuned":
        return make_tuned_pairwise_svm()
    return PairwiseLSSVM(C=10.0, sigma=0.5)


class TestPairwiseInferencePlan:
    @_PROPERTY_SETTINGS
    @given(
        data=labelled_datasets(),
        kind=st.sampled_from(["tuned", "rbf"]),
        seed=st.integers(0, 1000),
    )
    def test_matches_per_machine_oracle(self, data, kind, seed):
        model = _pairwise(kind).fit(data.X, data.labels)
        assert_matches_oracle(model, _queries(data, seed))

    @_PROPERTY_SETTINGS
    @given(data=labelled_datasets(), kind=st.sampled_from(["tuned", "rbf"]))
    def test_loocv_is_bit_identical_to_sequential_vote(self, data, kind):
        model = _pairwise(kind).fit(data.X, data.labels)
        columns = []
        for pair, machine in model._machines.items():
            full = np.asarray(machine.decision_values(model._Z), dtype=np.float64).ravel()
            full[model._rows[pair]] = np.asarray(machine.loo_decision_values()).ravel()
            columns.append(full)
        labels, _ = sequential_vote(model, columns)
        assert model.loocv_predictions().tobytes() == labels.tobytes()

    @_PROPERTY_SETTINGS
    @given(data=labelled_datasets(), seed=st.integers(0, 1000))
    def test_state_round_trip_matches_oracle(self, data, seed):
        model = make_tuned_pairwise_svm().fit(data.X, data.labels)
        restored = PairwiseLSSVM.from_state(model.get_state())
        queries = _queries(data, seed)
        assert_matches_oracle(restored, queries)
        np.testing.assert_array_equal(restored.predict(queries), model.predict(queries))

    @_PROPERTY_SETTINGS
    @given(data=labelled_datasets(), seed=st.integers(0, 1000))
    def test_two_classes_one_machine(self, data, seed):
        keep = np.isin(data.labels, np.unique(data.labels)[:2])
        model = make_tuned_pairwise_svm().fit(data.X[keep], data.labels[keep])
        assert len(model._machines) == 1
        assert_matches_oracle(model, _queries(data, seed))

    @_PROPERTY_SETTINGS
    @given(data=labelled_datasets(), seed=st.integers(0, 1000))
    def test_single_class_has_no_machines(self, data, seed):
        only = np.full(len(data.labels), data.labels[0])
        model = make_tuned_pairwise_svm().fit(data.X, only)
        assert not model._machines
        assert model.decision_values(data.X).shape == (len(data.X), 0)
        assert_matches_oracle(model, _queries(data, seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_vote_ties_break_by_margin_like_the_oracle(self, seed):
        """Randomly labelled points make the pair machines disagree
        cyclically, so top-vote ties occur and the accumulated margin
        decides; the plan must break them exactly as the oracle does."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(40, 2))
        model = PairwiseLSSVM(C=10.0, sigma=0.2).fit(X, rng.choice([1, 2, 4, 8], size=40))
        queries = rng.uniform(size=(200, 2))
        _, _, shares = per_machine_oracle(model, queries)
        ties = (shares == shares.max(axis=1, keepdims=True)).sum(axis=1) > 1
        assert ties.any()
        assert_matches_oracle(model, queries)

    def test_plan_is_read_only(self):
        X, y = _blobs(seed=7)
        model = PairwiseLSSVM(C=10.0, sigma=1.0).fit(X, (y > 0) + 1)
        with pytest.raises(ValueError):
            model._plan.W[0, 0] = 1.0
