"""The calibrated ensemble's differential tier.

Three exact contracts, checked property-style across datasets, seeds, and
SWP regimes (mirroring the dedup differential suite): an ensemble
restricted to a single family agrees with that family bit-for-bit; the
engine's batched path answers exactly like per-request serving for every
classifier; and a registry round trip is the identity on predictions.
Plus the statistical contracts: calibrated outputs are distributions and
confidence is the probability mass of the chosen label.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ml.ensemble import (
    FAMILY_NAMES,
    CalibratedEnsemble,
    calibrate_proba,
    fit_temperature,
    train_calibrated_ensemble,
)
from repro.registry import load_artifact, train_model_artifact
from repro.serve import PredictionEngine
from tests.strategies import labelled_datasets
from tests.test_ml_svm import assert_matches_oracle
from tests.test_ml_trees import assert_flat_walk_matches_trees
from tests.test_model_artifacts import synthetic_dataset

_PROPERTY_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALL_CLASSIFIERS = (*FAMILY_NAMES, "ensemble")


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset()


@pytest.fixture(scope="module")
def ensemble(dataset):
    return train_calibrated_ensemble(dataset.X, dataset.labels, seed=0)


@pytest.fixture(scope="module")
def artifact(dataset):
    return train_model_artifact(dataset)


class TestSingleFamilyAgreement:
    """restrict() to one family == that family's own predict, exactly."""

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_each_family_agrees_exactly(self, ensemble, dataset, family):
        solo = ensemble.restrict((family,))
        np.testing.assert_array_equal(
            solo.predict(dataset.X),
            np.asarray(ensemble.members[family].predict(dataset.X), dtype=np.int64),
        )

    @_PROPERTY_SETTINGS
    @given(data=labelled_datasets(), seed=st.integers(0, 50))
    def test_agreement_across_datasets_and_seeds(self, data, seed):
        ensemble = train_calibrated_ensemble(data.X, data.labels, seed=seed)
        for family in FAMILY_NAMES:
            solo = ensemble.restrict((family,))
            np.testing.assert_array_equal(
                solo.predict(data.X),
                np.asarray(ensemble.members[family].predict(data.X), dtype=np.int64),
                err_msg=f"family={family} seed={seed} swp={data.swp}",
            )

    def test_restrict_shares_members_without_refit(self, ensemble):
        solo = ensemble.restrict(("svm",))
        assert solo.members["svm"] is ensemble.members["svm"]
        assert solo.temperatures == ensemble.temperatures

    def test_restrict_rejects_unknown_family(self, ensemble):
        with pytest.raises(ValueError, match="unknown families"):
            ensemble.restrict(("xgboost",))
        with pytest.raises(ValueError, match="at least one"):
            ensemble.restrict(())


class TestCalibration:
    def test_combined_proba_is_a_distribution(self, ensemble, dataset):
        proba = ensemble.predict_proba(dataset.X)
        assert np.all(proba >= 0.0) and np.all(proba <= 1.0)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_confidence_is_chosen_label_mass(self, ensemble, dataset):
        detail = ensemble.predict_detail(dataset.X)
        assert np.all(detail.confidence >= 0.0) and np.all(detail.confidence <= 1.0)
        columns = np.searchsorted(ensemble.classes, detail.labels)
        np.testing.assert_array_equal(
            detail.confidence, detail.proba[np.arange(len(detail.labels)), columns]
        )

    def test_votes_cover_every_family(self, ensemble, dataset):
        detail = ensemble.predict_detail(dataset.X)
        assert set(detail.votes) == set(FAMILY_NAMES)
        for family, votes in detail.votes.items():
            np.testing.assert_array_equal(
                votes, np.asarray(ensemble.members[family].predict(dataset.X))
            )

    def test_unit_temperature_is_identity(self):
        rng = np.random.default_rng(0)
        proba = rng.dirichlet(np.ones(4), size=16)
        np.testing.assert_allclose(calibrate_proba(proba, 1.0), proba, atol=1e-12)

    def test_fit_temperature_prefers_soft_for_overconfident(self):
        # Confidently wrong predictions: NLL improves with T > 1.
        proba = np.full((40, 2), 0.02)
        proba[:, 0] = 0.98
        labels = np.ones(40, dtype=np.int64)  # truth is the 2% column
        assert fit_temperature(proba, labels) > 1.0

    @_PROPERTY_SETTINGS
    @given(data=labelled_datasets())
    def test_calibrated_outputs_on_any_dataset(self, data):
        ensemble = train_calibrated_ensemble(data.X, data.labels, seed=0)
        detail = ensemble.predict_detail(data.X)
        assert np.all(detail.confidence >= 0.0) and np.all(detail.confidence <= 1.0)
        np.testing.assert_allclose(detail.proba.sum(axis=1), 1.0, atol=1e-9)
        assert set(np.unique(detail.labels)) <= set(ensemble.classes.tolist())


class TestEngineBatchedDifferential:
    """Batched serving must equal per-request serving bit-for-bit, for
    every classifier family (the PR 6 dedup differential, serve edition)."""

    def _requests(self, dataset, classifier, n=12):
        return [
            {
                "id": i,
                "classifier": classifier,
                "features": [float(v) for v in dataset.X[i % len(dataset)]],
            }
            for i in range(n)
        ]

    @pytest.mark.parametrize("classifier", ALL_CLASSIFIERS)
    def test_batched_equals_per_request(self, artifact, dataset, classifier):
        engine = PredictionEngine(artifact)
        requests = self._requests(dataset, classifier)
        scalar = [engine.handle(r) for r in requests]
        batched = engine.handle_batch(requests)
        for s, b in zip(scalar, batched):
            assert s["ok"] and b["ok"]
            assert s["factor"] == b["factor"]
            assert s["classifier"] == b["classifier"] == classifier
            if classifier == "ensemble":
                assert s["confidence"] == b["confidence"]
                assert s["votes"] == b["votes"]

    def test_mixed_classifier_batch_matches_scalar(self, artifact, dataset):
        engine = PredictionEngine(artifact)
        requests = [
            req
            for classifier in ALL_CLASSIFIERS
            for req in self._requests(dataset, classifier, n=4)
        ]
        scalar = [engine.handle(r) for r in requests]
        batched = engine.handle_batch(requests)
        assert [s["factor"] for s in scalar] == [b["factor"] for b in batched]
        assert [s["classifier"] for s in scalar] == [b["classifier"] for b in batched]

    @_PROPERTY_SETTINGS
    @given(data=labelled_datasets(), seed=st.integers(0, 20))
    def test_differential_across_datasets_seeds_and_regimes(self, data, seed):
        artifact = train_model_artifact(data, seed=seed)
        engine = PredictionEngine(artifact)
        requests = [
            {
                "id": f"{classifier}-{i}",
                "classifier": classifier,
                "features": [float(v) for v in data.X[i]],
            }
            for classifier in ALL_CLASSIFIERS
            for i in range(min(len(data), 3))
        ]
        scalar = [engine.handle(r) for r in requests]
        batched = engine.handle_batch(requests)
        for s, b in zip(scalar, batched):
            assert s["ok"] and b["ok"], f"swp={data.swp} seed={seed}"
            assert s["factor"] == b["factor"]
            if s["classifier"] == "ensemble":
                assert s["confidence"] == b["confidence"]
                assert s["votes"] == b["votes"]


class TestRegistryRoundTrip:
    def test_head_plus_members_restore_is_bit_identical(self, ensemble, dataset):
        restored = CalibratedEnsemble.from_members(
            ensemble.members, ensemble.head_state()
        )
        np.testing.assert_array_equal(
            restored.predict_proba(dataset.X), ensemble.predict_proba(dataset.X)
        )
        np.testing.assert_array_equal(
            restored.predict(dataset.X), ensemble.predict(dataset.X)
        )

    def test_artifact_round_trip_every_family(self, artifact, dataset, tmp_path):
        loaded = load_artifact(artifact.save(tmp_path / "ens.rma"))
        for name in artifact.families:
            np.testing.assert_array_equal(
                loaded.predict_features(dataset.X, name),
                artifact.predict_features(dataset.X, name),
                err_msg=name,
            )
        fresh = loaded.ensemble.predict_detail(dataset.X)
        original = artifact.ensemble.predict_detail(dataset.X)
        np.testing.assert_array_equal(fresh.confidence, original.confidence)
        np.testing.assert_array_equal(fresh.proba, original.proba)

    @_PROPERTY_SETTINGS
    @given(data=labelled_datasets())
    def test_round_trip_on_any_dataset(self, data, tmp_path_factory):
        artifact = train_model_artifact(data)
        path = tmp_path_factory.mktemp("ens") / "model.rma"
        loaded = load_artifact(artifact.save(path))
        for name in artifact.families:
            np.testing.assert_array_equal(
                loaded.predict_features(data.X, name),
                artifact.predict_features(data.X, name),
                err_msg=f"{name} swp={data.swp}",
            )


class TestArtifactInferenceOracles:
    """After a registry save/load, the SVM's inference plan and the
    forest's flat node table still answer like their per-machine and
    per-tree oracles."""

    def test_restored_svm_and_forest_match_oracles(self, artifact, dataset, tmp_path):
        loaded = load_artifact(artifact.save(tmp_path / "model.rma"))
        for family, check in (
            ("svm", assert_matches_oracle),
            ("forest", assert_flat_walk_matches_trees),
        ):
            heuristic = loaded.heuristic(family)
            assert heuristic.feature_indices is None  # trained on every feature
            check(heuristic.classifier, dataset.X)
