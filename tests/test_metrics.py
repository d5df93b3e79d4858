import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairclf.data import Dataset
from fairclf.metrics import audit, boundary_covariance, cv_score, p_percent_rule, score, sign_rule


class TestBoundaryCovariance:
    def test_hand_sum(self):
        # mean(z) = 0.5; sum (z - 0.5) * d = 0.5 + 0.5 + 0.5 + 0.5 = 2; / 4
        assert boundary_covariance([0, 0, 1, 1], [-1, -1, 1, 1]) == pytest.approx(0.5)

    def test_constant_z_gives_zero(self):
        assert boundary_covariance([1, 1, 1], [3.0, -2.0, 7.0]) == 0.0
        assert boundary_covariance([0, 0, 0], [3.0, -2.0, 7.0]) == 0.0

    def test_constant_distance_gives_zero(self):
        assert boundary_covariance([0, 1, 0, 1], [4.2, 4.2, 4.2, 4.2]) == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            boundary_covariance([0, 1], [1.0])

    @given(
        z=st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=30),
        scale=st.floats(min_value=-5, max_value=5),
        shift=st.floats(min_value=-5, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_bilinearity(self, z, scale, shift, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=len(z))
        base = boundary_covariance(z, d)
        transformed = boundary_covariance(z, scale * d + shift)
        assert transformed == pytest.approx(scale * base, abs=1e-9)


class TestPPercentRule:
    def test_eighty_percent(self):
        # group z=1: 2/5 positive; group z=0: 1/2 positive -> min(0.8, 1.25)
        preds = np.array([1, 1, -1, -1, -1, 1, -1])
        z = np.array([1, 1, 1, 1, 1, 0, 0])
        assert p_percent_rule(preds, z) == pytest.approx(80.0)

    def test_all_positive(self):
        assert p_percent_rule(np.ones(6), np.array([0, 1, 0, 1, 0, 1])) == pytest.approx(100.0)

    def test_one_sided_zero_rate(self):
        preds = np.array([-1, -1, 1, 1])
        z = np.array([1, 1, 0, 0])
        assert p_percent_rule(preds, z) == 0.0

    def test_both_zero_rates(self):
        assert p_percent_rule(-np.ones(4), np.array([0, 0, 1, 1])) == 100.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            p_percent_rule(np.ones(3), np.ones(3))


class TestCvScore:
    def test_equal_rates(self):
        preds = np.array([1, -1, 1, -1])
        z = np.array([1, 1, 0, 0])
        assert cv_score(preds, z) == pytest.approx(0.0)

    def test_hand_value(self):
        # rates 0.2 vs 0.7
        preds = np.concatenate([np.repeat(1, 2), np.repeat(-1, 8), np.repeat(1, 7), np.repeat(-1, 3)])
        z = np.concatenate([np.ones(10), np.zeros(10)])
        assert cv_score(preds, z) == pytest.approx(0.5)

    def test_all_negative(self):
        assert cv_score(-np.ones(4), np.array([0, 1, 0, 1])) == 0.0


class TestSignRuleCorrespondence:
    @given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(min_value=4, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_p100_iff_cv0(self, seed, n):
        rng = np.random.default_rng(seed)
        z = rng.integers(0, 2, size=n)
        if z.min() == z.max():
            z[0] = 1 - z[0]
        preds = np.where(rng.random(n) < 0.5, 1, -1)
        p = p_percent_rule(preds, z)
        cv = cv_score(preds, z)
        assert (p == pytest.approx(100.0)) == (cv == pytest.approx(0.0))

    @given(seed=st.integers(min_value=0, max_value=2**31), scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=40, deadline=None)
    def test_invariance_under_positive_rescaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=50)
        z = rng.integers(0, 2, size=50)
        if z.min() == z.max():
            z[0] = 1 - z[0]
        preds_a = np.where(d >= 0, 1, -1)
        preds_b = np.where(scale * d >= 0, 1, -1)
        assert p_percent_rule(preds_a, z) == p_percent_rule(preds_b, z)
        assert cv_score(preds_a, z) == cv_score(preds_b, z)


class TestAudit:
    def make_dataset(self, z_col):
        n = len(z_col)
        return Dataset(
            features=np.arange(2 * n, dtype=float).reshape(n, 2),
            labels=np.where(np.arange(n) % 2 == 0, 1.0, -1.0),
            sensitive=np.asarray(z_col, dtype=float).reshape(-1, 1),
            sensitive_names=("z",),
            feature_names=("x1", "x2"),
        )

    def test_all_nonnegative_distances(self):
        ds = self.make_dataset([0, 1, 0, 1])
        report = audit(np.array([0.0, 1.0, 2.0, 3.0]), ds)
        assert report.p_percent["z"] == pytest.approx(100.0)
        assert report.cv_score["z"] == pytest.approx(0.0)

    def test_hand_example(self):
        ds = self.make_dataset([0, 0, 1, 1])
        report = audit(np.array([-1.0, -1.0, 1.0, 1.0]), ds)
        assert report.covariance_per_column["z"] == pytest.approx(0.5)
        assert report.p_percent["z"] == 0.0
        assert report.cv_score["z"] == pytest.approx(1.0)
        assert report.n_per_group["z"] == (2, 2)
        assert report.group_positive_rates["z"] == (1.0, 0.0)

    def test_empty_group_propagates(self):
        ds = self.make_dataset([1, 1, 1, 1])
        with pytest.raises(ValueError, match="non-empty"):
            audit(np.ones(4), ds)

    def test_length_mismatch(self):
        ds = self.make_dataset([0, 1, 0, 1])
        with pytest.raises(ValueError, match="align"):
            audit(np.ones(3), ds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_distances(self, bad):
        # a NaN has no sign: the sign rule read it as a negative decision
        ds = self.make_dataset([0, 0, 1, 1])
        with pytest.raises(ValueError, match="finite"):
            audit(np.array([bad, 1.0, bad, 1.0]), ds)

    def test_boundary_tie_counts_positive(self):
        ds = self.make_dataset([0, 1])
        report = audit(np.array([0.0, -0.1]), ds)
        assert report.group_positive_rates["z"] == (0.0, 1.0)

    def test_score_is_sign_rule_accuracy_and_audit(self):
        # labels +1, -1, +1, -1; a distance of exactly zero decides +1
        ds = self.make_dataset([0, 1, 0, 1])
        d = np.array([0.0, -0.0, -2.0, 3.0])
        np.testing.assert_array_equal(sign_rule(d), [1, 1, -1, 1])
        accuracy, report = score(d, ds)
        assert accuracy == 0.25
        assert report == audit(d, ds)

    def test_one_rate_pass_per_column_agrees_with_the_public_metrics(self, monkeypatch):
        from fairclf import metrics

        rng = np.random.default_rng(6)
        z = (rng.random((50, 3)) < 0.4).astype(float)
        ds = Dataset(
            features=rng.normal(size=(50, 2)),
            labels=np.where(rng.random(50) < 0.5, 1.0, -1.0),
            sensitive=z,
            sensitive_names=("a", "b", "c"),
            feature_names=("x1", "x2"),
        )
        d = rng.normal(size=50)
        calls = []
        rates = metrics._group_rates
        monkeypatch.setattr(metrics, "_group_rates", lambda p, col: calls.append(1) or rates(p, col))
        report = audit(d, ds)
        assert len(calls) == 3
        predictions = np.where(d >= 0, 1, -1)
        for k, name in enumerate(ds.sensitive_names):
            assert report.p_percent[name] == p_percent_rule(predictions, z[:, k])
            assert report.cv_score[name] == cv_score(predictions, z[:, k])
            assert report.n_per_group[name] == (int(z[:, k].sum()), 50 - int(z[:, k].sum()))

    def test_json_round_trip(self):
        import json

        ds = self.make_dataset([0, 0, 1, 1])
        report = audit(np.array([-1.0, 1.0, 1.0, -1.0]), ds)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["covariance_per_column"]["z"] == pytest.approx(
            report.covariance_per_column["z"]
        )


class TestZeroCovarianceCorrespondence:
    def test_equal_group_rates_drive_covariance_down(self):
        # distances drawn with identical positive probability in both groups:
        # the empirical covariance shrinks at the 1/sqrt(N) rate
        rng = np.random.default_rng(123)
        n = 10_000
        z = rng.integers(0, 2, size=n)
        d = rng.normal(loc=0.3, scale=1.0, size=n)  # same law for both groups
        cov = boundary_covariance(z, d)
        assert abs(cov) <= 5.0 / np.sqrt(n)
