import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairclf.data import (
    Dataset,
    SplitPlan,
    append_bias,
    encode_sensitive,
    read_dataset_csv,
    split,
    standardize_columns,
    write_dataset_csv,
)

from oracles import loop_encode_sensitive


def make_dataset(n=6, d=2, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if labels.max() == labels.min():
        labels[0] = -labels[0]
    return Dataset(
        features=rng.normal(size=(n, d)),
        labels=labels,
        sensitive=(rng.random(n) < 0.5).astype(float).reshape(-1, 1),
        sensitive_names=("z",),
        feature_names=tuple(f"x{i}" for i in range(d)),
        **kwargs,
    )


class TestDatasetValidation:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(
                features=np.zeros((2, 1)),
                labels=np.array([0.0, 1.0]),
                sensitive=np.zeros((2, 1)),
                sensitive_names=("z",),
                feature_names=("x",),
            )

    def test_rejects_nonbinary_sensitive(self):
        with pytest.raises(ValueError, match="sensitive"):
            Dataset(
                features=np.zeros((2, 1)),
                labels=np.array([1.0, -1.0]),
                sensitive=np.array([[0.5], [1.0]]),
                sensitive_names=("z",),
                feature_names=("x",),
            )

    def test_rejects_name_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            Dataset(
                features=np.zeros((2, 1)),
                labels=np.array([1.0, -1.0]),
                sensitive=np.zeros((2, 1)),
                sensitive_names=("x",),
                feature_names=("x",),
            )

    def test_rejects_bias_flag_without_ones(self):
        with pytest.raises(ValueError, match="bias"):
            Dataset(
                features=np.zeros((2, 1)),
                labels=np.array([1.0, -1.0]),
                sensitive=np.zeros((2, 1)),
                sensitive_names=("z",),
                feature_names=("x",),
                has_bias_column=True,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, bad):
        good = make_dataset()
        features = np.array(good.features)
        features[3, 1] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            Dataset(features, good.labels, good.sensitive, good.sensitive_names, good.feature_names)

    def test_arrays_are_readonly(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0


class TestOwnedArrays:
    """A Dataset holds read-only arrays of its own; the library's constructors make one copy each."""

    @staticmethod
    def arrays(n=6):
        rng = np.random.default_rng(1)
        return rng.normal(size=(n, 2)), np.resize([1.0, -1.0], n), np.resize([0.0, 1.0], (n, 1))

    def test_caller_writes_do_not_reach_the_dataset(self):
        features, labels, sensitive = self.arrays()
        view = features[:]
        view.setflags(write=False)  # read-only, but not the owner of its data
        for given in (features, view):
            ds = Dataset(given, labels, sensitive, ("z",), ("x0", "x1"))
            kept = ds.features.copy(), ds.labels.copy(), ds.sensitive.copy()
            features[0, 0] += 1.0
            labels[0] = -labels[0]
            sensitive[0, 0] = 1.0 - sensitive[0, 0]
            for got, want in zip((ds.features, ds.labels, ds.sensitive), kept):
                np.testing.assert_array_equal(got, want)

    def test_owned_readonly_array_is_kept(self):
        features, labels, sensitive = self.arrays()
        features.setflags(write=False)
        assert Dataset(features, labels, sensitive, ("z",), ("x0", "x1")).features is features

    def test_rows_and_standardize_return_fresh_readonly_arrays(self):
        ds = make_dataset(n=4000, d=50, seed=4, scale_columns=(0, 1))
        index = np.arange(0, ds.n, 2)
        tracemalloc.start()
        try:
            sub = ds.rows(index)
            held, rows_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            scaled, _ = standardize_columns(sub)
            scaled_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        pairs = [(sub.features, ds.features), (sub.labels, ds.labels), (sub.sensitive, ds.sensitive)]
        for got, source in pairs + [(scaled.features, sub.features)]:
            assert not got.flags.writeable
            assert not np.shares_memory(got, source)
        # one new matrix each, not a second copy of it
        assert rows_peak < 1.5 * sub.features.nbytes
        assert scaled_peak < 1.5 * sub.features.nbytes


class TestAppendBias:
    def test_appends_ones_column(self):
        ds = Dataset(
            features=np.array([[3.0, 4.0], [5.0, 6.0]]),
            labels=np.array([1.0, -1.0]),
            sensitive=np.array([[1.0], [0.0]]),
            sensitive_names=("z",),
            feature_names=("a", "b"),
        )
        out = append_bias(ds)
        np.testing.assert_array_equal(out.features, [[3.0, 4.0, 1.0], [5.0, 6.0, 1.0]])
        assert out.has_bias_column
        np.testing.assert_array_equal(out.labels, ds.labels)
        np.testing.assert_array_equal(out.sensitive, ds.sensitive)

    def test_empty_feature_set(self):
        ds = Dataset(
            features=np.zeros((2, 0)),
            labels=np.array([1.0, -1.0]),
            sensitive=np.array([[1.0], [0.0]]),
            sensitive_names=("z",),
            feature_names=(),
        )
        out = append_bias(ds)
        np.testing.assert_array_equal(out.features, [[1.0], [1.0]])

    def test_double_append_rejected(self):
        ds = append_bias(make_dataset())
        with pytest.raises(ValueError, match="already"):
            append_bias(ds)


class TestEncodeSensitive:
    def test_binary_column(self):
        column, names = encode_sensitive(["F", "M", "F"], "sex")
        np.testing.assert_array_equal(column[:, 0], [0.0, 1.0, 0.0])
        assert names == ("sex=M",)

    def test_binary_explicit_positive(self):
        column, names = encode_sensitive(["F", "M", "F"], "sex", positive_value="F")
        np.testing.assert_array_equal(column[:, 0], [1.0, 0.0, 1.0])
        assert names == ("sex=F",)

    def test_polyvalent_one_hot(self):
        values = ["White", "Black", "Asian", "Other", "Amer-Indian", "White"]
        columns, names = encode_sensitive(values, "race")
        assert columns.shape == (6, 5)
        assert len(names) == 5
        np.testing.assert_array_equal(columns.sum(axis=1), np.ones(6))

    def test_constant_column_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            encode_sensitive(["a", "a", "a"], "attr")

    def test_explicit_positive_value_must_fit_the_column(self):
        column, names = encode_sensitive([2, 10, 10], "grade", positive_value=10)
        np.testing.assert_array_equal(column[:, 0], [0.0, 1.0, 1.0])
        assert names == ("grade=10",)
        with pytest.raises(ValueError, match="not among values"):
            encode_sensitive(["F", "M"], "sex", positive_value="X")
        with pytest.raises(ValueError, match="only applies to binary"):
            encode_sensitive(["a", "b", "c"], "attr", positive_value="a")

    @pytest.mark.parametrize(
        "values, positive_value",
        [
            (["F", "M", "F", "M", "M"], None),
            (["F", "M", "F", "M", "M"], "F"),
            (["b", "B", "a", "10", "9", "b"], None),
            ([3, 1, 2, 1, 3, 3], None),
        ],
    )
    def test_equals_loop_form(self, values, positive_value):
        fast = encode_sensitive(values, "attr", positive_value)
        slow = loop_encode_sensitive(values, "attr", positive_value)
        assert fast[0].dtype == slow[0].dtype and fast[0].shape == slow[0].shape
        assert fast[0].tobytes() == slow[0].tobytes()
        assert fast[1] == slow[1]

    def test_label_stable(self):
        values = ["b", "c", "a", "b"]
        first = encode_sensitive(values, "attr")
        second = encode_sensitive(list(values), "attr")
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1] == second[1]


class TestSplit:
    def test_sizes_and_disjointness(self):
        ds = make_dataset(n=10)
        train, test = split(ds, SplitPlan(train_fraction=0.7, repeats=1, seed=0), 0)
        assert train.n == 7 and test.n == 3

    def test_deterministic(self):
        ds = make_dataset(n=30)
        plan = SplitPlan(train_fraction=0.7, repeats=3, seed=5)
        a = split(ds, plan, 1)
        b = split(ds, plan, 1)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_repeats_differ(self):
        ds = make_dataset(n=30)
        plan = SplitPlan(train_fraction=0.7, repeats=3, seed=5)
        a = split(ds, plan, 0)
        b = split(ds, plan, 1)
        assert not np.array_equal(a[0].features, b[0].features)

    def test_out_of_range_repeat(self):
        ds = make_dataset(n=10)
        plan = SplitPlan(train_fraction=0.7, repeats=2, seed=0)
        with pytest.raises(ValueError, match="repeat_index"):
            split(ds, plan, 2)

    def test_commutes_with_append_bias(self):
        ds = make_dataset(n=25, seed=3)
        plan = SplitPlan(train_fraction=0.6, repeats=1, seed=11)
        plain_train, plain_test = split(ds, plan, 0)
        biased_train, biased_test = split(append_bias(ds), plan, 0)
        np.testing.assert_array_equal(plain_train.features, biased_train.features[:, :-1])
        np.testing.assert_array_equal(plain_test.labels, biased_test.labels)

    @given(
        n=st.integers(min_value=2, max_value=60),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_partition(self, n, fraction, seed):
        ds = make_dataset(n=n)
        train, test = split(ds, SplitPlan(train_fraction=fraction, repeats=1, seed=seed), 0)
        combined = np.vstack([train.features, test.features])
        assert combined.shape[0] == n
        original = {tuple(row) for row in ds.features}
        assert {tuple(row) for row in combined} == original
        assert not ({tuple(r) for r in train.features} & {tuple(r) for r in test.features})


class TestStandardize:
    def test_uses_train_statistics(self):
        ds = make_dataset(n=20, d=2, seed=2)
        ds = Dataset(
            features=ds.features * 5 + 3,
            labels=ds.labels,
            sensitive=ds.sensitive,
            sensitive_names=ds.sensitive_names,
            feature_names=ds.feature_names,
            scale_columns=(0, 1),
        )
        train, test = split(ds, SplitPlan(train_fraction=0.5, repeats=1, seed=0), 0)
        strain, stest = standardize_columns(train, test)
        np.testing.assert_allclose(strain.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(strain.features.std(axis=0), 1.0, atol=1e-12)
        # test statistics are left off-center: shifted with train moments
        assert abs(stest.features.mean()) > 1e-6

    def test_noop_without_scale_columns(self):
        ds = make_dataset(n=10)
        train, test = split(ds, SplitPlan(train_fraction=0.5, repeats=1, seed=0), 0)
        strain, stest = standardize_columns(train, test)
        np.testing.assert_array_equal(strain.features, train.features)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = append_bias(make_dataset(n=12, seed=4))
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        np.testing.assert_allclose(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.sensitive, ds.sensitive)
        assert back.sensitive_names == ds.sensitive_names
        assert back.has_bias_column

    def test_header_only_file_names_it(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x1,label,z\n")
        with pytest.raises(ValueError, match=f"{path}: no data rows"):
            read_dataset_csv(path)

    def test_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x1,label,z\n0.5,1,0\n\n1.5,-1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: expected 3 fields, got 2")):
            read_dataset_csv(path)

    def test_non_numeric_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("x1,label,z\n0.5,1,0\n1.5,yes,1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: non-numeric 'label' field 'yes'")):
            read_dataset_csv(path)

    def test_byte_identical_rewrites(self, tmp_path):
        ds = make_dataset(n=9, seed=8)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_dataset_csv(ds, first)
        write_dataset_csv(ds, second)
        assert first.read_bytes() == second.read_bytes()
