"""Loader tests on small fixture files replicating the UCI formats.

The fixtures reproduce the format quirks of the real files: the census data's
comma-space separation, "?" missing markers, the test portion's "|" header
line and trailing-period labels; the marketing data's semicolons and quoted
fields. Count assertions against the published full-file statistics live in
the acceptance suite and run when the real files are present.
"""

import numpy as np
import pytest

from fairclf import ingest
from fairclf.ingest import load_adult, load_bank

ADULT_ROW = (
    "{age}, {work}, 77516, Bachelors, 13, Never-married, Adm-clerical,"
    " Not-in-family, {race}, {sex}, 2174, 0, {hours}, United-States, {label}"
)


def write_adult_fixture(path, rows):
    lines = ["|1x3 Cross validator", ""]
    lines += rows
    path.write_text("\n".join(lines) + "\n")


def adult_rows():
    spec = [
        # (age, work, race, sex, hours, label)
        (39, "State-gov", "White", "Male", 40, ">50K"),
        (50, "Private", "White", "Female", 13, "<=50K"),
        (38, "Private", "Black", "Male", 40, "<=50K"),
        (53, "Private", "Black", "Female", 40, ">50K."),
        (28, "Private", "White", "Male", 40, "<=50K."),
        (37, "Private", "Asian-Pac-Islander", "Female", 40, ">50K"),
        (45, "?", "White", "Male", 40, "<=50K"),  # dropped: missing workclass
        (22, "Private", "?", "Female", 20, "<=50K"),  # dropped: missing race
    ]
    return [
        ADULT_ROW.format(age=a, work=w, race=r, sex=s, hours=h, label=l)
        for a, w, r, s, h, l in spec
    ]


@pytest.fixture
def adult_file(tmp_path):
    path = tmp_path / "adult.all"
    write_adult_fixture(path, adult_rows())
    return path


BANK_HEADER = '"age";"job";"marital";"duration";"campaign";"y"'
BANK_ROWS = [
    '24;"technician";"single";100;1;"no"',
    '25;"services";"married";200;2;"yes"',
    '60;"admin.";"married";150;1;"no"',
    '61;"retired";"divorced";50;3;"yes"',
    '40;"technician";"single";300;2;"no"',
]


@pytest.fixture
def bank_file(tmp_path):
    path = tmp_path / "bank.csv"
    path.write_text("\n".join([BANK_HEADER] + BANK_ROWS) + "\n")
    return path


class TestLoadAdult:
    def test_row_accounting(self, adult_file):
        _, report = load_adult(adult_file, "gender")
        assert report.rows_read == 8
        assert report.rows_dropped_missing == 2
        assert report.rows_kept == 6
        assert report.rows_read == report.rows_kept + report.rows_dropped_missing

    def test_labels_and_trailing_periods(self, adult_file):
        dataset, report = load_adult(adult_file, "gender")
        assert report.label_positive == 3
        assert report.label_negative == 3
        np.testing.assert_array_equal(dataset.labels, [1.0, -1.0, -1.0, 1.0, -1.0, 1.0])

    def test_gender_sensitive_column(self, adult_file):
        dataset, _ = load_adult(adult_file, "gender")
        assert dataset.sensitive_names == ("sex=Male",)
        np.testing.assert_array_equal(dataset.sensitive[:, 0], [1, 0, 1, 0, 1, 0])
        assert not any(name.startswith("sex=") for name in dataset.feature_names)
        assert any(name.startswith("race=") for name in dataset.feature_names)

    def test_race_sensitive_one_hot(self, adult_file):
        dataset, _ = load_adult(adult_file, "race")
        assert dataset.sensitive_names == ("race=Asian-Pac-Islander", "race=Black", "race=White")
        np.testing.assert_array_equal(dataset.sensitive.sum(axis=1), np.ones(6))
        assert any(name.startswith("sex=") for name in dataset.feature_names)

    def test_gender_plus_race(self, adult_file):
        dataset, _ = load_adult(adult_file, "gender+race")
        assert dataset.n_sensitive == 4
        assert not any(name.startswith(("sex=", "race=")) for name in dataset.feature_names)

    def test_group_stats(self, adult_file):
        _, report = load_adult(adult_file, "gender")
        assert report.group_stats["sex=Male"] == {"total": 3, "positive": 1, "negative": 2}
        assert report.group_stats["sex=Female"] == {"total": 3, "positive": 2, "negative": 1}
        assert report.group_stats["race=Black"] == {"total": 2, "positive": 1, "negative": 1}

    def test_numeric_standardization_and_bias(self, adult_file):
        dataset, _ = load_adult(adult_file, "gender")
        assert dataset.has_bias_column
        age = dataset.features[:, dataset.feature_names.index("age")]
        assert age.mean() == pytest.approx(0.0, abs=1e-12)
        assert age.std() == pytest.approx(1.0, abs=1e-12)
        assert dataset.scale_columns == tuple(range(6))

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.all"
        write_adult_fixture(path, adult_rows() + ["1, 2, 3"])
        with pytest.raises(ValueError, match="expected 15 fields"):
            load_adult(path, "gender")

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "bad.all"
        row = ADULT_ROW.format(age=30, work="Private", race="White", sex="Male", hours=40, label="50K-ish")
        write_adult_fixture(path, adult_rows() + [row])
        with pytest.raises(ValueError, match="unknown label"):
            load_adult(path, "gender")

    def test_bad_sensitive_choice(self, adult_file):
        with pytest.raises(ValueError, match="sensitive_choice"):
            load_adult(adult_file, "age")


class TestLoadBank:
    def test_age_discretization_inclusive(self, bank_file):
        dataset, _ = load_bank(bank_file)
        np.testing.assert_array_equal(dataset.sensitive[:, 0], [0, 1, 1, 0, 1])
        assert dataset.sensitive_names == ("age=25-60",)

    def test_raw_age_excluded_from_features(self, bank_file):
        dataset, _ = load_bank(bank_file)
        assert "age" not in dataset.feature_names
        assert "duration" in dataset.feature_names

    def test_labels(self, bank_file):
        dataset, report = load_bank(bank_file)
        np.testing.assert_array_equal(dataset.labels, [-1, 1, -1, 1, -1])
        assert report.label_positive == 2

    def test_group_stats(self, bank_file):
        _, report = load_bank(bank_file)
        assert report.group_stats["age=25-60"] == {"total": 3, "positive": 1, "negative": 2}
        assert report.group_stats["age=other"] == {"total": 2, "positive": 1, "negative": 1}

    def test_no_rows_dropped(self, bank_file):
        _, report = load_bank(bank_file)
        assert report.rows_dropped_missing == 0
        assert report.rows_read == report.rows_kept == 5

    def test_non_numeric_age(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(BANK_HEADER + "\n" + '"old";"adm";"single";1;1;"no"\n')
        with pytest.raises(ValueError, match="non-numeric age"):
            load_bank(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(BANK_HEADER + "\n" + '24;"technician";"single";100;1\n')
        with pytest.raises(ValueError, match="expected 6 fields"):
            load_bank(path)

    def test_report_json(self, bank_file):
        import json

        _, report = load_bank(bank_file)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["rows_kept"] == 5


def per_value_features(numeric, categorical):
    """The one-hot assembly as one comparison of the whole column per distinct value."""
    blocks, names = [], []
    for column, values in numeric.items():
        arr = np.asarray(values, dtype=float)
        sd = arr.std()
        blocks.append(((arr - arr.mean()) / (sd if sd > 0 else 1.0)).reshape(-1, 1))
        names.append(column)
    for column, values in categorical.items():
        distinct = sorted(set(values))
        arr = np.asarray(values)
        onehot = np.zeros((len(values), len(distinct)))
        for j, val in enumerate(distinct):
            onehot[:, j] = arr == val
        blocks.append(onehot)
        names.extend(f"{column}={val}" for val in distinct)
    return np.hstack(blocks), tuple(names), tuple(range(len(numeric)))


class TestOneHotAssembly:
    """The loaders' features equal the per-value one-hot form byte for byte."""

    @staticmethod
    def assert_same_as_per_value(monkeypatch, load):
        fast = load()[0]
        monkeypatch.setattr(ingest, "_assemble_features", per_value_features)
        slow = load()[0]
        assert fast.features.tobytes() == slow.features.tobytes()
        assert fast.feature_names == slow.feature_names

    def test_adult(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        # values whose sorted order differs from first appearance and from case-folded order
        works = ["State-gov", "Private", "b-gov", "B-gov", "10", "9", "Self-emp"]
        rows = [
            ADULT_ROW.format(
                age=int(rng.integers(17, 90)),
                work=works[rng.integers(len(works))],
                race=["White", "Black", "Other"][rng.integers(3)],
                sex=["Male", "Female"][rng.integers(2)],
                hours=int(rng.integers(1, 99)),
                label=[">50K", "<=50K."][rng.integers(2)],
            )
            for _ in range(300)
        ]
        path = tmp_path / "adult.all"
        write_adult_fixture(path, adult_rows() + rows)
        for choice in ("gender", "race", "gender+race"):
            self.assert_same_as_per_value(monkeypatch, lambda: load_adult(path, choice))
            monkeypatch.undo()

    def test_bank(self, bank_file, monkeypatch):
        self.assert_same_as_per_value(monkeypatch, lambda: load_bank(bank_file))
