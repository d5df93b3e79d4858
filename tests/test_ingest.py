"""Loader tests on small fixture files replicating the UCI formats.

The fixtures reproduce the format quirks of the real files: the census data's
comma-space separation, "?" missing markers, the test portion's "|" header
line and trailing-period labels; the marketing data's semicolons and quoted
fields. Count assertions against the published full-file statistics live in
the acceptance suite and run when the real files are present.
"""

import tracemalloc

import numpy as np
import pytest

from fairclf import ingest
from fairclf.data import Dataset, append_bias
from fairclf.ingest import IngestReport, load_adult, load_bank

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


# ---------------------------------------------------------------------------
# an independent reference for the loaders' shared pipeline: every categorical
# column compared with each of its values, blocks stacked, then append_bias


def loop_encode_sensitive(raw, name, positive_value=None):
    """``encode_sensitive`` as one pass over the rows per distinct value."""
    values = [str(v) for v in raw]
    distinct = sorted(set(values))
    if len(distinct) < 2:
        raise ValueError(f"sensitive column {name!r} is constant; encoding would be vacuous")
    if len(distinct) == 2:
        if positive_value is not None:
            pos = str(positive_value)
            if pos not in distinct:
                raise ValueError(f"positive_value {pos!r} not among values {distinct}")
        else:
            pos = distinct[1]
        column = np.array([1.0 if v == pos else 0.0 for v in values])
        return column.reshape(-1, 1), (f"{name}={pos}",)
    if positive_value is not None:
        raise ValueError("positive_value only applies to binary attributes")
    columns = np.zeros((len(values), len(distinct)))
    for j, val in enumerate(distinct):
        columns[:, j] = [1.0 if v == val else 0.0 for v in values]
    return columns, tuple(f"{name}={val}" for val in distinct)


def loop_labels(path, tokens, positive, negative):
    labels = np.empty(len(tokens))
    for i, token in enumerate(tokens):
        if token == positive:
            labels[i] = 1.0
        elif token == negative:
            labels[i] = -1.0
        else:
            raise ValueError(f"{path}: unknown label token {token!r}")
    return labels


def loop_group_stats(groups, labels):
    stats = {}
    for column, values in groups.items():
        arr = np.asarray(values)
        for value in sorted(set(values)):
            mask = arr == value
            positive = int(np.sum(labels[mask] == 1))
            stats[f"{column}={value}"] = {
                "total": int(mask.sum()),
                "positive": positive,
                "negative": int(mask.sum()) - positive,
            }
    return stats


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


def reference_dataset(columns, numeric, labels, sensitive, sensitive_names, groups, rows_dropped):
    """``ingest._dataset`` as stacked blocks, a ``Dataset`` without bias, then ``append_bias``."""
    numbers = {c: [float(v) for v in columns[c]] for c in numeric}
    categorical = {c: values for c, values in columns.items() if c not in numeric}
    features, names, scale_columns = per_value_features(numbers, categorical)
    dataset = Dataset(
        features=features,
        labels=labels,
        sensitive=sensitive,
        sensitive_names=sensitive_names,
        feature_names=names,
        scale_columns=scale_columns,
    )
    report = IngestReport(
        rows_read=len(labels) + rows_dropped,
        rows_dropped_missing=rows_dropped,
        rows_kept=len(labels),
        label_positive=int(np.sum(labels == 1)),
        label_negative=int(np.sum(labels == -1)),
        group_stats=loop_group_stats(groups, labels),
    )
    return append_bias(dataset), report


def random_adult_file(path, rows: int, seed: int):
    """The fixture rows plus random ones whose values sort differently from
    their first appearance and from case-folded order."""
    rng = np.random.default_rng(seed)
    works = ["State-gov", "Private", "b-gov", "B-gov", "10", "9", "Self-emp"]
    lines = [
        ADULT_ROW.format(
            age=int(rng.integers(17, 90)),
            work=works[rng.integers(len(works))],
            race=["White", "Black", "Other", "black"][rng.integers(4)],
            sex=["Male", "Female"][rng.integers(2)],
            hours=int(rng.integers(1, 99)),
            label=[">50K", "<=50K."][rng.integers(2)],
        )
        for _ in range(rows)
    ]
    write_adult_fixture(path, adult_rows() + lines)


class TestOneHotAssembly:
    """The loaders' output equals the stacked per-value reference byte for byte."""

    @staticmethod
    def assert_same_as_reference(monkeypatch, load):
        fast, fast_report = load()
        monkeypatch.setattr(ingest, "_dataset", reference_dataset)
        monkeypatch.setattr(ingest, "_labels", loop_labels)
        monkeypatch.setattr(ingest, "encode_sensitive", loop_encode_sensitive)
        slow, slow_report = load()
        monkeypatch.undo()
        for name in ("features", "labels", "sensitive"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.flags.c_contiguous == b.flags.c_contiguous, name
            assert a.tobytes() == b.tobytes(), name
        for name in ("feature_names", "sensitive_names", "scale_columns", "has_bias_column"):
            assert getattr(fast, name) == getattr(slow, name), name
        assert fast_report.to_json_dict() == slow_report.to_json_dict()

    def test_adult(self, tmp_path, monkeypatch):
        path = tmp_path / "adult.all"
        random_adult_file(path, 300, seed=5)
        for choice in ("gender", "race", "gender+race"):
            self.assert_same_as_reference(monkeypatch, lambda: load_adult(path, choice))

    def test_bank(self, bank_file, tmp_path, monkeypatch):
        self.assert_same_as_reference(monkeypatch, lambda: load_bank(bank_file))
        rng = np.random.default_rng(6)
        jobs = ["technician", "Services", "admin.", "b", "B", "10", "9"]
        rows = [
            f'{int(rng.integers(18, 90))};"{jobs[rng.integers(len(jobs))]}";'
            f'"{["single", "married", "Divorced"][rng.integers(3)]}";{int(rng.integers(1, 900))};'
            f'{int(rng.integers(1, 9))};"{["yes", "no"][rng.integers(2)]}"'
            for _ in range(200)
        ]
        path = tmp_path / "bank.csv"
        path.write_text("\n".join([BANK_HEADER] + rows) + "\n")
        self.assert_same_as_reference(monkeypatch, lambda: load_bank(path))


# the census file's category lists (UCI Adult), for a fixture of its shape
WORKCLASS = [
    "Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
    "Local-gov", "State-gov", "Without-pay", "Never-worked",
]
EDUCATION = [
    "Preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th", "11th", "12th",
    "HS-grad", "Some-college", "Assoc-voc", "Assoc-acdm", "Bachelors",
    "Masters", "Prof-school", "Doctorate",
]
MARITAL = [
    "Married-civ-spouse", "Divorced", "Never-married", "Separated", "Widowed",
    "Married-spouse-absent", "Married-AF-spouse",
]
OCCUPATION = [
    "Tech-support", "Craft-repair", "Other-service", "Sales", "Exec-managerial",
    "Prof-specialty", "Handlers-cleaners", "Machine-op-inspct", "Adm-clerical",
    "Farming-fishing", "Transport-moving", "Priv-house-serv", "Protective-serv",
    "Armed-Forces",
]
RELATIONSHIP = ["Wife", "Own-child", "Husband", "Not-in-family", "Other-relative", "Unmarried"]
RACE = ["White", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other", "Black"]
COUNTRY = [
    "United-States", "Cambodia", "England", "Puerto-Rico", "Canada", "Germany",
    "Outlying-US(Guam-USVI-etc)", "India", "Japan", "Greece", "South", "China",
    "Cuba", "Iran", "Honduras", "Philippines", "Italy", "Poland", "Jamaica",
    "Vietnam", "Mexico", "Portugal", "Ireland", "France", "Dominican-Republic",
    "Laos", "Ecuador", "Taiwan", "Haiti", "Columbia", "Hungary", "Guatemala",
    "Nicaragua", "Scotland", "Thailand", "Yugoslavia", "El-Salvador",
    "Trinadad&Tobago", "Peru", "Hong", "Holand-Netherlands",
]


def test_adult_ingest_peak_memory(tmp_path):
    # every category present gives the census file's d = 104 with sex
    # sensitive; the matrix is built once, so the loader's traced peak stays
    # within a small multiple of the matrix it returns
    rng = np.random.default_rng(7)
    lines = []
    for i in range(4000):
        edu = int(rng.integers(len(EDUCATION)))
        lines.append(
            f"{rng.integers(17, 91)}, {rng.choice(WORKCLASS)}, {rng.integers(10_000, 900_000)}, "
            f"{EDUCATION[edu]}, {edu + 1}, {rng.choice(MARITAL)}, {rng.choice(OCCUPATION)}, "
            f"{rng.choice(RELATIONSHIP)}, {rng.choice(RACE)}, {rng.choice(['Male', 'Female'])}, "
            f"{rng.integers(0, 5000)}, {rng.integers(0, 2000)}, {rng.integers(1, 100)}, "
            f"{COUNTRY[i % len(COUNTRY)]}, {rng.choice(['>50K', '<=50K.'])}"
        )
    path = tmp_path / "adult.all"
    write_adult_fixture(path, lines)
    tracemalloc.start()
    try:
        dataset, _ = load_adult(path, "gender")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dataset.features.shape == (4000, 104)
    assert peak <= 3.5 * dataset.features.nbytes
