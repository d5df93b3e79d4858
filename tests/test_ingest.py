"""Loader tests on small fixture files replicating the UCI formats.

The fixtures reproduce the format quirks of the real files: the census data's
comma-space separation, "?" missing markers, the test portion's "|" header
line and trailing-period labels; the marketing data's semicolons and quoted
fields. Count assertions against the published full-file statistics live in
the acceptance suite and run when the real files are present.
"""

import json
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fairclf import ingest
from fairclf.ingest import load_adult, load_bank

from oracles import reference_load_adult, reference_load_bank

ADULT_ROW = (
    "{age}, {work}, 77516, Bachelors, 13, Never-married, Adm-clerical,"
    " Not-in-family, {race}, {sex}, 2174, 0, {hours}, United-States, {label}"
)


def row(label="<=50K", **fields) -> str:
    spec = {"age": 30, "work": "Private", "race": "White", "sex": "Male", "hours": 40, "label": label, **fields}
    return ADULT_ROW.format(**spec)


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

    def test_non_numeric_field_names_line_column_and_value(self, tmp_path):
        path = tmp_path / "bad.all"
        write_adult_fixture(path, adult_rows() + [row(age="x12")])
        # two header lines, then the eight fixture rows
        with pytest.raises(ValueError, match=re.escape(f"{path}:11: non-numeric age field 'x12'")):
            load_adult(path, "gender")

    def test_line_numbers_count_a_quoted_line_break(self, tmp_path):
        # the second record spans lines 2-3, so the bad duration sits on line 4
        path = tmp_path / "bad.csv"
        spanning = '24;"tech\nnician";"single";100;1;"no"'
        path.write_text("\n".join([BANK_HEADER, spanning, '30;"adm";"single";"x";1;"no"']) + "\n")
        for load in (load_bank, reference_load_bank):
            with pytest.raises(ValueError, match=re.escape(f"{path}:4: non-numeric duration field 'x'")):
                load(path)

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "bad.all"
        write_adult_fixture(path, adult_rows() + [row(label="50K-ish.")])
        with pytest.raises(ValueError, match=re.escape(f"{path}:11: unknown label token in the income column: '50K-ish'")):
            load_adult(path, "gender")

    def test_reads_a_pipe(self, tmp_path):
        # a pipe's size is unknown until it is read to the end
        path = tmp_path / "adult.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=write_adult_fixture, args=(path, adult_rows()))
        writer.start()
        try:
            _, report = load_adult(path, "gender")
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert report.rows_kept == 6

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.all"
        path.write_bytes("\n".join(adult_rows() + [row(work="Cura\xe7ao")]).encode("latin-1"))
        with pytest.raises(ValueError, match=re.escape(f"{path}:9: not UTF-8")):
            load_adult(path, "gender")


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

    def test_non_numeric_age_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([BANK_HEADER] + BANK_ROWS + ['"old";"adm";"single";1;1;"no"']) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:7: non-numeric age field 'old'")):
            load_bank(path)

    def test_non_numeric_duration_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([BANK_HEADER, BANK_ROWS[0], "", '30;"adm";"single";"x12";1;"no"']) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: non-numeric duration field 'x12'")):
            load_bank(path)

    def test_line_numbers_count_a_quoted_line_break(self, tmp_path):
        # the second record spans lines 2-3, so the bad duration sits on line 4
        path = tmp_path / "bad.csv"
        spanning = '24;"tech\nnician";"single";100;1;"no"'
        path.write_text("\n".join([BANK_HEADER, spanning, '30;"adm";"single";"x";1;"no"']) + "\n")
        for load in (load_bank, reference_load_bank):
            with pytest.raises(ValueError, match=re.escape(f"{path}:4: non-numeric duration field 'x'")):
                load(path)

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([BANK_HEADER] + BANK_ROWS + ['30;"adm";"single";1;1;"maybe"']) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:7: unknown label token in the y column: 'maybe'")):
            load_bank(path)

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("\n".join([BANK_HEADER, BANK_ROWS[0], '30;"m\xe9canicien";"single";1;1;"no"']).encode("latin-1"))
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: not UTF-8")):
            load_bank(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(BANK_HEADER + "\n" + '24;"technician";"single";100;1\n')
        with pytest.raises(ValueError, match="expected 6 fields"):
            load_bank(path)

    def test_empty_file_names_it(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=f"{path}: empty file"):
            load_bank(path)

    def test_report_json(self, bank_file):
        import json

        _, report = load_bank(bank_file)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["rows_kept"] == 5


# ---------------------------------------------------------------------------
# the loaders against their line-by-line form in ``oracles``


def assert_same_load(ours, reference):
    """Two (Dataset, IngestReport) pairs equal byte for byte."""
    fast, fast_report = ours
    slow, slow_report = reference
    for name in ("features", "labels", "sensitive"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags.c_contiguous == b.flags.c_contiguous, name
        assert a.tobytes() == b.tobytes(), name
    for name in ("feature_names", "sensitive_names", "scale_columns", "has_bias_column"):
        assert getattr(fast, name) == getattr(slow, name), name
    assert json.dumps(fast_report.to_json_dict()) == json.dumps(slow_report.to_json_dict())


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

    def test_adult(self, tmp_path):
        path = tmp_path / "adult.all"
        random_adult_file(path, 300, seed=5)
        for choice in ("gender", "race", "gender+race"):
            assert_same_load(load_adult(path, choice), reference_load_adult(path, choice))

    def test_bank(self, bank_file, tmp_path):
        assert_same_load(load_bank(bank_file), reference_load_bank(bank_file))
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
        assert_same_load(load_bank(path), reference_load_bank(path))


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


def census_lines(rows: int, seed: int, missing_every: int = 0) -> list[str]:
    """Rows of the census file's shape, every category present; with
    ``missing_every``, each such row's occupation is ``?``."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(rows):
        edu = int(rng.integers(len(EDUCATION)))
        occupation = "?" if missing_every and i % missing_every == 1 else rng.choice(OCCUPATION)
        lines.append(
            f"{rng.integers(17, 91)}, {rng.choice(WORKCLASS)}, {rng.integers(10_000, 900_000)}, "
            f"{EDUCATION[edu]}, {edu + 1}, {rng.choice(MARITAL)}, {occupation}, "
            f"{rng.choice(RELATIONSHIP)}, {rng.choice(RACE)}, {rng.choice(['Male', 'Female'])}, "
            f"{rng.integers(0, 5000)}, {rng.integers(0, 2000)}, {rng.integers(1, 100)}, "
            f"{COUNTRY[i % len(COUNTRY)]}, {rng.choice(['>50K', '<=50K.'])}"
        )
    return lines


def write_census_file(path, rows: int = 2000):
    write_adult_fixture(path, census_lines(rows, seed=8, missing_every=13))


# what the line-by-line parse does with line ends, whitespace, missing
# markers, labels, non-ASCII text and number syntax, in one file
EDGE_ADULT = (
    "  |1x3 Cross validator, with, commas\r\n"
    "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, Not-in-family,"
    " White, Male, 2174, 0, 40, United-States, <=50K\r\n"
    " \t  \r\n"
    "50,\tSelf-emp-not-inc ,  83311,Bachelors,13,Married-civ-spouse,Exec-managerial,"
    "Husband,White,Male,0,0,13,Cura\u00e7ao,>50K...\r"
    "\u3000\u2028\x0b\x1f\r"
    "38, a?b, 1_000, HS-grad, +5, Divorced, ??, Not-in-family, Black, Female, 1e3, 0, 40,"
    " \u00a0United-States\u00a0, <=50K.\n"
    "53,  ? , 234721, 11th, 7, Married-civ-spouse, Handlers-cleaners, Husband, Black, Male,"
    " 0, 0, 40, United-States, <=50K\n"
    "\t| a bar line after a tab\n"
    "28,\u2003Private\u2003,338409,Bachelors,13,Married-civ-spouse,Sales\x00,Wife,"
    "Asian-Pac-Islander,Female,0,0,40,Cuba,<=50K\n"
    "37, Private, 284582, Masters, 14, Married-civ-spouse, Sales, Wife, White, Female,"
    " 0, 0, 40, Outlying-US(Guam-USVI-etc), >50K\n"
    "\n"
    "49, \x85Private, 160187, 9th, 5, Married-spouse-absent, Other-service, Not-in-family,"
    " Black, Female, 0, 0, 16, Jamaica, <=50K\n"
    "31, Private, 45781, Masters, 14, Never-married, Prof-specialty, Not-in-family, White,"
    " Female, 14084, 0, 50, United-States, >50K..\r\n"
    "42, ?, 159449, Bachelors, 13, Married-civ-spouse, ?, Husband, White, Male, 5178, 0, 40,"
    " ?, >50K\n"
    "52, Self-emp-not-inc, 209642, HS-grad, 9, Married-civ-spouse, Exec-managerial, Husband,"
    " White, Male, 0, 0, 45, Cuba, >50K."
)


def write_edge_file(path):
    path.write_bytes(EDGE_ADULT.encode("utf-8"))


# files that each loader must reject with the line-by-line parse's message
BAD_ADULT = {
    "wrong_count_after_cr_lines": row() + "\r\n" + row(sex="Female") + "\r" + row() + "\n1, 2, 3\n",
    "every_row_missing": row(work="?") + "\n" + row(race=" ? ") + "\n",
    "empty": "",
    "only_blank_and_bar_lines": "  \n|x, y\n\r\n\u00a0\n",
    "unknown_label": row() + "\n" + row(sex="Female", label="50K-ish") + "\n",
    "space_before_label_periods": row() + "\n" + row(sex="Female", label=">50K .") + "\n",
    "non_numeric_age": row() + "\n\n" + row(sex="Female", age="x12") + "\n",
    "empty_age": row(sex="Female") + "\n" + row(age="") + "\n",
    "age_reported_before_fnlwgt": row().replace("77516", "7x") + "\n" + row(sex="Female", age="3o") + "\n",
    "label_reported_before_number": row(age="x") + "\n" + row(sex="Female", label="yes") + "\n",
    "first_of_two_bad_rows": row(age="z9") + "\n" + row(sex="Female", age="a1") + "\n",
    "constant_sex": row() + "\n" + row(race="Black") + "\n",
}


class TestAdultLineByLineReference:
    """``load_adult`` against ``oracles.reference_load_adult``, byte for byte."""

    @pytest.mark.parametrize("choice", ["gender", "race", "gender+race"])
    @pytest.mark.parametrize("write", [write_census_file, write_edge_file], ids=["census", "edge"])
    def test_equals_reference(self, tmp_path, write, choice):
        path = tmp_path / "adult.all"
        write(path)
        assert_same_load(load_adult(path, choice), reference_load_adult(path, choice))

    @pytest.mark.parametrize("pass_bytes", [1, 3, 16, 100])
    def test_pass_boundaries(self, tmp_path, monkeypatch, pass_bytes):
        # lines cut at every few bytes: CRLF pairs, multi-byte characters
        # and lines longer than a pass all straddle the cuts
        monkeypatch.setattr(ingest, "_PASS_BYTES", pass_bytes)
        for name, write in (("edge", write_edge_file), ("census", lambda p: write_census_file(p, 200))):
            path = tmp_path / name
            write(path)
            assert_same_load(load_adult(path, "gender"), reference_load_adult(path, "gender"))

    @pytest.mark.parametrize("pass_bytes", [5, ingest._PASS_BYTES])
    @pytest.mark.parametrize("name", sorted(BAD_ADULT))
    def test_errors_equal_reference(self, tmp_path, monkeypatch, name, pass_bytes):
        monkeypatch.setattr(ingest, "_PASS_BYTES", pass_bytes)
        path = tmp_path / "adult.all"
        path.write_bytes(BAD_ADULT[name].encode("utf-8"))
        with pytest.raises(ValueError) as reference:
            reference_load_adult(path, "gender")
        with pytest.raises(ValueError) as ours:
            load_adult(path, "gender")
        assert str(ours.value) == str(reference.value)


def test_whitespace_is_what_str_strip_removes():
    spaces = [c for c in range(sys.maxunicode + 1) if not chr(c).strip()]
    assert np.flatnonzero(ingest._ASCII_SPACE).tolist() == [c for c in spaces if c < 128]
    assert [ord(c) for c in ingest._UNICODE_SPACE] == [c for c in spaces if c >= 128]


def test_adult_ingest_peak_memory(tmp_path):
    # every category present gives the census file's d = 104 with sex
    # sensitive; the matrix is built once, so the loader's traced peak stays
    # within a small multiple of the matrix it returns
    path = tmp_path / "adult.all"
    write_adult_fixture(path, census_lines(4000, seed=7))
    tracemalloc.start()
    try:
        dataset, _ = load_adult(path, "gender")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dataset.features.shape == (4000, 104)
    assert peak <= 3.5 * dataset.features.nbytes
