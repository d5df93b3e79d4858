"""Seeded stand-in for the UCI Adult census file, in its exact 15-column layout.

The real files cannot be shipped or downloaded, so the census workload writes
this file and reads it back through ``fairclf.ingest.load_adult``. It keeps
what the loader and the fits depend on: the 48,842-row size of the combined
train and test portions, the real category lists and cardinalities (d = 104
after one-hot encoding with sex as the sensitive attribute), about 7% of rows
with a ``?`` field, the test portion's ``|`` header line and trailing-period
labels, and a sex-correlated label so that the covariance constraints bind.

Why this generator: a generator with skewed categories, rare countries and a
label from a latent score made the constrained fits ill-conditioned. There the
fairness (c=0) fit took 188 s and the fine-grained fit 615 s, both stopping at
the iteration cap, which no timed run can afford. Drawing every category
uniformly and the label from additive per-feature effects gives fits of a few
seconds each that the solver certifies.

Only the test portion depends on the seed. The fits' iteration counts swing
from one draw of the training rows to the next, by about a quarter of the run
time here and up to six-fold in the synthetic sweeps, which would drown any
change a benchmark run is meant to show. So the training portion is one fixed
draw, and the seed draws the held-out rows.
"""

from __future__ import annotations

import numpy as np

N_ROWS = 48_842
TEST_PORTION_START = 32_561  # adult.data rows; adult.test follows

WORKCLASS = [
    "Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
    "Local-gov", "State-gov", "Without-pay", "Never-worked",
]
EDUCATION = [  # ordered so that education-num is the index plus one
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

MALE_SHARE = 0.675
MISSING_SHARE = 0.074
EFFECT_SEED = 20150717  # fixed: the label model is the same for every seed
TRAIN_SEED = 1
INTERCEPT = -2.4


def _effects() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(EFFECT_SEED)
    return {
        name: rng.normal(0.0, 0.35, size=len(values))
        for name, values in (
            ("workclass", WORKCLASS), ("marital", MARITAL), ("occupation", OCCUPATION),
            ("race", RACE), ("country", COUNTRY),
        )
    }


def _rows(rng: np.random.Generator, n: int, test_portion: bool) -> tuple[list[str], int]:
    """n rows in the file's format, and how many of them have no ``?`` field."""
    effects = _effects()
    male = rng.random(n) < MALE_SHARE
    age = np.clip(np.round(17 + rng.gamma(4.0, 5.5, n)), 17, 90).astype(int)
    fnlwgt = np.round(np.exp(rng.normal(12.0, 0.5, n))).astype(int)
    edu = rng.integers(0, len(EDUCATION), n)
    work = rng.integers(0, len(WORKCLASS), n)
    marital = rng.integers(0, len(MARITAL), n)
    occ = rng.integers(0, len(OCCUPATION), n)
    race = rng.integers(0, len(RACE), n)
    country = rng.integers(0, len(COUNTRY), n)
    # Husband only for men and Wife only for women: the proxy through which
    # the boundary correlates with the excluded sex column
    rel = np.where(rng.random(n) < 0.5, rng.choice([1, 3, 4, 5], n), np.where(male, 2, 0))
    gain = np.where(rng.random(n) < 0.08, np.round(np.exp(rng.normal(8.5, 1.0, n))), 0).astype(int)
    loss = np.where(rng.random(n) < 0.05, np.round(rng.normal(1900, 300, n)), 0).astype(int)
    hours = np.clip(np.round(rng.normal(38 + 6 * male, 11)), 1, 99).astype(int)

    logit = (
        INTERCEPT
        + 0.9 * male
        + 0.25 * (edu - 8)
        + 0.04 * (np.minimum(age, 60) - 38)
        + 0.03 * (hours - 40)
        + 0.9 * np.isin(rel, (0, 2))
        + 1.5 * (gain > 0)
        + 0.6 * (loss > 0)
        + effects["workclass"][work]
        + effects["marital"][marital]
        + effects["occupation"][occ]
        + effects["race"][race]
        + effects["country"][country]
    )
    positive = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
    missing = rng.random(n) < MISSING_SHARE
    where = rng.integers(0, 3, n)  # workclass+occupation, occupation, native-country

    suffix = "." if test_portion else ""
    lines = []
    for i in range(n):
        w, o, c = WORKCLASS[work[i]], OCCUPATION[occ[i]], COUNTRY[country[i]]
        if missing[i]:
            if where[i] == 0:
                w = o = "?"
            elif where[i] == 1:
                o = "?"
            else:
                c = "?"
        label = (">50K" if positive[i] else "<=50K") + suffix
        lines.append(
            f"{age[i]}, {w}, {fnlwgt[i]}, {EDUCATION[edu[i]]}, {edu[i] + 1}, "
            f"{MARITAL[marital[i]]}, {o}, {RELATIONSHIP[rel[i]]}, {RACE[race[i]]}, "
            f"{'Male' if male[i] else 'Female'}, {gain[i]}, {loss[i]}, {hours[i]}, {c}, {label}"
        )
    return lines, int(n - missing.sum())


def write_adult(path, seed: int) -> int:
    """Write the file; returns how many training-portion rows the loader keeps.

    The training portion (the first 32,561 rows, as in ``adult.data``) is the
    same for every seed; ``seed`` draws only the test portion.
    """
    train, kept = _rows(np.random.default_rng([TRAIN_SEED, 1507]), TEST_PORTION_START, test_portion=False)
    test, _ = _rows(np.random.default_rng([seed, 1508]), N_ROWS - TEST_PORTION_START, test_portion=True)
    with open(path, "w") as fh:
        fh.write("\n".join(train + ["|1x3 Cross validator"] + test) + "\n")
    return kept
