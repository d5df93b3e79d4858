import csv
import json
import logging
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fairclf.cli import cli_main
from fairclf.data import SplitPlan, append_bias, read_dataset_csv, split, standardize_columns, write_dataset_csv
from fairclf.metrics import audit
from fairclf.models import FitSpec, decision_values, fit_logreg, fit_logreg_fair
from fairclf.sweep import ExperimentConfig, SweepResult, emit_results, load_dataset, run_sweep

from conftest import count_smooth_solves, count_theta_star_fits

SYNTH = {"kind": "synthetic", "variant": "linear", "phi": float(np.pi / 4), "n": 600, "seed": 4}


def fairness_config(**overrides):
    base = dict(
        dataset=SYNTH,
        classifier="logreg",
        mode="fairness_constrained",
        split=SplitPlan(train_fraction=0.7, repeats=2, seed=3),
        a_factors=(1.0, 0.5, 0.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_exactly_one_grid(self):
        with pytest.raises(ValueError, match="exactly one"):
            fairness_config(a_factors=(1.0,), gammas=(0.1,))
        with pytest.raises(ValueError, match="exactly one"):
            fairness_config(a_factors=None)

    def test_mode_grid_agreement(self):
        with pytest.raises(ValueError, match="gammas"):
            fairness_config(mode="accuracy_constrained")
        with pytest.raises(ValueError, match="a_factors or c_values"):
            fairness_config(a_factors=None, gammas=(0.1,))

    def test_gamma_modes_are_logreg_only(self):
        with pytest.raises(ValueError, match="logreg"):
            fairness_config(
                mode="accuracy_constrained", a_factors=None, gammas=(0.1,), classifier="linear_svm"
            )

    def test_unknown_mode_and_classifier_are_named(self):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            fairness_config(mode="bogus")
        with pytest.raises(ValueError, match="not 'forest'"):
            fairness_config(classifier="forest")


@pytest.fixture(scope="module")
def result():
    return run_sweep(fairness_config())


class TestRunSweep:
    def test_grid_times_repeats(self, result):
        assert len(result.cells) == 3 * 2
        assert all(not c.status.startswith("error") for c in result.cells)

    def test_baseline_cell_matches_unconstrained(self, result):
        # a = 1 means thresholds exactly at the baseline covariance: inactive
        for repeat, baseline in enumerate(result.baselines):
            cell = next(c for c in result.cells if c.cell_index == 0 and c.repeat == repeat)
            assert cell.train_loss == pytest.approx(baseline["loss_star"], rel=1e-6)

    def test_relative_loss_range(self, result):
        for cell in result.cells:
            assert -1e-6 <= cell.relative_loss <= 1.0 + 1e-6

    def test_tighter_threshold_lower_covariance(self, result):
        for repeat in range(2):
            covs = [
                abs(c.train_report.covariance_per_column["z"])
                for c in sorted(result.cells, key=lambda c: c.cell_index)
                if c.repeat == repeat
            ]
            assert covs[0] >= covs[1] - 1e-8
            assert covs[1] >= covs[2] - 1e-8

    def test_single_cell_sweep_equals_direct_fit(self):
        config = fairness_config(a_factors=(0.5,), split=SplitPlan(train_fraction=0.7, repeats=1, seed=3))
        result = run_sweep(config)
        cell = result.cells[0]
        dataset = append_bias(
            __import__("fairclf.synth", fromlist=["generate"]).generate(
                __import__("fairclf.synth", fromlist=["SynthConfig"]).SynthConfig(
                    n=600, phi=np.pi / 4, seed=4
                )
            )
        )
        train, test = split(dataset, config.split, 0)
        train, test = standardize_columns(train, test)
        c_star = np.asarray(result.baselines[0]["c_star"])
        direct = fit_logreg_fair(
            train, FitSpec(mode="fairness_constrained", covariance_thresholds=0.5 * c_star)
        )
        assert cell.train_loss == pytest.approx(direct.training_meta["objective"], rel=1e-9)
        direct_report = audit(decision_values(direct, train.features), train)
        assert cell.train_report.p_percent["z"] == pytest.approx(direct_report.p_percent["z"])

    def test_one_c0_fit_per_repeat(self, monkeypatch):
        calls = count_smooth_solves(monkeypatch)
        config = fairness_config()
        run_sweep(config)
        assert len(calls) == config.split.repeats * (1 + len(config.grid)) == 8

    def test_zero_cell_is_the_c0_fit(self, result):
        for repeat, baseline in enumerate(result.baselines):
            cell = next(c for c in result.cells if c.params == {"a": 0.0} and c.repeat == repeat)
            assert cell.train_loss == baseline["loss_zero"]
            assert cell.relative_loss == 1.0

    def test_failed_c0_fit_is_logged(self, monkeypatch, caplog):
        import fairclf.models

        original = fairclf.models.fit_logreg_fair

        def failing_at_zero(train, spec, settings=None):
            if not np.any(spec.thresholds_for(train.n_sensitive)):
                time.sleep(0.05)
                raise RuntimeError("no c=0 fit today")
            return original(train, spec, settings)

        monkeypatch.setattr(fairclf.models, "fit_logreg_fair", failing_at_zero)
        with caplog.at_level(logging.WARNING, logger="fairclf.sweep"):
            result = run_sweep(fairness_config())
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.name for r in warnings] == ["fairclf.sweep", "fairclf.sweep"]
        for repeat, record in enumerate(warnings):
            assert f"repeat {repeat}" in record.getMessage()
            assert "no c=0 fit today" in record.getMessage()
        assert all(b["loss_zero"] is None for b in result.baselines)
        for cell in result.cells:
            if cell.params == {"a": 0.0}:
                assert cell.status == "error: no c=0 fit today"
                assert cell.wall_time >= 0.05  # the failed c=0 fit's time counts in the a=0 cell
            else:
                assert not cell.status.startswith("error")
                assert np.isnan(cell.relative_loss)

    def test_each_model_is_scored_once_per_split(self, monkeypatch):
        import fairclf.models
        import fairclf.sweep

        scored = []
        original = fairclf.models.decision_values

        def counting(model, features):
            scored.append((model, len(features)))
            return original(model, features)

        for module in (fairclf.models, fairclf.sweep):
            monkeypatch.setattr(module, "decision_values", counting)
        config = fairness_config()
        run_sweep(config)
        per_model = {}
        for model, rows in scored:
            per_model.setdefault(id(model), []).append(rows)
        # a baseline and one model per grid cell in each repeat; the a=0
        # cell's model is the c=0 fit, scored once as that cell
        assert len(per_model) == config.split.repeats * (1 + len(config.grid))
        assert all(sorted(rows) == [180, 420] for rows in per_model.values())

    def test_failed_cell_recorded_not_fatal(self):
        config = fairness_config(a_factors=None, c_values=((0.5,), (-1.0,)))
        result = run_sweep(config)
        good = [c for c in result.cells if c.cell_index == 0]
        bad = [c for c in result.cells if c.cell_index == 1]
        assert all(not c.status.startswith("error") for c in good)
        assert all(c.status.startswith("error") for c in bad)
        assert all(np.isnan(c.train_loss) for c in bad)

    def test_gamma_sweep_first_cell(self):
        config = fairness_config(
            mode="accuracy_constrained",
            a_factors=None,
            gammas=(0.0, 0.5),
            split=SplitPlan(train_fraction=0.7, repeats=1, seed=3),
        )
        result = run_sweep(config)
        baseline = result.baselines[0]
        zero_cell = next(c for c in result.cells if c.cell_index == 0)
        assert zero_cell.train_loss <= baseline["loss_star"] * (1 + 1e-6)

    def test_gamma_sweep_fits_the_baseline_once(self, monkeypatch):
        baselines = count_theta_star_fits(monkeypatch)
        config = fairness_config(
            mode="accuracy_constrained",
            a_factors=None,
            gammas=(0.0, 0.5),
            split=SplitPlan(train_fraction=0.7, repeats=1, seed=3),
        )
        result = run_sweep(config)
        assert len(baselines) == 1  # the gamma fits read theta* from the record; gamma = 0 is the baseline
        zero_cell = next(c for c in result.cells if c.cell_index == 0)
        assert zero_cell.train_loss == result.baselines[0]["loss_star"]

    def test_fine_grained_sweep(self):
        config = fairness_config(
            mode="fine_grained",
            a_factors=None,
            gammas=(0.5,),
            split=SplitPlan(train_fraction=0.7, repeats=1, seed=3),
            protect_group=1,
        )
        result = run_sweep(config)
        assert result.cells[0].status in ("converged", "max_iter")
        assert result.cells[0].train_report is not None

    def test_fine_grained_train_loss_is_the_logistic_loss(self):
        # the fit's objective is the summed |covariance|; train_loss is the
        # loss, which no budget lets fall below the baseline's and which
        # gamma = 0 pins to it
        config = fairness_config(
            dataset=dict(SYNTH, n=400),
            mode="fine_grained",
            a_factors=None,
            gammas=(0.0, 0.5, 2.0),
            split=SplitPlan(train_fraction=0.7, repeats=1, seed=3),
        )
        result = run_sweep(config)
        loss_star = result.baselines[0]["loss_star"]
        for cell in result.cells:
            assert cell.train_loss >= loss_star * (1 - 1e-9)
        assert result.cells[0].train_loss == pytest.approx(loss_star, rel=1e-6)


class TestEmitResults:
    def test_files_written(self, result, tmp_path):
        written = emit_results(result, tmp_path)
        names = {p.name for p in written}
        assert "results.csv" in names
        assert "summary.json" in names
        assert "fig_cov_vs_relloss.csv" in names
        assert "fig_cov_vs_prule.csv" in names
        assert "fig_acc_vs_prule.csv" in names
        assert "fig_group_rates.csv" in names

    def test_csv_row_count(self, result, tmp_path):
        emit_results(result, tmp_path)
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 2  # header + grid x repeats

    def test_rerun_byte_identical(self, tmp_path):
        config = fairness_config()
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        emit_results(run_sweep(config), a_dir)
        emit_results(run_sweep(config), b_dir)
        assert (a_dir / "results.csv").read_bytes() == (b_dir / "results.csv").read_bytes()

    def test_summary_structure(self, result, tmp_path):
        emit_results(result, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mode"] == "fairness_constrained"
        assert len(summary["cells"]) == 3
        cell = summary["cells"][0]
        assert {"mean", "std"} <= set(cell["test_accuracy"])
        assert "train_z" in cell

    def test_empty_result_refused(self):
        config = fairness_config()
        empty = SweepResult(config=config, sensitive_names=("z",), cells=[], baselines=[])
        with pytest.raises(ValueError, match="empty"):
            emit_results(empty, "/tmp/should-not-exist")


def test_fine_grained_sweep_certifies_every_gamma():
    # experiments/synthetic/fine_grained_lr.json with 2 repeats. At
    # gamma=0 the budgets admit only the unconstrained optimum, a feasible
    # set with no strict interior, and the gamma=2 cell of the second repeat
    # reaches rho ~ 1e6: each certifies only when every subproblem is solved
    # to its gradient tolerance, past the rounding of the function's value
    config = ExperimentConfig(
        dataset={"kind": "synthetic", "variant": "linear", "phi": float(np.pi / 4), "n": 4000, "seed": 1},
        classifier="logreg",
        mode="fine_grained",
        split=SplitPlan(train_fraction=0.7, repeats=2, seed=1),
        gammas=(0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0),
        protect_group=1,
    )
    cells = run_sweep(config).cells
    assert len(cells) == 7 * 2
    uncertified = [(c.repeat, c.params) for c in cells if c.status != "converged"]
    assert not uncertified


def _gen_csv(path, n=300):
    """The CSV that ``fairclf gen`` writes: features, label and z, no bias column."""
    assert cli_main(["gen", "--variant", "linear", "--phi", "0.7853981634", "--n", str(n), "--seed", "4", "--out", str(path)]) == 0
    return path


def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCsvSource:
    def test_gen_csv_gets_its_bias_column(self, tmp_path):
        path = _gen_csv(tmp_path / "data.csv")
        plain = read_dataset_csv(path)
        assert not plain.has_bias_column
        dataset = load_dataset({"kind": "csv", "path": str(path)})
        assert dataset.has_bias_column and dataset.feature_names == plain.feature_names + ("bias",)
        np.testing.assert_array_equal(dataset.features, append_bias(plain).features)

    def test_csv_with_a_bias_column_keeps_it(self, tmp_path):
        path = tmp_path / "biased.csv"
        write_dataset_csv(append_bias(read_dataset_csv(_gen_csv(tmp_path / "data.csv"))), path)
        dataset = load_dataset({"kind": "csv", "path": str(path)})
        assert dataset.has_bias_column and dataset.feature_names == ("x1", "x2", "bias")
        np.testing.assert_array_equal(dataset.features, read_dataset_csv(path).features)

    def test_unknown_kind_is_named(self):
        with pytest.raises(ValueError, match="unknown dataset kind 'parquet'"):
            load_dataset({"kind": "parquet", "path": "data.parquet"})


def test_c_values_sweep_emits_one_column_per_threshold(tmp_path):
    # two sensitive columns, so each explicit threshold vector has two entries
    dataset = read_dataset_csv(_gen_csv(tmp_path / "data.csv"))
    w = np.random.default_rng(5).integers(0, 2, dataset.n).astype(float)
    two = replace(dataset, sensitive=np.column_stack([dataset.sensitive[:, 0], w]), sensitive_names=("z", "w"))
    write_dataset_csv(two, tmp_path / "two.csv")
    config = fairness_config(
        dataset={"kind": "csv", "path": str(tmp_path / "two.csv")},
        split=SplitPlan(train_fraction=0.7, repeats=1, seed=3),
        a_factors=None,
        c_values=((0.05, 0.3), 0.02, (0.0, 0.0)),
    )
    emit_results(run_sweep(config), tmp_path / "out")
    rows = _csv_rows(tmp_path / "out" / "results.csv")
    assert [(row["c_z"], row["c_w"]) for row in rows] == [("0.05", "0.3"), ("0.02", "0.02"), ("0", "0")]
    assert not {"a", "c", "gamma"} & set(rows[0])
    assert all(row["status"] == "converged" for row in rows)
    figures = sorted((tmp_path / "out").glob("fig_*.csv"))
    assert len(figures) == 4
    for figure in figures:
        series = _csv_rows(figure)
        assert [entry["c"] for entry in series] == ["0.05", "0.02", "0"], figure.name


class TestFailurePaths:
    config = dict(split=SplitPlan(train_fraction=0.7, repeats=1, seed=3), a_factors=(1.0, 0.5, 0.0))

    def test_failed_baseline_stops_the_sweep(self, monkeypatch):
        import fairclf.models

        def refuse(train, spec, settings=None):
            raise RuntimeError("no baseline")

        monkeypatch.setattr(fairclf.models, "fit_logreg", refuse)
        with pytest.raises(RuntimeError, match="no baseline"):
            run_sweep(fairness_config(**self.config))

    def test_cell_whose_audit_raises_is_recorded(self, monkeypatch):
        # the audit refuses the repeat's c=0 model, which only the a=0 cell scores
        import fairclf.metrics
        import fairclf.models

        zero, original_fit, original_audit = [], fairclf.models.fit_logreg_fair, fairclf.metrics.audit

        def fit_and_keep_zero(train, spec, settings=None):
            model = original_fit(train, spec, settings)
            if not np.any(spec.thresholds_for(train.n_sensitive)):
                zero.append(model)
            return model

        def refuse_zero(distances, dataset):
            if zero and np.array_equal(distances, decision_values(zero[0], dataset.features)):
                raise ValueError("forced audit failure")
            return original_audit(distances, dataset)

        monkeypatch.setattr(fairclf.models, "fit_logreg_fair", fit_and_keep_zero)
        monkeypatch.setattr(fairclf.metrics, "audit", refuse_zero)
        result = run_sweep(fairness_config(**self.config))
        assert [cell.status for cell in result.cells] == ["converged", "converged", "error: forced audit failure"]
        failed = result.cells[-1]
        assert failed.train_report is None and failed.test_report is None
        fields = (failed.train_accuracy, failed.test_accuracy, failed.train_loss, failed.relative_loss)
        assert all(math.isnan(value) for value in fields)
        assert (result.cells_failed, result.cells_uncertified) == (1, 0)
        assert result.baselines[0]["loss_zero"] is not None  # the c=0 fit itself succeeded

    def test_relative_loss_is_zero_without_a_conflict(self, monkeypatch):
        # a c=0 fit whose loss does not exceed L* leaves nothing to normalise by
        import fairclf.models

        original = fairclf.models.fit_logreg_fair

        def unconstrained_at_zero(train, spec, settings=None):
            if np.any(spec.thresholds_for(train.n_sensitive)):
                return original(train, spec, settings)
            return fit_logreg(train, FitSpec(mode="unconstrained"))

        monkeypatch.setattr(fairclf.models, "fit_logreg_fair", unconstrained_at_zero)
        result = run_sweep(fairness_config(**self.config))
        baseline = result.baselines[0]
        assert baseline["loss_zero"] == baseline["loss_star"]
        assert [cell.relative_loss for cell in result.cells] == [0.0, 0.0, 0.0]
        assert all(cell.status == "converged" for cell in result.cells)
