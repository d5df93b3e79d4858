import json
import subprocess
import sys

import numpy as np
import pytest

from fairclf.cli import cli_main
from fairclf.data import append_bias, read_dataset_csv
from fairclf.models import (
    FitSpec,
    KernelSpec,
    decision_values,
    fit_kernel_svm_fair,
    fit_linear_svm_fair,
    fit_logreg,
    fit_logreg_fair,
    fit_logreg_fairness_max,
    fit_logreg_fine_grained,
    model_to_dict,
)

from test_ingest import BANK_HEADER, BANK_ROWS, adult_rows, write_adult_fixture


@pytest.fixture
def synth_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = cli_main(["gen", "--variant", "linear", "--phi", "0.7853981634", "--n", "80", "--seed", "1", "--out", str(path)])
    assert code == 0
    return path


class TestGen:
    def test_writes_expected_shape(self, synth_csv):
        lines = synth_csv.read_text().strip().splitlines()
        assert len(lines) == 81
        assert lines[0] == "x1,x2,label,z"

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            cli_main(["gen", "--variant", "linear", "--phi", "0.5", "--n", "40", "--seed", "7", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_phi_fails(self, tmp_path, capsys):
        code = cli_main(["gen", "--variant", "linear", "--phi", "3.5", "--n", "10", "--out", str(tmp_path / "x.csv")])
        assert code != 0
        assert "error" in capsys.readouterr().err


class TestIngestCommand:
    def test_adult_report(self, tmp_path, capsys):
        path = tmp_path / "adult.all"
        write_adult_fixture(path, adult_rows())
        code = cli_main(["ingest", "--adult", str(path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows_kept"] == 6
        assert payload["group_stats"]["sex=Female"]["positive"] == 2

    def test_bank_report(self, tmp_path, capsys):
        path = tmp_path / "bank.csv"
        path.write_text("\n".join([BANK_HEADER] + BANK_ROWS) + "\n")
        code = cli_main(["ingest", "--bank", str(path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["group_stats"]["age=25-60"]["total"] == 3

    def test_bank_without_age_names_file_and_column(self, tmp_path, capsys):
        path = tmp_path / "bank.csv"
        path.write_text('"job";"marital";"y"\n"admin.";"married";"no"\n"services";"single";"yes"\n')
        code = cli_main(["ingest", "--bank", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err
        assert "'age'" in err

    def test_missing_file(self, capsys):
        code = cli_main(["ingest", "--adult", "/nonexistent/adult.all"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestTrainAndAudit:
    def test_train_unconstrained(self, synth_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = cli_main(["train", "--data", str(synth_csv), "--mode", "unconstrained", "--out", str(model_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["train_accuracy"] > 0.5
        saved = json.loads(model_path.read_text())
        assert saved["kind"] == "linear"

    def test_train_fair_then_audit(self, synth_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = cli_main(
            ["train", "--data", str(synth_csv), "--mode", "fairness_constrained", "--c", "0", "--out", str(model_path)]
        )
        assert code == 0
        train_payload = json.loads(capsys.readouterr().out)
        assert abs(train_payload["train_audit"]["covariance_per_column"]["z"]) <= 1e-4

        code = cli_main(["audit", "--data", str(synth_csv), "--model", str(model_path)])
        assert code == 0
        audit_payload = json.loads(capsys.readouterr().out)
        assert audit_payload["p_percent"]["z"] >= train_payload["train_audit"]["p_percent"]["z"] - 1e-9

    def test_audit_distances_file(self, synth_csv, tmp_path, capsys):
        distances = tmp_path / "d.txt"
        distances.write_text("\n".join(["1.0"] * 40 + ["-1.0"] * 40) + "\n")
        code = cli_main(["audit", "--data", str(synth_csv), "--distances", str(distances)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "p_percent" in payload

    def test_missing_required_flag(self, synth_csv, tmp_path, capsys):
        code = cli_main(["train", "--data", str(synth_csv), "--mode", "fairness_constrained", "--out", str(tmp_path / "m.json")])
        assert code != 0

    def test_nan_gamma_fails(self, synth_csv, tmp_path, capsys):
        argv = ["train", "--data", str(synth_csv), "--mode", "accuracy_constrained", "--gamma", "nan"]
        code = cli_main(argv + ["--out", str(tmp_path / "m.json")])
        assert code != 0
        assert "gamma" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


def direct_fit(dataset, classifier, mode):
    """The model ``train`` should save, fitted by calling the public fit function directly."""
    if classifier != "logreg":
        thresholds = {"covariance_thresholds": 0.1} if mode == "fairness_constrained" else {}
        if classifier == "linear_svm":
            return fit_linear_svm_fair(dataset, FitSpec(mode=mode, svm_cost=1.0, **thresholds))
        return fit_kernel_svm_fair(dataset, FitSpec(mode=mode, svm_cost=1.0, kernel=KernelSpec(kind="rbf"), **thresholds))
    if mode == "unconstrained":
        return fit_logreg(dataset, FitSpec(mode=mode))
    if mode == "fairness_constrained":
        return fit_logreg_fair(dataset, FitSpec(mode=mode, covariance_thresholds=0.1))
    if mode == "accuracy_constrained":
        return fit_logreg_fairness_max(dataset, FitSpec(mode=mode, gamma=0.5))
    base = fit_logreg(dataset, FitSpec(mode="unconstrained"))
    protected = np.flatnonzero((decision_values(base, dataset.features) >= 0) & (dataset.sensitive[:, 0] == 1))
    spec = FitSpec(mode=mode, per_point_gammas=np.full(dataset.n, 0.5), protected_index_set=protected)
    return fit_logreg_fine_grained(dataset, spec)


MODE_FLAGS = {
    "unconstrained": [],
    "fairness_constrained": ["--c", "0.1"],
    "accuracy_constrained": ["--gamma", "0.5"],
    "fine_grained": ["--gamma", "0.5"],
}

TRAIN_PAIRS = [("logreg", mode) for mode in MODE_FLAGS] + [
    (classifier, mode)
    for classifier in ("linear_svm", "kernel_svm")
    for mode in ("unconstrained", "fairness_constrained")
]


class TestTrainDispatch:
    @pytest.mark.parametrize("classifier,mode", TRAIN_PAIRS)
    def test_saved_model_equals_direct_fit(self, synth_csv, tmp_path, capsys, classifier, mode):
        model_path = tmp_path / "model.json"
        argv = ["train", "--data", str(synth_csv), "--classifier", classifier, "--mode", mode]
        code = cli_main(argv + MODE_FLAGS[mode] + ["--out", str(model_path)])
        assert code == 0, capsys.readouterr().err
        expected = model_to_dict(direct_fit(append_bias(read_dataset_csv(synth_csv)), classifier, mode))
        assert json.loads(model_path.read_text()) == json.loads(json.dumps(expected))

    @pytest.mark.parametrize("classifier", ["linear_svm", "kernel_svm"])
    @pytest.mark.parametrize("mode", ["accuracy_constrained", "fine_grained"])
    def test_svm_gamma_mode_is_usage_error(self, synth_csv, tmp_path, capsys, classifier, mode):
        argv = ["train", "--data", str(synth_csv), "--classifier", classifier, "--mode", mode, "--gamma", "0.5"]
        code = cli_main(argv + ["--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"{classifier} supports unconstrained and fairness_constrained modes"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "mode,message",
        [
            ("fairness_constrained", "--c is required for fairness_constrained"),
            ("accuracy_constrained", "--gamma is required for accuracy_constrained"),
            ("fine_grained", "--gamma is required for fine_grained"),
        ],
    )
    def test_missing_threshold_is_usage_error(self, synth_csv, tmp_path, capsys, mode, message):
        code = cli_main(["train", "--data", str(synth_csv), "--mode", mode, "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.strip() == message


class TestSweepCommand:
    def config_payload(self, tmp_path):
        return {
            "dataset": {"kind": "synthetic", "variant": "linear", "phi": 0.7853981634, "n": 300, "seed": 2},
            "classifier": "logreg",
            "mode": "fairness_constrained",
            "a_factors": [1.0, 0.0],
            "split": {"train_fraction": 0.7, "repeats": 1, "seed": 0},
            "output": str(tmp_path / "results"),
        }

    def test_sweep_end_to_end(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.config_payload(tmp_path)))
        code = cli_main(["sweep", "--config", str(config)])
        assert code == 0
        out_dir = tmp_path / "results"
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "summary.json").exists()
        lines = (out_dir / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        summary = json.loads((out_dir / "summary.json").read_text())
        assert (summary["cells_uncertified"], summary["cells_failed"]) == (0, 0)
        assert "not certified" not in capsys.readouterr().err

    def test_uncertified_and_failed_cells_are_counted(self, tmp_path, capsys, monkeypatch):
        import fairclf.models
        from fairclf.solvers import SolverSettings

        original = fairclf.models.fit_logreg_fair

        def forced(train, spec, settings=None):
            c = spec.thresholds_for(train.n_sensitive)
            if not np.any(c):
                return original(train, spec, settings)
            if c[0] < 1e-3:
                raise RuntimeError("forced failure")
            return original(train, spec, SolverSettings(max_iterations=1))

        monkeypatch.setattr(fairclf.models, "fit_logreg_fair", forced)
        payload = self.config_payload(tmp_path)
        payload["a_factors"] = [1.0, 1e-6, 0.0]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        assert cli_main(["sweep", "--config", str(config)]) == 0
        out_dir = tmp_path / "results"
        summary = json.loads((out_dir / "summary.json").read_text())
        assert (summary["cells_uncertified"], summary["cells_failed"]) == (1, 1)
        assert capsys.readouterr().err.strip().splitlines() == ["2 of 3 cells not certified"]
        rows = (out_dir / "results.csv").read_text().splitlines()
        assert not any("cells_" in name for name in rows[0].split(","))
        assert [row.split(",")[rows[0].split(",").index("status")].split(":")[0] for row in rows[1:]] == [
            "max_iter",
            "error",
            "converged",
        ]

    def test_config_keys_reach_the_fits(self, tmp_path, monkeypatch):
        import fairclf.models

        specs = []
        original = fairclf.models.fit_logreg_fair

        def recording(train, spec, settings=None):
            specs.append(spec)
            return original(train, spec, settings)

        monkeypatch.setattr(fairclf.models, "fit_logreg_fair", recording)
        payload = self.config_payload(tmp_path)
        payload["l2_penalty"] = 0.1
        del payload["split"]["train_fraction"]  # an absent key takes SplitPlan's default
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        assert cli_main(["sweep", "--config", str(config)]) == 0
        assert specs and all(spec.l2_penalty == 0.1 for spec in specs)
        lines = (tmp_path / "results" / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        payload = self.config_payload(tmp_path)
        payload["l2"] = 0.1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        assert cli_main(["sweep", "--config", str(config)]) == 1
        assert capsys.readouterr().err.strip() == "error: unknown sweep config key(s): 'l2'"
        assert not (tmp_path / "results").exists()

    def test_flag_overrides_output(self, tmp_path):
        config = tmp_path / "config.json"
        payload = self.config_payload(tmp_path)
        del payload["output"]
        config.write_text(json.dumps(payload))
        out_dir = tmp_path / "other"
        code = cli_main(["sweep", "--config", str(config), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "results.csv").exists()

    def test_no_output_anywhere(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        payload = self.config_payload(tmp_path)
        del payload["output"]
        config.write_text(json.dumps(payload))
        code = cli_main(["sweep", "--config", str(config)])
        assert code != 0


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert cli_main(["frobnicate"]) != 0

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fairclf.cli", "gen", "--variant", "linear", "--phi", "0.5", "--n", "10", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fairclf.cli", "gen", "--unknown-flag"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0
        assert "usage" in proc.stderr.lower()
