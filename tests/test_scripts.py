"""Smoke runs of the experiment scripts, as subprocesses on the source tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env, timeout=300
    )


def test_synthetic_experiments(tmp_path):
    proc = run_script("run_synthetic_experiments.py", "--skip-kernel", "--repeats", "1", "--n", "300", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("fairness_lr_phi_pi4", "fairness_lr_phi_pi8", "gamma_lr", "fine_grained_lr"):
        lines = (tmp_path / name / "results.csv").read_text().splitlines()
        assert len(lines) > 1
    assert not (tmp_path / "fairness_rbf_svm").exists()


def test_real_experiments_without_data(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    proc = run_script("run_real_experiments.py", "--data-dir", str(data_dir), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    skipped = [line for line in proc.stdout.splitlines() if "skipping" in line]
    assert len(skipped) == 2
    assert not (tmp_path / "out").exists()
