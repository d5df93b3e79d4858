"""The paper's experiments as shipped sweep configs: each one loads, is linted, and runs (or fails cleanly) via the CLI."""

import csv
import json
from pathlib import Path, PurePosixPath

import pytest

from fairclf.cli import cli_main
from fairclf.sweep import config_from_json

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "experiments").glob("**/*.json"))
SYNTHETIC = [p for p in CONFIGS if json.loads(p.read_text())["dataset"]["kind"] == "synthetic"]
REAL = [p for p in CONFIGS if p not in SYNTHETIC]


def _id(path: Path) -> str:
    return str(path.relative_to(ROOT / "experiments"))


def test_configs_are_shipped():
    assert SYNTHETIC and REAL


@pytest.mark.parametrize("path", CONFIGS, ids=_id)
def test_config_loads_and_is_linted(path):
    payload = json.loads(path.read_text())
    config = config_from_json(payload)
    output = PurePosixPath(config.output)
    # results/ and data/ are git-ignored, so running an experiment writes no tracked file
    assert output.parts[0] == "results" and len(output.parts) > 1
    assert output.name == path.stem
    if config.dataset["kind"] != "synthetic":
        assert PurePosixPath(config.dataset["path"]).parts[0] == "data"


def test_outputs_are_distinct():
    outputs = [json.loads(p.read_text())["output"] for p in CONFIGS]
    assert len(set(outputs)) == len(outputs)


def _edited(path: Path, tmp_path: Path, **sections) -> tuple[Path, dict]:
    """A copy of the config at ``path`` under ``tmp_path``, each named section updated with the given keys."""
    payload = json.loads(path.read_text())
    for key, values in sections.items():
        payload[key] = {**payload[key], **values}
    target = tmp_path / path.name
    target.write_text(json.dumps(payload))
    return target, payload


@pytest.mark.parametrize("path", SYNTHETIC, ids=_id)
def test_synthetic_experiment_runs(path, tmp_path):
    config_path, payload = _edited(path, tmp_path, dataset={"n": 300}, split={"repeats": 1})
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    with (out / "results.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(config_from_json(payload).grid)
    assert {row["status"] for row in rows} == {"converged"}


@pytest.mark.parametrize("path", REAL, ids=_id)
def test_real_experiment_without_data(path, tmp_path, capsys):
    missing = tmp_path / "data" / Path(json.loads(path.read_text())["dataset"]["path"]).name
    config_path, _ = _edited(path, tmp_path, dataset={"path": str(missing)})
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(config_path), "--out", str(out)]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()
