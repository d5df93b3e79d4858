"""Experiment harness: repeated splits, threshold/gamma grids, result emission.

A sweep fits one unconstrained baseline per repeat, derives the per-attribute
covariance scale c*_k and the baseline loss from it, then fits one model per
grid cell: either covariance thresholds c = a * c* (or explicit threshold
vectors) or loss-budget factors gamma. Accuracy is reported on the held-out
rows, constraint satisfaction and the fairness audit on the training rows as
well, and the relative loss of a fairness sweep is normalized between the
baseline loss and the loss of the fully constrained (c = 0) fit. That fit is
made once per repeat; a grid cell whose thresholds are all zero reuses it.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Literal

import numpy as np

from .data import Dataset, SplitPlan, append_bias, read_dataset_csv, split, standardize_columns
from .ingest import load_adult, load_bank
from .metrics import FairnessReport, audit
from .models import FitSpec, KernelModel, KernelSpec, LinearModel, decision_values, fit, protected_rows

__all__ = ["CellResult", "ExperimentConfig", "SweepResult", "config_from_json", "emit_results", "grid_spec", "run_sweep"]

log = logging.getLogger(__name__)

Classifier = Literal["logreg", "linear_svm", "kernel_svm"]
SweepMode = Literal["fairness_constrained", "accuracy_constrained", "fine_grained"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One declarative experiment: dataset source, classifier, mode and grid.

    Exactly one of ``a_factors`` (thresholds c = a * c*), ``c_values``
    (explicit threshold vectors) or ``gammas`` must be populated, matching the
    mode. ``protect_group`` selects which sensitive value (of the first
    sensitive column) receives the hard non-flip constraints in fine-grained
    sweeps; the protected rows are those of that group that the baseline
    classifies as positive.
    """

    dataset: dict
    classifier: Classifier
    mode: SweepMode
    split: SplitPlan
    a_factors: tuple[float, ...] | None = None
    c_values: tuple | None = None
    gammas: tuple[float, ...] | None = None
    svm_cost: float = 1.0
    kernel: KernelSpec | None = None
    l2_penalty: float = 0.0
    protect_group: int = 1
    output: str | None = None

    def __post_init__(self):
        grids = [g for g in (self.a_factors, self.c_values, self.gammas) if g]
        if len(grids) != 1:
            raise ValueError("exactly one non-empty grid (a_factors, c_values or gammas) is required")
        if self.mode == "fairness_constrained" and self.gammas:
            raise ValueError("fairness_constrained sweeps take a_factors or c_values, not gammas")
        if self.mode in ("accuracy_constrained", "fine_grained"):
            if not self.gammas:
                raise ValueError(f"{self.mode} sweeps take a gammas grid")
            if self.classifier != "logreg":
                raise ValueError(f"{self.mode} sweeps are defined for the logreg classifier")
        if self.protect_group not in (0, 1):
            raise ValueError("protect_group must be 0 or 1")

    @property
    def grid(self) -> list[dict]:
        if self.a_factors:
            return [{"a": float(a)} for a in self.a_factors]
        if self.c_values:
            return [{"c": [float(v) for v in np.atleast_1d(c)]} for c in self.c_values]
        return [{"gamma": float(g)} for g in self.gammas]


@dataclass(frozen=True)
class CellResult:
    cell_index: int
    repeat: int
    params: dict
    status: str
    train_accuracy: float
    test_accuracy: float
    train_loss: float
    relative_loss: float
    train_report: FairnessReport | None
    test_report: FairnessReport | None
    wall_time: float


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    sensitive_names: tuple[str, ...]
    cells: list[CellResult]
    baselines: list[dict] = field(default_factory=list)

    @property
    def cells_failed(self) -> int:
        """Cells whose fit or audit raised."""
        return sum(cell.train_report is None for cell in self.cells)

    @property
    def cells_uncertified(self) -> int:
        """Cells whose fit returned without a KKT certificate (``max_iter`` or ``infeasible``)."""
        return sum(cell.train_report is not None and cell.status != "converged" for cell in self.cells)


def load_dataset(source: dict) -> Dataset:
    """Materialize the dataset described by a config source block."""
    kind = source.get("kind")
    if kind == "synthetic":
        from .synth import SynthConfig, generate

        config = SynthConfig(
            n=int(source["n"]),
            phi=float(source["phi"]),
            seed=int(source.get("seed", 0)),
            variant=source.get("variant", "linear"),
        )
        return append_bias(generate(config))
    if kind == "adult":
        dataset, _ = load_adult(source["path"], source.get("sensitive_choice", "gender"))
        return dataset
    if kind == "bank":
        dataset, _ = load_bank(source["path"])
        return dataset
    if kind == "csv":
        dataset = read_dataset_csv(source["path"])
        return dataset if dataset.has_bias_column else append_bias(dataset)
    raise ValueError(f"unknown dataset kind {kind!r}")


def config_from_json(payload: dict) -> ExperimentConfig:
    """The ExperimentConfig that a JSON sweep document describes.

    The document's keys are the field names of :class:`ExperimentConfig`;
    ``split`` and ``kernel`` are objects whose keys are the fields of
    :class:`SplitPlan` and :class:`KernelSpec`. An absent key takes that
    class's default. A key that names no field raises ValueError, so a
    misspelt setting fails instead of being dropped.
    """
    unknown = sorted(set(payload) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown sweep config key(s): {', '.join(map(repr, unknown))}")
    document = dict(payload, split=SplitPlan(**payload.get("split", {})))
    document.update({key: tuple(payload[key]) for key in ("a_factors", "c_values", "gammas") if payload.get(key)})
    if "kernel" in payload:
        document["kernel"] = KernelSpec(**payload["kernel"])
    return ExperimentConfig(**document)


def grid_spec(classifier, mode, value=None, *, l2_penalty, svm_cost, kernel, protected=None, n_rows=0) -> FitSpec:
    """The FitSpec of one fit: ``mode`` at the grid value ``value``.

    ``value`` is the covariance threshold (or vector of thresholds) of a
    fairness-constrained fit and the loss-budget factor gamma of the two
    gamma modes; a fine-grained fit gives every one of its ``n_rows`` rows
    that gamma and keeps the ``protected`` rows positive. A logreg fit takes
    ``l2_penalty``, an SVM ``svm_cost``, and the kernel SVM also ``kernel``.
    """
    spec = {"l2_penalty": l2_penalty} if classifier == "logreg" else {"svm_cost": svm_cost}
    if classifier == "kernel_svm":
        spec["kernel"] = kernel
    if mode == "fairness_constrained":
        spec["covariance_thresholds"] = value
    elif mode == "accuracy_constrained":
        spec["gamma"] = value
    elif mode == "fine_grained":
        spec.update(per_point_gammas=np.full(n_rows, value), protected_index_set=protected)
    return FitSpec(mode=mode, **spec)


@dataclass(frozen=True)
class _Outcome:
    """One fit attempt: the model, or the exception that stopped it, and the seconds it took."""

    model: LinearModel | KernelModel | None
    error: Exception | None
    seconds: float


def _fit_or_reuse(config: ExperimentConfig, train: Dataset, mode, value=None, protected=None, zero=None) -> _Outcome:
    """Fit ``mode`` at ``value``; all-zero covariance thresholds take the repeat's c=0 outcome ``zero``."""
    start = time.perf_counter()
    try:
        settings = {"l2_penalty": config.l2_penalty, "svm_cost": config.svm_cost, "kernel": config.kernel}
        spec = grid_spec(config.classifier, mode, value, protected=protected, n_rows=train.n, **settings)
        if zero is not None and not np.any(spec.thresholds_for(train.n_sensitive)):
            return zero
        return _Outcome(fit(train, config.classifier, spec), None, time.perf_counter() - start)
    except Exception as exc:  # failed fits are recorded, not fatal
        return _Outcome(None, exc, time.perf_counter() - start)


def _score(model, *splits: Dataset) -> list:
    """(sign-rule accuracy, fairness audit) of each split, from one decision_values call per split."""
    scores = []
    for rows in splits:
        distances = decision_values(model, rows.features)
        scores.append((float(np.mean(np.where(distances >= 0, 1, -1) == rows.labels)), audit(distances, rows)))
    return scores


def _record(cell_index, params, outcome: _Outcome, train, test, baseline: dict) -> CellResult:
    """The result row of one cell of ``baseline``'s repeat; a fit or audit that raised leaves nan fields.

    ``train_loss`` is the fit's ``loss`` where its meta has one (the logistic
    loss of the two gamma modes, whose objective is the summed |covariance|)
    and its ``objective`` otherwise.
    """
    start = time.perf_counter()
    error = outcome.error
    if error is None:
        try:
            meta = outcome.model.training_meta
            (train_accuracy, train_report), (test_accuracy, test_report) = _score(outcome.model, train, test)
            train_loss = float(meta.get("loss", meta["objective"]))
            loss_star, loss_zero = baseline["loss_star"], baseline["loss_zero"]
            if loss_zero is None:  # not a fairness sweep, or its c=0 fit failed
                relative = float("nan")
            elif loss_zero > loss_star + 1e-12:
                relative = (train_loss - loss_star) / (loss_zero - loss_star)
            else:
                relative = 0.0  # no fairness/accuracy conflict on this split
            status = meta["status"]
        except Exception as exc:
            error = exc
    if error is not None:
        status = f"error: {error}"
        train_accuracy = test_accuracy = train_loss = relative = float("nan")
        train_report = test_report = None
    return CellResult(
        cell_index=cell_index,
        repeat=baseline["repeat"],
        params=params,
        status=status,
        train_accuracy=train_accuracy,
        test_accuracy=test_accuracy,
        train_loss=train_loss,
        relative_loss=float(relative),
        train_report=train_report,
        test_report=test_report,
        wall_time=outcome.seconds + time.perf_counter() - start,
    )


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the full grid x repeats matrix; per-cell failures do not abort the sweep.

    Every model - each repeat's baseline, its c=0 fit and each grid cell -
    is fitted (or, for the all-zero cell, reused) by one step and scored by
    one decision_values call per split. A baseline that fails stops the sweep.
    """
    dataset = load_dataset(config.dataset)
    cells: list[CellResult] = []
    baselines: list[dict] = []
    for repeat in range(config.split.repeats):
        train, test = split(dataset, config.split, repeat)
        train, test = standardize_columns(train, test)
        baseline = _fit_or_reuse(config, train, "unconstrained")
        if baseline.error is not None:
            raise baseline.error  # without c* and L* no cell of the repeat has a meaning
        (train_accuracy, train_report), (test_accuracy, test_report) = _score(baseline.model, train, test)
        c_star = np.array([abs(train_report.covariance_per_column[name]) for name in train.sensitive_names])
        loss_star = float(baseline.model.training_meta["objective"])
        protected = protected_rows(baseline.model, train, config.protect_group) if config.mode == "fine_grained" else None

        zero = loss_zero = None
        if config.mode == "fairness_constrained":
            zero = _fit_or_reuse(config, train, config.mode, np.zeros(train.n_sensitive))
            if zero.error is None:
                loss_zero = float(zero.model.training_meta["objective"])
            else:
                log.warning("repeat %d: the c=0 fit failed, relative losses are nan: %s", repeat, zero.error)
        baselines.append(
            {
                "repeat": repeat,
                "c_star": c_star.tolist(),
                "loss_star": loss_star,
                "loss_zero": loss_zero,
                "train_accuracy": train_accuracy,
                "test_accuracy": test_accuracy,
                "train_report": train_report,
                "test_report": test_report,
            }
        )

        for cell_index, params in enumerate(config.grid):
            if "gamma" in params:
                value = params["gamma"]
            else:
                value = np.asarray(params["c"], dtype=float) if "c" in params else params["a"] * c_star
            outcome = _fit_or_reuse(config, train, config.mode, value, protected, zero)
            cells.append(_record(cell_index, params, outcome, train, test, baselines[-1]))
    return SweepResult(config=config, sensitive_names=dataset.sensitive_names, cells=cells, baselines=baselines)


# ---------------------------------------------------------------------------
# emission


def _fmt(value: float) -> str:
    if isinstance(value, float) and np.isnan(value):
        return "nan"
    return "%.12g" % value


def _param_columns(grid: list[dict], names: tuple[str, ...]) -> list[str]:
    keys = sorted({k for params in grid for k in params})
    if "c" in keys:
        return [f"c_{name}" for name in names]
    return keys


def _param_values(params: dict, names: tuple[str, ...]) -> list[str]:
    if "c" in params:
        c = list(np.broadcast_to(params["c"], (len(names),)))
        return [_fmt(v) for v in c]
    return [_fmt(params[k]) for k in sorted(params)]


def _cell_metric_row(cell: CellResult, names: tuple[str, ...]) -> list[str]:
    row = [
        _fmt(cell.train_accuracy),
        _fmt(cell.test_accuracy),
        _fmt(cell.train_loss),
        _fmt(cell.relative_loss),
        cell.status,
    ]
    for name in names:
        for report in (cell.train_report, cell.test_report):
            if report is None:
                row.extend(["nan"] * 4)
            else:
                r1, r0 = report.group_positive_rates[name]
                row.extend(
                    [
                        _fmt(report.covariance_per_column[name]),
                        _fmt(report.p_percent[name]),
                        _fmt(r1),
                        _fmt(r0),
                    ]
                )
    return row


def emit_results(result: SweepResult, path) -> list[Path]:
    """Write results.csv, summary.json and plot-ready per-figure CSVs.

    The flat CSV has one row per (grid point, repeat) and is byte-identical
    across reruns of the same config (wall times are kept out of it; they land
    in the JSON summary, with the counts of uncertified and failed cells).
    Returns the written paths.
    """
    if not result.cells:
        raise ValueError("refusing to emit an empty sweep")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    names = result.sensitive_names
    grid = result.config.grid

    header = ["cell_index", "repeat"]
    header += _param_columns(grid, names)
    header += ["train_accuracy", "test_accuracy", "train_loss", "relative_loss", "status"]
    for name in names:
        for side in ("train", "test"):
            header += [f"{side}_cov_{name}", f"{side}_ppct_{name}", f"{side}_rate1_{name}", f"{side}_rate0_{name}"]

    csv_path = out / "results.csv"
    lines = [",".join(header)]
    for cell in sorted(result.cells, key=lambda c: (c.cell_index, c.repeat)):
        row = [str(cell.cell_index), str(cell.repeat)]
        row += _param_values(cell.params, names)
        row += _cell_metric_row(cell, names)
        lines.append(",".join(row))
    csv_path.write_text("\n".join(lines) + "\n")

    summary = _summarize(result)
    json_path = out / "summary.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    written = [csv_path, json_path]
    written.extend(_emit_figures(result, out, summary))
    return written


def _summarize(result: SweepResult) -> dict:
    names = result.sensitive_names
    per_cell: list[dict] = []
    grid = result.config.grid
    for cell_index, params in enumerate(grid):
        group = [c for c in result.cells if c.cell_index == cell_index and c.train_report is not None]
        entry: dict = {"cell_index": cell_index, "params": params, "repeats_ok": len(group)}
        if group:
            for metric, getter in (
                ("train_accuracy", lambda c: c.train_accuracy),
                ("test_accuracy", lambda c: c.test_accuracy),
                ("train_loss", lambda c: c.train_loss),
                ("relative_loss", lambda c: c.relative_loss),
                ("wall_time", lambda c: c.wall_time),
            ):
                values = np.array([getter(c) for c in group])
                entry[metric] = {"mean": float(np.mean(values)), "std": float(np.std(values))}
            for name in names:
                for side, pick in (("train", lambda c: c.train_report), ("test", lambda c: c.test_report)):
                    cov = np.array([pick(c).covariance_per_column[name] for c in group])
                    ppct = np.array([pick(c).p_percent[name] for c in group])
                    cvs = np.array([pick(c).cv_score[name] for c in group])
                    r1 = np.array([pick(c).group_positive_rates[name][0] for c in group])
                    r0 = np.array([pick(c).group_positive_rates[name][1] for c in group])
                    entry[f"{side}_{name}"] = {
                        "cov_mean": float(np.mean(cov)),
                        "cov_std": float(np.std(cov)),
                        "abs_cov_mean": float(np.mean(np.abs(cov))),
                        "p_percent_mean": float(np.mean(ppct)),
                        "p_percent_std": float(np.std(ppct)),
                        "cv_mean": float(np.mean(cvs)),
                        "rate1_mean": float(np.mean(r1)),
                        "rate0_mean": float(np.mean(r0)),
                    }
        per_cell.append(entry)
    baselines = [
        {k: v for k, v in b.items() if k not in ("train_report", "test_report")} for b in result.baselines
    ]
    return {
        "classifier": result.config.classifier,
        "mode": result.config.mode,
        "svm_cost": result.config.svm_cost,
        "sensitive_names": list(names),
        "cells": per_cell,
        "cells_uncertified": result.cells_uncertified,
        "cells_failed": result.cells_failed,
        "baselines": baselines,
    }


def _emit_figures(result: SweepResult, out: Path, summary: dict) -> list[Path]:
    names = result.sensitive_names
    first = names[0]
    cells = summary["cells"]
    written = []

    def write(name: str, header: list[str], rows: list[list[str]]) -> None:
        p = out / name
        p.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")
        written.append(p)

    param_key = "a" if result.config.a_factors else ("gamma" if result.config.gammas else "c")

    def param_of(entry: dict) -> str:
        params = entry["params"]
        if param_key == "c":
            return _fmt(float(np.atleast_1d(params["c"])[0]))
        return _fmt(params[param_key])

    ok = [e for e in cells if e["repeats_ok"] > 0]
    if result.config.mode == "fairness_constrained":
        write(
            "fig_cov_vs_relloss.csv",
            [param_key, "abs_cov_train", "relative_loss"],
            [[param_of(e), _fmt(e[f"train_{first}"]["abs_cov_mean"]), _fmt(e["relative_loss"]["mean"])] for e in ok],
        )
    write(
        "fig_cov_vs_prule.csv",
        [param_key, "abs_cov_train", "p_percent_train"],
        [[param_of(e), _fmt(e[f"train_{first}"]["abs_cov_mean"]), _fmt(e[f"train_{first}"]["p_percent_mean"])] for e in ok],
    )
    write(
        "fig_acc_vs_prule.csv",
        [param_key, "p_percent_test", "test_accuracy"],
        [[param_of(e), _fmt(e[f"test_{first}"]["p_percent_mean"]), _fmt(e["test_accuracy"]["mean"])] for e in ok],
    )
    header = [param_key]
    for name in names:
        header += [f"rate1_{name}", f"rate0_{name}"]
    rows = []
    for e in ok:
        row = [param_of(e)]
        for name in names:
            row += [_fmt(e[f"test_{name}"]["rate1_mean"]), _fmt(e[f"test_{name}"]["rate0_mean"])]
        rows.append(row)
    write("fig_group_rates.csv", header, rows)
    return written
