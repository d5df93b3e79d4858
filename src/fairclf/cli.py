"""Command-line entry point.

Subcommands:

* ``gen``    - write a synthetic dataset to CSV.
* ``ingest`` - load a UCI file and print the ingest report as JSON.
* ``train``  - fit one model on a dataset CSV, write the model JSON, print the
               training audit; a fit that is not KKT-certified says so on
               stderr.
* ``sweep``  - run a sweep described by a JSON config and emit result files;
               a sweep with cells that are not KKT-certified or that failed
               says how many on stderr.
* ``audit``  - score a dataset CSV with a saved model (or a file of
               precomputed distances) and print the fairness report.

Every command exits 0 on success and nonzero with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  (argparse's gettext imports it when the first parser is built)
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import append_bias, read_dataset_csv, write_dataset_csv
from .ingest import load_adult, load_bank
from .metrics import audit as run_audit, score
from .models import CLASSIFIERS, MODES, KernelSpec, decision_values, fit, fit_spec, model_from_dict, model_to_dict, protected_rows
from .sweep import config_from_json, emit_results, run_sweep
from .synth import SynthConfig, generate

__all__ = ["cli_main", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairclf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen.add_argument("--variant", choices=["linear", "nonlinear"], default="linear")
    gen.add_argument("--phi", type=float, required=True, help="rotation angle in (0, pi/2]")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    ing = sub.add_parser("ingest", help="load a UCI file and print its ingest report")
    src = ing.add_mutually_exclusive_group(required=True)
    src.add_argument("--adult", metavar="PATH")
    src.add_argument("--bank", metavar="PATH")
    ing.add_argument("--sensitive", choices=["gender", "race", "gender+race"], default="gender")

    train = sub.add_parser("train", help="fit one model and write it as JSON")
    train.add_argument("--data", required=True, help="dataset CSV (gen format)")
    train.add_argument("--classifier", choices=list(CLASSIFIERS), default="logreg")
    train.add_argument("--mode", choices=MODES, default="unconstrained")
    train.add_argument("--c", type=float, nargs="+", help="covariance threshold(s)")
    train.add_argument("--gamma", type=float, help="loss budget factor")
    train.add_argument("--protect-group", type=int, choices=[0, 1], default=1)
    train.add_argument("--svm-cost", type=float, default=1.0)
    train.add_argument("--kernel", choices=["linear", "rbf"], default="rbf")
    train.add_argument("--rbf-gamma", type=float)
    train.add_argument("--l2", type=float, default=0.0)
    train.add_argument("--out", required=True, help="model JSON path")

    sweep = sub.add_parser("sweep", help="run a sweep from a JSON config")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", help="output directory (overrides config)")
    sweep.add_argument("--seed", type=int, help="override dataset and split seeds")

    aud = sub.add_parser("audit", help="fairness report for a dataset CSV")
    aud.add_argument("--data", required=True)
    grp = aud.add_mutually_exclusive_group(required=True)
    grp.add_argument("--model", help="model JSON produced by train")
    grp.add_argument("--distances", help="file with one signed distance per line")
    return parser


def _cmd_gen(args) -> int:
    config = SynthConfig(n=args.n, phi=args.phi, seed=args.seed, variant=args.variant)
    write_dataset_csv(generate(config), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    if args.adult:
        _, report = load_adult(args.adult, args.sensitive)
    else:
        _, report = load_bank(args.bank)
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_train(args) -> int:
    dataset = read_dataset_csv(args.data)
    if not dataset.has_bias_column:
        dataset = append_bias(dataset)
    kernel = KernelSpec(kind=args.kernel, rbf_gamma=args.rbf_gamma)
    mode = args.mode
    if mode == "fairness_constrained" and args.c is None:
        raise SystemExit("--c is required for fairness_constrained")
    if mode in ("accuracy_constrained", "fine_grained") and args.gamma is None:
        raise SystemExit(f"--gamma is required for {mode}")
    if mode not in CLASSIFIERS[args.classifier].fits:
        raise SystemExit(f"{args.classifier} supports {' and '.join(CLASSIFIERS[args.classifier].fits)} modes")

    settings = {"l2_penalty": args.l2, "svm_cost": args.svm_cost, "kernel": kernel}
    value = args.gamma
    if mode == "fairness_constrained":
        value = args.c if len(args.c) > 1 else args.c[0]
    elif mode == "fine_grained":
        baseline = fit(dataset, args.classifier, fit_spec(args.classifier, "unconstrained", **settings))
        settings.update(protected=protected_rows(baseline, dataset, args.protect_group), n_rows=dataset.n)
    model = fit(dataset, args.classifier, fit_spec(args.classifier, mode, value, **settings))

    Path(args.out).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")
    accuracy, report = score(decision_values(model, dataset.features), dataset)
    print(
        json.dumps(
            {"model": args.out, "train_accuracy": accuracy, "train_audit": report.to_json_dict()},
            indent=2,
            sort_keys=True,
        )
    )
    status = model.training_meta["status"]
    if status != "converged":
        print(f"fit not certified: status {status}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    payload = json.loads(Path(args.config).read_text())
    config = config_from_json(payload)
    if args.seed is not None:
        dataset = dict(config.dataset)
        if dataset.get("kind") == "synthetic":
            dataset["seed"] = args.seed
        config = replace(config, dataset=dataset, split=replace(config.split, seed=args.seed))
    out = args.out or config.output
    if not out:
        raise SystemExit("no output directory: pass --out or set 'output' in the config")
    result = run_sweep(config)
    written = emit_results(result, out)
    for p in written:
        print(f"wrote {p}")
    not_certified = result.cells_uncertified + result.cells_failed
    if not_certified:
        print(f"{not_certified} of {len(result.cells)} cells not certified", file=sys.stderr)
    return 0


def _cmd_audit(args) -> int:
    dataset = read_dataset_csv(args.data)
    if args.model:
        model = model_from_dict(json.loads(Path(args.model).read_text()))
        want = model.theta.size if hasattr(model, "theta") else model.support_points.shape[1]
        if dataset.n_features != want and not dataset.has_bias_column:
            dataset = append_bias(dataset)
        distances = decision_values(model, dataset.features)
    else:
        distances = np.atleast_1d(np.loadtxt(args.distances))
    report = run_audit(distances, dataset)
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return 0


def cli_main(argv=None) -> int:
    """Parse arguments and run one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "gen": _cmd_gen,
        "ingest": _cmd_ingest,
        "train": _cmd_train,
        "sweep": _cmd_sweep,
        "audit": _cmd_audit,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        if exc.code and not isinstance(exc.code, int):
            print(exc.code, file=sys.stderr)
            return 2
        return int(exc.code or 0)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
