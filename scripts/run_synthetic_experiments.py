#!/usr/bin/env python3
"""Run the synthetic-data experiments end to end.

Produces, under the output directory:

* fairness-constrained threshold sweeps (logistic regression) on the linearly
  separable data at two rotation angles,
* a loss-budget (gamma) sweep and a fine-grained sweep on the same data,
* a fairness-constrained sweep of the RBF-kernel SVM on the mixture data.

Each experiment directory holds results.csv, summary.json and the
plot-ready fig_*.csv files.
"""

import argparse
import math
from pathlib import Path

from fairclf.data import SplitPlan
from fairclf.models import KernelSpec
from fairclf.sweep import ExperimentConfig, emit_results, run_sweep

A_GRID = (1.0, 0.8, 0.6, 0.4, 0.2, 0.0)
GAMMA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def synthetic_source(variant: str, phi: float, n: int, seed: int) -> dict:
    return {"kind": "synthetic", "variant": variant, "phi": phi, "n": n, "seed": seed}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/synthetic")
    parser.add_argument("--n", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--kernel-n", type=int, default=2000, help="sample count for the RBF sweep")
    parser.add_argument("--skip-kernel", action="store_true", help="skip the RBF kernel-SVM sweep")
    args = parser.parse_args()
    out = Path(args.out)
    split = SplitPlan(train_fraction=0.7, repeats=args.repeats, seed=args.seed)

    for phi_label, phi in (("phi_pi4", math.pi / 4), ("phi_pi8", math.pi / 8)):
        config = ExperimentConfig(
            dataset=synthetic_source("linear", phi, args.n, args.seed),
            classifier="logreg",
            mode="fairness_constrained",
            split=split,
            a_factors=A_GRID,
        )
        emit_results(run_sweep(config), out / f"fairness_lr_{phi_label}")
        print(f"fairness sweep ({phi_label}) done")

    config = ExperimentConfig(
        dataset=synthetic_source("linear", math.pi / 4, args.n, args.seed),
        classifier="logreg",
        mode="accuracy_constrained",
        split=split,
        gammas=GAMMA_GRID,
    )
    emit_results(run_sweep(config), out / "gamma_lr")
    print("gamma sweep done")

    config = ExperimentConfig(
        dataset=synthetic_source("linear", math.pi / 4, args.n, args.seed),
        classifier="logreg",
        mode="fine_grained",
        split=split,
        gammas=GAMMA_GRID,
        protect_group=1,
    )
    emit_results(run_sweep(config), out / "fine_grained_lr")
    print("fine-grained sweep done")

    if not args.skip_kernel:
        config = ExperimentConfig(
            dataset=synthetic_source("nonlinear", math.pi / 4, args.kernel_n, args.seed),
            classifier="kernel_svm",
            mode="fairness_constrained",
            split=SplitPlan(train_fraction=0.7, repeats=1, seed=args.seed),
            a_factors=(1.0, 0.5, 0.0),
            svm_cost=100.0,
            kernel=KernelSpec(kind="rbf", rbf_gamma=0.04),
        )
        emit_results(run_sweep(config), out / "fairness_rbf_svm")
        print("kernel sweep done")


if __name__ == "__main__":
    main()
