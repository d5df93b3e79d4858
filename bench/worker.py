"""One pass of one workload in a fresh process; prints one JSON line.

Started by ``run.py``, which passes the monotonic time at which it launched
this process, so that ``setup_s`` covers interpreter start, imports, ingest
or generation and split/standardize.

    python3 bench/worker.py --workload census_logreg --params JSON \
        --spawned T [--trace FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--params", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", help="record spans and write them to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import fairclf
    import fairclf.cli  # noqa: F401  (imports every layer)

    if Path(fairclf.__file__).resolve().parent != SRC / "fairclf":
        print(f"fairclf imported from {fairclf.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from instrument import Instrument
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    instrument = Instrument(trace=args.trace is not None)
    instrument.install()
    state = workload.setup(json.loads(args.params))
    setup_s = time.monotonic() - args.spawned
    out = {"setup_s": setup_s}
    if not args.setup_only:
        start = time.perf_counter()
        result = workload.run(state)
        end = time.perf_counter() - instrument.check_s
        out["wall_s"] = end - start
        # split at the end of each fit: a fit plus the scoring that follows it
        bounds = [start] + instrument.marks + [end]
        out["segments"] = [b - a for a, b in zip(bounds, bounds[1:])]
        out.update({"cells": 0, "cells_failed": 0, **workload.summarize(result)})
        out["fits"] = instrument.fits
        out["failed_checks"] = instrument.failed_checks
        if args.trace:
            instrument.write(args.trace)
            out["layers"] = instrument.totals()
    instrument.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
