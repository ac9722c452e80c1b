"""Run one workload of fogplan's benchmark.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: fogplan is imported from its ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
every metric in readable form, details that are reported but not gated,
and run metadata.  The full record goes to ``.bench_out/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="minimum measured time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be non-negative", file=sys.stderr)
        return 2
    if not (SRC / "fogplan" / "__init__.py").is_file():
        print(f"error: fogplan sources not found at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one thread only: stop OpenBLAS from starting its pool when numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
