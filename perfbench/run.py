#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer numbers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload segment_fanout --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps each layer's public methods
and reports the per-layer metrics and the tracing overhead.  Every run
checks the delivered output against the reference oracle.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer engine benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "repro" / "__init__.py",
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"perfbench: {needed} not found; run from the root of a "
                  "repository checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    return measure.main(args)


if __name__ == "__main__":
    sys.exit(main())
