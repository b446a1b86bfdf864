"""qtchar benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --manifest     # print BENCHMARK.json

Runs one workload for about S seconds, checks every output and prints one
line per metric (median, quartiles, sample count), then, as the last line,
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The program is imported from the checkout's ``src``; the
benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=harness.manifest()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true",
                        help="print the BENCHMARK.json this benchmark "
                             "defines and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(harness.manifest(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (harness.SRC / "qtchar" / "__init__.py").is_file():
        print(f"error: no qtchar source under {harness.SRC}", file=sys.stderr)
        return 2
    # A terminated run still kills and reaps the process it is waiting on.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    try:
        result = harness.run(harness.WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
