"""``qtchar`` command line with its layers traced.

Usage: ``python3 perfbench/cli_traced.py SPANS RUN_ID <qtchar arguments>``
with ``PYTHONPATH`` pointing at the checkout's ``src``.  Runs
``qtchar.cli.main`` as ``python3 -m qtchar.cli`` would, and writes the
spans of the call to the file SPANS before exiting with its exit code.
"""

from __future__ import annotations

import sys

import qtchar.cli
from spans import Tracer


def main(argv) -> int:
    spans_path, run_id, args = argv[1], argv[2], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return qtchar.cli.main(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
