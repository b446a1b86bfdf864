"""One iteration of the standard-module workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<job JSON>'`` with ``PYTHONPATH``
pointing at the checkout's ``src``.  The job gives a Dynkin ``type`` and
``factors``; the worker runs ``standard_module_qt`` over the factors in
the given order, then ``validate_poincare`` on every coefficient.

The worker prints ``ready`` once imports and inputs are done, so the
parent can time set-up, and stops there if ``setup_only`` is set;
otherwise it prints one JSON result line last.
With ``spans`` set, the layers are traced and the spans written there.
Each operation is reported with its error, if it raised; the parent
checks the reported facts against the expected values.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections import Counter
from contextlib import nullcontext

import qtchar
from qtchar import fusion, jordan
from qtchar.rootdata import parse_type


def coefficient_digest(chi) -> str:
    """Order-free digest of the multiset of (lowering degree, coefficient)
    pairs; equal for equal characters however the terms were built."""
    hist = Counter((m.vdeg, tuple(sorted(c.c.items())))
                   for m, c in chi.terms.items())
    return hashlib.sha256(repr(sorted(hist.items())).encode()).hexdigest()


class Ops:
    """Runs named operations in order, recording the first error; once one
    fails the rest are recorded as not run."""

    def __init__(self):
        self.results: list[list] = []

    def run(self, name, fn, *args):
        if self.results and self.results[-1][1] is not None:
            self.results.append([name, "not run"])
            return None
        try:
            value = fn(*args)
        except Exception as err:  # reported to the parent as a failed op
            self.results.append([name, f"{type(err).__name__}: {err}"])
            return None
        self.results.append([name, None])
        return value


def run_std(job, datum, ops, tracer):
    chi = ops.run("standard_module_qt", fusion.standard_module_qt, datum,
                  [tuple(f) for f in job["factors"]])

    def validate_all():
        check = jordan.validate_poincare
        return sum(1 for c in chi.terms.values() if not check(c))

    with tracer.span("jordan.validate") if tracer else nullcontext():
        bad = ops.run("validate_poincare", validate_all)
    return chi, bad


def main(argv) -> int:
    job = json.loads(argv[1])
    datum = parse_type(job["type"])
    tracer = None
    if job.get("spans"):
        from spans import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    print("ready", flush=True)
    if job.get("setup_only"):
        return 0

    ops = Ops()
    t0 = time.perf_counter()
    chi, bad = run_std(job, datum, ops, tracer)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(job["spans"])
    out = {"package": qtchar.__file__, "wall_s": wall, "ops": ops.results,
           "non_lefschetz": bad}
    if chi is not None:
        out.update(terms=len(chi), mass=chi.mass_at_t1(),
                   digest=coefficient_digest(chi))
    print(json.dumps(out), flush=True)
    # Skip interpreter teardown: freeing a large character takes seconds
    # that no metric counts.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
