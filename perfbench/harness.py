"""Workloads, output checks and metrics of the qtchar benchmark.

Every iteration runs in fresh processes, one at a time, so the ``sl2``
template caches start cold as they do for every CLI call and one-shot
script.  A ``fund`` iteration is one ``python3 -m qtchar.cli fundamental``
process; a ``std`` iteration runs ``worker.py``, which calls the library.

Untraced runs give the end-to-end metrics.  A traced run alternates an
untraced and a traced iteration; the layers' spans come from the traced
one and the difference of the two walls is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans as spanlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ITERATIONS = 2
# Every process of a run is killed this many seconds after the run began,
# so a run ends within 180 s even if the program hangs.
DEADLINE_S = 170
# Set-up-only processes per untraced iteration: set-up is short and
# noisy, so its median needs more samples than the iterations give.
SETUP_PROBES = 3

# -- workloads --------------------------------------------------------


@dataclass(frozen=True)
class Fund:
    """``qtchar fundamental --decode --out FILE``: ``fundamental_qt`` with
    the audit, ``annotate_character`` and the JSON dump of one fundamental
    module, as one CLI process."""

    type: str
    node: int
    terms: int
    mass: int
    sha256: str


@dataclass(frozen=True)
class Std:
    """``standard_module_qt`` and ``validate_poincare`` on every
    coefficient.  The seed permutes ``factors``; the result must not
    change.  ``mass`` is the t = 1 product of the factors' dimensions, an
    oracle that shares no code with the fusion product."""

    type: str
    factors: tuple
    terms: int
    mass: int
    non_lefschetz: int
    digest: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: Fund | Std


WORKLOADS = {w.name: w for w in [
    Workload("fund-e7n4",
             "qtchar fundamental --decode on E7 node 4: fm expansion, "
             "audit, decode, 23.7 MB JSON dump and CLI start and exit "
             "(cli-e8n1 was dropped as too noisy); fusion only via "
             "rank-one templates; seed unused",
             Fund("E7", 4, terms=27664, mass=36080,
                  sha256="0a1969b4fe45062d9b05c099988893c9be392ac9"
                         "bc4911661dae165b4b9729cb")),
    Workload("std-d4n2x4",
             "D4 node 2 at shifts 0,2,4,6: twisted_product over 327892 "
             "terms bypasses fm; 18573 reducible coefficients; the seed "
             "permutes the factors",
             Std("D4", ((2, 0), (2, 2), (2, 4), (2, 6)), terms=327892,
                 mass=29 ** 4, non_lefschetz=18573,
                 digest="7e7dbb0d98d42af6de7dc92f956cf0adf736840f"
                        "76f10f38ea0077648b909fd7")),
]}

# -- metrics ----------------------------------------------------------

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better); times are self times of the layer's spans, except
# cli.main_s, which is the whole in-process cli.main call.
PER_LAYER = [
    ("fm.expand_s", "s", "lower"),
    ("fm.audit_s", "s", "lower"),
    ("fm.terms", "count", "lower"),
    ("sl2.template_s", "s", "lower"),
    ("sl2.template_calls", "count", "lower"),
    ("sl2.template_misses", "count", "lower"),
    ("fusion.product_s", "s", "lower"),
    ("fusion.pairs", "count", "lower"),
    ("fusion.terms_out", "count", "lower"),
    ("fusion.merge_ratio", "ratio", "higher"),
    ("jordan.decode_s", "s", "lower"),
    ("jordan.validate_s", "s", "lower"),
    ("jordan.non_lefschetz", "count", "lower"),
    ("serialize.to_doc_s", "s", "lower"),
    ("serialize.dumps_s", "s", "lower"),
    ("serialize.bytes", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("charalg.rss_kb_per_term", "KB/term", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

SELF_TIMES = {
    "fm.expand_s": "fm.fundamental",
    "fm.audit_s": "fm.audit",
    "sl2.template_s": "sl2.template",
    "fusion.product_s": "fusion.product",
    "jordan.decode_s": "jordan.decode",
    "jordan.validate_s": "jordan.validate",
    "serialize.to_doc_s": "serialize.to_doc",
    "serialize.dumps_s": "serialize.dumps",
}


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 60,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }

# -- child processes --------------------------------------------------


@dataclass
class Context:
    """What every process of one run shares."""

    tmp: Path            # scratch directory inside the checkout
    deadline: float      # perf_counter time at which children are killed
    inputs: dict         # seed-dependent inputs


@dataclass
class Child:
    returncode: int
    lines: list
    stderr: str
    wall_s: float
    ready_s: float | None
    rss_kb: int


def run_child(argv: list, ctx: Context) -> Child:
    """Run one process to its end; time it from spawn to reap and read its
    own peak RSS from ``wait4``.  A ``ready`` line marks end of set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=ctx.tmp) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
        killer = threading.Timer(max(0.0, ctx.deadline - t0), proc.kill)
        killer.start()
        try:
            ready = None
            lines = []
            with proc.stdout:
                for raw in proc.stdout:
                    line = raw.decode(errors="replace").rstrip("\n")
                    if ready is None and line == "ready":
                        ready = time.perf_counter() - t0
                    else:
                        lines.append(line)
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(proc.returncode, lines, stderr, wall, ready,
                 usage.ru_maxrss)


def run_worker(job: dict, ctx: Context) -> tuple[Child, dict | None]:
    child = run_child([sys.executable, str(HERE / "worker.py"),
                       json.dumps(job)], ctx)
    if child.returncode == 0 and child.lines:
        try:
            return child, json.loads(child.lines[-1])
        except json.JSONDecodeError:
            pass
    return child, None


def sha256_file(path: Path) -> str | None:
    if not path.exists():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()

# -- iterations -------------------------------------------------------


@dataclass
class Iteration:
    ops: list            # [name, error or None] per operation
    wall_s: float | None
    setup_s: list        # set-up times of this iteration and its probes
    rss_kb: int | None
    terms: int | None
    span_docs: list
    cli_wall_s: float = 0.0


def failed_iteration(names: list, error: str) -> Iteration:
    return Iteration([[n, error] for n in names], None, [], None, None, [])


def expect(ops: list, name: str, ok: bool, message: str) -> None:
    """Mark operation ``name`` failed unless ``ok``."""
    for op in ops:
        if op[0] == name and op[1] is None and not ok:
            op[1] = message


def setup_probes(type_: str, ctx: Context) -> list:
    """Set-up times of SETUP_PROBES processes that start the interpreter,
    import qtchar, read the root datum and stop."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = run_child([sys.executable, str(HERE / "worker.py"),
                           json.dumps({"type": type_, "setup_only": True})],
                          ctx)
        if probe.returncode == 0 and probe.ready_s is not None:
            times.append(probe.ready_s)
    return times


def doc_totals(path: Path) -> tuple[int, int] | None:
    """Term count and t = 1 mass of a character JSON file, or None if it
    cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            terms = json.load(fh)["terms"]
        return len(terms), sum(c for term in terms for _e, c in term["coeff"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def fund_iteration(spec: Fund, ctx: Context, tag: str,
                   traced: bool) -> Iteration:
    name = "qtchar fundamental"
    out, spans_path = ctx.tmp / f"{tag}.json", ctx.tmp / f"{tag}.spans"
    args = ["fundamental", "--type", spec.type, "--node", str(spec.node),
            "--decode", "--out", str(out)]
    if traced:
        setups = []
        argv = [sys.executable, str(HERE / "cli_traced.py"),
                str(spans_path), spans_path.stem, *args]
    else:
        setups = setup_probes(spec.type, ctx)
        argv = [sys.executable, "-m", "qtchar.cli", *args]
    child = run_child(argv, ctx)
    totals = doc_totals(out) if child.returncode == 0 else None
    digest = sha256_file(out)
    out.unlink(missing_ok=True)
    if totals is None:
        return failed_iteration([name], f"exit {child.returncode}, no "
                                        f"readable output: "
                                        f"{child.stderr[-500:]}")
    terms, mass = totals
    ops = [[name, None]]
    expect(ops, name, terms == spec.terms, f"terms {terms} != {spec.terms}")
    expect(ops, name, mass == spec.mass, f"t=1 mass {mass} != {spec.mass}")
    expect(ops, name, digest == spec.sha256,
           f"JSON sha256 {digest} != {spec.sha256}")
    docs = []
    if traced and spans_path.exists():
        docs.append(spanlib.load(spans_path))
        spans_path.unlink()
    return Iteration(ops, child.wall_s, setups, child.rss_kb, terms, docs,
                     cli_wall_s=child.wall_s if traced else 0.0)


def std_iteration(spec: Std, ctx: Context, tag: str,
                  traced: bool) -> Iteration:
    names = ["standard_module_qt", "validate_poincare"]
    job = {"type": spec.type, "factors": ctx.inputs["factors"]}
    spans_path = ctx.tmp / f"{tag}.spans"
    if traced:
        setups = []
        job.update(spans=str(spans_path), run_id=spans_path.stem)
    else:
        setups = setup_probes(spec.type, ctx)
    child, result = run_worker(job, ctx)
    if result is None:
        return failed_iteration(names, f"worker exited {child.returncode}: "
                                       f"{child.stderr[-500:]}")
    ops = result["ops"]
    package = Path(result["package"]).resolve()
    expect(ops, names[0], package.is_relative_to(SRC),
           f"benchmarked {package}, not the checkout's source")
    for key in ("terms", "mass", "digest"):
        want = getattr(spec, key)
        expect(ops, names[0], result.get(key) == want,
               f"{key} {result.get(key)} != {want}")
    expect(ops, names[1], result.get("non_lefschetz") == spec.non_lefschetz,
           f"non-Lefschetz coefficients {result.get('non_lefschetz')} != "
           f"{spec.non_lefschetz}")
    docs = []
    if traced and spans_path.exists():
        docs.append(spanlib.load(spans_path))
        spans_path.unlink()
    return Iteration(ops, result["wall_s"], setups + [child.ready_s],
                     child.rss_kb, result.get("terms"), docs)


ITERATIONS = {Fund: fund_iteration, Std: std_iteration}


def make_inputs(spec, seed: int) -> dict:
    """The seed-dependent inputs of one run: the factor order of a
    standard module."""
    if isinstance(spec, Std):
        rng = random.Random(seed)
        return {"factors": rng.sample(list(spec.factors), len(spec.factors))}
    return {}

# -- runs -------------------------------------------------------------


def layer_values(it: Iteration, untraced_rss_kb: float) -> dict:
    """Per-layer metrics of one traced iteration."""
    selfs: dict = {}
    totals: dict = {}
    counts = dict.fromkeys(spanlib.COUNTS, 0)
    for doc in it.span_docs:
        for name, secs in spanlib.self_times(doc).items():
            selfs[name] = selfs.get(name, 0.0) + secs
        for name, secs in spanlib.total_times(doc).items():
            totals[name] = totals.get(name, 0.0) + secs
        for name, n in doc["counts"].items():
            counts[name] += n
    out = {metric: selfs.get(span, 0.0)
           for metric, span in SELF_TIMES.items()}
    out.update(counts)
    pairs = counts["fusion.pairs"]
    out["fusion.merge_ratio"] = counts["fusion.terms_out"] / pairs \
        if pairs else 0.0
    out["cli.main_s"] = totals.get("cli.main", 0.0)
    out["cli.startup_s"] = it.cli_wall_s - out["cli.main_s"] \
        if it.cli_wall_s else 0.0
    out["charalg.rss_kb_per_term"] = untraced_rss_kb / it.terms
    return out


def layer_samples(plain: list, traced: list) -> tuple[dict, list]:
    """Per-layer samples of the traced iterations, and the names of count
    metrics that did not repeat exactly."""
    rss_kb = statistics.median(it.rss_kb for it in plain)
    rows = [layer_values(it, rss_kb) for it in traced]
    samples = {name: (unit, [row[name] for row in rows])
               for name, unit, _better in PER_LAYER
               if name != "trace.overhead_s"}
    traced_wall = statistics.median(it.wall_s for it in traced)
    plain_wall = statistics.median(it.wall_s for it in plain)
    samples["trace.overhead_s"] = ("s", [traced_wall - plain_wall])
    unsteady = [name for name, (unit, values) in samples.items()
                if unit == "count" and len(set(values)) > 1]
    return samples, unsteady


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        log=print) -> dict:
    """Run one workload for about ``seconds`` and return the result line.

    An untraced run repeats iterations while one more, as long as the
    longest so far, would end within ``seconds``, and at least
    MIN_ITERATIONS times; a traced run repeats (untraced, traced) pairs
    the same way, at least once.
    """
    spec = workload.spec
    iterate = ITERATIONS[type(spec)]
    start = time.perf_counter()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    ctx = Context(Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                        dir=scratch)),
                  start + DEADLINE_S, make_inputs(spec, seed))
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    longest = 0.0
    try:
        while True:
            began = time.perf_counter()
            k = len(plain)
            plain.append(iterate(spec, ctx, f"i{k}", False))
            if trace:
                traced.append(iterate(spec, ctx, f"t{k}", True))
            now = time.perf_counter()
            longest = max(longest, now - began)
            if len(plain) >= (1 if trace else MIN_ITERATIONS) \
                    and now + longest - start > seconds:
                break
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    ops = [op for it in plain + traced for op in it.ops]
    failed = sum(1 for _name, err in ops if err is not None)
    for name, err in ops:
        if err is not None:
            log(f"FAILED {name}: {err}")
    good = [it for it in plain if it.wall_s is not None]
    good_traced = [it for it in traced if it.wall_s is not None]
    if not good or (trace and not good_traced):
        raise RuntimeError(f"{workload.name}: no iteration completed")

    unsteady = []
    if trace:
        samples, unsteady = layer_samples(good, good_traced)
    else:
        samples = {
            "wall_s": ("s", [it.wall_s for it in good]),
            "peak_rss_mb": ("MB", [it.rss_kb / 1024 for it in good]),
            "setup_s": ("s", [t for it in good for t in it.setup_s]),
        }
    for name in unsteady:
        log(f"FAILED count {name} differs between iterations: "
            f"{samples[name][1]}")

    metrics = {}
    for name, (unit, values) in samples.items():
        if len(values) > 1:
            q1, med, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = med = q3 = values[0]
        log(f"{workload.name} {name} median={med:.6g} q1={q1:.6g} "
            f"q3={q3:.6g} n={len(values)} {unit}")
        metrics[name] = {"value": med, "unit": unit}
    return {"correct": not failed and not unsteady, "attempted": len(ops),
            "failed": failed, "metrics": metrics}
