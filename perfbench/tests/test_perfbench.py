"""Tests of the benchmark harness on tiny inputs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from harness import Fund, Std, Workload  # noqa: E402

D4N2 = Fund("D4", 2, terms=28, mass=29,
            sha256="1fb65ffb820de81c9b369ca46fe541cd5b17a974af6937190e63379e"
                   "46c7cef3")
A2_MIXED = Std("A2", ((1, 0), (2, 1)), terms=8, mass=3 * 3, non_lefschetz=0,
               digest="cf708bd8bd82da5fe5e90f1dc217e92cc1882d2f5f6e0417754537e"
                      "b5599bcd3")
D4N2_PAIR = Std("D4", ((2, 0), (2, 2)), terms=650, mass=29 ** 2,
                non_lefschetz=7,
                digest="eb1b506832d226bfa49acaba6bcc9c17c0b24e7826488c00ff033"
                       "4d37aaf9eb3")

TINY = [Workload("tiny-fund", "", D4N2), Workload("tiny-std", "", A2_MIXED)]
END_TO_END = [name for name, *_ in harness.END_TO_END]
PER_LAYER = [name for name, *_ in harness.PER_LAYER]
COUNTS = ["fm.terms", "fusion.pairs", "sl2.template_misses",
          "jordan.non_lefschetz"]


def quiet(_line):
    pass


def test_benchmark_json_matches_manifest():
    path = BENCH.parent / "BENCHMARK.json"
    assert json.loads(path.read_text()) == harness.manifest()


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_end_to_end_on_tiny_inputs(workload):
    plain = harness.run(workload, seed=3, seconds=0, trace=False, log=quiet)
    assert (plain["correct"], plain["failed"]) == (True, 0)
    assert plain["attempted"] >= harness.MIN_ITERATIONS
    assert list(plain["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = harness.run(workload, seed=3, seconds=0, trace=True, log=quiet)
    assert (traced["correct"], traced["failed"]) == (True, 0)
    assert sorted(traced["metrics"]) == sorted(PER_LAYER)
    assert traced["metrics"]["fm.terms"]["value"] > 0


def cold_template_misses(type_: str, node: int) -> int:
    """Misses of the rank-one template cache in a fresh process that makes
    one fundamental module."""
    code = ("import qtchar, qtchar.sl2\n"
            f"d = qtchar.build_root_datum('{type_[0]}', {type_[1:]})\n"
            f"qtchar.fundamental_qt(d, {node})\n"
            "print(qtchar.sl2._simple_qt_cached.cache_info().misses)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={"PYTHONPATH": str(harness.SRC)})
    return int(proc.stdout)


@pytest.mark.parametrize("spec", [D4N2, D4N2_PAIR], ids=["fund", "std"])
def test_counts_repeat_exactly(spec):
    workload = Workload("tiny", "", spec)
    runs = [harness.run(workload, seed=seed, seconds=0, trace=True,
                        log=quiet)["metrics"] for seed in (1, 2)]
    counts = [{name: m[name]["value"] for name in COUNTS} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["sl2.template_misses"] == cold_template_misses("D4", 2)
    if spec is D4N2_PAIR:
        assert counts[0]["fusion.pairs"] == 28 * 28
        assert counts[0]["jordan.non_lefschetz"] == 7


def test_failed_output_check_is_counted():
    wrong = Fund("D4", 2, terms=28, mass=29, sha256="0" * 64)
    result = harness.run(Workload("wrong", "", wrong), seed=0, seconds=0,
                         trace=False, log=quiet)
    assert result["correct"] is False
    assert result["failed"] == harness.MIN_ITERATIONS


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fund-e7n4",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_deadline_kills_the_run(monkeypatch):
    monkeypatch.setattr(harness, "DEADLINE_S", 0)
    with pytest.raises(RuntimeError, match="no iteration completed"):
        harness.run(Workload("tiny-fund", "", D4N2), seed=0, seconds=0,
                    trace=False, log=quiet)
