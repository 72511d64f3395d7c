"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# a path a-b-c in the plane's max norm, and a non-congruent realisation
# with the same edge lengths: c swings from (6, 0) to (6, 3)
VERTICES = ["a", "b", "c"]
EDGES = [("a", "b"), ("b", "c")]
P = {"a": (0, 0), "b": (3, 1), "c": (6, 0)}
Q = {"a": (0, 0), "b": (3, 1), "c": (6, 3)}
LINF2 = checks.faces("linf", 2)


def frac(positions):
    return {v: tuple(Fraction(x) for x in p) for v, p in positions.items()}


def random_point(rng, bound=9):
    return (Fraction(rng.randint(-bound, bound), rng.randint(1, 4)),
            Fraction(rng.randint(-bound, bound), rng.randint(1, 4)))


def test_witness_checker_accepts_a_real_witness():
    assert checks.witness_error(LINF2, frac(P), Q, VERTICES, EDGES) is None


def test_witness_checker_rejects_a_nudged_vertex():
    nudged = dict(Q, c=(Fraction(6) + Fraction(1, 7), 3))
    assert "lengths" in checks.witness_error(LINF2, frac(P), nudged, VERTICES, EDGES)


def test_witness_checker_rejects_a_congruent_copy():
    rng = random.Random(3)
    for matrix in rng.sample(checks.signed_permutations(2), 4):
        copy = {v: tuple(a + b for a, b in zip(checks.apply(matrix, p), (2, -5))) for v, p in frac(P).items()}
        assert "congruent" in checks.witness_error(LINF2, frac(P), copy, VERTICES, EDGES)


def test_signed_permutations_form_the_isometry_group():
    for d in (1, 2, 3):
        perms = checks.signed_permutations(d)
        assert len(set(perms)) == len(perms) == 2 ** d * factorial(d)
        for kind in ("linf", "l1"):
            faces = checks.faces(kind, d)
            for M in perms:
                assert {checks.apply(checks.transpose(M), f) for f in faces} == faces


def test_a_inverse_carries_linf_lengths_to_l1():
    rng = random.Random(11)
    l1 = checks.faces("l1", 2)
    for _ in range(200):
        x, y = random_point(rng), random_point(rng)
        assert checks.a_map(checks.a_inverse(x)) == x
        assert checks.norm_value(LINF2, checks.diff(x, y)) == checks.norm_value(
            l1, checks.diff(checks.a_inverse(x), checks.a_inverse(y)))


def test_a_inverse_preserves_well_positionedness():
    rng = random.Random(12)
    l1 = checks.faces("l1", 2)
    seen = set()
    for _ in range(300):
        pos = {v: random_point(rng, bound=3) for v in "abcd"}
        edges = [(v, w) for v in "abcd" for w in "abcd" if v < w]
        image = {v: checks.a_inverse(p) for v, p in pos.items()}
        wp = checks.is_well_positioned(LINF2, pos, edges)
        assert checks.is_well_positioned(l1, image, edges) == wp
        seen.add(wp)
    assert seen == {True, False}


def test_checker_rank_and_two_connectivity():
    assert checks.rank([[1, 2], [2, 4], [0, 1]]) == 2
    cycle = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    assert checks.is_2_connected(list("abcd"), cycle)
    assert not checks.is_2_connected(list("abcd"), cycle[:3])


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(spans.PER_LAYER)
    assert [m["unit"] for m in SPEC["per_layer"]] == list(spans.PER_LAYER.values())
    sys.path.insert(0, str(ROOT / "src"))
    import run

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_printed_metrics_match_benchmark_json():
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench("--workload", "structure", "--seed", "4", "--seconds", "0", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[key]}
    recorded = spans.read_spans(ROOT / ".bench_out" / "trace-structure-seed4.bin")
    assert recorded
    for name, start, end, parent in recorded:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = recorded[parent]
            assert p_start <= start and end <= p_end


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "proof", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
