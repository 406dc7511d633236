"""The benchmark at a tiny size: every workload, untraced and traced.

    python -m pytest bench/test_bench.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# a few seconds per run, and an entry with an expected False on each workload
# where one exists
TINY = {
    "suite-n200": ["--points", "10", "--entries", "clifford_torus,real_circle_S3,control_non_lagrangian"],
    "cli-n20": ["--points", "10", "--entries", "clifford_torus,control_non_horizontal"],
    "crosscheck-p5": ["--points", "2", "--entries", "whitney_sphere,product_S1xS2"],
}


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), *TINY[workload]],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digest(lines):
    return next(re.search(r"verdicts of pass 0: sha256 (\w+)", ln).group(1)
                for ln in lines if "verdicts of pass 0" in ln)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    plain_lines, plain = result_of(bench(workload, 0))
    traced_lines, traced = result_of(bench(workload, 1))
    _, again = result_of(bench(workload, 1))

    for lines, result, kind in (
        (plain_lines, plain, "end_to_end"), (traced_lines, traced, "per_layer")
    ):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert any(re.match(r"failed_ratio\s+0 ratio", ln) for ln in lines)
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units
        for name, unit in units.items():
            assert any(re.match(rf"{re.escape(name)}\s+\S+ {re.escape(unit)}$", ln)
                       for ln in lines), name
    for m in plain["metrics"].values():
        assert m["value"] > 0

    assert digest(plain_lines) == digest(traced_lines)
    assert any("traced == untraced: True" in ln for ln in traced_lines)

    def counts(result):
        return {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".calls")}

    assert counts(traced) == counts(again)
    assert traced["metrics"]["dsl.evaluate_map_jets.calls"]["value"] > 0


def test_fails_without_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("suite-n200", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
