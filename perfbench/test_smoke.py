"""Smoke test of the benchmark harness on tiny inputs, so it cannot rot.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibrate
import checks
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


#: a per-layer metric each workload must move, so a tracer that stops catching
#: calls cannot pass with every count at 0
BUSY_LAYER = {"exact-verify": "colorings.verify_coloring.calls",
              "spectral": "matrix.eig.calls",
              "census": "colorings.census.calls",
              "cli-cold": "files.parse_graph_text.calls"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        assert result["metrics"][BUSY_LAYER[workload]]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        run.per_layer_catalogue()


def test_without_sources_the_benchmark_refuses(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work-*", "_out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "census", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    def digest(seed, workdir):
        wl = workloads.build(workload, seed, True, str(ROOT), str(tmp_path / workdir))
        wl.cleanup()
        return wl.digest()

    assert digest(5, "a") == digest(5, "b") != digest(6, "c")


def test_an_op_is_scaled_by_the_references_around_it():
    log = calibrate.SpeedLog(calibrate.Reference(lambda: 0.0, nominal_s=1.0, every_s=0.0))
    log.ended = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    log.took = [0.5, 0.5, 0.5, 2.0, 2.0, 2.0]
    assert log.scale(1.5) == 2.0
    assert log.scale(5.5) == 0.5
    assert log.scale(3.5) == pytest.approx(1 / 1.25)


@pytest.mark.parametrize("key", sorted(checks.EXPECTED_CLASSES))
def test_stored_census_counts_match_brute_force(key):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    family, k = key
    assert checks.brute_force_classes(workloads.np_family(*family), k) == \
        checks.EXPECTED_CLASSES[key]


def test_int64_checks_reject_wrong_answers():
    c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    assert np.array_equal(checks.coloring_parameters(c4, [1, 2, 1, 2]), [[0, 2], [2, 0]])
    assert checks.coloring_parameters(c4, [1, 1, 2, 2]) is not None
    assert checks.coloring_parameters(c4, [1, 2, 2, 2]) is None
    assert not checks.structure_holds(c4, checks.indicator([1, 2, 1, 2]), [[0, 2], [1, 1]])
    with pytest.raises(OverflowError):
        checks.structure_holds([[2 ** 40]], [[2 ** 40]], [[2 ** 40]])
    assert [checks.stirling2(7, k) for k in (1, 2, 3)] == [1, 63, 301]
