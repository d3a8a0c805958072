"""Tests of the benchmark itself, at the tiny task sizes.

    python3 -m pytest -q perfbench/selftest.py

Not named test_*.py, so the program's own test run does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def outputs(request):
    return (request.param, result(run(request.param, 0)),
            result(run(request.param, 1)))


def test_every_named_metric_appears(outputs):
    workload, plain, traced = outputs
    for out, key in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        want = {(m["name"], m["unit"]) for m in BENCH[key]}
        got = {(k, v["unit"]) for k, v in out["metrics"].items()}
        assert got == want, workload
        assert all(isinstance(v["value"], (int, float))
                   for v in out["metrics"].values())


def test_no_task_fails(outputs):
    workload, plain, traced = outputs
    for out in (plain, traced):
        assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert plain["metrics"]["passed_frac"]["value"] == 1.0


def test_traced_run_attributes_the_pass(outputs):
    _, _, traced = outputs
    assert traced["metrics"]["bench.unattributed_frac"]["value"] <= 0.10


@pytest.mark.parametrize("workload,task,kind", [
    ("exact", "pep-j2-n8", "exact"),
    ("ensemble", "asym-kpz", "mc"),
])
def test_corrupted_reference_is_counted(tmp_path, workload, task, kind):
    refs = json.loads((HERE / "refs.json").read_text())
    entry = refs["tiny"][task][kind]
    name = sorted(entry)[0]
    if kind == "mc":
        mean, se = entry[name]
        entry[name] = [mean + 20 * max(se, 1.0), se]
    else:
        entry[name] *= 1 + 1e-6
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(refs))
    out = result(run(workload, 0, "--refs", str(path)))
    assert not out["correct"] and out["failed"] > 0
    assert out["metrics"]["passed_frac"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("kernels", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
