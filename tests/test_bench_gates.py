"""Every benchmark task at its tiny size, seed 3, and the deterministic
`exact` tasks and the kernels workload's step-300 (the `initial_state`,
`step`, `time`, `occupancy` and `total_particles` it reads; N = 300, tens
of ms) also at the benchmark's own size, must pass the benchmark's gates
against the stored references, so a wrong answer shows in the test suite
before it shows in a benchmark run.  The benchmark's modules are
loaded read-only from perfbench/ (no bytecode is written there)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 3


def load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = load("workloads")
tracer = load("tracer")
ALL_REFS = json.loads((BENCH / "refs.json").read_text())
REFS = ALL_REFS["tiny"]
TASKS = [(workload, i, name, fn)
         for workload, tasks in sorted(workloads.WORKLOADS.items())
         for i, (name, fn) in enumerate(tasks)]


def test_every_task_listed():
    assert len(TASKS) == 16 and {t[2] for t in TASKS} == set(REFS)


@pytest.mark.parametrize("workload, index, name, fn", TASKS,
                         ids=["%s/%s" % (t[0], t[2]) for t in TASKS])
def test_task_passes_its_gate(workload, index, name, fn):
    ctx = workloads.Ctx(tracer.NullTracer(),
                        workloads.task_seed(SEED, workload, index),
                        workloads.SIZES["tiny"][name])
    workloads.gate(fn(ctx), REFS[name])


EXACT = workloads.WORKLOADS["exact"]


def run_full(workload, index, name, fn):
    ctx = workloads.Ctx(tracer.NullTracer(),
                        workloads.task_seed(SEED, workload, index),
                        workloads.SIZES["full"][name])
    workloads.gate(fn(ctx), ALL_REFS["full"][name])


@pytest.mark.parametrize("index, name, fn",
                         [(i, name, fn) for i, (name, fn) in enumerate(EXACT)],
                         ids=[name for name, _ in EXACT])
def test_exact_task_passes_its_gate_at_full_size(index, name, fn):
    # The exact workload's inputs are fixed; the seed changes none of them.
    run_full("exact", index, name, fn)


def test_step_300_passes_its_gate_at_full_size():
    (index, fn), = [(i, fn) for i, (name, fn)
                    in enumerate(workloads.WORKLOADS["kernels"])
                    if name == "step-300"]
    run_full("kernels", index, "step-300", fn)
