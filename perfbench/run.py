"""Benchmark entry point for dynvertex.

    python3 perfbench/run.py --workload {ensemble,exact,kernels} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src.  Every pass over a workload's task list runs in a fresh process
(worker.py), because allocator state left by one task can double the time
of a later one in the same process.

--trace 0 repeats passes until --seconds have elapsed (at least
MIN_PASSES) and reports the end-to-end metrics as medians over passes;
set-up time is also sampled by import-only processes, MIN_SETUPS in all.
--trace 1 runs one untraced pass, one traced pass and one
`python -X importtime` start-up, and reports the per-layer metrics; the
spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it carries the
per-pass details and the deterministic counts.  See README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (standard library only)

WORKLOADS = ("ensemble", "exact", "kernels")
MIN_PASSES = 3
MIN_SETUPS = 7  # set-up time varies more than pass time; sample it more
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MODULES = ("specfun", "weights", "symfun", "models", "observables",
           "asymptotics", "cli")
ENGINE_TASKS = ("pep-heat", "pep-gamma", "asym-kpz", "asym-dyn",
                "general-scalar", "qhahn-vec", "corner-dyn")
EXACT_TASKS = ("pep-j2-n8", "general-n3")
QUAD_TASKS = ("qhahn-k3", "pep-k2")
CALL_SPANS = ("specfun.theta1", "specfun.f_eval", "specfun.q_pochhammer",
              "weights.phi", "weights.psi_J2", "weights.psi_J3")
CLI_TASKS = ("specfun", "check-weights", "symfun")


class BenchError(Exception):
    """The benchmark cannot run here."""


def run_pass(job, deadline):
    """One worker process; returns its parsed report."""
    cmd = [sys.executable, str(HERE / "worker.py"), repr(time.monotonic()),
           json.dumps(job)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s"
                         % (proc.returncode, proc.stderr[-4000:]))
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_split(deadline):
    """Cumulative import seconds of numpy, scipy and dynvertex's own
    modules (excluding numpy and scipy), from `python -X importtime`."""
    code = ("import sys; sys.path.insert(0, %r); import dynvertex.cli"
            % str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise BenchError("import failed:\n" + proc.stderr[-4000:])
    # Lines are "import time: self | cumulative | <indent>name", children
    # before their parent, nesting shown by two spaces per level.
    roots = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = (name.strip(), int(cum) * 1e-6, depth, [])
        while roots and roots[-1][2] > depth:
            node[3].append(roots.pop())
        roots.append(node)

    def pkg(prefix):
        return lambda name: name == prefix or name.startswith(prefix + ".")

    def top(nodes, pred, skip):
        """Total time of the outermost nodes matching pred, not looking
        inside nodes matching skip."""
        return sum(n[1] if pred(n[0]) else
                   0.0 if skip(n[0]) else top(n[3], pred, skip)
                   for n in nodes)

    # numpy modules first pulled in by scipy count as scipy's cost.
    numpy_s = top(roots, pkg("numpy"), pkg("scipy"))
    scipy_s = top(roots, pkg("scipy"), pkg("numpy"))
    total = top(roots, pkg("dynvertex"), lambda name: False)
    return {"setup.import.numpy_s": numpy_s,
            "setup.import.scipy_s": scipy_s,
            "setup.import.dynvertex_s": total - numpy_s - scipy_s}


def src_lines():
    out = {}
    for mod in MODULES:
        with open(SRC / "dynvertex" / (mod + ".py")) as fh:
            out["src.%s.lines" % mod] = sum(1 for _ in fh)
    return out


def layer_metrics(spans, pass_s, untraced_pass_s):
    """Per-layer metrics from one traced pass.  A metric of a layer the
    workload does not call reads 0."""
    selfs = tracer.self_times(spans)

    def find(name, task=None):
        return [r for r in spans
                if r["name"] == name and (task is None or r["task"] == task)]

    def dur(recs):
        return sum(tracer.duration(r) for r in recs)

    def own(recs):
        return sum(selfs[r["id"]] for r in recs)

    def attr(recs, key):
        return sum(r["attrs"][key] for r in recs)

    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    m = {}
    for name in CALL_SPANS:
        rs = find(name)
        m[name + ".calls_per_s"] = rate(attr(rs, "calls"), dur(rs))
    for task in ENGINE_TASKS:
        rs = find("models.run_ensemble", task)
        key = "models.run_ensemble.%s." % task
        m[key + "engine_s"] = own(rs)
        m[key + "traj_steps_per_s"] = rate(attr(rs, "traj_steps"), own(rs))
    rs = find("models.current")
    m["models.current.calls_per_s"] = rate(attr(rs, "calls"), dur(rs))
    rs = find("models.step")
    m["models.step.steps_per_s"] = rate(attr(rs, "steps"), dur(rs))
    for task in EXACT_TASKS:
        rs = find("models.exact_law", task)
        key = "models.exact_law.%s." % task
        m[key + "self_s"] = own(rs)
        m[key + "configs"] = attr(rs, "configs")
        m[key + "configs_per_s"] = rate(attr(rs, "configs"), own(rs))
    m["observables.solve_contours.self_s"] = own(
        find("observables.solve_contours"))
    for task in QUAD_TASKS:
        rs = find("observables.rhs_quadrature", task)
        key = "observables.rhs_quadrature.%s." % task
        m[key + "self_s"] = own(rs)
        m[key + "nodes_used"] = attr(rs, "nodes_used")
        m[key + "evals_per_s"] = rate(attr(rs, "evals"), own(rs))
        m[key + "sys_s"] = sum(r["sys_s"] for r in rs)
        m[key + "minflt"] = sum(r["minflt"] for r in rs)
    m["observables.lhs_exact.self_s"] = own(find("observables.lhs_exact"))
    m["asymptotics.targets.self_s"] = own(find("asymptotics.targets"))
    for name in CLI_TASKS:
        m["cli.%s.self_s" % name] = own(find("cli." + name))
    attributed = dur([r for r in spans if r["parent"] is None])
    m["bench.unattributed_frac"] = 1.0 - attributed / pass_s
    m["bench.trace_overhead_frac"] = pass_s / untraced_pass_s - 1.0
    return m


def unit_of(name):
    last = name.rsplit(".", 1)[1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_frac"):
        return "frac"
    if last.endswith("_s"):
        return "s"
    return "count"


def summarize(passes):
    tasks = [t for p in passes for t in p["tasks"]]
    failed = [t for t in tasks if not t["ok"]]
    return len(tasks), failed


def details(args, passes, extra):
    """Per-pass times and, from the first pass, the deterministic counts."""
    return dict(extra, **{
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "passes": [{k: p[k] for k in ("setup_s", "pass_s", "peak_rss_mb")}
                   for p in passes],
        "task_seconds": {t["task"]: [p["tasks"][i]["seconds"]
                                     for p in passes]
                         for i, t in enumerate(passes[0]["tasks"])},
        "counts": {t["task"]: t["counts"] for t in passes[0]["tasks"]},
        "info": {t["task"]: t["info"] for t in passes[0]["tasks"]},
        "src_lines": src_lines(),
        "errors": sorted({"%s: %s" % (t["task"], t["error"])
                          for p in passes for t in p["tasks"]
                          if not t["ok"]}),
    })


def measure(args, job, deadline):
    """--trace 0: end-to-end metrics as medians over fresh-process passes."""
    probe = dict(job, workload=None)
    run_pass(probe, deadline)  # warm the page cache; not measured
    stop = time.monotonic() + args.seconds
    passes = []
    while len(passes) < MIN_PASSES or time.monotonic() < stop:
        passes.append(run_pass(job, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(run_pass(probe, deadline)["setup_s"])
    attempted, failed = summarize(passes)
    metrics = {
        "wall_s": (statistics.median(p["pass_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
        "passed_frac": ((attempted - len(failed)) / attempted, "frac"),
    }
    return passes, metrics, {"setup_samples": setups}


def trace(args, job, deadline):
    """--trace 1: per-layer metrics from one traced pass."""
    split = import_split(deadline)
    plain = run_pass(dict(job, trace=False), deadline)
    traced = run_pass(dict(job, trace=True), deadline)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / ("trace-%s-%s-seed%d.json"
                         % (args.workload, args.size, args.seed)), "w") as fh:
        json.dump(traced["spans"], fh, indent=1)
    m = layer_metrics(traced["spans"], traced["pass_s"], plain["pass_s"])
    m.update(split)
    m.update(src_lines())
    metrics = {k: (v, unit_of(k)) for k, v in m.items()}
    return [plain, traced], metrics, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="task sizes; tiny is for the benchmark's tests")
    parser.add_argument("--refs", default=str(HERE / "refs.json"),
                        help="stored references the gates compare against")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "dynvertex" / "cli.py").is_file():
        print("error: no program source at %s" % SRC, file=sys.stderr)
        return 2
    job = {"workload": args.workload, "seed": args.seed, "size": args.size,
           "refs": str(Path(args.refs).resolve()), "trace": False}
    try:
        passes, metrics, extra = (trace if args.trace else measure)(
            args, job, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    attempted, failed = summarize(passes)
    print(json.dumps(details(args, passes, extra)))
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
