"""One pass over a workload's task list, in a fresh process.

Usage (started by run.py): worker.py SPAWN_MONOTONIC JOB_JSON

SPAWN_MONOTONIC is the parent's time.monotonic() just before it started
this process, so set-up time counts interpreter start-up and the import of
`dynvertex.cli`.  Nothing before that import loads numpy or scipy.  Prints
one JSON line: set-up time, pass time, peak RSS and per-task outcomes (and
the spans when the job asks for tracing).  A job without a workload only
imports and reports its set-up time.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
spawned = float(sys.argv[1])
import dynvertex.cli  # noqa: E402,F401  (the import set-up time measures)

setup_s = time.monotonic() - spawned

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def main():
    job = json.loads(sys.argv[2])
    if job["workload"] is None:  # a set-up probe: import only
        print(json.dumps({"setup_s": setup_s}))
        return
    with open(job["refs"]) as fh:
        refs = json.load(fh)[job["size"]]
    sizes = workloads.SIZES[job["size"]]
    tr = tracer.Tracer() if job["trace"] else tracer.NullTracer()
    tasks = []
    t_pass = time.perf_counter()
    for i, (name, fn) in enumerate(workloads.WORKLOADS[job["workload"]]):
        tr.task = name
        ctx = workloads.Ctx(tr, workloads.task_seed(job["seed"],
                                                    job["workload"], i),
                            sizes[name])
        t0 = time.perf_counter()
        rec = {"task": name, "ok": True, "error": None, "counts": {},
               "info": {}}
        try:
            res = fn(ctx)
            rec["counts"], rec["info"] = res.counts, res.info
            workloads.gate(res, refs[name])
        except Exception as exc:  # a failed task is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            rec["ok"] = False
            rec["error"] = "%s: %s" % (type(exc).__name__, exc)
        rec["seconds"] = time.perf_counter() - t0
        tasks.append(rec)
    pass_s = time.perf_counter() - t_pass
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"setup_s": setup_s, "pass_s": pass_s,
           "peak_rss_mb": peak_kb / 1024.0, "tasks": tasks}
    if job["trace"]:
        out["spans"] = tr.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
