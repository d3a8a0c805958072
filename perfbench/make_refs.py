"""Regenerate the stored references the gates compare against.

    python3 perfbench/make_refs.py            # both sizes -> refs.json

Monte Carlo references are made with seeds no workload run uses (2**40 and
up) and MC_SCALE times the samples, so a run's gate holds for any workload
seed.  qhahn-vec is checked against its exact law, which is cheap at N <= 5.
Deterministic values are the program's own output at this commit.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from dynvertex.models import exact_law  # noqa: E402

MC_SCALE = 4
REF_SEED = 2 ** 40


def exact_mc(spec, N):
    law = exact_law(spec, N)
    return {"h(%d)" % x: (law.mean(lambda c, x=x: sum(c[x - 1:])), 0.0)
            for x in (2, 3)}


def make(size):
    refs = {}
    for w, (workload, tasks) in enumerate(sorted(workloads.WORKLOADS.items())):
        for i, (name, fn) in enumerate(tasks):
            print("%s %s" % (size, name), file=sys.stderr)
            sz = workloads.SIZES[size][name]
            if name == "qhahn-vec":
                refs[name] = {"exact": {},
                              "mc": exact_mc(workloads.QHAHN, sz["N"])}
                continue
            ctx = workloads.Ctx(tracer.NullTracer(), REF_SEED + 8 * w + i,
                                sz, mc_scale=MC_SCALE)
            res = fn(ctx)
            refs[name] = {"exact": res.exact, "mc": res.mc}
    return refs


def main():
    out = {size: make(size) for size in ("tiny", "full")}
    with open(HERE / "refs.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
