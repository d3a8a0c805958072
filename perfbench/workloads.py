"""The benchmark's workloads: fixed, ordered task lists that call the
public functions of `dynvertex`, and the gates that check their answers.

Each task returns a `Result`.  `gate` compares it with the stored
references in `refs.json` (made by `make_refs.py` with seeds no workload
run uses); a task that raises or fails a gate is counted as failed, and
the pass carries on with the next task.

The worker imports this module after it has timed `import dynvertex.cli`,
so nothing here is charged to set-up time.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field

from dynvertex import asymptotics, cli, models, observables, specfun, weights
from dynvertex.models import ModelSpec, current

# Model parameters shared with the test suite and the CLI defaults.
_S_IM = 1j * math.sqrt(0.3)
GENERAL = ModelSpec.general(0.4, -0.2, U=(1.05,), Xi=(_S_IM,), S=(_S_IM,),
                            J=(1,))
QHAHN = ModelSpec.qhahn(0.4, -0.2, B=(-0.3,), C=(0.4,), J=(1,))
_ELL = specfun.EllipticContext(mode="elliptic", eta=0.07, tau=1.3j)
_TRIG = specfun.EllipticContext(mode="trigonometric", eta=0.07)

MC_SIGMAS = 5.0     # MC mean vs reference, in combined standard errors
EXACT_RTOL = 1e-9   # deterministic values vs stored references
IDENTITY_RTOL = 1e-8  # rhs_quadrature vs lhs_exact
ROW_SUM_TOL = 1e-10   # stochasticity of phi/psi rows (the CLI default)
PERIOD_RTOL = 1e-9    # theta1/f_eval antiperiodicity, Pochhammer recursion

# Per-task sizes.  "full" is what the benchmark measures; "tiny" runs the
# same code paths in seconds, for the benchmark's own tests.
SIZES = {
    "full": {
        "pep-heat": {"N": 400, "samples": 4000},
        "pep-gamma": {"N": 1000, "samples": 1000},
        "asym-kpz": {"N": 500, "samples": 2000},
        "asym-dyn": {"N": 500, "samples": 2000},
        "pep-j2-n8": {"N": 8},
        "general-n3": {"N": 3},
        "qhahn-k3": {"N": 3, "x": (3, 2, 1)},
        "pep-k2": {"N": 4, "x": (2, 1)},
        "cli-specfun": {"argv": ["specfun"]},
        "cli-check-weights": {"argv": ["check-weights"]},
        "cli-symfun": {"argv": ["symfun"]},
        "grid": {"theta1": 10000, "f_eval": 50000, "q_pochhammer": 25000,
                 "phi_rows": 1500, "psi_J2_rows": 300, "psi_J3_rows": 200},
        "step-300": {"N": 300},
        "general-scalar": {"N": 5, "samples": 1000},
        "qhahn-vec": {"N": 5, "samples": 100000},
        "corner-dyn": {"N": 200, "samples": 100},
    },
    "tiny": {
        "pep-heat": {"N": 20, "samples": 50},
        "pep-gamma": {"N": 20, "samples": 50},
        "asym-kpz": {"N": 20, "samples": 50},
        "asym-dyn": {"N": 20, "samples": 50},
        "pep-j2-n8": {"N": 3},
        "general-n3": {"N": 2},
        "qhahn-k3": {"N": 2, "x": (2, 1)},
        "pep-k2": {"N": 3, "x": (2, 1)},
        "cli-specfun": {"argv": ["specfun", "--grid-size", "2"]},
        "cli-check-weights": {"argv": ["check-weights", "--family", "phi"]},
        "cli-symfun": {"argv": ["symfun", "--suite", "symmetry"]},
        "grid": {"theta1": 20, "f_eval": 20, "q_pochhammer": 20,
                 "phi_rows": 5, "psi_J2_rows": 2, "psi_J3_rows": 2},
        "step-300": {"N": 20},
        "general-scalar": {"N": 2, "samples": 20},
        "qhahn-vec": {"N": 3, "samples": 200},
        "corner-dyn": {"N": 20, "samples": 20},
    },
}


class GateFailure(Exception):
    """A task's answer disagrees with its reference."""


@dataclass
class Result:
    """What one task produced.  `mc` maps an observable to (mean, stderr);
    `exact` maps a deterministic value to its float; `checks` lists
    (name, residual, tolerance) computed by the task itself; `counts` are
    deterministic work counts, recorded but not gated."""

    mc: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


@dataclass
class Ctx:
    tr: object          # Tracer or NullTracer
    base_seed: int      # seed of this task's inputs
    size: dict          # this task's entry of SIZES
    mc_scale: int = 1   # sample multiplier (references use more samples)


# ---------------------------------------------------------------------------
# Shared pieces


def _ensemble(ctx, task, spec, N, samples, obs):
    """run_ensemble under a span; obs maps a name to (callback span name,
    callback)."""
    tr = ctx.tr
    samples *= ctx.mc_scale
    with tr.span("models.run_ensemble", task=task,
                 traj_steps=samples * N) as a:
        fns = [tr.timed(span, fn) for span, fn in obs.values()]
        ests = models.run_ensemble(spec, N, samples, ctx.base_seed, fns)
    res = Result(counts={"traj_steps": a["traj_steps"]})
    for name, est in zip(obs, ests):
        res.mc[name] = (est.mean, est.stderr)
    return res


def _height_moments(law, sites):
    out = {}
    for x in sites:
        out["E[h(%d)]" % x] = law.mean(lambda c: sum(c[x - 1:]))
        out["E[h(%d)^2]" % x] = law.mean(lambda c: sum(c[x - 1:]) ** 2)
    return out


def _current_obs(*sites, square=False):
    obs = {}
    for x in sites:
        obs["h(%d)" % x] = ("models.current", lambda st, x=x: current(st, x))
        if square:
            obs["h(%d)^2" % x] = ("models.current",
                                  lambda st, x=x: current(st, x) ** 2)
    return obs


# ---------------------------------------------------------------------------
# ensemble: the vectorized window engines


def pep_heat(ctx):
    N, samples = ctx.size["N"], ctx.size["samples"]
    x = N // 2  # J r T / (J+1) at r = 1, s = 0
    res = _ensemble(ctx, "pep-heat", ModelSpec.jgamma_pep(1, 1e12), N,
                    samples, _current_obs(x, x + 1))
    with ctx.tr.span("asymptotics.targets", task="pep-heat"):
        target = asymptotics.heat_profile(0.0, 1.0, 1)
    res.exact["heat_profile(0,1)"] = target
    scaled = 0.5 / math.sqrt(N) * (res.mc["h(%d)" % x][0]
                                   + res.mc["h(%d)" % (x + 1)][0])
    res.info["scaled_current"] = scaled
    res.info["rel_bias_vs_target"] = (scaled - target) / target
    return res


def pep_gamma(ctx):
    N, samples = ctx.size["N"], ctx.size["samples"]
    gamma, x = 3.0, N // 2
    obs = {
        "m1": ("models.current",
               lambda st: _fact(current(st, x), 1, gamma) / N ** 0.5),
        "m2": ("models.current",
               lambda st: _fact(current(st, x), 2, gamma) / N),
    }
    res = _ensemble(ctx, "pep-gamma", ModelSpec.jgamma_pep(1, gamma), N,
                    samples, obs)
    with ctx.tr.span("asymptotics.targets", task="pep-gamma"):
        law = asymptotics.GammaLaw(gamma, 1.0)
        targets = {m: (1.0 / (2.0 * math.pi)) ** (m / 2.0)
                   * asymptotics.gamma_moment(law, m) for m in (1, 2)}
    for m, t in targets.items():
        res.exact["gamma_target_m%d" % m] = t
        res.info["rel_bias_m%d" % m] = (res.mc["m%d" % m][0] - t) / t
    return res


def _fact(h, m, gamma):
    out = 1.0
    for j in range(m):
        out *= (h - j) * (h + gamma + j)
    return out


def _asym(ctx, task, delta, with_target):
    N, samples = ctx.size["N"], ctx.size["samples"]
    q, eta = 0.25, 0.5
    x = int(eta * N)
    res = _ensemble(ctx, task, ModelSpec.asym_pep(q, delta), N, samples,
                    _current_obs(x, square=True))
    if with_target:
        with ctx.tr.span("asymptotics.targets", task=task):
            m = asymptotics.lln_shapes(q, "m", eta)
            f = asymptotics.lln_shapes(q, "f", eta)
        res.exact["lln_m"] = m
        res.exact["lln_f"] = f
        res.info["rel_bias_mean"] = (res.mc["h(%d)" % x][0] / N - m) / m
    return res


def asym_kpz(ctx):
    return _asym(ctx, "asym-kpz", 0.0, True)


def asym_dyn(ctx):
    # No closed-form limit is stated for delta < 0.
    return _asym(ctx, "asym-dyn", -0.5, False)


# ---------------------------------------------------------------------------
# exact: enumeration, psi/sigma and contour quadrature


def _exact(ctx, task, spec):
    N = ctx.size["N"]
    with ctx.tr.span("models.exact_law", task=task) as a:
        law = models.exact_law(spec, N)
        a["configs"] = len(law.support)
    res = Result(counts={"configs": a["configs"]})
    res.exact.update(_height_moments(law, range(2, N + 1)))
    return res


def pep_j2_n8(ctx):
    return _exact(ctx, "pep-j2-n8", ModelSpec.jgamma_pep(2, 7.0))


def general_n3(ctx):
    return _exact(ctx, "general-n3", GENERAL)


def _identity(ctx, task, model):
    tr = ctx.tr
    spec = observables.ObservableSpec(model, ctx.size["x"], ctx.size["N"])
    with tr.span("observables.solve_contours", task=task):
        contour = observables.solve_contours(spec)
    with tr.span("observables.rhs_quadrature", task=task) as a:
        diag = observables.rhs_quadrature(spec, contour, full=True)
        n, n0 = diag["nodes_used"], contour.nodes_per_circle
        a["nodes_used"] = n
        a["evals"] = sum((n0 << i) ** spec.k
                         for i in range((n // n0).bit_length()))
    with tr.span("observables.lhs_exact", task=task):
        lhs = observables.lhs_exact(spec)
    res = Result(counts={"nodes_used": a["nodes_used"], "evals": a["evals"]})
    res.exact["lhs_exact"] = lhs
    res.checks.append(("rhs_quadrature vs lhs_exact",
                       abs(diag["value"] - lhs) / abs(lhs), IDENTITY_RTOL))
    return res


def qhahn_k3(ctx):
    return _identity(ctx, "qhahn-k3", QHAHN)


def pep_k2(ctx):
    return _identity(ctx, "pep-k2", ModelSpec.jgamma_pep(1, 5.0))


# ---------------------------------------------------------------------------
# kernels: per-call cost of the layers, and the per-vertex kernel in
# sampling mode


def _cli(ctx, name):
    buf = io.StringIO()
    with ctx.tr.span("cli." + name), contextlib.redirect_stdout(buf):
        code = cli.dispatch(list(ctx.size["argv"]))
    passed = code == 0 and json.loads(buf.getvalue()).get("passed") is True
    return Result(checks=[("exit 0 and passed", 0.0 if passed else 1.0,
                           0.0)])


def cli_specfun(ctx):
    return _cli(ctx, "specfun")


def cli_check_weights(ctx):
    return _cli(ctx, "check-weights")


def cli_symfun(ctx):
    return _cli(ctx, "symfun")


# Parameter values the check-weights grid shows to be stochastic; the
# seed picks among them, so every draw is a valid input.
_PHI_GRID = {"q": (0.25, 0.4, 0.6), "b": (0.05, 0.09, 0.15), "J": (1, 2, 3),
             "kappa": (0.0, 0.1, 0.25, 0.4)}
_PSI_GRID = {"u": (0.91, 0.7, 0.5), "s": (0.3, 0.45), "q": (0.3, 0.4, 0.55),
             "kappa": (0.1, 0.15, 0.35)}


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def grid(ctx):
    """Direct calls into specfun and weights on seeded inputs.  Each gate
    is an identity that holds for every input drawn."""
    tr, n = ctx.tr, ctx.size
    rng = random.Random(ctx.base_seed)
    res = Result()

    def cplx(lo, hi, im):
        return complex(rng.uniform(lo, hi), rng.uniform(-im, im))

    zs = [cplx(-0.5, 0.5, 0.2) for _ in range(n["theta1"] // 2)]
    with tr.span("specfun.theta1", calls=2 * len(zs)):
        lhs = [specfun.theta1(z + 1.0, _ELL) for z in zs]
        rhs = [specfun.theta1(z, _ELL) for z in zs]
    res.checks.append(("theta1(z+1) = -theta1(z)",
                       max(map(_rel, lhs, (-v for v in rhs))), PERIOD_RTOL))

    zs = [cplx(-0.5, 0.5, 0.2) for _ in range(n["f_eval"] // 2)]
    with tr.span("specfun.f_eval", calls=2 * len(zs)):
        lhs = [specfun.f_eval(z + 1.0, _TRIG) for z in zs]
        rhs = [specfun.f_eval(z, _TRIG) for z in zs]
    res.checks.append(("f(z+1) = -f(z)",
                       max(map(_rel, lhs, (-v for v in rhs))), PERIOD_RTOL))

    pts = [(cplx(0.3, 0.8, 0.3), cplx(0.35, 0.65, 0.1), rng.randrange(8))
           for _ in range(n["q_pochhammer"] // 2)]
    with tr.span("specfun.q_pochhammer", calls=2 * len(pts)):
        lhs = [specfun.q_pochhammer(a, q, k + 1) for a, q, k in pts]
        rhs = [specfun.q_pochhammer(a, q, k) for a, q, k in pts]
    res.checks.append(("(a;q)_{k+1} = (a;q)_k (1 - a q^k)",
                       max(_rel(x, y * (1 - a * q ** k))
                           for x, y, (a, q, k) in zip(lhs, rhs, pts)),
                       PERIOD_RTOL))

    rows = []
    for _ in range(n["phi_rows"]):
        q, b, J, kap = (rng.choice(_PHI_GRID[k]) for k in
                        ("q", "b", "J", "kappa"))
        rows.append((weights.PhiParams(q=q, a=b * q ** J, b=b, kappa=kap),
                     rng.randrange(8)))
    with tr.span("weights.phi", calls=sum(i + 1 for _, i in rows)):
        sums = [sum(weights.phi(j, i, p) for j in range(i + 1))
                for p, i in rows]
    res.checks.append(("phi row sums", max(abs(v - 1) for v in sums),
                       ROW_SUM_TOL))

    for J in (2, 3):
        rows = []
        for _ in range(n["psi_J%d_rows" % J]):
            u, s, q, kap = (rng.choice(_PSI_GRID[k]) for k in
                            ("u", "s", "q", "kappa"))
            rows.append((weights.PsiParams(u=u, s=s, q=q, J=J, kappa=kap),
                         rng.randrange(5), rng.randrange(J + 1)))
        calls = sum(min(J, i1 + j1) + 1 for _, i1, j1 in rows)
        with tr.span("weights.psi_J%d" % J, calls=calls):
            sums = [sum(weights.psi((i1, j1, i1 + j1 - j2, j2), p)
                        for j2 in range(min(J, i1 + j1) + 1))
                    for p, i1, j1 in rows]
        res.checks.append(("psi J=%d row sums" % J,
                           max(abs(v - 1) for v in sums), ROW_SUM_TOL))
    return res


def step_300(ctx):
    """One trajectory stepped the way `simulate --trajectory-csv` does."""
    spec = ModelSpec.jgamma_pep(1, 5.0)  # the simulate --model pep default
    N = ctx.size["N"]
    with ctx.tr.span("models.step", steps=N):
        state = models.initial_state(spec, seed=ctx.base_seed)
        rows = []
        for _ in range(N):
            state = models.step(state, spec)
            rows.extend((state.time, i, int(n))
                        for i, n in enumerate(state.occupancy, start=1))
    bad = sum(1 for _, _, n in rows if not 0 <= n <= 2)
    res = Result(counts={"steps": N, "rows": len(rows)})
    res.checks.append(("occupancy within [0, J+1]", bad, 0))
    res.checks.append(("particles = J * steps",
                       abs(state.total_particles - N), 0))
    return res


def general_scalar(ctx):
    # N = 5: at row 6 these parameters meet a negative weight at site 1.
    return _ensemble(ctx, "general-scalar", GENERAL, ctx.size["N"],
                     ctx.size["samples"], _current_obs(2, 3))


def qhahn_vec(ctx):
    # N = 5 for the same reason as general-scalar.
    return _ensemble(ctx, "qhahn-vec", QHAHN, ctx.size["N"],
                     ctx.size["samples"], _current_obs(2, 3))


def corner_dyn(ctx):
    obs = {"height(0)": ("models.height", lambda st: st.height(0.0)),
           "height(0)^2": ("models.height", lambda st: st.height(0.0) ** 2)}
    return _ensemble(ctx, "corner-dyn", ModelSpec.corner_dyn(3.0),
                     ctx.size["N"], ctx.size["samples"], obs)


WORKLOADS = {
    "ensemble": [("pep-heat", pep_heat), ("pep-gamma", pep_gamma),
                 ("asym-kpz", asym_kpz), ("asym-dyn", asym_dyn)],
    "exact": [("pep-j2-n8", pep_j2_n8), ("general-n3", general_n3),
              ("qhahn-k3", qhahn_k3), ("pep-k2", pep_k2)],
    "kernels": [("cli-specfun", cli_specfun),
                ("cli-check-weights", cli_check_weights),
                ("cli-symfun", cli_symfun), ("grid", grid),
                ("step-300", step_300), ("general-scalar", general_scalar),
                ("qhahn-vec", qhahn_vec), ("corner-dyn", corner_dyn)],
}


def task_seed(seed, workload, index):
    """Base seed of one task's inputs; references use seeds >= 2**40."""
    return (int(seed) * 64 + 8 * sorted(WORKLOADS).index(workload)
            + index) % 2 ** 40


# ---------------------------------------------------------------------------
# Gates


def gate(res, ref):
    """Raise GateFailure unless `res` agrees with its reference entry."""
    for name, residual, tol in res.checks:
        if not residual <= tol:
            raise GateFailure("%s: residual %.3g > %.3g"
                              % (name, residual, tol))
    for name, value in res.exact.items():
        want = ref["exact"][name]
        if not abs(value - want) <= EXACT_RTOL * abs(want):
            raise GateFailure("%s = %.17g, reference %.17g"
                              % (name, value, want))
    for name, (mean, se) in res.mc.items():
        want, want_se = ref["mc"][name]
        sigma = math.hypot(se, want_se)
        if sigma == 0.0:
            ok = abs(mean - want) <= EXACT_RTOL * abs(want)
        else:
            ok = abs(mean - want) <= MC_SIGMAS * sigma
        if not ok:
            raise GateFailure("%s = %.6g +- %.2g, reference %.6g +- %.2g"
                              % (name, mean, se, want, want_se))
