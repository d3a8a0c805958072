"""Command-line front end: seeded, gated numerical checks, simulations,
and experiments with machine-readable reports.

Subcommands
-----------
specfun          special-function summation identities on random grids
check-weights    row-sum (stochasticity) checks of the transition weights
symfun           partition-function consistency checks
simulate         seeded Monte Carlo simulation with JSON/CSV output
verify-identity  observable expectation vs contour-integral quadrature
asymptotics      scaling-limit experiments

Exit codes: 0 every gated check passed; 1 a gated check failed or a
numerical routine reported failure; 2 usage or configuration error.

Reports are JSON documents whose body is a deterministic function of the
resolved configuration and seed; the "timing" field (wall clock and
timestamp) is the only part excluded from reproducibility comparisons.
CSV column layouts are documented in each subcommand's --help text.
"""

import argparse
import csv
import datetime
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import DynVertexError
from .models import ModelSpec, current, initial_state, run_ensemble, step
from .observables import ObservableSpec, identity_check
from .asymptotics import experiment
from .specfun import (
    EllipticContext,
    elliptic_pochhammer,
    f_eval,
    q_pochhammer,
    rational_pochhammer,
    vwp_basic_W,
    vwp_elliptic_v,
)
from .symfun import (
    ColumnSpec,
    RhoSpecialization,
    Signature,
    b_fused,
    b_munu,
    b_stochastic,
    d_munu,
    _b_stochastic_vertex,
)
from .weights import ArrowConfig, PhiParams, PsiParams, phi, psi_row, \
    psi_u_equals_s


class _ConfigError(Exception):
    """Invalid configuration (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# Report plumbing


def _record(name, value, residual, tolerance, gated=True, **extra):
    rec = {"name": name, "value": value, "residual": residual,
           "tolerance": tolerance, "gated": gated}
    rec["passed"] = (not gated) or (residual is not None
                                    and residual <= tolerance)
    rec.update(extra)
    return rec


def _jsonable(obj):
    """Recursively convert a report to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        # strict JSON has no inf or nan; they become "inf", "-inf", "nan"
        return float(obj) if math.isfinite(obj) else str(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    return str(obj)


def _finish(report, args, t0):
    report["version"] = __version__
    report["seed"] = int(getattr(args, "seed", 0))
    report["passed"] = all(c["passed"] for c in report.get("checks", ()))
    report["timing"] = {
        "wall_clock_seconds": time.monotonic() - t0,
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
    }
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True,
                      allow_nan=False)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["passed"] else 1


def _load_config(raw):
    """Parse an inline JSON object or @path to a JSON file."""
    if raw is None:
        return {}
    if raw.startswith("@"):
        try:
            with open(raw[1:]) as fh:
                raw = fh.read()
        except OSError as exc:
            raise _ConfigError("cannot read config file: %s" % exc)
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _ConfigError("config is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise _ConfigError("config must be a JSON object")
    return cfg


def _check_keys(cfg, allowed, where):
    extra = sorted(set(cfg) - set(allowed))
    if extra:
        raise _ConfigError("unknown %s config keys: %s (allowed: %s)"
                           % (where, ", ".join(extra), ", ".join(allowed)))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# specfun subcommand

_TRIG = EllipticContext(mode="trigonometric", eta=0.07)
_ELL = EllipticContext(mode="elliptic", eta=0.07, tau=1.3j)


def _cplx(rng, lo, hi, im=0.15):
    return complex(rng.uniform(lo, hi), rng.uniform(-im, im))


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def _rogers_residual(rng, n, npts):
    worst = 0.0
    for _ in range(npts):
        q = _cplx(rng, 0.3, 0.6, 0.05)
        a = _cplx(rng, 0.5, 0.9)
        b = _cplx(rng, 0.25, 0.45)
        c = _cplx(rng, -0.7, -0.4)
        lhs = vwp_basic_W(a, [b, c, q ** -n], q,
                          a * q ** (n + 1) / (b * c), terminate_at=n)
        rhs = (q_pochhammer(a * q, q, n)
               * q_pochhammer(a * q / (b * c), q, n)
               / (q_pochhammer(a * q / b, q, n)
                  * q_pochhammer(a * q / c, q, n)))
        worst = max(worst, _rel(lhs, rhs))
    return worst


def _jackson_residual(rng, ctx, n, npts):
    eta = complex(ctx.eta)
    worst = 0.0
    for _ in range(npts):
        a = _cplx(rng, 0.5, 0.8)
        b = _cplx(rng, 0.15, 0.3, 0.1)
        c = _cplx(rng, 0.1, 0.22, 0.08)
        d = _cplx(rng, -0.35, -0.2, 0.1)
        e = 2 * a - 2 * eta - b - c - d - 2 * eta * n
        lhs = vwp_elliptic_v(a, [b, c, d, e, 2 * eta * n], 1.0, ctx,
                             terminate_at=n)
        ep = lambda x, k: elliptic_pochhammer(x, k, ctx)
        rhs = (ep(a - 2 * eta, n) * ep(a - b - c - 2 * eta, n)
               * ep(a - b - d - 2 * eta, n) * ep(a - c - d - 2 * eta, n)
               / (ep(a - b - 2 * eta, n) * ep(a - c - 2 * eta, n)
                  * ep(a - d - 2 * eta, n)
                  * ep(a - b - c - d - 2 * eta, n)))
        worst = max(worst, _rel(lhs, rhs))
    return worst


def _quartic_residual(rng, ctx, npts):
    worst = 0.0
    for _ in range(npts):
        w, x, y, z = (complex(rng.uniform(0.05, 0.45),
                              rng.uniform(-0.2, 0.2)) for _ in range(4))
        fe = lambda u: f_eval(u, ctx)
        lhs = fe(x + z) * fe(x - z) * fe(y + w) * fe(y - w)
        rhs = (fe(x + y) * fe(x - y) * fe(z + w) * fe(z - w)
               + fe(x + w) * fe(x - w) * fe(y + z) * fe(y - z))
        worst = max(worst, _rel(lhs, rhs))
    return worst


def _basic_list_residual(rng, which, npts):
    worst = 0.0
    for _ in range(npts):
        a = _cplx(rng, 0.3, 0.8, 0.3)
        q = _cplx(rng, 0.35, 0.65, 0.1)
        k = int(rng.integers(-3, 5))
        m = int(rng.integers(-3, 5))
        qp = q_pochhammer
        if which == 1:
            lhs = qp(a, q, k) * qp(a * q ** k, q, m)
            rhs = qp(a, q, k + m)
        elif which == 2:
            lhs = qp(q ** (m - k) * a, q, m - k) \
                * qp(q ** (2 * m - 2 * k + 1) * a, q, k)
            rhs = qp(q ** (m - k) * a, q, m + 1) \
                / (1 - q ** (2 * m - 2 * k) * a)
        elif which == 3:
            lhs = qp(q ** -k * a, q, m)
            rhs = (qp(a, q, m) * qp(q / a, q, k)
                   / (q ** (m * k) * qp(1 / (q ** (m - 1) * a), q, k)))
        elif which == 4:
            lhs = qp(a, q, m - k)
            rhs = (q ** ((k + 1) * k // 2 - m * k) / (-a) ** k
                   * qp(a, q, m) / qp(1 / (a * q ** (m - 1)), q, k))
        elif which == 5:
            k = abs(k)
            lhs = qp(a, q, k) * qp(-a, q, k)
            rhs = qp(a * a, q * q, k)
        elif which == 6:
            lhs = qp(q * q * a, q * q, k) / qp(a, q * q, k)
            rhs = (1 - q ** (2 * k) * a) / (1 - a)
        else:  # q -> 1 degeneration to the rational symbol, factor by
            # factor via expm1/log1p so the 1 - q^{a+j} differences keep
            # full relative accuracy at q = 1 - 1e-12.
            eps = 1e-12
            lq = math.log1p(-eps)
            ar = rng.uniform(3.2, 3.9)
            kk = int(rng.integers(-3, 6))
            lhs = 1.0
            if kk >= 0:
                for j in range(kk):
                    lhs *= -math.expm1((ar + j) * lq) / eps
            else:
                for j in range(1, -kk + 1):
                    lhs /= -math.expm1((ar - j) * lq) / eps
            rhs = rational_pochhammer(ar, kk)
        worst = max(worst, _rel(lhs, rhs))
    return worst


def _elliptic_list_residual(rng, ctx, which, npts):
    eta = complex(ctx.eta)
    worst = 0.0
    for _ in range(npts):
        a = _cplx(rng, 0.2, 0.6, 0.2)
        m = int(rng.integers(0, 6))
        k = int(rng.integers(0, m + 1))
        ep = lambda x, n: elliptic_pochhammer(x, n, ctx)
        if which == 1:
            lhs = ep(a, m)
            rhs = (-1) ** m * ep(2 * eta * (m - 1) - a, m)
        elif which == 2:
            lhs = ep(a, m - k)
            rhs = ep(a, m) / ep(a - 2 * eta * (m - k), k)
        else:
            lhs = ep(a, k) * ep(a - 2 * eta * (k + 1), m - k)
            rhs = ep(a, m + 1) / f_eval(a - 2 * eta * k, ctx)
        worst = max(worst, _rel(lhs, rhs))
    return worst


def _run_specfun(args):
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    npts, tol = args.grid_size, args.tol
    checks = []
    for n in range(6):
        checks.append(_record("rogers_6w5_n%d" % n, None,
                              _rogers_residual(rng, n, npts), tol,
                              points=npts))
    for label, ctx in (("trig", _TRIG), ("elliptic", _ELL)):
        for n in range(5):
            checks.append(_record("jackson_10v9_%s_n%d" % (label, n), None,
                                  _jackson_residual(rng, ctx, n, npts), tol,
                                  points=npts))
        checks.append(_record("riemann_quartic_%s" % label, None,
                              _quartic_residual(rng, ctx, npts), tol,
                              points=npts))
        for i in range(1, 4):
            checks.append(_record(
                "elliptic_pochhammer_identity_%d_%s" % (i, label), None,
                _elliptic_list_residual(rng, ctx, i, npts), tol,
                points=npts))
    for i in range(1, 8):
        checks.append(_record("basic_pochhammer_identity_%d" % i, None,
                              _basic_list_residual(rng, i, npts), tol,
                              points=npts))
    return {"subcommand": "specfun",
            "config": {"grid_size": npts, "tol": tol},
            "checks": checks}


# ---------------------------------------------------------------------------
# check-weights subcommand


def _phi_row_sum_checks(tol):
    worst, count = 0.0, 0
    for q in (0.25, 0.4, 0.6):
        for b in (0.05, 0.09, 0.15):
            for J in (1, 2, 3):
                for kappa in (0.0, 0.1, 0.25, 0.4):
                    p = PhiParams(q=q, a=b * q ** J, b=b, kappa=kappa)
                    count += 1
                    for i in range(8):
                        tot = sum(phi(j, i, p) for j in range(i + 1))
                        worst = max(worst, abs(tot - 1.0))
    return _record("phi_row_sums", None, worst, tol, points=count)


def _psi_row_sum_checks(tol):
    worst, count = 0.0, 0
    for u in (0.91, 0.7, 0.5):
        for s in (0.3, 0.45):
            for q in (0.3, 0.4, 0.55):
                for J in (1, 2, 3):
                    # kappa = q is a singular line of the weights; the
                    # grid stays clear of it
                    for kappa in (0.1, 0.15, 0.35):
                        pp = PsiParams(u=u, s=s, q=q, J=J, kappa=kappa)
                        count += 1
                        for i1 in range(5):
                            for j1 in range(J + 1):
                                tot = sum(psi_row(i1, j1, pp))
                                worst = max(worst, abs(tot - 1.0))
    return _record("psi_row_sums", None, worst, tol, points=count)


def _psi_phi_degeneration_check(tol):
    worst = 0.0
    for J in (1, 2, 3):
        pp = PsiParams(u=0.3, s=0.3, q=0.4, J=J, kappa=0.15)
        for i1 in range(4):
            for j1 in range(J + 1):
                for j2, w in enumerate(psi_row(i1, j1, pp)):
                    cfg = ArrowConfig(i1, j1, i1 + j1 - j2, j2)
                    worst = max(worst, abs(w - psi_u_equals_s(cfg, pp)))
    return _record("psi_at_u_equals_s_matches_phi", None, worst, tol)


def _run_check_weights(args):
    if args.grid != "default":
        raise _ConfigError("unknown grid %r (available: default)" % args.grid)
    checks = []
    if args.family in ("phi", "both"):
        checks.append(_phi_row_sum_checks(args.tol))
    if args.family in ("psi", "both"):
        checks.append(_psi_row_sum_checks(args.tol))
        checks.append(_psi_phi_degeneration_check(args.tol))
    return {"subcommand": "check-weights",
            "config": {"family": args.family, "grid": args.grid,
                       "tol": args.tol},
            "checks": checks}


# ---------------------------------------------------------------------------
# symfun subcommand

_LAM = 0.31 + 0.12j
_Z = (0.11, -0.05 + 0.02j, 0.21, 0.08, -0.13, 0.17, 0.02, 0.09)
_L = (0.83, 0.67 + 0.05j, 0.91, 0.55, 0.73, 0.61, 0.77, 0.59)
_W1, _W2, _W3 = 0.45, 0.29 + 0.1j, -0.18 + 0.07j
_ETA = 0.07


def _sigs(n, maxp):
    import itertools
    for p in itertools.combinations_with_replacement(range(maxp + 1), n):
        yield tuple(sorted(p, reverse=True))


def _symfun_checks(tol, mass_tol, suite="all"):
    checks = []
    want = lambda name: suite in ("all", name)
    for label, ctx in (("trig", _TRIG), ("elliptic", _ELL)):
        mu, nu = Signature((3, 2, 1)), Signature((2,))
        if want("symmetry") or want("branching"):
            a = b_munu(mu, nu, ColumnSpec(_LAM, (_W1, _W2), _Z, _L, ctx))
        if want("symmetry"):
            b = b_munu(mu, nu, ColumnSpec(_LAM, (_W2, _W1), _Z, _L, ctx))
            checks.append(_record("b_symmetry_%s" % label, None,
                                  _rel(a, b), tol))
            da = d_munu(mu, Signature((2, 1, 0)),
                        ColumnSpec(_LAM, (_W1, _W2), _Z, _L, ctx))
            db = d_munu(mu, Signature((2, 1, 0)),
                        ColumnSpec(_LAM, (_W2, _W1), _Z, _L, ctx))
            checks.append(_record("d_symmetry_%s" % label, None,
                                  _rel(da, db), tol))
        if want("branching"):
            tot = 0.0
            for kp in _sigs(2, 4):
                kap = Signature(kp)
                tot += (b_munu(mu, kap,
                               ColumnSpec(_LAM, (_W1,), _Z, _L, ctx))
                        * b_munu(kap, nu,
                                 ColumnSpec(_LAM + 2 * _ETA, (_W2,),
                                            _Z, _L, ctx)))
            checks.append(_record("b_branching_%s" % label, None,
                                  _rel(a, tot), tol))
        if not want("fusion"):
            continue
        worst = 0.0
        for jlist, wbase in (((2,), (_W1,)), ((1, 2), (_W1, _W2))):
            jtot = sum(jlist)
            flat = []
            for j, w in zip(jlist, wbase):
                flat += [w + 2 * _ETA * k for k in range(j)]
            fmu = Signature(tuple(range(jtot, 0, -1)))
            fnu = Signature(())
            fused = b_fused(fmu, fnu,
                            ColumnSpec(_LAM, wbase, _Z, _L, ctx, jlist))
            unfused = b_munu(fmu, fnu, ColumnSpec(_LAM, flat, _Z, _L, ctx))
            worst = max(worst, _rel(fused, unfused))
        checks.append(_record("b_fusion_%s" % label, None, worst, tol))
    if not want("stochastic-b"):
        return checks
    # stochastic variant: formula vs direct vertex evaluation, and total
    # mass over all reachable outputs (trigonometric mode only)
    rho = RhoSpecialization(_Z[0], _L[0])
    worst = 0.0
    for jlist, wbase in (((1,), (_W1,)), ((2,), (_W1,))):
        jtot = sum(jlist)
        spec = ColumnSpec(0.31, wbase, [_Z[0]] * 8, [_L[0]] * 8, _TRIG,
                          jlist)
        mu, nu = Signature((2,) * jtot + (1,)), Signature((1,))
        a = b_stochastic(mu, nu, spec, rho)
        b = _b_stochastic_vertex(mu, nu, spec)
        worst = max(worst, abs(a - b))
    checks.append(_record("b_stochastic_formula_vs_vertex", None, worst,
                          tol))
    import cmath
    q, s, uxi, delta, cut = 0.4, 0.3, 0.25, -0.2 + 0j, 16
    eta = 1j * cmath.log(q) / (4 * math.pi)
    ctx = EllipticContext(mode="trigonometric", eta=eta)
    Lam = cmath.log(s) / (2j * math.pi * eta)
    w = -cmath.log(uxi) / (2j * math.pi) + eta
    lam = 1j * cmath.log(delta) / (2 * math.pi)
    spec = ColumnSpec(lam, (w,), [0.0] * (cut + 1), [Lam] * (cut + 1),
                      ctx, (1,))
    total = sum(b_stochastic(Signature(mup), Signature((1,)), spec,
                             RhoSpecialization(0.0, Lam)).real
                for mup in _sigs(2, cut))
    checks.append(_record("b_stochastic_total_mass", total,
                          abs(total - 1.0), mass_tol))
    return checks


def _run_symfun(args):
    checks = _symfun_checks(args.tol, args.mass_tol, args.suite)
    return {"subcommand": "symfun",
            "config": {"suite": args.suite, "tol": args.tol,
                       "mass_tol": args.mass_tol},
            "checks": checks}


# ---------------------------------------------------------------------------
# simulate subcommand

_MODEL_KEYS = {
    "general": ("q", "delta", "U", "Xi", "S", "J"),
    "qhahn": ("q", "delta", "B", "C", "J"),
    "pep": ("J", "gamma"),
    "asym-pep": ("q", "delta"),
    "corner": ("p",),
    "corner-dyn": ("gamma",),
}


def _config_complex(v):
    """A JSON [re, im] pair, the form reports print complex numbers in,
    becomes complex; any other value is left to the model constructor."""
    return complex(*v) if isinstance(v, list) and len(v) == 2 else v


def _model_from_config(model, cfg):
    _check_keys(cfg, _MODEL_KEYS[model], "model")
    try:
        if model == "general":
            missing = [k for k in _MODEL_KEYS["general"] if k not in cfg]
            if missing:
                raise _ConfigError("general model requires keys: %s"
                                   % ", ".join(missing))
            U, Xi, S = ([_config_complex(v) for v in cfg[key]]
                        for key in ("U", "Xi", "S"))
            return ModelSpec.general(cfg["q"], _config_complex(cfg["delta"]),
                                     U, Xi, S, cfg["J"])
        if model == "qhahn":
            q = cfg.get("q", 0.4)
            J = tuple(cfg.get("J", (1,)))
            C = tuple(cfg.get("C", tuple(q ** j for j in J)))
            return ModelSpec.qhahn(q, cfg.get("delta", -0.2),
                                   tuple(cfg.get("B", (-0.3,))), C, J)
        if model == "pep":
            return ModelSpec.jgamma_pep(cfg.get("J", 1),
                                        cfg.get("gamma", 5.0))
        if model == "asym-pep":
            return ModelSpec.asym_pep(cfg.get("q", 0.25),
                                      cfg.get("delta", 0.0))
        if model == "corner":
            return ModelSpec.corner(cfg.get("p", 0.5))
        return ModelSpec.corner_dyn(cfg.get("gamma", 3.0))
    except (ValueError, TypeError, DynVertexError) as exc:
        raise _ConfigError("invalid model parameters: %s" % exc)


def _probe_site(s, spec, steps):
    """A --sites value checked against the model's lattice, as an int
    where it is integral: corner positions p need p + steps/2 integral,
    particle-system sites are integers >= 1."""
    if spec.is_corner:
        if not (s + steps / 2).is_integer():
            raise _ConfigError(
                "site %g is not on the time-%d lattice of the corner model "
                "(site + steps/2 must be an integer)" % (s, steps))
    elif not (s.is_integer() and s >= 1):
        raise _ConfigError("site %g is not an integer >= 1, as particle "
                           "system sites must be" % s)
    return int(s) if s.is_integer() else s


def _run_simulate(args):
    cfg = _load_config(args.config)
    spec = _model_from_config(args.model, cfg)
    sites = tuple(_probe_site(s, spec, args.steps) for s in args.sites)
    if spec.is_corner:
        observables = [lambda st, s=s: st.height(s) for s in sites]
    else:
        observables = [lambda st, s=s: current(st, s) for s in sites]
    ests = run_ensemble(spec, args.steps, args.samples, args.seed,
                        observables)
    checks = []
    rows = []
    for s, est in zip(sites, ests):
        checks.append(_record("height_site_%s" % s, est.mean, None, None,
                              gated=False, stderr=est.stderr))
        rows.append((s, est.mean, est.stderr, est.n_samples))
    if args.csv:
        _write_csv(args.csv, ("site", "mean", "stderr", "n_samples"), rows)
    traj = None
    if args.trajectory_csv:
        state = initial_state(spec, seed=args.seed)
        traj_rows = []
        for _ in range(args.steps):
            state = step(state, spec)
            if spec.is_corner:
                for pos in state.positions():
                    traj_rows.append((state.time, pos,
                                      state.height(pos)))
            else:
                for i, n in enumerate(state.occupancy, start=1):
                    traj_rows.append((state.time, i, int(n)))
        _write_csv(args.trajectory_csv, ("time", "site", "value"),
                   traj_rows)
        traj = args.trajectory_csv
    return {"subcommand": "simulate",
            "config": {"model": args.model, "model_config": cfg,
                       "steps": args.steps, "samples": args.samples,
                       "sites": list(sites), "csv": args.csv,
                       "trajectory_csv": traj},
            "checks": checks}


# ---------------------------------------------------------------------------
# verify-identity subcommand


def _run_verify_identity(args):
    xs = tuple(args.x)
    if args.k is not None and args.k != len(xs):
        raise _ConfigError("--k (%d) must equal the number of probe sites "
                           "(%d)" % (args.k, len(xs)))
    try:
        if args.form == "qhahn":
            J = tuple(args.J)
            C = tuple(args.q ** j for j in J)
            model = ModelSpec.qhahn(args.q, args.delta, tuple(args.b), C, J)
        else:
            model = ModelSpec.jgamma_pep(args.J[0], args.gamma)
        spec = ObservableSpec(model, xs, args.N)
    except (ValueError, DynVertexError) as exc:
        raise _ConfigError("invalid identity parameters: %s" % exc)
    if not args.tol > 0 or args.samples < 0:
        raise _ConfigError("--tol must be positive and --samples >= 0")
    rep, rows = identity_check(spec, samples=args.samples, seed=args.seed,
                               tol=args.tol)
    return {"subcommand": "verify-identity",
            "config": {"form": args.form, "x": list(xs), "N": args.N,
                       "q": args.q, "delta": args.delta,
                       "b": list(args.b), "J": list(args.J),
                       "gamma": args.gamma, "samples": args.samples,
                       "tol": args.tol},
            "identity": rep,
            "checks": [_record(*row) for row in rows]}


# ---------------------------------------------------------------------------
# asymptotics subcommand

_EXPERIMENT_NAMES = {
    "heat": "heat_lln",
    "gamma": "dynamic_gamma",
    "kpz-exponent": "kpz_exponent",
    "f-collapse": "f_collapse",
    "corner-quartic": "corner_quartic",
}


def _run_asymptotics(args):
    cfg = _load_config(args.config)
    try:
        run = experiment(_EXPERIMENT_NAMES[args.experiment], cfg,
                         seed=args.seed)
    except (ValueError, TypeError) as exc:
        raise _ConfigError("invalid experiment config: %s" % exc)
    if args.csv:
        _write_csv(args.csv, *run.csv)
    gate = args.gate
    return {"subcommand": "asymptotics",
            "config": {"experiment": args.experiment,
                       "experiment_config": run.config, "gate": gate,
                       "csv": args.csv},
            "experiment": run.report,
            "checks": [_record(*row, gate, gated=gate is not None)
                       for row in run.checks]}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0,
                     help="base seed (default 0)")
    sub.add_argument("--out", help="write the JSON report here "
                     "(default: stdout)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dynvertex",
        description="Dynamical stochastic higher spin vertex models: "
                    "checks, simulations, identities, and experiments.")
    parser.add_argument("--version", action="version",
                        version="dynvertex %s" % __version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("specfun", help="special-function identity checks",
                        description="Gated summation-identity checks on "
                        "random parameter grids.")
    p.add_argument("--grid-size", type=int, default=100,
                   help="random points per identity (default 100)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="relative-residual gate (default 1e-10)")
    _add_common(p)
    p.set_defaults(handler=_run_specfun)

    p = subs.add_parser("check-weights", help="stochasticity checks",
                        description="Row sums of the transition weights "
                        "must equal 1 on the parameter grid.")
    p.add_argument("--family", choices=("phi", "psi", "both"),
                   default="both")
    p.add_argument("--grid", default="default",
                   help="parameter grid name (available: default)")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p)
    p.set_defaults(handler=_run_check_weights)

    p = subs.add_parser("symfun", help="partition-function checks",
                        description="Symmetry, branching, fusion, and "
                        "stochastic-variant consistency on small "
                        "signatures.")
    p.add_argument("action", nargs="?", default="verify",
                   choices=("verify",))
    p.add_argument("--suite", default="all",
                   choices=("symmetry", "branching", "fusion",
                            "stochastic-b", "all"))
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--mass-tol", type=float, default=1e-8,
                   help="gate for the truncated total-mass sum")
    _add_common(p)
    p.set_defaults(handler=_run_symfun)

    p = subs.add_parser(
        "simulate", help="Monte Carlo simulation",
        description="Seeded ensemble simulation; reports mean/stderr of "
        "the height function at the requested sites.  --csv columns: "
        "site, mean, stderr, n_samples.  --trajectory-csv columns: time, "
        "site, value (occupancy, or height for corner models).")
    p.add_argument("--model", required=True, choices=tuple(_MODEL_KEYS))
    p.add_argument("--config", help="JSON object with model parameters, "
                   "inline or @file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--sites", type=float, nargs="+", default=[1.0],
                   help="probe sites: integers >= 1 for particle systems; "
                   "for corner models, positions p with p + steps/2 an "
                   "integer (half-integers at odd --steps)")
    p.add_argument("--csv", help="write the ensemble summary CSV here")
    p.add_argument("--trajectory-csv",
                   help="write one seeded trajectory as CSV")
    _add_common(p)
    p.set_defaults(handler=_run_simulate)

    p = subs.add_parser(
        "verify-identity", help="observable identity check",
        description="Expectation of the multiplicative observable vs the "
        "contour-integral formula, by exact enumeration and optionally "
        "Monte Carlo.")
    p.add_argument("--form", choices=("qhahn", "pep"), required=True)
    p.add_argument("--k", type=int, help="observable order (must match "
                   "the number of probe sites)")
    p.add_argument("--x", type=int, nargs="+", default=[1],
                   help="probe sites, weakly decreasing")
    p.add_argument("--N", type=int, default=1, help="time horizon")
    p.add_argument("--q", type=float, default=0.4)
    p.add_argument("--delta", type=float, default=-0.2)
    p.add_argument("--b", type=float, nargs="+", default=[-0.3],
                   help="site parameters (qhahn form)")
    p.add_argument("--J", type=int, nargs="+", default=[1],
                   help="row degrees")
    p.add_argument("--gamma", type=float, default=5.0,
                   help="dynamical rate (pep form)")
    p.add_argument("--samples", type=int, default=0,
                   help="Monte Carlo samples (0: exact only)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="relative gate for node doubling and for the exact "
                   "residual (default 1e-8)")
    _add_common(p)
    p.set_defaults(handler=_run_verify_identity)

    p = subs.add_parser(
        "asymptotics", help="scaling-limit experiments",
        description="Runs one experiment and reports observed vs "
        "predicted limits.  --csv layouts: heat -> (s, limit_profile, "
        "empirical_mean) on s = -2, -1.9, ..., 2 and each configured s, "
        "the mean filled at configured s; kpz-exponent -> (T, std); "
        "f-collapse -> (eta, site, mean, std, normalized_std); "
        "gamma/corner-quartic -> (m, mc_mean, mc_stderr, target, "
        "rel_error).")
    p.add_argument("--experiment", required=True,
                   choices=tuple(_EXPERIMENT_NAMES))
    p.add_argument("--config", help="JSON experiment config, inline or "
                   "@file")
    p.add_argument("--gate", type=float,
                   help="gate each check's residual at this value")
    p.add_argument("--csv", help="write the profile/summary CSV here")
    _add_common(p)
    p.set_defaults(handler=_run_asymptotics)
    return parser


def dispatch(argv=None):
    """Parse arguments, run the subcommand, write the report; returns the
    process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.monotonic()
    try:
        report = args.handler(args)
    except _ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except DynVertexError as exc:
        print("check failed: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 1
    return _finish(report, args, t0)


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
