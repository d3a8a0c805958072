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

Each report's checks are errors.Check records built by the module that
computes its numbers (specfun.identity_checks, weights.row_sum_checks,
symfun.consistency_checks, observables.identity_check and
asymptotics.experiment); this module parses, calls and formats.

Exit codes: 0 every gated check passed; 1 a gated check failed or a
numerical routine reported failure; 2 usage or configuration error.

Reports are JSON documents whose body is a deterministic function of the
resolved configuration and seed; the "timing" field (wall clock and
timestamp) is the only part excluded from reproducibility comparisons.
CSV column layouts are documented in each subcommand's --help text.
"""

import argparse
import csv
import dataclasses
import datetime
import itertools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import Check, DynVertexError
from .models import ModelSpec, Trajectory, check_ensemble_size, estimates
from .observables import ObservableSpec, identity_check
from .asymptotics import experiment
from .specfun import identity_checks
from .symfun import SUITES, consistency_checks
from .weights import row_sum_checks


class _ConfigError(Exception):
    """Invalid configuration (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# Report plumbing


def _jsonable(obj):
    """Recursively convert a report to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, str) or obj is None:
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


def _positive(text):
    """The argparse type of the tolerances: a float > 0, else exit 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: %r" % text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive, got %r" % value)
    return value


def _seed(text):
    """The argparse type of --seed: an int >= 0, as numpy's SeedSequence
    takes, else exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# specfun, check-weights and symfun subcommands


def _run_specfun(args):
    if args.grid_size < 1:
        raise _ConfigError("--grid-size must be >= 1, got %d"
                           % args.grid_size)
    rows = identity_checks(args.seed, args.grid_size, args.tol)
    return {"subcommand": "specfun",
            "config": {"grid_size": args.grid_size, "tol": args.tol},
            "checks": [row.as_dict() for row in rows]}


def _run_check_weights(args):
    rows = row_sum_checks(args.family, args.tol)
    return {"subcommand": "check-weights",
            "config": {"family": args.family, "tol": args.tol},
            "checks": [row.as_dict() for row in rows]}


def _run_symfun(args):
    rows = consistency_checks(args.suite, args.tol, args.mass_tol)
    return {"subcommand": "symfun",
            "config": {"suite": args.suite, "tol": args.tol,
                       "mass_tol": args.mass_tol},
            "checks": [row.as_dict() for row in rows]}


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


def _powers(q, exponents, what):
    """The q-Hahn defaults (q^e, ...), or a config error where undefined."""
    try:
        return tuple(q ** e for e in exponents)
    except (ZeroDivisionError, OverflowError) as exc:
        raise _ConfigError("q = %r leaves %s undefined: %s" % (q, what, exc))


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
            C = (tuple(cfg["C"]) if "C" in cfg
                 else _powers(q, J, "the default C = (q^J, ...)"))
            B = (tuple(cfg["B"]) if "B" in cfg
                 else _powers(q, (-2,), "the default B = (q^-2,)"))
            return ModelSpec.qhahn(q, cfg.get("delta", -0.2), B, C, J)
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
    particle-system sites are integers >= 1, and either lies within
    2^53, where floats hold every integer."""
    if abs(s) > 2.0 ** 53:
        raise _ConfigError("site %g is beyond 2^53, where floats no longer "
                           "hold every integer" % s)
    if spec.is_corner:
        if not (s + steps / 2).is_integer():
            raise _ConfigError(
                "site %g is not on the time-%d lattice of the corner model "
                "(site + steps/2 must be an integer)" % (s, steps))
    elif not (s.is_integer() and s >= 1):
        raise _ConfigError("site %g is not an integer >= 1, as particle "
                           "system sites must be" % s)
    return int(s) if s.is_integer() else s


def _check_size(steps, samples):
    """check_ensemble_size, as a config error."""
    try:
        check_ensemble_size(steps, samples)
    except ValueError as exc:
        raise _ConfigError(str(exc))


def _run_simulate(args):
    if args.steps < 0:
        raise _ConfigError("--steps must be >= 0, got %d" % args.steps)
    if args.samples < 1:
        raise _ConfigError("--samples must be >= 1, got %d" % args.samples)
    _check_size(args.steps, args.samples)
    cfg = _load_config(args.config)
    spec = _model_from_config(args.model, cfg)
    sites = tuple(_probe_site(s, spec, args.steps) for s in args.sites)
    traj_rows = []
    for snap in itertools.islice(Trajectory(spec, args.samples, args.seed),
                                 args.steps + 1):
        t = snap.time
        if args.trajectory_csv and t and spec.is_corner:
            first = snap.ensemble(1)
            traj_rows += [(t, p, int(first.height(p)[0]))
                          for p in (i - 2 - t / 2 for i in range(t + 5))]
        elif args.trajectory_csv and t:
            traj_rows += [(t, x, int(n))
                          for x, n in enumerate(snap.occupancy, start=1)]
    ests = estimates(snap.ensemble(), args.seed,
                     [lambda st, s=s: st.height(s) for s in sites])
    checks = [dict(Check("height_site_%s" % s, est.mean).as_dict(),
                   stderr=est.stderr) for s, est in zip(sites, ests)]
    rows = [(s, est.mean, est.stderr, est.n_samples)
            for s, est in zip(sites, ests)]
    if args.csv:
        _write_csv(args.csv, ("site", "mean", "stderr", "n_samples"), rows)
    if args.trajectory_csv:
        _write_csv(args.trajectory_csv, ("time", "site", "value"),
                   traj_rows)
    return {"subcommand": "simulate",
            "config": {"model": args.model, "model_config": cfg,
                       "steps": args.steps, "samples": args.samples,
                       "sites": list(sites), "csv": args.csv,
                       "trajectory_csv": args.trajectory_csv or None},
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
            C = _powers(args.q, J, "C = (q^J, ...)")
            model = ModelSpec.qhahn(args.q, args.delta, tuple(args.b), C, J)
        else:
            model = ModelSpec.jgamma_pep(args.J[0], args.gamma)
        spec = ObservableSpec(model, xs, args.N)
    except (ValueError, DynVertexError) as exc:
        raise _ConfigError("invalid identity parameters: %s" % exc)
    if args.samples < 0 or args.samples == 1:  # a stderr needs two
        raise _ConfigError("--samples must be 0 or >= 2, got %d"
                           % args.samples)
    _check_size(args.N, args.samples)
    rep, rows = identity_check(spec, samples=args.samples, seed=args.seed,
                               tol=args.tol)
    return {"subcommand": "verify-identity",
            "config": {"form": args.form, "x": list(xs), "N": args.N,
                       "q": args.q, "delta": args.delta,
                       "b": list(args.b), "J": list(args.J),
                       "gamma": args.gamma, "samples": args.samples,
                       "tol": args.tol},
            "identity": rep,
            "checks": [row.as_dict() for row in rows]}


# ---------------------------------------------------------------------------
# asymptotics subcommand

_EXPERIMENT_NAMES = {
    "heat": "heat_lln",
    "gamma": "dynamic_gamma",
    "kpz-exponent": "kpz_exponent",
    "f-collapse": "f_collapse",
}


def _run_asymptotics(args):
    cfg = _load_config(args.config)
    try:
        run = experiment(_EXPERIMENT_NAMES[args.experiment], cfg,
                         seed=args.seed)
    except (ValueError, TypeError, OverflowError) as exc:
        raise _ConfigError("invalid experiment config: %s" % exc)
    if args.csv:
        _write_csv(args.csv, *run.csv)
    return {"subcommand": "asymptotics",
            "config": {"experiment": args.experiment,
                       "experiment_config": run.config, "gate": args.gate,
                       "csv": args.csv},
            "experiment": run.report,
            "checks": [(row if row.tolerance is not None else
                        dataclasses.replace(row, tolerance=args.gate)
                        ).as_dict() for row in run.checks]}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(sub):
    sub.add_argument("--seed", type=_seed, default=0,
                     help="base seed, a non-negative integer (default 0)")
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
                   help="random points per identity, >= 1 (default 100)")
    p.add_argument("--tol", type=_positive, default=1e-10,
                   help="relative-residual gate (default 1e-10)")
    _add_common(p)
    p.set_defaults(handler=_run_specfun)

    p = subs.add_parser("check-weights", help="stochasticity checks",
                        description="Row sums of the transition weights "
                        "must equal 1 on the parameter grid.  The phi "
                        "family also reports phi_negative_weight_share, "
                        "not gated: the share of the grid's phi(j, i) "
                        "entries with negative real part (points: the "
                        "entries evaluated), where phi is not a "
                        "probability law.")
    p.add_argument("--family", choices=("phi", "psi", "both"),
                   default="both")
    p.add_argument("--tol", type=_positive, default=1e-10)
    _add_common(p)
    p.set_defaults(handler=_run_check_weights)

    p = subs.add_parser("symfun", help="partition-function checks",
                        description="Symmetry, branching, fusion, and "
                        "stochastic-variant consistency on small "
                        "signatures.")
    p.add_argument("--suite", default="all", choices=SUITES)
    p.add_argument("--tol", type=_positive, default=1e-9)
    p.add_argument("--mass-tol", type=_positive, default=1e-8,
                   help="gate for the truncated total-mass sum")
    _add_common(p)
    p.set_defaults(handler=_run_symfun)

    p = subs.add_parser(
        "simulate", help="Monte Carlo simulation",
        description="Seeded ensemble simulation; reports mean/stderr of "
        "the height function at the requested sites.  --csv columns: "
        "site, mean, stderr, n_samples.  --trajectory-csv columns: time, "
        "site, value: the occupancy, or for corner models the height "
        "H_t(p) = 2p + 2h_t(p + t/2 + 1) at p = -2 - t/2, ..., 2 + t/2, "
        "with h the height of the J = 1 exclusion process they run.")
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
                   help="write sample 0 of the ensemble the report "
                   "summarizes, at times 1..steps, as CSV")
    _add_common(p)
    p.set_defaults(handler=_run_simulate)

    p = subs.add_parser(
        "verify-identity", help="observable identity check",
        description="Expectation of the multiplicative observable vs the "
        "contour-integral formula, by exact enumeration and optionally "
        "Monte Carlo.  Where the quadrature does not converge and the "
        "right side has a closed form, the exact value is the answer and "
        "the quadrature's outcome an ungated row.")
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
                   help="Monte Carlo samples, 0 (exact only) or >= 2")
    p.add_argument("--tol", type=_positive, default=1e-8,
                   help="relative gate for the change of the "
                   "quadrature's accepted pass from its pass at half the "
                   "nodes and for the exact residual (default 1e-8)")
    _add_common(p)
    p.set_defaults(handler=_run_verify_identity)

    p = subs.add_parser(
        "asymptotics", help="scaling-limit experiments",
        description="Runs one experiment and reports observed vs "
        "predicted limits.  --csv layouts: heat -> (s, limit_profile, "
        "empirical_mean) on s = -2, -1.9, ..., 2 and each configured s, "
        "the mean filled at configured s; kpz-exponent -> (T, std); "
        "f-collapse -> (eta, site, mean, std, normalized_std); "
        "gamma -> (m, mc_mean, mc_stderr, target, rel_error).  At J = 1, "
        "s = 0 and an even step count, gamma's report also reads its "
        "moments at the corner origin, zeta(0) = 2 * current(T/2 + 1), "
        "in a corner_moments block.  Only memory bounds a time horizon: "
        "a config whose ensemble needs more bytes than physical memory "
        "(one per sample and step) exits 2, and any other runs however "
        "long it takes.")
    p.add_argument("--experiment", required=True,
                   choices=tuple(_EXPERIMENT_NAMES))
    p.add_argument("--config", help="JSON experiment config, inline or "
                   "@file")
    p.add_argument("--gate", type=_positive,
                   help="gate the residual of each check that has no "
                   "tolerance of its own at this value, > 0")
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
