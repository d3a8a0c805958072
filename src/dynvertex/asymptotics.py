"""Scaling-limit objects for the particle systems and the desk-scale
experiments that check them.

Closed forms: the heat-equation profile H(s, r) (Gaussian smoothing of
the wedge initial data (J+1)|s| for s < 0, equal to a line integral over
1 + iR), Gamma-law moments, and the law-of-large-numbers /
fluctuation-scale shapes m, f of the capacity-2 asymmetric exclusion
process.  The models come from `models` and the moment observables from
the identity of `observables`.

Experiments drive models.run_ensemble at moderate sizes and compare
ensemble statistics against the closed forms; they gate regressions with
finite-size tolerances rather than proving limits.
"""

import inspect
import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import Check, DynVertexError, OutOfDomain
from .models import ModelSpec, current, run_ensemble
from .observables import ObservableSpec, _lhs_factors, pep_site


def heat_profile(s, r, J=1):
    """The limit height profile at lateral position s and time r > 0 of
    jgamma_pep(J, inf): the wedge initial data smoothed by the heat kernel
    of variance sigma^2 = rJ/(J+1)^2, in closed form (J+1) * (sigma *
    phi(s/sigma) - (s/2) * erfc(s / (sigma sqrt 2))) with phi the standard
    normal density.  It solves 2 (J+1)^2 dH/dr = J d^2H/ds^2 with H(s, 0) =
    (J+1)|s| for s < 0, so H(0, r) = sqrt(rJ / 2 pi), and equals the
    contour-integral representation on 1 + iR."""
    sigma = math.sqrt(_rate(r) * J) / (J + 1.0)
    density = math.exp(-0.5 * (s / sigma) ** 2) / math.sqrt(2.0 * math.pi)
    return (J + 1.0) * (sigma * density
                        - 0.5 * s * math.erfc(s / (sigma * math.sqrt(2.0))))


@dataclass(frozen=True)
class GammaLaw:
    """Gamma distribution with density b^a x^(a-1) e^(-bx) / Gamma(a)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("GammaLaw needs a > 0 and b > 0")


def gamma_moment(law, m):
    """E[X^m] = b^(-m) * a (a+1) ... (a+m-1) for the Gamma law."""
    if m < 0 or m != int(m):
        raise ValueError("m must be a nonnegative integer")
    out = 1.0
    for j in range(int(m)):
        out *= (law.a + j) / law.b
    return out


# ---------------------------------------------------------------------------
# Law-of-large-numbers and fluctuation shapes of capacity-2 asymmetric
# exclusion; 0 < q < 1 throughout.


def lln_shapes(q, which, eta):
    """The closed-form limit shape m or f (which = 'm' or 'f') at a
    density eta in (q/(1+q), 1/(1+q))."""
    if which not in ("m", "f"):
        raise ValueError("which must be 'm' or 'f', got %r" % (which,))
    if not 0.0 < q < 1.0:
        raise OutOfDomain("q must lie in (0, 1)")
    eta = float(eta)
    lo, hi = q / (1.0 + q), 1.0 / (1.0 + q)
    if not lo < eta < hi:
        raise OutOfDomain("eta=%g outside (%g, %g)" % (eta, lo, hi))
    if which == "m":
        return (math.sqrt(1.0 - eta) - math.sqrt(q * eta)) ** 2 / (1 - q)
    num = (q ** (1.0 / 3.0)
           * (math.sqrt(eta) - math.sqrt(q * (1 - eta))) ** (2.0 / 3.0)
           * (math.sqrt(1 - eta) - math.sqrt(q * eta)) ** (2.0 / 3.0))
    den = ((1 - q) ** (4.0 / 3.0) * q ** (1.0 / 6.0)
           * eta ** (1.0 / 6.0) * (1 - eta) ** (1.0 / 6.0))
    return num / den


# ---------------------------------------------------------------------------
# Experiments
#
# Each experiment takes the seed and then its config as keyword parameters,
# and returns (report, checks, csv): a list of Check, each with a name, a
# value and a residual, and the CSV table (columns, rows).


def _horizon(T):
    """A time horizon as an int; T < 1 has no step to run."""
    if not T >= 1:
        raise ValueError("each time horizon T must be >= 1, got %r" % (T,))
    return int(T)


def _model(make, *args):
    """make(*args), a ModelSpec constructor; parameters it rejects are a
    bad config (ValueError), found before any sampling."""
    try:
        return make(*args)
    except DynVertexError as exc:
        raise ValueError(str(exc)) from None


def _rate(r):
    """r as a float; the limit laws need r > 0, checked before sampling."""
    if not float(r) > 0:
        raise ValueError("r must be positive, got %r" % (r,))
    return float(r)


def _steps(r, T):
    """floor(r T), the steps of horizon T at rate r: int(r) * T, exact, for
    an integral r such as the default 1.0, where a float r * T would lose
    the last digits of a T past 2^53; the float floor(r * T) otherwise."""
    return int(r) * T if r.is_integer() else int(math.floor(r * T))


def _site_at_density(eta, T):
    """floor(eta T), the site probed at density eta after T steps; one
    below site 1 has no current to read, and raises before any sampling."""
    x = int(math.floor(eta * T))
    if x < 1:
        raise ValueError("probe site floor(eta * T) = %d is below site 1 at "
                         "T = %d, eta = %g" % (x, T, eta))
    return x


def _mc_summary(est, target):
    rel = abs(est.mean - target) / abs(target) if target else math.inf
    return {
        "mc_mean": est.mean,
        "mc_stderr": est.stderr,
        "n_samples": est.n_samples,
        "base_seed": est.base_seed,
        "target": target,
        "rel_error": rel,
        "ci95": [est.mean - 1.96 * est.stderr, est.mean + 1.96 * est.stderr],
    }


def _heat_observable(s, r, J, T):
    """The scaled current at the continuum position p = J r T/(J+1) +
    s*sqrt(T) (clamped at 0), read where the PEP identity reads its height:
    h(p) = current(pep_site(p)) at integer p, and otherwise the linear
    interpolation between the neighbouring identity sites floor(p) and
    floor(p) + 1.  Returns (fn, floor(p))."""
    p = max(J * r * T / (J + 1.0) + s * math.sqrt(T), 0.0)
    x = int(math.floor(p))
    frac = p - x
    scale = 1.0 / math.sqrt(T)

    def fn(st):
        val = current(st, pep_site(x))
        if frac:
            val = (1.0 - frac) * val + frac * current(st, pep_site(x + 1))
        return scale * val

    return fn, x


def _experiment_heat_lln(seed, /, J=1, r=1.0, s=0.0, T=1600, samples=20000):
    """The scaled current against heat_profile at each s (a number or a
    list); the CSV tabulates the profile on s = -2, -1.9, ..., 2 and at each
    configured s, with the empirical mean where one was measured."""
    J, r, T, samples = int(J), _rate(r), _horizon(T), int(samples)
    multi = isinstance(s, (list, tuple))
    s_list = [float(v) for v in s] if multi else [float(s)]
    model = ModelSpec.jgamma_pep(J, math.inf)
    N = _steps(r, T)
    obs, sites = zip(*(_heat_observable(s, r, J, T) for s in s_list))
    ests = run_ensemble(model, N, samples, seed, list(obs))
    points = []
    for s, x, est in zip(s_list, sites, ests):
        d = {"s": s, "site": x, "current_site": pep_site(x)}
        d.update(_mc_summary(est, heat_profile(s, r, J)))
        points.append(d)
    rep = {"kind": "heat_lln", "J": J, "r": r, "T": T, "steps": N,
           "points": points}
    if not multi:
        rep.update(points[0])
    checks = [Check("scaled_mean_vs_limit_profile"
                    + ("_s%g" % p["s"] if multi else ""),
                    value=p["mc_mean"], residual=p["rel_error"])
              for p in points]
    means = {round(p["s"], 10): p["mc_mean"] for p in points}
    grid = {round(float(v), 10) for v in np.arange(-2.0, 2.0 + 1e-9, 0.1)}
    return rep, checks, (("s", "limit_profile", "empirical_mean"),
                         [(v, heat_profile(v, r, J), means.get(v, ""))
                          for v in sorted(grid | set(means))])


def _moment_order(m, J, r, gamma):
    """m as an int; ValueError unless it is an integer >= 0 whose target
    (rJ/2pi)^(m/2) Gamma(gamma+m)/Gamma(gamma), by math.lgamma, is a
    normal float; that bounds the m factors of its moment (m <= 204 at the
    defaults)."""
    if not (float(m).is_integer() and m >= 0):
        raise ValueError("each m must be an integer >= 0, got %r" % (m,))
    try:
        log = (m / 2 * (math.log(r) + math.log(J / (2 * math.pi)))
               + math.lgamma(gamma + m) - math.lgamma(gamma))
    except OverflowError:  # lgamma past float range
        log = math.inf
    if not math.log(sys.float_info.min) <= log <= math.log(
            sys.float_info.max):
        raise ValueError("the target of m = %d leaves float range" % m)
    return int(m)


def _gamma_observables(model, r, s, T, m_list):
    """(x, N, fns) of dynamic_gamma: the identity site x = floor(J r T/(J+1)
    + s T^(1/4)), the steps N = floor(r T), and per m the moment
    observable (-1)^m T^(-m/2) times the product of the left side's factors
    of ObservableSpec(model, (x,) * m, N), its lead 1/(gamma (gamma+1) ...
    (gamma+m-1)) aside; 1 at m = 0.  Its mean is the k = m identity at
    x_1 = ... = x_m = x, times (-1)^m gamma (gamma+1) ... (gamma+m-1)
    T^(-m/2).  The specs (at m = 0 the one-site spec, which checks x) are
    built here, so that their checks run before any sampling."""
    J, N = model.J, _steps(r, T)
    x = int(math.floor(J * r * T / (J + 1) + s * T ** 0.25))
    fns = []
    for m in m_list:
        sites, _, factors = _lhs_factors(
            ObservableSpec(model, (x,) * max(m, 1), N))

        def fn(st, terms=tuple(zip(sites, factors))[:m],
               scale=(-1) ** m * T ** (-m / 2.0)):
            out = 1.0
            for site, factor in terms:
                out *= factor(current(st, site))
            return scale * out

        fns.append(fn)
    return x, N, fns


def _experiment_dynamic_gamma(seed, /, J=1, r=1.0, s=0.0, T=10000,
                              gamma=3.0, samples=10000, m_list=(1, 2)):
    J, r, s, T = int(J), _rate(r), float(s), _horizon(T)
    gamma, samples = float(gamma), int(samples)
    if not math.isfinite(gamma):  # the factorial moments need a finite one
        raise ValueError("gamma must be finite, got %r" % gamma)
    model = _model(ModelSpec.jgamma_pep, J, gamma)
    m_list = [_moment_order(m, J, r, gamma) for m in m_list]
    x, N, obs = _gamma_observables(model, r, s, T, m_list)
    ests = run_ensemble(model, N, samples, seed, obs)
    rep = {"kind": "dynamic_gamma", "J": J, "r": r, "s": s, "T": T,
           "gamma": gamma, "site": x, "current_site": pep_site(x),
           "steps": N, "moments": {}}
    for m, est in zip(m_list, ests):
        target = ((r * J / (2.0 * math.pi)) ** (m / 2.0)
                  * gamma_moment(GammaLaw(gamma, 1.0), m))
        rep["moments"][m] = _mc_summary(est, target)
    if J == 1 and s == 0.0 and N % 2 == 0:
        # The identity site is the corner origin, zeta(0) = 2 h(N/2 + 1);
        # T^(-1/4) zeta(0) -> 2 sqrt(chi), chi ~ GammaLaw(gamma,
        # sqrt(2 pi / r)), whose (2m)-th moment is the corner target.
        rep["height_scale"] = "zeta(0) = 2 * current(T/2 + 1)"
        rep["corner_moments"] = {
            m: {"corner_value": 4.0 ** m * d["mc_mean"],
                "corner_target": 4.0 ** m * d["target"]}
            for m, d in rep["moments"].items()}
    return (rep, [Check("factorial_moment_m%s" % m, value=d["mc_mean"],
                        residual=d["rel_error"])
                  for m, d in rep["moments"].items()],
            (("m", "mc_mean", "mc_stderr", "target", "rel_error"),
             [(m, d["mc_mean"], d["mc_stderr"], d["target"], d["rel_error"])
              for m, d in rep["moments"].items()]))


def _asym_height_stats(model, T, sites, samples, seed, centers=()):
    """(mean, std) of h_T(x) at each site x of model.  With
    centers, one per site, each tuple also carries the delta-method
    variance of log(std), (m4 - s^4) / (4 n s^4); the central moments come
    from the powers of h - center, which keep the float cancellation of
    E[h^4] ~ T^4 out."""
    obs = [lambda st, x=x: current(st, x) for x in sites]
    sq = [lambda st, x=x: current(st, x) ** 2 for x in sites]
    cen = [lambda st, x=x, c=c, k=k: (current(st, x) - c) ** k
           for x, c in zip(sites, centers) for k in (1, 2, 3, 4)]
    ests = run_ensemble(model, T, samples, seed, obs + sq + cen)
    out, n = [], len(sites)
    for i in range(n):
        mean = ests[i].mean
        var = max(ests[n + i].mean - mean * mean, 0.0)
        out.append((mean, math.sqrt(var)))
        if centers:
            d1, d2, d3, d4 = (e.mean for e in ests[2 * n + 4 * i:][:4])
            m2 = d2 - d1 * d1
            m4 = d4 - 4 * d1 * d3 + 6 * d1 * d1 * d2 - 3 * d1 ** 4
            out[-1] += ((m4 - m2 * m2) / (4 * samples * m2 * m2)
                        if m2 > 0 else math.inf,)
    return out


def _experiment_kpz_exponent(seed, /, q=0.25, eta=0.5,
                             T_list=(500, 1000, 2000, 4000), samples=4000):
    """Least-squares slope of log std(h_T(eta T)) against log T, over
    independent seeds per T, with the stderr of the slope propagated from
    the delta-method variance of each log std."""
    q, eta, samples = float(q), float(eta), int(samples)
    model = _model(ModelSpec.asym_pep, q, 0.0)
    T_list = [_horizon(t) for t in T_list]
    if len(set(T_list)) < 2:
        raise ValueError("T_list needs two distinct horizons to fit an "
                         "exponent; got %s" % T_list)
    sites = [_site_at_density(eta, T) for T in T_list]
    points = []
    for i, (T, x) in enumerate(zip(T_list, sites)):
        (mean, std, var_log), = _asym_height_stats(
            model, T, [x], samples, seed + i, [lln_shapes(q, "m", eta) * T])
        if not std > 0:
            raise ValueError("every sample of h_T(%d) agrees at T = %d: a "
                             "std of 0 has no log to fit" % (x, T))
        points.append({"T": T, "site": x, "mean": mean, "std": std,
                       "log_std_stderr": math.sqrt(var_log)})
    log_t = np.array([math.log(p["T"]) for p in points])
    slope, intercept = np.polyfit(log_t, [math.log(p["std"])
                                          for p in points], 1)
    weights = (log_t - log_t.mean()) / ((log_t - log_t.mean()) ** 2).sum()
    var_slope = sum(w * w * p["log_std_stderr"] ** 2
                    for w, p in zip(weights, points))
    rep = {"kind": "kpz_exponent", "q": q, "eta": eta,
           "n_samples": samples, "points": points,
           "fitted_exponent": float(slope),
           "fitted_exponent_stderr": math.sqrt(var_slope),
           "fit_intercept": float(intercept)}
    return (rep, [Check("fluctuation_exponent_vs_one_third",
                        value=float(slope),
                        residual=abs(float(slope) - 1.0 / 3.0))],
            (("T", "std"), [(p["T"], p["std"]) for p in points]))


def _experiment_f_collapse(seed, /, q=0.25, T=4000, eta_list=(0.4, 0.5, 0.6),
                           samples=4000):
    q, T, samples = float(q), _horizon(T), int(samples)
    model = _model(ModelSpec.asym_pep, q, 0.0)
    eta_list = [float(e) for e in eta_list]
    sites = [_site_at_density(e, T) for e in eta_list]
    statv = _asym_height_stats(model, T, sites, samples, seed)
    scale = T ** (1.0 / 3.0)
    rows = []
    for eta, x, (mean, std) in zip(eta_list, sites, statv):
        f = lln_shapes(q, "f", eta)
        rows.append({"eta": eta, "site": x, "mean": mean, "std": std,
                     "f": f, "normalized_std": std / (f * scale),
                     "lln_mean": mean / T,
                     "lln_target": lln_shapes(q, "m", eta)})
    norms = [r["normalized_std"] for r in rows]
    # A row whose samples all agree has no spread to be relative to.
    spread = ((max(norms) - min(norms)) / min(norms) if min(norms) > 0
              else math.inf)
    rep = {"kind": "f_collapse", "q": q, "T": T, "n_samples": samples,
           "rows": rows, "pairwise_spread": spread}
    return (rep, [Check("normalized_std_pairwise_spread", residual=spread)],
            (("eta", "site", "mean", "std", "normalized_std"),
             [(r["eta"], r["site"], r["mean"], r["std"], r["normalized_std"])
              for r in rows]))


_EXPERIMENTS = {
    "heat_lln": _experiment_heat_lln,
    "dynamic_gamma": _experiment_dynamic_gamma,
    "kpz_exponent": _experiment_kpz_exponent,
    "f_collapse": _experiment_f_collapse,
}


ExperimentRun = namedtuple("ExperimentRun", "report config checks csv")


def experiment(kind, config=None, seed=0):
    """Run one named scaling-limit experiment.  config holds the
    experiment's keyword parameters; an unknown key raises TypeError, and a
    time horizon below 1, an empty list or samples < 2 ValueError (a stderr
    needs two).  Only memory bounds a horizon: an ensemble of more than
    physical memory's bytes at one per sample and step raises ValueError
    before sampling (models.check_ensemble_size), and any smaller one runs
    however long it takes.  Returns an ExperimentRun: the report, the
    config completed with its defaults, the checks (Checks with no
    tolerance of their own, which the CLI's --gate fills), and the CSV
    table (columns, rows)."""
    if kind not in _EXPERIMENTS:
        raise ValueError("unknown experiment %r; choose from %s"
                         % (kind, sorted(_EXPERIMENTS)))
    fn = _EXPERIMENTS[kind]
    bound = inspect.signature(fn).bind(int(seed), **(config or {}))
    bound.apply_defaults()
    config = dict(bound.arguments)
    for key, value in config.items():
        if isinstance(value, (list, tuple)) and not value:
            raise ValueError("%s must hold one or more values" % key)
    if int(config.get("samples", 2)) < 2:
        raise ValueError("samples must be >= 2, got %r" % config["samples"])
    report, checks, csv = fn(config.pop("seed"), **config)
    return ExperimentRun(report, config, checks, csv)
