"""Seeded Monte Carlo samplers for the dynamical particle systems, plus an
exact small-system distribution oracle.

Particle systems live on sites 1, 2, 3, ... with step boundary data: at time
t one packet of J_y arrows enters at the left of row y = t+1.  A time step
sweeps its row left to right, and at each site x one per-vertex kernel per
variant, `_kernel(spec, x, t, i1, j1, h)`, gives the law of the arrows j2
passed on to x+1 from the occupancy i1, the incoming arrows j1 and the
height h = h_t(x) (particles at sites >= x).  The dynamical parameter is
always its closed form in the height function: kappa = delta * q^(-2h) *
prod(b) * prod(c) for the row-update models, and its degenerations for
the exclusion processes, whose X(x) depends only on (eta(x), h(x)) and
whose probabilities are the shared formulas of `weights`.

The corner-growth variants are the J = 1 exclusion process read through
its height function (Borodin's dynamic exclusion processes): the corner
height at position y is H_t(y) = 2y + 2 h_t(y + t/2 + 1), a flat segment
is a site holding one particle, and it goes up when that particle moves
on.  `corner(p)`'s lone particle stays with the constant chance 1 - p, and
`corner_dyn(gamma)` is jgamma_pep(1, gamma), with Upsilon - gamma = H.
Only `Ensemble.height` reads their positions through the map.

`exact_law` sweeps all branches of many configurations at once, as arrays.
Every trajectory runs on a vectorized engine that stores the height
function, a row per site and a column per trajectory: `_ensemble_rows`
for the row-update models (qhahn is the u = s point of general),
`_ensemble_pep` for the exclusion processes, bit-sliced in
`_ensemble_bits` for some J = 1 cases.  It advances all trajectories in
lockstep and yields each time t = 0, 1, 2, ... to a `Trajectory` as a
`Snapshot`, with integer dtypes that hold the largest value reachable by
then, so that a snapshot at time t has the dtype of a run that stops at t.
A snapshot builds its `Ensemble` on demand, a copy of the rows its engine
stores; observables read it as int64 arrays, so that no product of heights
wraps in a narrow engine dtype.

Only `_trajectory_rng` builds random generators here, and
`specfun.identity_checks` in the package; numpy loads `numpy.random` at
the first call of one of them, so the layers that draw no random number
never pay for it.
"""

import cmath
import itertools
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DynVertexError,
    InadmissibleParameters,
    InadmissibleWeights,
    SizeLimit,
)
from .specfun import _SINGULAR_TOL, EllipticContext, f_eval
from .weights import (
    PhiParams,
    PsiParams,
    asym_pep_stay,
    jgamma_pep_stay,
    phi,
    psi_row,
)

_WEIGHT_SUM_TOL = 1e-10
_WEIGHT_NEG_TOL = 1e-12
_VARIANTS = ("general", "qhahn", "jgamma_pep", "asym_pep", "corner",
             "corner_dyn")
_PEP = ("jgamma_pep", "asym_pep", "corner", "corner_dyn")


# ---------------------------------------------------------------------------
# Model specification


@dataclass(frozen=True)
class ModelSpec:
    """Which particle system to run, with its parameters.

    Sequences (per-site or per-row parameter lists) extend cyclically.
    Admissibility of the sampled weight vectors is validated lazily at
    sampling time.
    """

    variant: str
    q: float = None
    delta: float = None
    U: tuple = None
    Xi: tuple = None
    S: tuple = None
    B: tuple = None
    C: tuple = None
    J: object = None
    gamma: float = None
    p: float = None
    # The memo of `_kernel` for this spec; outside equality and hashing.
    _kernel_memo: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError("unknown variant %r" % (self.variant,))
        for name in ("U", "Xi", "S", "B", "C"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, tuple(val))

    # -- constructors -------------------------------------------------------

    @classmethod
    def general(cls, q, delta, U, Xi, S, J):
        """Row-update model with the full psi transition weights; requires
        the tests of q that psi makes at its first call: |q| at least the
        singular tolerance, q != 1, and f(2 eta) not below it, where eta =
        i log(q) / 4 pi."""
        J = _degrees(J)
        q, = _finite_tuple(float, "q", (q,))
        delta, = _finite_tuple(complex, "delta", (delta,))
        eta = (1j * cmath.log(q) / (4 * math.pi)
               if abs(q) >= _SINGULAR_TOL else 0)
        if not eta or abs(f_eval(2 * eta, EllipticContext(
                "trigonometric", eta))) < _SINGULAR_TOL:
            raise InadmissibleParameters(
                "general needs |q| >= %g, q != 1 and |f(2 eta)| >= %g, as psi "
                "does; got q = %r" % (_SINGULAR_TOL, _SINGULAR_TOL, q))
        return cls(variant="general", q=q, delta=delta,
                   U=_finite_tuple(complex, "U", U),
                   Xi=_finite_tuple(complex, "Xi", Xi),
                   S=_finite_tuple(complex, "S", S), J=J)

    @classmethod
    def qhahn(cls, q, delta, B, C, J):
        """Row-update model with the q-Hahn-type phi transition weights;
        requires c_y = q^{J_y} with positive integer J_y, q != 0, b_x != 0,
        and phi's a = b_x c_y and each factor 1 - q^m of its (q; q)_j at
        least phi's singular tolerance in modulus."""
        q, = _finite_tuple(float, "q", (q,))
        delta, = _finite_tuple(float, "delta", (delta,))
        J = _degrees(J)
        C = _finite_tuple(float, "C", C)
        B = _finite_tuple(float, "B", B)
        if len(C) != len(J):
            raise ValueError("C and J must have matching lengths")
        if q == 0 or 0.0 in B:
            raise InadmissibleParameters("qhahn needs q != 0 and every "
                                         "b_x != 0")
        # phi's (q; q)_j is the product of 1 - q^m, m = 1..j, as phi forms
        # them in floats; their least modulus is at m = 1 or 2
        if min(abs(1 - q), abs(1 - q * q)) < _SINGULAR_TOL:
            raise InadmissibleParameters(
                "qhahn needs every |1 - q^m| >= %g, where phi's (q; q)_j does "
                "not vanish; got q = %r" % (_SINGULAR_TOL, q))
        for c, j in zip(C, J):
            if abs(c - q ** j) > 1e-12 * max(1.0, abs(c)):
                raise InadmissibleParameters(
                    "qhahn requires c_y = q**J_y (got c=%r, J=%r)" % (c, j))
        # |b c| is monotone in |b| and |c|, in floats too
        a = min(map(abs, B)) * min(map(abs, C))
        if a < _SINGULAR_TOL:
            raise InadmissibleParameters(
                "qhahn needs every |a| = |b_x c_y| >= %g, where phi is not "
                "singular; the least is %r" % (_SINGULAR_TOL, a))
        return cls(variant="qhahn", q=q, delta=delta, B=B, C=C, J=J)

    @classmethod
    def jgamma_pep(cls, J, gamma):
        """Discrete-time partial exclusion with capacity J+1 and dynamical
        rate parameter gamma > J+1."""
        J, = _degrees((J,))
        gamma = _number(float, "gamma", gamma)
        if not gamma > J + 1:
            raise InadmissibleParameters("jgamma_pep requires gamma > J+1")
        return cls(variant="jgamma_pep", J=J, gamma=gamma)

    @classmethod
    def asym_pep(cls, q, delta):
        """Asymmetric capacity-2 exclusion (the a=1/q, b=1/q^2 table)."""
        q, delta = _number(float, "q", q), _number(float, "delta", delta)
        if not 0 < q < 1:
            raise InadmissibleParameters("asym_pep requires 0 < q < 1")
        if not (math.isfinite(delta) and delta <= 0):
            raise InadmissibleParameters(
                "asym_pep requires a finite delta <= 0, got %r" % delta)
        return cls(variant="asym_pep", q=q, delta=delta, J=1)

    @classmethod
    def corner(cls, p):
        """Midpoint corner growth with constant up-probability p: the J = 1
        exclusion process whose lone particle stays with chance 1 - p,
        asym_pep((1 - p)/p, 0) for p > 1/2."""
        p = _number(float, "p", p)
        if not 0 <= p <= 1:
            raise ValueError("p must lie in [0, 1]")
        return cls(variant="corner", p=p, J=1)

    @classmethod
    def corner_dyn(cls, gamma):
        """Midpoint corner growth with height-dependent up-probability
        (1/2) * (1 - 1/(gamma + height)): jgamma_pep(1, gamma), where
        Upsilon - gamma is the corner height of the flat segment; gamma in
        (1, 2] is admissible here, as that height is at least 1."""
        gamma = _number(float, "gamma", gamma)
        if not gamma > 1:
            raise InadmissibleParameters("corner_dyn requires gamma > 1")
        return cls(variant="corner_dyn", gamma=gamma, J=1)

    # -- derived quantities -------------------------------------------------

    @property
    def is_corner(self):
        """Whether `Ensemble.height` reads corner positions."""
        return self.variant in ("corner", "corner_dyn")

    def row_degree(self, y):
        """Arrows entering at the left of row y (1-based)."""
        if self.variant in _PEP:
            return int(self.J)
        return _cyc(self.J, y)


def _number(num, name, v):
    """v as num, float or complex; ValueError unless v is a real number, or
    a complex one where num is complex (never a bool, a string or None),
    and within float range."""
    if isinstance(v, bool) or not isinstance(
            v, numbers.Real if num is float else numbers.Complex):
        raise ValueError("%s takes %s numbers, got %r"
                         % (name, "real" if num is float else "complex", v))
    try:
        return num(v)
    except OverflowError:  # an int past float range
        raise ValueError("%s is past float range" % name) from None


def _degrees(J):
    """Row degrees as a tuple of ints; ValueError unless J is a list or
    tuple of one or more positive integers (a float is taken only where it
    is integral)."""
    if not (isinstance(J, (list, tuple)) and J and all(
            _number(float, "J", j).is_integer() and j >= 1 for j in J)):
        raise ValueError("row degrees must be positive integers, one or "
                         "more, got J = %r" % (J,))
    return tuple(int(j) for j in J)


def _finite_tuple(num, name, values):
    """values as a tuple of num (float or complex); ValueError unless it is
    a list or tuple of one or more numbers (see _number), each finite."""
    if not isinstance(values, (list, tuple)):
        raise ValueError("%s must be a list of numbers, got %r"
                         % (name, values))
    out = tuple(_number(num, name, v) for v in values)
    if not out:
        raise ValueError("%s must hold one or more values" % name)
    if not all(cmath.isfinite(v) for v in out):
        raise ValueError("%s must be finite, got %r" % (name, out))
    return out


def _cyc(seq, i):
    """1-based cyclic lookup."""
    return seq[(i - 1) % len(seq)]


# ---------------------------------------------------------------------------
# Per-vertex kernels (shared by the engines and the exact law)

_SWEEP_CAP = 256  # safety bound on horizontal propagation past the support


def _validate_weights(w, where):
    """Clamp tiny negativity, check normalization; returns (weights,
    clamp count)."""
    w = np.asarray(w, dtype=float)
    clamped = 0
    neg = w < 0
    if neg.any():
        worst = w[neg].min()
        if worst < -_WEIGHT_NEG_TOL:
            raise InadmissibleWeights(
                "negative weight %.3e at %s" % (worst, where))
        clamped = int(neg.sum())
        w = np.where(neg, 0.0, w)
    s = w.sum()
    if not abs(s - 1.0) <= _WEIGHT_SUM_TOL:  # a nan sum fails too
        raise InadmissibleWeights(
            "weight sum %.15f != 1 at %s" % (s, where))
    return w / s, clamped


def _kappa(spec, x, y, h, where):
    """Closed-form dynamical parameter at vertex (x, y-1) given h = h_{y-1}(x),
    float (qhahn) or complex (general); InadmissibleWeights if not finite."""
    general = spec.variant == "general"
    num = complex if general else float
    try:
        val = num(spec.delta) * num(spec.q) ** (-2 * h)
        for k in range(1, x):
            val *= (complex(_cyc(spec.S, k)) ** 2 if general
                    else _cyc(spec.B, k))
        for k in range(1, y):
            val *= (complex(spec.q) ** _cyc(spec.J, k) if general
                    else _cyc(spec.C, k))
    except OverflowError:  # in q ** (-2h): delta = 0 still gives 0
        val = num(0) if spec.delta == 0 else math.inf
    if not np.isfinite(val):
        raise InadmissibleWeights(
            "dynamical parameter out of float range at %s" % where)
    return val


def _pep_key(spec, x, t, h):
    """The integer through which the dynamical parameter of an exclusion
    process depends on the site x, the time t and the height h = h_t(x),
    elementwise over integers or integer arrays (the result keeps their
    dtype): the exponent e of kappa = delta * q**e (asym_pep), or
    Upsilon - gamma, which must be nonnegative where gamma is set; at J = 1
    it is the corner height H_t(x - t/2 - 1)."""
    if spec.variant == "asym_pep":
        return t - 2 * (x - 1) - 2 * h
    return 2 * h + (spec.J + 1) * (x - 1) - spec.J * t


def _pep_stay(spec, eta, key):
    """P[X(x) = eta - 1] from the shared formula in `weights`, elementwise,
    at the dynamical parameter of the key from _pep_key."""
    if spec.variant == "asym_pep":
        return asym_pep_stay(eta, spec.q, spec.delta, key)
    if spec.variant == "corner":  # a constant coin
        return np.where(eta == 1, 1.0 - spec.p, eta / 2.0)
    return jgamma_pep_stay(eta, spec.J, spec.gamma + key)


def _upsilon_error(key, t, x):
    """jgamma_pep needs Upsilon = gamma + key >= gamma: the exact integer
    test key >= 0, failed at site x and time t."""
    return InadmissibleWeights(
        "Upsilon = gamma - %d < gamma at time %d, site %d" % (-key, t, x))


_KERNEL_MEMO_CAP = 1 << 14  # entries per spec; the memo is cleared when full


def _kernel(spec, x, t, i1, j1, h):
    """`_kernel_eval`, memoized per spec on exactly what it reads besides the
    spec, since the engines and `exact_law` ask the same few questions many
    times and a dynamical weight costs tens of sin calls: (i1, _pep_key(...))
    for the exclusion processes (one entry for every i1 = 0), (x, t, i1, j1,
    h) for general and (x, t, i1, h) for qhahn.  The row engine and
    `_sweep_block` call it once per key present at a site (the latter in order
    of first appearance).  The memo is cleared when it holds _KERNEL_MEMO_CAP
    entries.  A miss evaluates at the calling site and an input that raises is
    never stored, so every error names the site and row of its own call.
    Calls share the returned weights, which must not be modified; a test that
    monkeypatches a helper of the kernel must build a fresh spec.  The weights
    below the kernel keep memos of their own (the Pochhammer memo of each
    `EllipticContext`, psi's contexts and W_J memos in `weights`), so a test
    that monkeypatches a helper of theirs must also clear those, or use
    parameters not seen before."""
    variant = spec.variant
    if variant in _PEP:
        key = (i1, _pep_key(spec, x, t, h)) if i1 else 0
    elif variant == "general":
        key = (x, t, i1, j1, h)
    else:
        key = (x, t, i1, h)
    memo = spec._kernel_memo
    out = memo.get(key)
    if out is None:
        out = _kernel_eval(spec, x, t, i1, j1, h)
        if len(memo) >= _KERNEL_MEMO_CAP:
            memo.clear()
        memo[key] = out
    return out


def _kernel_eval(spec, x, t, i1, j1, h):
    """The per-vertex kernel at site x of row t+1.  From the vertical input
    i1 (the occupancy of x before the step), the horizontal input j1 and
    the height h = h_t(x), returns (values of j2, their validated
    probabilities, clamp count), where j2 is the number of arrows passed on
    from x to x+1.  The q-Hahn and exclusion kernels do not read j1."""
    y = t + 1
    where = "site %d, row %d (%s)" % (x, y, spec.variant)
    if spec.variant in _PEP:
        if i1 == 0:
            return (0,), (1.0,), 0
        key = _pep_key(spec, x, t, h)
        if key < 0 and spec.gamma is not None:
            raise _upsilon_error(key, t, x)
        stay = float(_pep_stay(spec, i1, key))
        w, clamped = _validate_weights([stay, 1.0 - stay], where)
        return (i1 - 1, i1), w, clamped
    if spec.variant == "general":
        kappa = _kappa(spec, x, y, h, where)
        if abs(kappa) < 1e-40:
            # Reachable only after ~70 consecutive slide-past-empty moves
            # in one row (branch probability far below any tolerance
            # here); any valid distribution will do, so end the sweep.
            return (0,), (1.0,), 0
        Jy = _cyc(spec.J, y)
        p = PsiParams(u=complex(_cyc(spec.U, y)) * complex(_cyc(spec.Xi, x)),
                      s=complex(_cyc(spec.S, x)), q=complex(spec.q), J=Jy,
                      kappa=kappa)
        raw = psi_row(i1, j1, p)
    else:
        bx = _cyc(spec.B, x)
        p = PhiParams(q=spec.q, a=bx * _cyc(spec.C, y), b=bx,
                      kappa=_kappa(spec, x, y, h, where))
        raw = [complex(phi(j2, i1, p)) for j2 in range(i1 + 1)]
    if any(abs(w.imag) > 1e-9 for w in raw):
        raise InadmissibleWeights("non-real weight at %s" % where)
    w, clamped = _validate_weights([w.real for w in raw], where)
    return range(len(w)), w, clamped


# ---------------------------------------------------------------------------
# Exact small-system law


@dataclass(frozen=True)
class ExactLaw:
    """Exact distribution over occupancy tuples (site x at index x - 1).
    The counters of `exact_law`: support size per step, finished branches
    and pruned mass."""

    support: tuple
    total_mass: float
    configs: tuple = ()
    branches: int = 0
    pruned_mass: float = 0.0

    @classmethod
    def from_dict(cls, dist, **counters):
        items = sorted(dist.items())
        total = 0.0
        for cfg, pr in items:
            if pr < -_WEIGHT_NEG_TOL:
                raise InadmissibleWeights(
                    "negative probability %.3e for %r" % (pr, cfg))
            total += pr
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise InadmissibleWeights(
                "exact law has total mass %.15f" % total)
        return cls(support=tuple(items), total_mass=total, **counters)

    def mean(self, fn):
        """E[fn(cfg)], summed in support order."""
        return sum(pr * fn(cfg) for cfg, pr in self.support)


_EXACT_BLOCK = 512  # configurations whose branches exact_law sweeps at once
_CODE_LIMIT = 2 ** 63  # codes from here on are Python ints, not int64


def _sweep_block(spec, t, occ, mass, base, prune):
    """Row t+1 over configurations occ[r] (zero-padded) of mass mass[r]:
    entry k of (c, j1, h, pr, code) is a branch of occ[c[k]], its new
    occupancies the base-`base` digits of its code (Python ints past
    int64).  At site x the branches past their support (h = 0) with j1 = 0
    finish, `_kernel` is called once per (i1, h) ((i1, j1, h) for general)
    in order of first appearance, and every other branch becomes its
    outcomes in value order with pr * w > prune.  A failing branch stops
    its configuration and the later ones, so the error kept is the one a
    sweep per configuration meets first.  Returns the codes and masses
    mass[c] * pr of the finished branches in the order configuration,
    site, branch, the mass pruned, the error or None and the last site."""
    c, h, code = np.arange(len(occ)), occ.sum(axis=1), np.zeros(len(occ), int)
    j1, pr = np.full(len(occ), spec.row_degree(t + 1)), np.ones(len(occ))
    done, cut, err, x = [(c[:0], code[:0], pr[:0])], 0.0, None, 0
    while len(c):
        x += 1
        fin = (h == 0) & (j1 == 0)
        if fin.any():
            done.append((c[fin], code[fin], pr[fin]))
            c, j1, h, pr, code = (a[~fin] for a in (c, j1, h, pr, code))
            if not len(c):
                break
        i1 = occ[c, x - 1] if x <= occ.shape[1] else np.zeros_like(c)
        key = (i1 * (h.max() + 1) + h) * (j1.max() + 1) + j1 * (
            spec.variant == "general")
        # The first branch of each key, in order, without a sort (whose
        # code would add to peak memory), and each branch's key index.
        inv = np.full(key.max() + 1, len(key))
        np.minimum.at(inv, key, np.arange(len(key)))
        first = np.zeros(len(key) + 1, dtype=bool)
        first[inv] = True
        first = np.flatnonzero(first[:-1])
        inv[key[first]] = np.arange(len(first))
        inv = inv[key]
        outs, kerr = [], {}
        for g, b in enumerate(first.tolist()):
            try:
                outs.append(_kernel(spec, x, t, int(i1[b]), int(j1[b]),
                                    int(h[b]))[:2])
            except DynVertexError as exc:  # raised at its branch, in turn
                outs.append(((), ()))
                kerr[g] = exc
        # Each branch reads its key's row of zero-padded (values, weights).
        table = np.zeros((len(outs), 2, max(len(v) for v, _ in outs)))
        for row, (values, w) in zip(table, outs):
            row[0, :len(values)], row[1, :len(w)] = values, w
        table = table[inv]
        p = pr[:, None] * table[:, 1]
        keep = p > prune
        if prune:
            cc, kk = np.nonzero(~keep & (table[:, 1] > 0.0))
            cut += float((mass[c[cc]] * p[cc, kk]).sum())
        # Past the cap: no particle at sites >= x - _SWEEP_CAP
        bad = (~occ[c, x - _SWEEP_CAP - 1:].any(axis=1) if x > _SWEEP_CAP
               else np.zeros(len(c), dtype=bool))
        if kerr:
            bad |= np.isin(inv, list(kerr))
        keep[bad] = False
        rep, k = np.nonzero(keep)
        j2, p = table[rep, 0, k].astype(int), p[rep, k]
        i2 = i1[rep] + j1[rep] - j2
        over = (i2 > spec.J + 1 if spec.variant in _PEP
                else np.zeros(len(i2), dtype=bool))
        fails = np.flatnonzero(bad)[:1].tolist() + rep[over][:1].tolist()
        if fails:
            fb = min(fails)
            if x > _SWEEP_CAP and not occ[c[fb], x - _SWEEP_CAP - 1:].any():
                exc = SizeLimit("horizontal propagation exceeded the cap")
            elif bad[fb]:
                exc = kerr[inv[fb]]
            else:
                exc = InadmissibleWeights("occupancy %d out of [0, J+1] at "
                                          "site %d" % (i2[over][0], x))
            err, ok = (c[fb], exc), c[rep] < c[fb]
            rep, j2, p, i2 = rep[ok], j2[ok], p[ok], i2[ok]
        if base ** x >= _CODE_LIMIT:
            code, i2 = code.astype(object), i2.astype(object)
        c, j1, h, pr = c[rep], j2, (h - i1)[rep], p
        code = code[rep] + i2 * base ** (x - 1)
    c, code, pr = (np.concatenate(a) for a in zip(*done))
    order = np.argsort(c, kind="stable")
    if err is not None:
        order, err = order[c[order] < err[0]], err[1]
    return code[order], mass[c[order]] * pr[order], cut, err, x


_EXACT_LAW_BOUND = 200000  # configurations an exact law may hold


def exact_law(spec, N):
    """Exact forward distribution after N steps: every step sweeps each
    configuration along all its positive branches.  Configurations are
    occupancy tuples, the corner models' too.  For the general model,
    whose horizontal arrows slide past empty sites with geometrically small
    probability (an infinite tail of negligible mass), branches and
    configurations of probability at most 1e-14 are dropped.

    Steps sweep the support _EXACT_BLOCK configurations at a time, to the
    law of one sweep per configuration bit for bit: each new configuration,
    told by the exact integer code of its occupancies and numbered by first
    appearance, sums P[cfg] * (the product pr * w along a branch) from 0.0
    over its branches in the order configuration, site, branch.

    SizeLimit is raised once the support passes _EXACT_LAW_BOUND
    configurations (or the branches swept in one step pass 64 times that),
    and as soon as the support projected to step N does: after step t with
    s_t configurations, the growth of the last step is taken to persist,
    so the projection is s_t (s_t / s_(t-1))^(N - t).  Where the growth
    factor per step is steady or rising, as the exclusion processes' is,
    the projection does not overstate the support at step N, so it stops
    only enumerations that would pass the bound, and stops them before
    the work is done."""
    bound = _EXACT_LAW_BOUND
    prune = 1e-14 if spec.variant == "general" else 0.0
    rows, mass = np.zeros((1, 0), int), np.ones(1)
    configs, branches, pruned = [], 0, 0.0
    top = spec.J + 1 if spec.variant in _PEP else sum(  # occupancies' bound
        spec.row_degree(y) for y in range(1, N + 1))
    for t in range(N):
        index, acc, work, width = {}, np.zeros(len(rows)), 0, 0
        for at in range(0, len(rows), _EXACT_BLOCK):
            at = slice(at, at + _EXACT_BLOCK)
            code, contrib, cut, err, x = _sweep_block(
                spec, t, rows[at], mass[at], top + 1, prune)
            ids = [index.setdefault(k, len(index)) for k in code.tolist()]
            if len(index) > len(acc):
                acc = np.concatenate([acc, np.zeros(len(index))])
            np.add.at(acc, ids, contrib)
            pruned, work = pruned + cut, work + len(code)
            width = max(width, x - 1)
            if len(index) > bound or work > 64 * bound:
                raise SizeLimit(
                    "exact law exceeds the configuration bound %d at "
                    "step %d of %d" % (bound, t + 1, N))
            if err is not None:
                raise err
        big = (top + 1) ** width >= _CODE_LIMIT
        code = np.array(list(index), dtype=object if big else int)
        powers = np.array([(top + 1) ** k for k in range(width)], code.dtype)
        grown, mass = len(rows), acc[:len(index)]
        rows = (code[:, None] // powers % (top + 1)).astype(int)
        if prune:
            keep = mass > prune
            pruned += float(mass[~keep].sum())
            rows, mass = rows[keep], mass[keep]
        configs.append(len(rows))
        branches += work
        growth = len(rows) / grown
        if growth > 1 and (N - t - 1) * math.log(growth) > math.log(
                bound / len(rows)):
            raise SizeLimit(
                "exact law support of %d configurations at step %d of %d, "
                "growing %.3gx per step, is projected past the "
                "configuration bound %d" % (len(rows), t + 1, N, growth,
                                            bound))
    support = {}
    for row, pr in zip(rows.tolist(), mass.tolist()):
        while row and row[-1] == 0:
            row.pop()
        support[tuple(row)] = pr
    return ExactLaw.from_dict(support, configs=tuple(configs),
                              branches=branches, pruned_mass=pruned)


# ---------------------------------------------------------------------------
# Ensembles


@dataclass
class Ensemble:
    """The heights of an ensemble at time `time`: heights[i, j] is sample
    i's height h(left + j) at a particle-system site, on the rows an engine
    stores (an exclusion process's band, a row model's buffer).  Outside
    them, a system of `total` particles holds `packed` on each site before
    `left` and none after.  `height(x)` (or `current`) returns the heights
    at x of every sample as a new int64 array; for a corner model, `height`
    reads position x of the time-t lattice (x + t/2 an integer) as H_t(x) =
    2x + 2 h(x + t/2 + 1), which off the stored columns is the wedge 2|x|.
    A row model (packed 0) has no site left of 1, so there `height`, like
    `current`, rejects x < 1."""

    time: int
    left: int
    heights: np.ndarray
    packed: int = 0
    total: int = 0
    corner: bool = False

    def _hcur(self, x):
        """h(x) of every sample at the integer site x; what `current`
        reads."""
        j = x - self.left
        if 0 <= j < self.heights.shape[1]:
            return self.heights[:, j].astype(np.int64)
        value = self.total - self.packed * (x - 1) if j < 0 else 0
        return np.full(len(self.heights), value, dtype=np.int64)

    def height(self, x):
        site = x + self.time / 2 + 1 if self.corner else x
        if abs(site - round(site)) > 1e-9:
            raise ValueError("x=%r is not on the time-%d lattice"
                             % (x, self.time))
        if site < 1 and not self.packed:
            raise ValueError("site index must be >= 1")
        h = self._hcur(round(site))
        return 2 * h + round(2 * x) if self.corner else h


def current(ens, x):
    """Height function h_t(x) = number of particles at sites >= x, an int64
    array over the samples of an Ensemble."""
    x = int(x)
    if x < 1:
        raise ValueError("site index must be >= 1")
    return ens._hcur(x)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate of one observable."""

    mean: float
    stderr: float
    n_samples: int
    base_seed: int


def _trajectory_rng(base_seed, index):
    """Per-trajectory generator: numpy's published SeedSequence mixing of
    (base_seed, index)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(base_seed),
                               spawn_key=(int(index),)))


def _int_dtype(top):
    """Signed integer dtype, int16 or wider, that holds -top..top;
    SizeLimit where int64 does not."""
    dtype = np.promote_types(np.int16, np.min_scalar_type(-int(top)))
    if dtype.kind != "i":
        raise SizeLimit("the engine's values reach past int64")
    return dtype


_WINDOW_GROW = 64  # free rows before a moved band; see _ensemble_pep


def _band_ensemble(spec, t, lo, band):
    """The time-t Ensemble of an exclusion-process engine from `band`, the
    heights at sites lo, lo+1, ... (one row per site, one column per
    sample), copied."""
    return Ensemble(t, lo, band.copy().T, packed=spec.J + 1,
                    total=spec.J * t, corner=spec.is_corner)


_BERNOULLI_DENSE = 8  # digits of p compared on every word; see below
_THIN_GAMMA = 1e4  # least gamma of J = 1 on _ensemble_bits


def _bernoulli_words(bitgen, p, lanes):
    """Independent Bernoulli(p) bits, p a float in [0, 1], on the set bits
    of the uint64 array `lanes` (0 elsewhere).  A bit is U < p, where bit l
    of successive bitgen.random_raw words gives the binary digits of lane
    l's U.  They meet the digits of p = num / 2**k lazily: the first
    _BERNOULLI_DENSE on every word (digit-major), later ones only on the
    words with an undecided lane, in order.  A lane still undecided after
    digit k has U >= p and gets 0, so P(bit) = p exactly."""
    num, den = p.as_integer_ratio()
    if num == den:
        return lanes.copy()
    k = den.bit_length() - 1
    dense = min(k, _BERNOULLI_DENSE)
    out = np.zeros_like(lanes).ravel()
    und = lanes.ravel().copy()  # undecided lanes: U's digits equal p's
    raw = bitgen.random_raw(dense * und.size).reshape(dense, und.size)
    for i in range(1, k + 1):
        if i > dense:
            live = np.flatnonzero(und != 0)
            idx = live if i == dense + 1 else idx[live]
            und = und[live]
            if not len(und):
                break
        r = raw[i - 1] if i <= dense else bitgen.random_raw(len(und))
        r &= und  # the undecided lanes whose digit of U is 1
        und ^= r  # ... and those whose digit is 0
        if num >> (k - i) & 1:  # p's digit is 1: a 0 decides U < p
            if i <= dense:
                out |= und
            else:
                out[idx] |= und
            und = r
    return out.reshape(lanes.shape)


def _thinned_words(spec, rng, elig, a, f, lo, t):
    """D ~ Bernoulli(1/Upsilon) of _ensemble_bits on the set bits of `elig`
    by thinning (Lewis and Shedler 1979): the candidates lie skips of
    rng.geometric(1/gamma) set bits apart in (site, word, lane) order, as
    the law is memoryless (a skip saturated at INT64_MAX, at 1/gamma <=
    1e-19, still passes every bit); then each reads its height from the A
    and F planes and is kept when a uniform u has u (gamma + key) < gamma.
    gamma is finite: at gamma = inf, D is 0."""
    out = np.zeros_like(elig)
    at = int(rng.geometric(1.0 / spec.gamma))
    if at > 64 * elig.size:  # past every set bit
        return out
    cum, pos = np.cumsum(np.bitwise_count(elig).ravel()), []
    while at <= cum[-1]:
        pos.append(at)
        at += int(rng.geometric(1.0 / spec.gamma))
    if not pos:
        return out
    w = np.searchsorted(cum, pos)  # flat index of each candidate's word
    bits = np.unpackbits(elig.ravel()[w].view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")
    rank = np.array(pos) - cum[w] + bits.sum(1, dtype=np.int64)  # in word
    lane = (np.cumsum(bits, axis=1) < rank[:, None]).sum(1, dtype=np.uint64)
    site, col = np.divmod(w, elig.shape[1])
    occ = (a[:, col] >> lane & 1) + (f[:, col] >> lane & 1)
    h = np.cumsum(occ[::-1], axis=0)[::-1][site, np.arange(len(w))]
    key = _pep_key(spec, lo + site, t, h.astype(np.int64))
    if key.min() < 0:
        raise _upsilon_error(int(key.min()), t, lo + site[key.argmin()])
    keep = rng.random(len(w)) * (spec.gamma + key) < spec.gamma
    np.bitwise_or.at(out.ravel(), w[keep], np.uint64(1) << lane[keep])
    return out


def _ensemble_bits(spec, samples, rng):
    """Bit-sliced engine for the J = 1 specs of _ensemble_pep, where one
    particle on a site stays with a constant p (asym_pep, corner) or with
    (1/2)(1 + 1/Upsilon) where gamma is set (jgamma_pep, corner_dyn): C | D,
    C a fair coin and D from _thinned_words where C = 0 (no D at gamma =
    inf, where the chance is 1/2).  Lane l of word w is sample 64 w + l.
    Bit planes, a row per site, hold A = (eta >= 1) and F = (eta = 2) on
    the band lo..r+1 of _ensemble_pep.  With B the
    stay bits on A & ~F, a step keeps S = F | B and passes X = (A ^ S) | F
    on: A'(x) = S(x) | X(x-1) and F'(x) = S(x) & X(x-1), with X(lo-1) all
    ones; the planes double when the band reaches their last row.  The
    stay table at eta = 0, 1, 2 (key 0) is checked each step.  The
    occupancy range is structural, and so is Upsilon >= gamma off the
    candidates of D: at most J+1 particles a site give h_t(x) >= Jt -
    (J+1)(x-1), so key >= h.  Yields the view of each time, as
    _ensemble_pep does."""
    ones, thinned = ~np.uint64(0), spec.gamma not in (None, math.inf)
    # Row x - 1 holds site x; r is the last site non-empty in some lane.
    planes = [np.zeros((2, -(-samples // 64)), dtype=np.uint64)
              for _ in "afsx"]
    lo, r = 1, 0
    for t in itertools.count():
        if r + 1 == len(planes[0]):
            planes = [np.concatenate([p, np.zeros_like(p)]) for p in planes]
        a_all, f_all, s_all, x_all = planes
        while lo <= r and (f_all[lo - 1] == ones).all():
            lo += 1
        a, f, n = a_all[lo - 1:r + 1], f_all[lo - 1:r + 1], r + 2 - lo

        def view(m):
            occ = sum(np.unpackbits(plane.view(np.uint8), axis=1, count=m,
                                    bitorder="little") for plane in (a, f))
            return _band_ensemble(spec, t, lo, np.cumsum(
                occ[::-1], axis=0, dtype=_int_dtype(t))[::-1])

        yield view
        single = np.bitwise_xor(a, f, out=s_all[:n])  # eta = 1
        table = _pep_stay(spec, np.arange(3), 0)
        p = float(table[1])
        if not -_WEIGHT_NEG_TOL <= p <= 1 + _WEIGHT_NEG_TOL:
            at = np.flatnonzero(single.any(axis=1))
            if len(at):
                raise InadmissibleWeights(
                    "stay probability %.6f out of [0, 1] at time %d, site %d"
                    % (p, t, lo + at[0]))
        if table[0] != 0.0 or table[2] != 1.0:
            raise InadmissibleWeights(
                "stay probability of an empty or full site is not exactly "
                "0 or 1 at time %d" % t)
        coin = 0.5 if thinned else min(max(p, 0.0), 1.0)
        b = _bernoulli_words(rng.bit_generator, coin, single)
        if thinned:  # D where the coin C is 0
            b |= _thinned_words(spec, rng, single & ~b, a, f, lo, t)
        s = np.bitwise_or(f, b, out=single)
        x = np.bitwise_xor(a, s, out=x_all[:n])
        x |= f
        np.bitwise_or(s[1:], x[:-1], out=a[1:])
        np.bitwise_and(s[1:], x[:-1], out=f[1:])
        a[0], f[0] = ones, s[0]
        r += bool(a[-1].any())  # site r + 1 took a particle in some lane


def _ensemble_pep(spec, samples, rng):
    """Vectorized engine for the exclusion processes, capacity J+1, on the
    height function h_t(x) (particles at sites >= x), one column per sample.
    For t = 0, 1, 2, ..., once the time-t state is checked and its packed
    rows trimmed and before any draw of step t + 1, it yields the view
    n -> the time-t Ensemble of samples 0..n-1, valid until it resumes.  At
    J = 1 a lone particle that stays with a constant chance (no gamma,
    delta 0 or unset: asym_pep at delta = 0, corner) or with gamma >=
    _THIN_GAMMA (jgamma_pep, corner_dyn; at gamma = inf a fair coin) runs
    on the bit-sliced _ensemble_bits.  Sites < lo are packed at J+1 (they
    deterministically forward J arrows) and sites past r, the last site
    non-empty in some sample, are empty, so a step works only on the band
    lo..r+1: rows o, o+1, ... of a height buffer and the first rows of
    per-cell buffers reused across steps.  All X(x) are drawn from the
    time-t state, and the height moves by the bond flux, h'(x) = h(x) +
    X(x-1) = h(x-1) - S(x-1), where S is 1 when a particle stays at x, in
    place on a moving origin: after h -= S the row of site x holds
    h'(x+1), and the one new row, h'(lo) = h(lo) + J, goes just before the
    band.  Only when no row is left there does the band move, _WINDOW_GROW
    rows on (into a larger buffer if it needs one); r moves right by at
    most one site per step.

    The stay probability depends on (x, t, h) only through the integer key
    of _pep_key, so each step evaluates the shared formula once: on a table
    over the occupancies 0..J+1 and the band's keys where it has no more
    entries than the band has cells, else on the band's cells (large J, few
    samples).  Its values at eta = 0 and J+1 must be exactly 0 and 1.  A
    uniform is drawn only for the cells with 0 < eta < J+1, in site-major
    order.  Thinning pays per candidate, 1/(2 gamma) of the one-particle
    cells at any size, so it beats this engine from a fixed gamma: 60 to
    100 at N = 400 x 4000 and 1000 x 1000 samples (2-CPU x86-64).
    _THIN_GAMMA keeps a wide margin, and gamma = 3 and every J >= 2 here."""
    if spec.J == 1 and (not spec.delta if spec.gamma is None
                        else spec.gamma >= _THIN_GAMMA):
        yield from _ensemble_bits(spec, samples, rng)  # never returns
    J = int(spec.J)
    cap = J + 1
    slope = _pep_key(spec, 1, 0, 1) - _pep_key(spec, 1, 0, 0)
    # Rows [o, o + n) of hbuf hold h at sites lo, ..., lo + n - 1 = r + 1.
    hbuf, o, n, lo = np.zeros((1, samples), dtype=np.int16), 0, 1, 1
    for t in itertools.count():
        if o == 0:  # no row left before the band: move it _WINDOW_GROW on
            band = hbuf[:n]
            if n + _WINDOW_GROW > len(hbuf):
                hbuf = np.empty((n + 2 * _WINDOW_GROW, samples), band.dtype)
                eta_buf = np.empty_like(hbuf)
                key_buf = np.empty_like(hbuf)
                kept_buf = np.empty(hbuf.shape, dtype=bool)
                mask_buf = np.empty_like(kept_buf)
            o = _WINDOW_GROW
            hbuf[o:o + n] = band
        # Band sites stay below t + 2 and |key| <= 2h + (J+1)(x-1) + Jt.
        dtype = _int_dtype((4 * J + 1) * (t + 1))
        if dtype != hbuf.dtype:
            hbuf, eta_buf, key_buf = (b.astype(dtype)
                                      for b in (hbuf, eta_buf, key_buf))
        h, eta = hbuf[o:o + n], eta_buf[:n]
        np.subtract(h[:-1], h[1:], out=eta[:-1])
        eta[-1] = h[-1]
        if eta.min() < 0 or eta.max() > cap:
            i, k = np.argwhere((eta < 0) | (eta > cap))[0]
            raise InadmissibleWeights(
                "occupancy %d out of [0, %d] at time %d, site %d"
                % (eta[i, k], cap, t, lo + i))
        k = 0
        while k < n - 1 and (eta[k] == cap).all():
            k += 1
        o, n, lo, h, eta = o + k, n - k, lo + k, h[k:], eta[k:]
        yield lambda m: _band_ensemble(spec, t, lo, h[:, :m])
        kept = np.equal(eta, cap, out=kept_buf[:n])
        # (eta > 0) ^ kept is 0 < eta < J+1; at J = 1 it is eta == 1, and
        # every drawn cell holds one particle.
        mask = mask_buf[:n]
        if J == 1:
            np.equal(eta, 1, out=mask)
        else:
            np.logical_xor(np.greater(eta, 0, out=mask), kept, out=mask)
        drawn = np.flatnonzero(mask)
        # _pep_key is affine in h: its offset is taken per row
        key = np.multiply(h, slope, out=key_buf[:n])
        key += _pep_key(spec, np.arange(lo, lo + n, dtype=dtype)[:, None],
                        t, 0)
        kmin = int(key.min())
        if kmin < 0 and spec.gamma is not None:
            raise _upsilon_error(kmin, t, lo + int(key.argmin()) // samples)
        nk = int(key.max()) - kmin + 1
        if (cap + 1) * nk <= h.size:  # a table over (occupancy, key) pairs
            occs, keys = np.divmod(np.arange((cap + 1) * nk), nk)
            table = _pep_stay(spec, occs, keys + kmin)
            idx = np.intp(1) if J == 1 else eta.ravel()[drawn].astype(np.intp)
            stay = table.take(idx * nk - kmin + key.ravel()[drawn])
            empty, full = table[occs == 0], table[occs == cap]
        else:  # the table would be wider than the band: the band's cells
            table = _pep_stay(spec, eta, key)
            stay = table.ravel()[drawn]
            empty, full = table[eta == 0], table[kept]
        # written so that a nan fails the screen, as in _ensemble_bits
        if not ((table >= -_WEIGHT_NEG_TOL)
                & (table <= 1 + _WEIGHT_NEG_TOL)).all():
            bad = np.flatnonzero(~((stay >= -_WEIGHT_NEG_TOL)
                                   & (stay <= 1 + _WEIGHT_NEG_TOL)))
            if len(bad):
                raise InadmissibleWeights(
                    "stay probability %.6f out of [0, 1] at time %d, site %d"
                    % (stay[bad[0]], t, lo + drawn[bad[0]] // samples))
        if empty.any() or (full != 1.0).any():
            raise InadmissibleWeights(
                "stay probability of an empty or full site is not exactly "
                "0 or 1 at time %d" % t)
        kept.ravel()[drawn] = rng.random(len(drawn)) < stay
        np.add(h[0], J, out=hbuf[o - 1])  # from the packed region / step data
        h -= kept
        o -= 1
        if hbuf[o + n - 1].any():  # h'(r + 1) > 0 in some sample
            n += 1


def _ensemble_rows(spec, samples, rng):
    """Engine for qhahn and general; row x - 1 of h holds h(x).  Row t + 1
    sweeps x = 1, 2, ...: a sample calls the kernel while h(x) > 0 or its
    incoming arrows j1 > 0, with the memo key (i1, h) (qhahn) or
    (i1, j1, h) (general), i1 = h(x) - h(x+1).  One uniform u per sample
    and site gives j2 = the number of its key's cumulative weights, all
    but the last, that are <= u, an inverse-CDF draw; then h(x) += j1 and
    j1 = j2.  The buffer doubles when a sweep reaches its last row, and a
    sample more than _SWEEP_CAP sites past its support raises SizeLimit.
    Yields the view of each time before its row, as _ensemble_pep does, on
    the buffer's rows."""
    general = spec.variant == "general"
    h, total = np.zeros((2, samples), dtype=np.int16), 0
    for t in itertools.count():
        yield lambda m: Ensemble(t, 1, h[:, :m].copy().T)
        Jy = spec.row_degree(t + 1)
        total += Jy
        h = h.astype(_int_dtype(total), copy=False)
        jw = Jy + 1 if general else 1  # the j1 digit of the key
        reach = np.maximum((h > 0).sum(axis=0), 1) + _SWEEP_CAP
        j1 = np.full(samples, Jy, dtype=h.dtype)
        x = 0
        while True:
            x += 1
            if x == len(h):  # a slide needs the next row
                h = np.concatenate([h, np.zeros_like(h)])
            hx = h[x - 1]
            active = (hx > 0) | (j1 > 0)
            if not active.any():
                break
            if (active & (x > reach)).any():
                raise SizeLimit("horizontal propagation exceeded the cap")
            lo = int(hx.min())
            span = int(hx.max()) - lo + 1
            key = (hx - h[x]).astype(np.intp) * span + (hx - lo)
            if general:
                key = key * jw + j1
            key = np.where(active, key + 1, 0)  # 0: no kernel call, j2 = 0
            u = rng.random(samples)
            present = np.flatnonzero(np.bincount(key)[1:])
            cdfs = []
            for k in present.tolist():
                (i1, d), j = divmod(k // jw, span), k % jw
                cdfs.append(np.cumsum(_kernel(spec, x, t, i1, j, lo + d)[1]))
            table = np.full((max(map(len, cdfs)) - 1, present[-1] + 2), np.inf)
            for k, cdf in zip(present, cdfs):
                table[:len(cdf) - 1, k + 1] = cdf[:-1]
            j2 = np.zeros(samples, dtype=h.dtype)
            for row in table:  # the kernel's values are 0, 1, ...
                j2 += row[key] <= u
            hx += j1
            j1 = j2


_ENGINES = (dict.fromkeys(("general", "qhahn"), _ensemble_rows)
            | dict.fromkeys(_PEP, _ensemble_pep))


class Trajectory:
    """Iterator over the snapshots t = 0, 1, 2, ... of `samples`
    trajectories of spec, which the variant's engine advances in lockstep
    from one generator split off (base_seed, 0).  `time` is that of the
    last snapshot, None while the engine steps and after it raised."""

    def __init__(self, spec, samples, base_seed):
        self.spec, self.samples, self.time = spec, samples, None
        self._views = enumerate(_ENGINES[spec.variant](
            spec, samples, _trajectory_rng(base_seed, 0)))

    def __iter__(self):
        return self

    def __next__(self):
        self.time = None
        t, self._view = next(self._views)
        self.time = t
        return Snapshot(self, t)


class Snapshot:
    """Time `time` of a Trajectory `run`: `ensemble(n)` is the Ensemble of
    samples 0..n-1 (of all by default), `occupancy` sample 0's occupancies
    at sites 1, 2, ... (trailing zeros dropped, [0] if none) and
    `total_particles` their sum, built from the engine's buffers while the
    snapshot is the newest of its run, ValueError after."""

    def __init__(self, run, time):
        self.run, self.time = run, time

    def ensemble(self, n=None):
        if self.run.time != self.time:
            raise ValueError("the snapshot at time %d is not the newest of "
                             "its trajectory" % self.time)
        return self.run._view(n or self.run.samples)

    @property
    def occupancy(self):
        ens = self.ensemble(1)
        h = ens.heights[0]  # nonincreasing: its nonzero entries lead
        h = h[:np.count_nonzero(h)].tolist() + [0]
        occ = [ens.packed] * (ens.left - 1) + [a - b for a, b in zip(h, h[1:])]
        return np.array(occ or [0], dtype=np.int64)

    @property
    def total_particles(self):
        return int(self.occupancy.sum())


def initial_state(spec, seed=0):
    """The first snapshot of Trajectory(spec, 1, seed), an empty system."""
    return next(Trajectory(spec, 1, seed))


def step(state, spec):
    """The snapshot after `state`; ValueError unless it is the newest
    snapshot of a trajectory of spec."""
    if state.run.time != state.time or state.run.spec != spec:
        raise ValueError("the snapshot at time %d is not the newest of a "
                         "trajectory of this spec" % state.time)
    return next(state.run)


def check_ensemble_size(N, samples):
    """ValueError where samples trajectories of N steps would need more than
    the physical memory os.sysconf reports, at a byte per sample and lattice
    row (N + 2 rows), about the least an engine holds.  Allocates nothing."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no such sysconf here
        return
    if samples * (N + 2) > have:
        raise ValueError("%d samples of %d steps need at least %d bytes, "
                         "more than the %d bytes of physical memory"
                         % (samples, N, samples * (N + 2), have))


def run_ensemble(spec, N, samples, base_seed, observables):
    """Independent trajectories, deterministic given base_seed: the
    estimates of the time-N snapshot of Trajectory(spec, samples,
    base_seed), the first N + 1 it yields."""
    N, samples = int(N), int(samples)
    if samples < 1 or N < 0:
        raise ValueError("need at least one sample and N >= 0 steps")
    check_ensemble_size(N, samples)
    run = itertools.islice(Trajectory(spec, samples, base_seed), N, None)
    ens = next(run).ensemble()
    del run  # the engine's buffers go before the observables run
    return estimates(ens, base_seed, observables)


def estimates(ens, base_seed, observables):
    """One MCEstimate per observable, each called once with the Ensemble
    `ens` and returning one value per sample or one scalar for all:
    `current(ens, x)` and `ens.height(x)` give int64 arrays, `height` at
    corner positions for the corner models."""
    samples = len(ens.heights)
    out = []
    for obs in observables:
        vals = np.full(samples, obs(ens), dtype=float)
        std = float(np.std(vals, ddof=1)) if samples > 1 else 0.0
        out.append(MCEstimate(mean=float(np.mean(vals)),
                              stderr=std / math.sqrt(samples),
                              n_samples=samples, base_seed=int(base_seed)))
    return out
