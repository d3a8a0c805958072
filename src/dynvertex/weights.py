"""Vertex weights: the unfused four-case weight, the fused weights by the
fusion recursion, the stochastic correction and stochastic weights, the
multiplicative-parameter psi/phi families, and the exclusion-process
probabilities.

row_sum_checks checks on fixed parameter grids that the rows of phi and
psi sum to 1, and that psi at u = s matches phi.
"""

import cmath
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import Check, InadmissibleParameters, SingularParameter
from .specfun import (_SINGULAR_TOL, EllipticContext, elliptic_pochhammer,
                      f_eval)


class ArrowConfig(tuple):
    """Arrow configuration (i1, j1; i2, j2): vertical in, horizontal in,
    vertical out, horizontal out."""

    def __new__(cls, i1, j1, i2, j2):
        return super().__new__(cls, (i1, j1, i2, j2))


@dataclass(frozen=True)
class UnfusedWeightParams:
    """Spectral parameter v, additive dynamical parameter lam, spin Lambda,
    and evaluation context."""

    v: complex
    lam: complex
    Lambda: complex
    ctx: EllipticContext


def _on_support(J, cfg):
    """Whether cfg = (i1, j1, i2, j2) is on the support of the level-J
    weights (w1 at J = 1): j1, j2 in 0..J, i1, i2 >= 0, i1 + j1 = i2 + j2."""
    i1, j1, i2, j2 = cfg
    return (0 <= j1 <= J and 0 <= j2 <= J and i1 >= 0 and i2 >= 0
            and i1 + j1 == i2 + j2)


def _inv(value, what):
    if abs(value) < _SINGULAR_TOL:
        raise SingularParameter("vanishing %s" % what)
    return 1.0 / value


def _finite(value, name, cfg):
    """value, or InadmissibleParameters where it is not finite: a product
    of f values has left float range, though each f is in it."""
    if not cmath.isfinite(value):
        raise InadmissibleParameters(
            "%s%r is %r: its parameters leave float range"
            % (name, tuple(cfg), value))
    return value


def _w1_dinv(v, lam, L, eta, ctx):
    """1 / (f(eta*Lambda - v) * f(lambda)), the denominator of all four
    cases of w1."""
    denom = f_eval(eta * L - v, ctx) * f_eval(lam, ctx)
    return _inv(denom, "f(eta*Lambda - v) * f(lambda)")


# The four cases of w1 at vertical input k, each times dinv (_w1_dinv's);
# eta is complex(ctx.eta).


def _w1_00(k, v, lam, L, eta, dinv, ctx):
    """(k,0; k,0)"""
    return (f_eval(eta * (L - 2 * k) - v, ctx)
            * f_eval(lam + 2 * k * eta, ctx) * dinv)


def _w1_10(k, v, lam, L, eta, dinv, ctx):
    """(k,1; k+1,0)"""
    return (f_eval(v + lam + eta * (2 * k + 2 - L), ctx)
            * ctx.f_two_eta() * dinv)


def _w1_01(k, v, lam, L, eta, dinv, ctx):
    """(k,0; k-1,1)"""
    return (f_eval(lam - v + eta * (2 * k - 2 - L), ctx)
            * f_eval(2 * eta * (L + 1 - k), ctx)
            * f_eval(2 * k * eta, ctx)
            * dinv * _inv(ctx.f_two_eta(), "f(2*eta)"))


def _w1_11(k, v, lam, L, eta, dinv, ctx):
    """(k,1; k,1)"""
    return (f_eval(eta * (2 * k - L) - v, ctx)
            * f_eval(lam + 2 * eta * (k - L), ctx) * dinv)


_W1_CASES = {(0, 0): _w1_00, (1, 0): _w1_10, (0, 1): _w1_01, (1, 1): _w1_11}


def w1(cfg, p):
    """The four-case unfused vertex weight; 0 off the support, and
    InadmissibleParameters where it is not finite (see _finite)."""
    if not _on_support(1, cfg):
        return 0.0 + 0.0j
    i1, j1, i2, j2 = cfg
    v, lam, L = complex(p.v), complex(p.lam), complex(p.Lambda)
    ctx = p.ctx
    eta = complex(ctx.eta)
    return _finite(_W1_CASES[j1, j2](i1, v, lam, L, eta,
                                     _w1_dinv(v, lam, L, eta, ctx), ctx),
                   "w1", cfg)


def _top_row(J, i2, loff, p):
    """The four top-row weights w1 entering vertical count i2 of a level-J
    block, in the order of the _w_hat recursion, sharing one denominator."""
    ctx = p.ctx
    eta = complex(ctx.eta)
    e2 = 2 * eta
    v = complex(p.v) + e2 * (J - 1)
    lam = complex(p.lam) + e2 * loff
    L = complex(p.Lambda)
    dinv = _w1_dinv(v, lam, L, eta, ctx)
    return (_w1_00(i2, v, lam, L, eta, dinv, ctx),
            (_w1_10(i2 - 1, v, lam, L, eta, dinv, ctx) if i2 > 0
             else 0.0 + 0.0j),
            _w1_01(i2 + 1, v, lam, L, eta, dinv, ctx),
            _w1_11(i2, v, lam, L, eta, dinv, ctx))


_ZERO = 0.0 + 0.0j
_ONE = 1.0 + 0.0j


def _w_hat(J, i1, j1, i2, j2, p, loff, memo):
    """Column-summed fused weight by the four-term top-row recursion, on
    the support only: 0 <= j1, j2 <= J, i1, i2 >= 0, i1 + j1 == i2 + j2.

    loff counts the accumulated dynamical shift in units of 2*eta relative
    to p.lam; the spectral base p.v is fixed and the top row of a level-J
    block sits at p.v + 2*eta*(J-1).  The four top-row weights of
    (J, i2, loff) are computed once, by _top_row, and kept in memo under
    that key next to the node values.  A child off the support is not
    called: its value, 0, still multiplies its top-row weight, so every
    product and sum is the one a w1 call per term makes, inf and nan
    included, and values equal that bit for bit."""
    if J == 0:
        return _ONE  # on the support at J = 0, i1 == i2 and j1 == j2 == 0
    key = (J, i1, j1, i2, j2, loff)
    hit = memo.get(key)
    if hit is not None:
        return hit
    K = J - 1
    # A child that keeps j1 (or j2) is on the support only if it is <= K.
    keep_j1 = j1 <= K
    keep_j2 = j2 <= K
    first = (_w_hat(K, i1, j1, i2, j2, p, loff - 1, memo)
             if keep_j1 and keep_j2 else _ZERO)
    # The top row is read after the first subtree, so singular inputs raise
    # in the recursion's order.
    top = memo.get((J, i2, loff))
    if top is None:
        top = memo[(J, i2, loff)] = _top_row(J, i2, loff, p)
    val = 0.0 + 0.0j
    val += first * top[0]
    val += (_w_hat(K, i1, j1 - 1, i2 - 1, j2, p, loff + 1, memo)
            if j1 and i2 and keep_j2 else _ZERO) * top[1]
    val += (_w_hat(K, i1, j1, i2 + 1, j2 - 1, p, loff - 1, memo)
            if keep_j1 and j2 else _ZERO) * top[2]
    val += (_w_hat(K, i1, j1 - 1, i2, j2 - 1, p, loff + 1, memo)
            if j1 and j2 else _ZERO) * top[3]
    memo[key] = val
    return val


def w_fused_recursive(J, cfg, p):
    """Fused weight W_J via the recursion, = (column sum) / binom(J, j2);
    InadmissibleParameters where it is not finite."""
    if not _on_support(J, cfg):
        return 0.0 + 0.0j
    return _finite(_w_hat(J, *cfg, p, 0, {}) / math.comb(J, cfg[3]),
                   "W_%d" % J, cfg)


def c_correction(J, cfg, lam, Lambda, ctx):
    """Stochastic correction factor C_J(i1,j1;i2,j2|lambda)."""
    i1, j1, i2, j2 = cfg
    eta = complex(ctx.eta)
    lam = complex(lam)
    L = complex(Lambda)
    ep = elliptic_pochhammer
    e2 = 2 * eta
    e2L = e2 * L
    shifted = lam + e2 * (i1 + 2 * j1 - j2 - 1 - L)
    return (ctx.f_two_eta() ** (j2 - j1)
            * ep(e2L, i2, ctx) * _inv(ep(e2L, i1, ctx), "[2eL]_i1")
            * ep(lam + e2 * (i1 + 2 * j1 - J), j2, ctx)
            * ep(shifted, J - j2, ctx)
            * _inv(ep(lam + e2 * (i1 + j1 - j2), J - j1, ctx)
                   * ep(shifted, j1, ctx), "den")
            * ep(lam + e2 * j1, J - j1, ctx)
            * ep(lam + e2 * (2 * j1 - J - 1), j1, ctx)
            * _inv(ep(lam + e2 * (2 * i1 + 2 * j1 - j2 - L), j2, ctx)
                   * ep(lam + e2 * (2 * i1 + 2 * j1 - 2 * j2 - 1 - L),
                        J - j2, ctx), "den"))


def sigma(J, cfg, p):
    """Stochastic vertex weight sigma_J = C_J * W_J * (elliptic binomial
    ratio).  The Pochhammer factors of C_J and of the ratio come from
    p.ctx's memo (see elliptic_pochhammer), so calls in one context compute
    each once.  InadmissibleParameters where it is not finite."""
    if not _on_support(J, cfg):
        return 0.0 + 0.0j
    return _finite(_sigma(J, cfg, p, {}), "sigma_%d" % J, cfg)


def _sigma(J, cfg, p, memo):
    """sigma on the support, where the range checks have passed.  memo is
    the W_J recursion's memo, which calls at the same p may share (psi and
    psi_row keep one across calls): every value equals a call with a fresh
    memo bit for bit."""
    i1, j1, i2, j2 = cfg
    ctx = p.ctx
    # The recursion is exact to rounding; the closed form, equal to it and
    # kept in tests/oracle_weights.py as an independent oracle, needs
    # Richardson regularization on part of the domain.
    w_value = _w_hat(J, i1, j1, i2, j2, p, 0, memo) / math.comb(J, j2)
    cval = c_correction(J, cfg, p.lam, p.Lambda, ctx)
    ep = elliptic_pochhammer
    e2 = 2 * complex(ctx.eta)
    ratio = (ep(e2 * j1, j1, ctx) * ep(e2 * (J - j1), J - j1, ctx)
             * _inv(ep(e2 * j2, j2, ctx) * ep(e2 * (J - j2), J - j2, ctx),
                    "binomial ratio den"))
    return cval * w_value * ratio


@dataclass(frozen=True)
class PsiParams:
    """Multiplicative parameters for the psi weights.  u is the combined
    spectral parameter (the product of the row and column factors)."""

    u: complex
    s: complex
    q: complex
    J: int
    kappa: complex


_TRIG_CONTEXT_CAP = 8  # contexts kept by _trig_context; cleared when full
_trig_contexts = {}  # the bytes of eta -> its trigonometric context
_W_MEMO_COUNT = 8  # W_J memos kept by _psi_sigmas, first in first out
_W_MEMO_ENTRIES = 1 << 12  # a memo a call leaves larger is cleared
_w_memos = {}  # the bytes of (v, lam, Lambda, eta) -> W_J recursion memo
# Keys of exact bits, as elliptic_pochhammer's: signed zeros stay apart.
_complex_bytes = struct.Struct("<dd").pack
_params_bytes = struct.Struct("<8d").pack


def _trig_context(eta):
    """The one trigonometric context of psi at eta, so that psi calls at
    equal eta share its Pochhammer memo."""
    key = _complex_bytes(eta.real, eta.imag)
    ctx = _trig_contexts.get(key)
    if ctx is None:
        if len(_trig_contexts) >= _TRIG_CONTEXT_CAP:
            _trig_contexts.clear()
        ctx = _trig_contexts[key] = EllipticContext(mode="trigonometric",
                                                    eta=eta)
    return ctx


def _psi_sigmas(cfgs, j1, p):
    """[sigma(p.J, cfg, up) for cfg in cfgs], cfgs all on the support, at
    the unfused parameters up of (p, j1), bit for bit, with one W_J
    recursion memo per up kept across calls.  The entries of a row share it, and so do the rows of
    one (p, j1) at other i1, since its keys carry J and every arrow count.
    The context of up is _trig_context's, fixed by eta, so the memo is
    found by the exact bits of (v, lam, Lambda, eta).  The _W_MEMO_COUNT
    newest memos are kept, and a call that leaves a memo with more than
    _W_MEMO_ENTRIES entries clears it.  InadmissibleParameters at the
    first value that is not finite, where a product of f values leaves
    float range (as at |s| = 1e-300, where Lambda grows past 1000)."""
    up = _psi_unfused_params(p, j1)
    eta = up.ctx.eta
    key = _params_bytes(up.v.real, up.v.imag, up.lam.real, up.lam.imag,
                        up.Lambda.real, up.Lambda.imag, eta.real, eta.imag)
    memo = _w_memos.get(key)
    if memo is None:
        if len(_w_memos) >= _W_MEMO_COUNT:
            del _w_memos[next(iter(_w_memos))]
        memo = _w_memos[key] = {}
    try:
        return [_finite(_sigma(p.J, cfg, up, memo), "psi", cfg)
                for cfg in cfgs]
    finally:
        if len(memo) > _W_MEMO_ENTRIES:
            memo.clear()


_TWO_PI_I = 2j * math.pi
_FOUR_PI = 4 * math.pi


def _psi_unfused_params(p, j1):
    """Map PsiParams to the additive trigonometric parameters, in the
    shared context of _trig_context; the dynamical parameter depends on
    the horizontal input j1."""
    q = complex(p.q)
    if abs(q) < _SINGULAR_TOL:
        raise SingularParameter("q must be nonzero")
    # kappa enters only through its logarithm; values down to ~1e-60 stay
    # well inside floating range for the sine factors (|f| ~ |kappa|^(-1/2)).
    kappa = complex(p.kappa)
    if abs(kappa) < 1e-60:
        raise SingularParameter("psi evaluation requires kappa != 0")
    log_q = cmath.log(q)
    u, s = complex(p.u), complex(p.s)
    # cmath.log raises at u = 0 or s = 0, and q = 1 puts eta at 0.
    if not (log_q and u and s):
        raise SingularParameter("psi requires q != 1, u != 0 and s != 0")
    eta = 1j * log_q / _FOUR_PI
    ctx = _trig_context(eta)
    Lambda = cmath.log(s) / (_TWO_PI_I * eta)
    v = -cmath.log(u) / _TWO_PI_I
    lam = ((2 * j1 - p.J) * log_q - cmath.log(kappa)) / _TWO_PI_I
    return UnfusedWeightParams(v, lam, Lambda, ctx)


def psi(cfg, p):
    """psi weight, computed through the stochastic sigma weight in the
    trigonometric mode under the multiplicative-to-additive substitution."""
    if not _on_support(p.J, cfg):
        return 0.0 + 0.0j
    return _psi_sigmas([cfg], cfg[1], p)[0]


def psi_row(i1, j1, p):
    """[psi((i1, j1, i1 + j1 - j2, j2), p) for j2 = 0..min(J, i1 + j1)],
    equal bit for bit, from one _psi_unfused_params and one W_J memo for
    the whole row (its entries share the parameters; the memo outlives the
    call, for later rows and psi calls there: see _psi_sigmas)."""
    row = [ArrowConfig(i1, j1, i1 + j1 - j2, j2)
           for j2 in range(min(p.J, i1 + j1) + 1)]
    if i1 < 0 or not 0 <= j1 <= p.J:
        return [0.0 + 0.0j for _ in row]
    return _psi_sigmas(row, j1, p)


@dataclass(frozen=True)
class PhiParams:
    q: complex
    a: complex
    b: complex
    kappa: complex


def phi(j, i, p):
    """The q-Hahn-type stochastic weight phi_{q,a,b,kappa}(j|i); 0 unless
    0 <= j <= i.  InadmissibleParameters where a power of a complex
    parameter leaves float range.  Every q-Pochhammer index here is >= 0,
    and qp is q_pochhammer's product for those, factor by factor."""
    if j < 0 or j > i:
        return 0.0 + 0.0j
    q, a, b, kap = (complex(p.q), complex(p.a), complex(p.b),
                    complex(p.kappa))
    if abs(a) < _SINGULAR_TOL:
        raise SingularParameter("phi requires a != 0")

    def qp(x, k):
        out = power = 1.0 + 0.0j
        for _ in range(k):
            out *= 1.0 - power * x
            power *= q
        return out

    try:
        num = (a ** j
               * qp(q, i)
               * qp(b / a, j) * qp(a, i - j)
               * qp(q ** i * b * kap, i - j)
               * qp(q ** (i - j + 1) * kap, j))
        den = (qp(q, j) * qp(q, i - j) * qp(b, i)
               * qp(q ** (i - j) * a * kap, i - j)
               * qp(q ** (2 * i - 2 * j + 1) * a * kap, j))
    except OverflowError as exc:  # complex ** raises where float gives inf
        raise InadmissibleParameters(
            "phi parameters out of float range (%s)" % exc) from None
    return num * _inv(den, "phi denominator")


def psi_u_equals_s(cfg, p):
    """Closed form of psi at u = s (independent cross-check of the sigma
    route): equals phi with a = s**2 q**J, b = s**2, at the same kappa."""
    i1, j1, i2, j2 = cfg
    if i1 + j1 != i2 + j2:
        return 0.0 + 0.0j
    s2 = complex(p.s) ** 2
    q = complex(p.q)
    pp = PhiParams(q=q, a=s2 * q ** p.J, b=s2, kappa=complex(p.kappa))
    return phi(j2, i1, pp)


def asym_pep_stay(eta, q, delta, e):
    """P[X = eta - 1] for the asymmetric capacity-2 exclusion process: the
    chance that one of the eta in {0, 1, 2} particles at a site stays and
    the others move right, i.e. P(j2 = eta - 1 | i1 = eta) in the a = 1/q,
    b = 1/q^2 phi table, at kappa = delta * q**e with delta <= 0.

    Elementwise over numpy arrays, overflow-safe for any integer e."""
    if delta == 0.0:
        p1 = q / (q + 1.0)
    else:
        # a = kappa where e >= 0 and a = 1/kappa = q**(-e) / delta where
        # e < 0, so no power of q overflows.  f / delta overflows only for
        # subnormal delta, where the clipped 1/kappa gives the same value.
        f = q ** np.abs(e)
        pos = e >= 0
        with np.errstate(over="ignore"):
            a = np.where(pos, delta * f, np.maximum(f / delta, -1e300))
        p1 = np.where(pos, q - a, 1.0 - q * a) / ((q + 1.0) * (1.0 - a))
    # An empty site passes nothing on; a full one keeps exactly one.
    return np.where(eta == 1, p1, eta / 2.0)


def jgamma_pep_stay(eta, J, upsilon):
    """P[X = eta - 1] for the partial exclusion process of capacity J+1 at
    dynamical rate Upsilon: the chance that one of the eta particles at a
    site stays and eta - 1 move right (otherwise all eta move).
    Elementwise over numpy arrays."""
    return (eta / (J + 1)) * (1 + (J + 1 - eta) / upsilon)


# ---------------------------------------------------------------------------
# Row-sum checks

# phi over (q, b, J, kappa) at a = b q^J; psi over (u, s, q, J, kappa).
# kappa = q is a singular line of the psi weights; the grid stays clear of
# it.
_PHI_GRID = ((0.25, 0.4, 0.6), (0.05, 0.09, 0.15), (1, 2, 3),
             (0.0, 0.1, 0.25, 0.4))
_PSI_GRID = ((0.91, 0.7, 0.5), (0.3, 0.45), (0.3, 0.4, 0.55), (1, 2, 3),
             (0.1, 0.15, 0.35))


def _phi_checks(tol):
    worst, entries, negative = 0.0, 0, 0
    for q, b, J, kappa in itertools.product(*_PHI_GRID):
        p = PhiParams(q=q, a=b * q ** J, b=b, kappa=kappa)
        for i in range(8):
            row = [phi(j, i, p) for j in range(i + 1)]
            worst = max(worst, abs(sum(row) - 1.0))
            entries += len(row)
            negative += sum(w.real < 0 for w in row)
    sets = math.prod(map(len, _PHI_GRID))
    return [Check("phi_row_sums", residual=worst, tolerance=tol, points=sets),
            Check("phi_negative_weight_share", value=negative / entries,
                  points=entries)]


def _psi_checks(tol):
    worst = 0.0
    for u, s, q, J, kappa in itertools.product(*_PSI_GRID):
        pp = PsiParams(u=u, s=s, q=q, J=J, kappa=kappa)
        for i1 in range(5):
            for j1 in range(J + 1):
                worst = max(worst, abs(sum(psi_row(i1, j1, pp)) - 1.0))
    sets = math.prod(map(len, _PSI_GRID))
    at_u_equals_s = 0.0
    for J in (1, 2, 3):
        pp = PsiParams(u=0.3, s=0.3, q=0.4, J=J, kappa=0.15)
        for i1 in range(4):
            for j1 in range(J + 1):
                for j2, w in enumerate(psi_row(i1, j1, pp)):
                    cfg = ArrowConfig(i1, j1, i1 + j1 - j2, j2)
                    at_u_equals_s = max(at_u_equals_s,
                                        abs(w - psi_u_equals_s(cfg, pp)))
    return [Check("psi_row_sums", residual=worst, tolerance=tol, points=sets),
            Check("psi_at_u_equals_s_matches_phi", residual=at_u_equals_s,
                  tolerance=tol)]


def row_sum_checks(family, tol):
    """The Checks of family "phi", "psi" or "both": as residuals gated at
    tol, the largest |row sum - 1| over each grid (points: its parameter
    sets) and |psi - psi_u_equals_s| at u = s; and, ungated, the value
    phi_negative_weight_share, the share of phi(j, i) entries with negative
    real part (points: the entries), where phi is no law."""
    if family not in ("phi", "psi", "both"):
        raise ValueError("unknown weight family %r" % (family,))
    rows = []
    if family in ("phi", "both"):
        rows += _phi_checks(tol)
    if family in ("psi", "both"):
        rows += _psi_checks(tol)
    return rows
