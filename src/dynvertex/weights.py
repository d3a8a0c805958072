"""Vertex weights: the unfused four-case weight, fused weights
(recursion, closed hypergeometric form, factored special cases),
the stochastic correction and stochastic weights, the multiplicative-
parameter psi/phi families, and the exclusion-process probabilities.

row_sum_checks checks on fixed parameter grids that the rows of phi and
psi sum to 1, and that psi at u = s matches phi.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PatternMismatch, SingularParameter
from .specfun import (
    EllipticContext,
    elliptic_pochhammer,
    f_eval,
    q_pochhammer,
    vwp_elliptic_v,
)

_SINGULAR_TOL = 1e-13


class ArrowConfig(tuple):
    """Arrow configuration (i1, j1; i2, j2): vertical in, horizontal in,
    vertical out, horizontal out."""

    def __new__(cls, i1, j1, i2, j2):
        return super().__new__(cls, (i1, j1, i2, j2))

    @property
    def i1(self):
        return self[0]

    @property
    def j1(self):
        return self[1]

    @property
    def i2(self):
        return self[2]

    @property
    def j2(self):
        return self[3]

    @property
    def conserving(self):
        return self[0] + self[1] == self[2] + self[3]


@dataclass(frozen=True)
class UnfusedWeightParams:
    """Spectral parameter v, additive dynamical parameter lam, spin Lambda,
    and evaluation context."""

    v: complex
    lam: complex
    Lambda: complex
    ctx: EllipticContext

    def shifted(self, dv=0, dlam=0):
        return UnfusedWeightParams(self.v + dv, self.lam + dlam,
                                   self.Lambda, self.ctx)


def _inv(value, what):
    if abs(value) < _SINGULAR_TOL:
        raise SingularParameter("vanishing %s" % what)
    return 1.0 / value


def _w1_dinv(v, lam, L, ctx):
    """1 / (f(eta*Lambda - v) * f(lambda)), the denominator of all four
    cases of w1."""
    denom = f_eval(complex(ctx.eta) * L - v, ctx) * f_eval(lam, ctx)
    return _inv(denom, "f(eta*Lambda - v) * f(lambda)")


def _w1_case(k, j1, j2, v, lam, L, dinv, ctx):
    """The four-case numerators of w1 at vertical input k, times dinv."""
    eta = complex(ctx.eta)
    if j1 == 0 and j2 == 0:
        return (f_eval(eta * (L - 2 * k) - v, ctx)
                * f_eval(lam + 2 * k * eta, ctx) * dinv)
    if j1 == 1 and j2 == 0:
        # (k,1; k+1,0)
        return (f_eval(v + lam + eta * (2 * k + 2 - L), ctx)
                * f_eval(2 * eta, ctx) * dinv)
    if j1 == 0 and j2 == 1:
        # (k,0; k-1,1)
        return (f_eval(lam - v + eta * (2 * k - 2 - L), ctx)
                * f_eval(2 * eta * (L + 1 - k), ctx)
                * f_eval(2 * k * eta, ctx)
                * dinv * _inv(f_eval(2 * eta, ctx), "f(2*eta)"))
    # (k,1; k,1)
    return (f_eval(eta * (2 * k - L) - v, ctx)
            * f_eval(lam + 2 * eta * (k - L), ctx) * dinv)


def w1(cfg, p):
    """The four-case unfused vertex weight; 0 off the support."""
    i1, j1, i2, j2 = cfg
    if min(i1, j1, i2, j2) < 0 or j1 > 1 or j2 > 1:
        return 0.0 + 0.0j
    if i1 + j1 != i2 + j2:
        return 0.0 + 0.0j
    v, lam, L = complex(p.v), complex(p.lam), complex(p.Lambda)
    return _w1_case(i1, j1, j2, v, lam, L, _w1_dinv(v, lam, L, p.ctx), p.ctx)


def _top_row(J, i2, loff, p):
    """The four top-row weights w1 entering vertical count i2 of a level-J
    block, in the order of the _w_hat recursion, sharing one denominator."""
    ctx = p.ctx
    eta = complex(ctx.eta)
    v = complex(p.v) + 2 * eta * (J - 1)
    lam = complex(p.lam) + 2 * eta * loff
    L = complex(p.Lambda)
    dinv = _w1_dinv(v, lam, L, ctx)
    return (_w1_case(i2, 0, 0, v, lam, L, dinv, ctx),
            (_w1_case(i2 - 1, 1, 0, v, lam, L, dinv, ctx) if i2 > 0
             else 0.0 + 0.0j),
            _w1_case(i2 + 1, 0, 1, v, lam, L, dinv, ctx),
            _w1_case(i2, 1, 1, v, lam, L, dinv, ctx))


def _w_hat(J, i1, j1, i2, j2, p, loff, memo):
    """Column-summed fused weight by the four-term top-row recursion.

    loff counts the accumulated dynamical shift in units of 2*eta relative
    to p.lam; the spectral base p.v is fixed and the top row of a level-J
    block sits at p.v + 2*eta*(J-1).  The four top-row weights of
    (J, i2, loff) are computed once, by _top_row, and kept in memo under
    that key next to the node values.  Every product and sum is the one a
    w1 call per term makes, so values equal that bit for bit."""
    if j1 < 0 or j2 < 0 or j1 > J or j2 > J or i1 < 0 or i2 < 0:
        return 0.0 + 0.0j
    if i1 + j1 != i2 + j2:
        return 0.0 + 0.0j
    if J == 0:
        return 1.0 + 0.0j if (i1 == i2 and j1 == 0 and j2 == 0) else 0.0 + 0.0j
    key = (J, i1, j1, i2, j2, loff)
    hit = memo.get(key)
    if hit is not None:
        return hit
    first = _w_hat(J - 1, i1, j1, i2, j2, p, loff - 1, memo)
    # The top row is read after the first subtree, so singular inputs raise
    # in the recursion's order.
    top = memo.get((J, i2, loff))
    if top is None:
        top = memo[(J, i2, loff)] = _top_row(J, i2, loff, p)
    val = 0.0 + 0.0j
    val += first * top[0]
    val += _w_hat(J - 1, i1, j1 - 1, i2 - 1, j2, p, loff + 1, memo) * top[1]
    val += _w_hat(J - 1, i1, j1, i2 + 1, j2 - 1, p, loff - 1, memo) * top[2]
    val += _w_hat(J - 1, i1, j1 - 1, i2, j2 - 1, p, loff + 1, memo) * top[3]
    memo[key] = val
    return val


def w_fused_recursive(J, cfg, p, memo=None):
    """Fused weight W_J via the recursion, = (column sum) / binom(J, j2)."""
    i1, j1, i2, j2 = cfg
    if j1 < 0 or j1 > J or j2 < 0 or j2 > J or i1 < 0 or i2 < 0:
        return 0.0 + 0.0j
    if i1 + j1 != i2 + j2:
        return 0.0 + 0.0j
    if memo is None:
        memo = {}
    return _w_hat(J, i1, j1, i2, j2, p, 0, memo) / math.comb(J, j2)


def _closed_eval(J, cfg, p, eps):
    """One evaluation of the closed-form fused weight with the integer
    parameters J and (i1, i2) continued to J + eps and (i1, i2) + phi*eps
    in Pochhammer *arguments* only (product lengths stay integral)."""
    i1, j1, i2, j2 = cfg
    ctx = p.ctx
    eta = complex(ctx.eta)
    v, lam, L = complex(p.v), complex(p.lam), complex(p.Lambda)
    Je = J + eps if j1 + j2 > J else J
    di = 1.6180339887498949 * eps if i2 < j1 else 0.0
    I1, I2 = i1 + di, i2 + di

    def ep(a, k):
        return elliptic_pochhammer(a, k, ctx)

    a1 = lam + 2 * eta * (2 * j1 + j2 - Je)
    rest = [
        2 * eta * j1,
        2 * eta * j2,
        lam + 2 * eta * j1,
        lam + 2 * eta * (I1 + 2 * j1 - Je - 1 - L),
        eta * L + v + 2 * eta * (j2 - I1 - 1),
        eta * L - v - 2 * eta * (I1 - j2 + Je),
        lam + 2 * eta * (I2 + j1 + j2 - Je),
    ]
    series = vwp_elliptic_v(a1, rest, 1.0, ctx, terminate_at=min(j1, j2))
    f2e = f_eval(2 * eta, ctx)
    pref = (f2e ** (i2 - i1)
            * ep(2 * eta * L, i1) * _inv(ep(2 * eta * L, i2), "[2eL]_i2")
            * ep(2 * eta * I1, j2) * ep(2 * eta * (Je - j2), j1)
            * ep(eta * L - v - 2 * eta * (I1 + j1), J - j1 - j2)
            * ep(2 * eta * (L - I1 + j2), j1)
            * _inv(ep(2 * eta * j1, j1) * ep(eta * L - v, J), "prefactor den")
            * ep(lam + 2 * eta * I2, J - j1 - j2)
            * ep(lam + 2 * eta * (I1 + 2 * j1 - Je) - eta * L - v, j2)
            * ep(lam + v + 2 * eta * (I1 + 2 * j1 - 1) - eta * L, j1)
            * _inv(ep(lam + 2 * eta * (2 * j1 + j2 - Je), j2)
                   * ep(lam + 2 * eta * j1, J - j1 - j2)
                   * ep(lam + 2 * eta * (2 * j1 + j2 - Je - 1), j1),
                   "prefactor den"))
    return pref * series


def w_fused_closed(J, cfg, p):
    """Fused weight W_J in closed form: an elliptic-Pochhammer prefactor
    times a terminating very-well-poised 12v11 evaluated at z = 1.

    Arrow configurations with j1 + j2 > J or i2 < j1 make the formula a
    structural 0 * inf product (a prefactor zero against a series pole at
    exactly integer Pochhammer arguments).  Those are evaluated by
    continuing the integer parameters by +-eps in the Pochhammer arguments
    and Richardson-extrapolating the even-order error away (four levels,
    O(eps^8)), which agrees with the recursive evaluation to ~1e-11."""
    i1, j1, i2, j2 = cfg
    if j1 < 0 or j1 > J or j2 < 0 or j2 > J or i1 < 0 or i2 < 0:
        return 0.0 + 0.0j
    if i1 + j1 != i2 + j2:
        return 0.0 + 0.0j
    if j1 + j2 <= J and i2 >= j1:
        return _closed_eval(J, cfg, p, 0.0)
    eps = 6e-3

    def mean(e):
        return (_closed_eval(J, cfg, p, e)
                + _closed_eval(J, cfg, p, -e)) / 2

    vals = [mean(eps / 2 ** i) for i in range(4)]
    fac = 4.0
    while len(vals) > 1:
        vals = [(fac * b - a) / (fac - 1) for a, b in zip(vals, vals[1:])]
        fac *= 4
    return vals[0]


def w_fused_special(J, cfg, p, case):
    """Fully factored special-case fused weights.

    case "jJ":      (i, J; i+J-j, j)
    case "j20":     (i, j; i+j, 0)
    case "j2J":     (i, j; i+j-J, J)
    case "vLambda": any conserving cfg, requires p.v == -eta * p.Lambda
    """
    i1, j1, i2, j2 = cfg
    ctx = p.ctx
    eta = complex(ctx.eta)
    v, lam, L = complex(p.v), complex(p.lam), complex(p.Lambda)
    f2e = f_eval(2 * eta, ctx)

    def ep(a, k):
        return elliptic_pochhammer(a, k, ctx)

    if not ArrowConfig(*cfg).conserving:
        return 0.0 + 0.0j

    if case == "jJ":
        if j1 != J:
            raise PatternMismatch("case jJ requires j1 == J")
        i, j = i1, j2
        return (f2e ** (J - j)
                * ep(2 * eta * i - eta * L - v, j)
                * _inv(ep(eta * L - v, J), "[eL-v]_J")
                * ep(v + lam - eta * L + 2 * eta * (i + 2 * J - j - 1), J - j)
                * ep(lam + 2 * eta * (i + J - L - 1), j)
                * _inv(ep(lam + 2 * eta * (J - 1), J), "[lam+2e(J-1)]_J"))
    if case == "j20":
        if j2 != 0:
            raise PatternMismatch("case j20 requires j2 == 0")
        i, j = i1, j1
        return (f2e ** j
                * ep(2 * eta * J, J)
                * _inv(ep(2 * eta * (J - j), J - j) * ep(2 * eta * j, j),
                       "binomial den")
                * ep(lam + 2 * eta * (i + j), J - j)
                * _inv(ep(eta * L - v, J), "[eL-v]_J")
                * ep(v + lam + 2 * eta * (i + 2 * j - 1) - eta * L, j)
                * ep(eta * L - 2 * eta * (i + j) - v, J - j)
                * _inv(ep(lam + 2 * eta * j, J - j)
                       * ep(lam + 2 * eta * (2 * j - J - 1), j), "den"))
    if case == "j2J":
        if j2 != J:
            raise PatternMismatch("case j2J requires j2 == J")
        i, j = i1, j1
        if i + j - J < 0:
            return 0.0 + 0.0j
        return (f2e ** (j - J)
                * ep(2 * eta * J, J)
                * _inv(ep(2 * eta * (J - j), J - j) * ep(2 * eta * j, j),
                       "binomial den")
                * ep(2 * eta * i, J - j)
                * ep(2 * eta * (i + j - J) - eta * L - v, j)
                * ep(2 * eta * (L - i - j + J), J - j)
                * _inv(ep(eta * L - v, J), "[eL-v]_J")
                * ep(lam + 2 * eta * (i + j - J) - eta * L - v, J - j)
                * ep(lam + 2 * eta * (i + 2 * j - J - L - 1), j)
                * _inv(ep(lam + 2 * eta * j, J - j)
                       * ep(lam + 2 * eta * (2 * j - J - 1), j), "den"))
    if case == "vLambda":
        if abs(v + eta * L) > 1e-12 * max(1.0, abs(eta * L)):
            raise PatternMismatch("case vLambda requires v == -eta*Lambda")
        if i1 < j2:
            return 0.0 + 0.0j
        return (f2e ** (i2 - i1)
                * ep(2 * eta * J, J)
                * _inv(ep(2 * eta * j1, j1)
                       * ep(2 * eta * (J - j1), J - j1), "binomial den")
                * ep(2 * eta * L, i1)
                * _inv(ep(2 * eta * L, i2), "[2eL]_i2")
                * ep(2 * eta * i1, j2) * ep(2 * eta * (L - i1), J - j2)
                * _inv(ep(2 * eta * L, J), "[2eL]_J")
                * ep(lam + 2 * eta * i2, J - j1)
                * ep(lam + 2 * eta * (i2 + j1 - L - 1), j1)
                * _inv(ep(lam + 2 * eta * j1, J - j1)
                       * ep(lam + 2 * eta * (2 * j1 - J - 1), j1), "den"))
    raise ValueError("unknown case %r" % (case,))


def c_correction(J, cfg, lam, Lambda, ctx):
    """Stochastic correction factor C_J(i1,j1;i2,j2|lambda)."""
    i1, j1, i2, j2 = cfg
    eta = complex(ctx.eta)
    lam = complex(lam)
    L = complex(Lambda)
    f2e = f_eval(2 * eta, ctx)

    def ep(a, k):
        return elliptic_pochhammer(a, k, ctx)

    return (f2e ** (j2 - j1)
            * ep(2 * eta * L, i2) * _inv(ep(2 * eta * L, i1), "[2eL]_i1")
            * ep(lam + 2 * eta * (i1 + 2 * j1 - J), j2)
            * ep(lam + 2 * eta * (i1 + 2 * j1 - j2 - 1 - L), J - j2)
            * _inv(ep(lam + 2 * eta * (i1 + j1 - j2), J - j1)
                   * ep(lam + 2 * eta * (i1 + 2 * j1 - j2 - 1 - L), j1),
                   "den")
            * ep(lam + 2 * eta * j1, J - j1)
            * ep(lam + 2 * eta * (2 * j1 - J - 1), j1)
            * _inv(ep(lam + 2 * eta * (2 * i1 + 2 * j1 - j2 - L), j2)
                   * ep(lam + 2 * eta * (2 * i1 + 2 * j1 - 2 * j2 - 1 - L),
                        J - j2), "den"))


def sigma(J, cfg, p, memo=None):
    """Stochastic vertex weight sigma_J = C_J * W_J * (elliptic binomial
    ratio).  memo, when given, is the W_J recursion's memo, shared by calls
    at the same J and p (psi_row passes one per row), which leaves every
    value equal bit for bit to a call without it."""
    i1, j1, i2, j2 = cfg
    if j1 < 0 or j1 > J or j2 < 0 or j2 > J or i1 < 0 or i2 < 0:
        return 0.0 + 0.0j
    if i1 + j1 != i2 + j2:
        return 0.0 + 0.0j
    ctx = p.ctx
    eta = complex(ctx.eta)
    # The recursion is exact to rounding; the closed form (equal to it, and
    # cross-checked in the tests) needs Richardson regularization on part
    # of the domain and is kept as an independent oracle.
    w_value = w_fused_recursive(J, cfg, p, memo)
    cval = c_correction(J, cfg, p.lam, p.Lambda, ctx)

    def ep(k):
        return elliptic_pochhammer(2 * eta * k, k, ctx)

    ratio = (ep(j1) * elliptic_pochhammer(2 * eta * (J - j1), J - j1, ctx)
             * _inv(ep(j2)
                    * elliptic_pochhammer(2 * eta * (J - j2), J - j2, ctx),
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


def _psi_unfused_params(p, j1):
    """Map PsiParams to the additive trigonometric parameters; the dynamical
    parameter depends on the horizontal input j1."""
    q = complex(p.q)
    if abs(q) < _SINGULAR_TOL:
        raise SingularParameter("q must be nonzero")
    # kappa enters only through its logarithm; values down to ~1e-60 stay
    # well inside floating range for the sine factors (|f| ~ |kappa|^(-1/2)).
    if abs(complex(p.kappa)) < 1e-60:
        raise SingularParameter("psi evaluation requires kappa != 0")
    two_pi_i = 2j * math.pi
    eta = 1j * cmath.log(q) / (4 * math.pi)
    ctx = EllipticContext(mode="trigonometric", eta=eta)
    Lambda = cmath.log(complex(p.s)) / (two_pi_i * eta)
    v = -cmath.log(complex(p.u)) / two_pi_i
    lam = ((2 * j1 - p.J) * cmath.log(q)
           - cmath.log(complex(p.kappa))) / two_pi_i
    return UnfusedWeightParams(v, lam, Lambda, ctx)


def psi(cfg, p):
    """psi weight, computed through the stochastic sigma weight in the
    trigonometric mode under the multiplicative-to-additive substitution."""
    i1, j1, i2, j2 = cfg
    J = p.J
    if j1 < 0 or j1 > J or j2 < 0 or j2 > J or i1 < 0 or i2 < 0:
        return 0.0 + 0.0j
    if i1 + j1 != i2 + j2:
        return 0.0 + 0.0j
    up = _psi_unfused_params(p, j1)
    return sigma(J, cfg, up)


def psi_row(i1, j1, p):
    """[psi((i1, j1, i1 + j1 - j2, j2), p) for j2 = 0..min(J, i1 + j1)],
    equal bit for bit, from one _psi_unfused_params and one W_J memo for
    the whole row (its entries share the parameters; the memo dies with
    the call)."""
    row = [ArrowConfig(i1, j1, i1 + j1 - j2, j2)
           for j2 in range(min(p.J, i1 + j1) + 1)]
    if i1 < 0 or not 0 <= j1 <= p.J:
        return [0.0 + 0.0j for _ in row]
    up = _psi_unfused_params(p, j1)
    memo = {}
    return [sigma(p.J, cfg, up, memo=memo) for cfg in row]


@dataclass(frozen=True)
class PhiParams:
    q: complex
    a: complex
    b: complex
    kappa: complex


def phi(j, i, p):
    """The q-Hahn-type stochastic weight phi_{q,a,b,kappa}(j|i); 0 unless
    0 <= j <= i."""
    if j < 0 or j > i:
        return 0.0 + 0.0j
    q, a, b, kap = (complex(p.q), complex(p.a), complex(p.b),
                    complex(p.kappa))
    if abs(a) < _SINGULAR_TOL:
        raise SingularParameter("phi requires a != 0")
    qp = q_pochhammer
    num = (a ** j
           * qp(q, q, i)
           * qp(b / a, q, j) * qp(a, q, i - j)
           * qp(q ** i * b * kap, q, i - j)
           * qp(q ** (i - j + 1) * kap, q, j))
    den = (qp(q, q, j) * qp(q, q, i - j) * qp(b, q, i)
           * qp(q ** (i - j) * a * kap, q, i - j)
           * qp(q ** (2 * i - 2 * j + 1) * a * kap, q, j))
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


def sigma_j1_full_row(J, i, j, u, s, q, xi, kappa):
    """Explicit q-form of sigma_J(i, J; i+J-j, j): an independent oracle for
    the j1 = J column of the stochastic weights.  Written in the
    Rogers-summable shape, so the row sum over j is exactly 1."""
    qp = q_pochhammer
    ux = u * xi
    kt = 1.0 / kappa
    s2 = s * s
    num = ((q / (ux * s)) ** j
           * qp(q ** (-J), q, j) * qp(ux / (s * q ** i), q, j)
           * qp(kt * q ** (-i), q, j)
           * qp(kt * q ** (-2 * i) / (s2 * q ** J), q, j)
           * (1 - kt / (s2 * q ** (2 * i + J - 2 * j)))
           * qp(q ** (1 - i - J) / s2, q, J)
           * qp(kt * q ** (1 - i - J) / (ux * s), q, J))
    den = (qp(q, q, j) * qp(q ** (1 - i - J) / s2, q, j)
           * qp(kt / (s * ux * q ** (i + J - 1)), q, j)
           * qp(kt / (s2 * q ** (2 * i - 1)), q, j)
           * (1 - kt / (s2 * q ** (2 * i + J)))
           * qp(q ** (1 - 2 * i - J) * kt / s2, q, J)
           * qp(q ** (1 - J) / (ux * s), q, J))
    return num * _inv(den, "sigma_j1_full_row denominator")


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
    points = math.prod(map(len, _PHI_GRID))
    return [("phi_row_sums", None, worst, tol, points),
            ("phi_negative_weight_share", negative / entries, None, None,
             entries)]


def _psi_checks(tol):
    worst = 0.0
    for u, s, q, J, kappa in itertools.product(*_PSI_GRID):
        pp = PsiParams(u=u, s=s, q=q, J=J, kappa=kappa)
        for i1 in range(5):
            for j1 in range(J + 1):
                worst = max(worst, abs(sum(psi_row(i1, j1, pp)) - 1.0))
    points = math.prod(map(len, _PSI_GRID))
    at_u_equals_s = 0.0
    for J in (1, 2, 3):
        pp = PsiParams(u=0.3, s=0.3, q=0.4, J=J, kappa=0.15)
        for i1 in range(4):
            for j1 in range(J + 1):
                for j2, w in enumerate(psi_row(i1, j1, pp)):
                    cfg = ArrowConfig(i1, j1, i1 + j1 - j2, j2)
                    at_u_equals_s = max(at_u_equals_s,
                                        abs(w - psi_u_equals_s(cfg, pp)))
    return [("psi_row_sums", None, worst, tol, points),
            ("psi_at_u_equals_s_matches_phi", None, at_u_equals_s, tol)]


def row_sum_checks(family, tol):
    """Rows (name, value, residual, tolerance[, points]) for family "phi",
    "psi" or "both": the largest |row sum - 1| over each grid (points: its
    parameter sets) and |psi - psi_u_equals_s| at u = s, gated at tol; and
    phi_negative_weight_share, not gated, the share of phi(j, i) entries
    with negative real part (points: the entries), where phi is no law."""
    if family not in ("phi", "psi", "both"):
        raise ValueError("unknown weight family %r" % (family,))
    rows = []
    if family in ("phi", "both"):
        rows += _phi_checks(tol)
    if family in ("psi", "both"):
        rows += _psi_checks(tol)
    return rows
