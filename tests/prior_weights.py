"""Reference copies of the weight and theta layers as they were before
the shared top-row weights, the per-row W_J memo, the theta1 exponent
table, the Pochhammer memo and the per-context f(2*eta): w1, the W_J
recursion calling w1 four times per node, sigma and psi on a fresh memo
per entry, c_correction evaluating f(2*eta) on every call, the elliptic
Pochhammer symbol as a plain product, the psi parameter map building a
fresh context, theta1 recomputing its exponents for every term, and phi
through the general q-Pochhammer symbol.  The equality tests compare the
library against these with ==.  Only _inv, the records ArrowConfig,
UnfusedWeightParams and EllipticContext, and the error types are the
library's own."""

import cmath
import math

from dynvertex.errors import (
    InadmissibleParameters,
    NonConvergent,
    SingularParameter,
)
from dynvertex.specfun import EllipticContext
from dynvertex.weights import ArrowConfig, UnfusedWeightParams, _inv


def theta1(z, ctx):
    """First Jacobi theta function

        theta(z) = -sum_j exp(pi*i*tau*(j+1/2)**2 + 2*pi*i*(j+1/2)*(z+1/2)),

    summed symmetrically in j until the next term falls below 1e-12
    relative to the partial sum, over at most 256 paired terms.  Odd in
    z; theta(z+1) = -theta(z)."""
    if not ctx.is_elliptic:
        raise ValueError("theta1 requires an elliptic context")
    z = complex(z)
    tau = complex(ctx.tau)
    total = 0.0 + 0.0j

    def term(j):
        h = j + 0.5
        return cmath.exp(1j * math.pi * tau * h * h
                         + 2j * math.pi * h * (z + 0.5))

    # Pair j and -1-j: the quadratic exponent is symmetric under the swap.
    scale = 0.0
    for j in range(256):
        t = term(j) + term(-1 - j)
        total += t
        scale = max(scale, abs(total))
        if abs(t) < 1e-12 * max(scale, 1e-300) and j >= 1:
            return -total
    raise NonConvergent("theta series did not converge within max_terms")


def f_eval(z, ctx):
    """f(z): theta1(z; tau) in elliptic mode, sin(pi z) in trigonometric."""
    if ctx.is_elliptic:
        return theta1(z, ctx)
    return cmath.sin(math.pi * complex(z))


def w1(cfg, p):
    """The four-case unfused vertex weight; 0 off the support."""
    i1, j1, i2, j2 = cfg
    if min(i1, j1, i2, j2) < 0 or j1 > 1 or j2 > 1:
        return 0.0 + 0.0j
    if i1 + j1 != i2 + j2:
        return 0.0 + 0.0j
    ctx = p.ctx
    eta = complex(ctx.eta)
    v, lam, L = complex(p.v), complex(p.lam), complex(p.Lambda)
    denom = f_eval(eta * L - v, ctx) * f_eval(lam, ctx)
    dinv = _inv(denom, "f(eta*Lambda - v) * f(lambda)")
    k = i1
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


def _w_hat(J, i1, j1, i2, j2, p, loff, memo):
    """Column-summed fused weight by the four-term top-row recursion.

    loff counts the accumulated dynamical shift in units of 2*eta relative
    to p.lam; the spectral base p.v is fixed and the top row of a level-J
    block sits at p.v + 2*eta*(J-1)."""
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
    eta = complex(p.ctx.eta)
    top = UnfusedWeightParams(complex(p.v) + 2 * eta * (J - 1),
                              complex(p.lam) + 2 * eta * loff,
                              p.Lambda, p.ctx)
    val = 0.0 + 0.0j
    val += (_w_hat(J - 1, i1, j1, i2, j2, p, loff - 1, memo)
            * w1(ArrowConfig(i2, 0, i2, 0), top))
    val += (_w_hat(J - 1, i1, j1 - 1, i2 - 1, j2, p, loff + 1, memo)
            * w1(ArrowConfig(i2 - 1, 1, i2, 0), top))
    val += (_w_hat(J - 1, i1, j1, i2 + 1, j2 - 1, p, loff - 1, memo)
            * w1(ArrowConfig(i2 + 1, 0, i2, 1), top))
    val += (_w_hat(J - 1, i1, j1 - 1, i2, j2 - 1, p, loff + 1, memo)
            * w1(ArrowConfig(i2, 1, i2, 1), top))
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


def sigma(J, cfg, p, w_value=None):
    """Stochastic vertex weight sigma_J = C_J * W_J * (elliptic binomial
    ratio).  w_value optionally supplies a precomputed W_J."""
    i1, j1, i2, j2 = cfg
    if j1 < 0 or j1 > J or j2 < 0 or j2 > J or i1 < 0 or i2 < 0:
        return 0.0 + 0.0j
    if i1 + j1 != i2 + j2:
        return 0.0 + 0.0j
    ctx = p.ctx
    eta = complex(ctx.eta)
    if w_value is None:
        # The recursion is exact to rounding; the closed form (equal to it,
        # and cross-checked in the tests) needs Richardson regularization on
        # part of the domain and is kept as an independent oracle.
        w_value = w_fused_recursive(J, cfg, p)
    cval = c_correction(J, cfg, p.lam, p.Lambda, ctx)

    def ep(k):
        return elliptic_pochhammer(2 * eta * k, k, ctx)

    ratio = (ep(j1) * elliptic_pochhammer(2 * eta * (J - j1), J - j1, ctx)
             * _inv(ep(j2)
                    * elliptic_pochhammer(2 * eta * (J - j2), J - j2, ctx),
                    "binomial ratio den"))
    return cval * w_value * ratio


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


def elliptic_pochhammer(a, k, ctx):
    """[a]_k = prod_{j=0}^{k-1} f(a - 2*eta*j) for k >= 0;
    prod_{j=1}^{-k} 1 / f(a + 2*eta*j) for k < 0."""
    a = complex(a)
    two_eta = 2.0 * complex(ctx.eta)
    out = 1.0 + 0.0j
    if k >= 0:
        for j in range(k):
            out *= f_eval(a - two_eta * j, ctx)
    else:
        what = "f(a + 2*eta*j)"
        for j in range(1, -k + 1):
            value = f_eval(a + two_eta * j, ctx)
            if abs(value) < 1e-13:
                raise SingularParameter("vanishing %s (|%s| = %.3e)"
                                        % (what, what, abs(value)))
            out /= value
    return out


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


def _psi_unfused_params(p, j1):
    """Map PsiParams to the additive trigonometric parameters; the
    dynamical parameter depends on the horizontal input j1."""
    q = complex(p.q)
    if abs(q) < 1e-13:
        raise SingularParameter("q must be nonzero")
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


def q_pochhammer(a, q, k):
    """(a; q)_k for any integer k."""
    a = complex(a)
    q = complex(q)
    out = 1.0 + 0.0j
    if k >= 0:
        p = 1.0 + 0.0j
        for _ in range(k):
            out *= 1.0 - p * a
            p *= q
    else:
        p = 1.0 + 0.0j
        for _ in range(-k):
            p /= q
            den = 1.0 - p * a
            if abs(den) < 1e-13:
                raise SingularParameter(
                    "vanishing 1 - a*q^-j (|1 - a*q^-j| = %.3e)" % abs(den))
            out /= den
    return out


def phi(j, i, p):
    """The q-Hahn-type stochastic weight phi_{q,a,b,kappa}(j|i); 0 unless
    0 <= j <= i."""
    if j < 0 or j > i:
        return 0.0 + 0.0j
    q, a, b, kap = (complex(p.q), complex(p.a), complex(p.b),
                    complex(p.kappa))
    if abs(a) < 1e-13:
        raise SingularParameter("phi requires a != 0")
    qp = q_pochhammer
    try:
        num = (a ** j
               * qp(q, q, i)
               * qp(b / a, q, j) * qp(a, q, i - j)
               * qp(q ** i * b * kap, q, i - j)
               * qp(q ** (i - j + 1) * kap, q, j))
        den = (qp(q, q, j) * qp(q, q, i - j) * qp(b, q, i)
               * qp(q ** (i - j) * a * kap, q, i - j)
               * qp(q ** (2 * i - 2 * j + 1) * a * kap, q, j))
    except OverflowError as exc:
        raise InadmissibleParameters(
            "phi parameters out of float range (%s)" % exc) from None
    return num * _inv(den, "phi denominator")
