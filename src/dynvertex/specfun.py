"""Scalar special functions: Pochhammer symbols, Jacobi theta, and basic /
elliptic hypergeometric series (including very-well-poised forms).

All arithmetic is complex double precision.  Series termination for the
hypergeometric families is decided from integer structure supplied by the
caller whenever possible, never by comparing floats to q**(-n).

identity_checks checks the summation identities the weights stand on
(Rogers' 6W5, the Frenkel-Turaev 10v9, Riemann's quartic theta identity
and the Pochhammer-symbol identities) on seeded random grids.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonConvergent,
    NonTerminating,
    SingularParameter,
)

_SINGULAR_TOL = 1e-13


@dataclass(frozen=True)
class EllipticContext:
    """Evaluation context fixing the mode, nome, and series tolerances.

    mode is "elliptic" (f(z) = theta1(z; tau)) or "trigonometric"
    (f(z) = sin(pi z)).  q = exp(-4*pi*i*eta) is derived once and cached.
    """

    mode: str
    eta: complex
    tau: complex = None
    series_tol: float = 1e-12
    max_terms: int = 256
    q: complex = field(init=False)
    is_elliptic: bool = field(init=False, repr=False, compare=False)
    theta_exponents: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("elliptic", "trigonometric"):
            raise ValueError("mode must be 'elliptic' or 'trigonometric'")
        if self.mode == "elliptic":
            if self.tau is None or complex(self.tau).imag <= 0:
                raise ValueError("elliptic mode requires Im(tau) > 0")
        if not (0 < self.series_tol <= 1e-6):
            raise ValueError("series_tol must lie in (0, 1e-6]")
        if self.max_terms < 64:
            raise ValueError("max_terms must be >= 64")
        object.__setattr__(
            self, "q", cmath.exp(-4j * math.pi * complex(self.eta))
        )
        # f_eval reads the mode on every call: store it once.
        object.__setattr__(self, "is_elliptic", self.mode == "elliptic")
        # theta1's z-free exponents (1j*pi*tau*h*h, 2j*pi*h) of its paired
        # terms j and -1-j, at h = j + 1/2 and at -h.
        exps = ()
        if self.is_elliptic:
            tau = complex(self.tau)
            exps = tuple((1j * math.pi * tau * h * h, 2j * math.pi * h,
                          1j * math.pi * tau * -h * -h, 2j * math.pi * -h)
                         for h in (j + 0.5 for j in range(self.max_terms)))
        object.__setattr__(self, "theta_exponents", exps)


def _check_denominator(value, what="denominator"):
    if abs(value) < _SINGULAR_TOL:
        raise SingularParameter("vanishing %s (|%s| = %.3e)"
                                % (what, what, abs(value)))
    return value


def q_pochhammer(a, q, k):
    """(a; q)_k for any integer k.

    k >= 0: prod_{j=0}^{k-1} (1 - q**j a).
    k <  0: prod_{j=1}^{-k} 1 / (1 - q**(-j) a), the unique extension
    satisfying (a;q)_{k+m} = (a;q)_k (a q**k; q)_m for all integers.
    """
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
            out /= _check_denominator(1.0 - p * a, "1 - a*q^-j")
    return out


def rational_pochhammer(a, k):
    """(a)_k = prod_{j=0}^{k-1} (a + j), with the reciprocal extension for
    k < 0: prod_{j=1}^{-k} 1 / (a - j)."""
    a = complex(a)
    out = 1.0 + 0.0j
    if k >= 0:
        for j in range(k):
            out *= a + j
    else:
        for j in range(1, -k + 1):
            out /= _check_denominator(a - j, "a - j")
    return out


def theta1(z, ctx):
    """First Jacobi theta function

        theta(z) = -sum_j exp(pi*i*tau*(j+1/2)**2 + 2*pi*i*(j+1/2)*(z+1/2)),

    summed symmetrically in j until the next term falls below series_tol
    relative to the partial sum.  Odd in z; theta(z+1) = -theta(z).  The
    z-free parts of the exponents are read from ctx.theta_exponents,
    computed once per context by the same expressions, so values equal
    those of recomputing them on every call bit for bit."""
    if not ctx.is_elliptic:
        raise ValueError("theta1 requires an elliptic context")
    zh = complex(z) + 0.5
    total = 0.0 + 0.0j
    # Pair j and -1-j: the quadratic exponent is symmetric under the swap.
    scale = 0.0
    for j, (a, b, a2, b2) in enumerate(ctx.theta_exponents):
        t = cmath.exp(a + b * zh) + cmath.exp(a2 + b2 * zh)
        total += t
        scale = max(scale, abs(total))
        if abs(t) < ctx.series_tol * max(scale, 1e-300) and j >= 1:
            return -total
    raise NonConvergent("theta series did not converge within max_terms")


def f_eval(z, ctx):
    """f(z): theta1(z; tau) in elliptic mode, sin(pi z) in trigonometric."""
    if ctx.is_elliptic:
        return theta1(z, ctx)
    return cmath.sin(math.pi * complex(z))


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
        for j in range(1, -k + 1):
            out /= _check_denominator(f_eval(a + two_eta * j, ctx),
                                      "f(a + 2*eta*j)")
    return out


def basic_hyp(numer, denom, q, z, series_tol=1e-14, max_terms=512,
              terminate_at=None):
    """Basic hypergeometric series

        sum_k  z**k / (q;q)_k * prod_j (a_j;q)_k / prod_j (b_j;q)_k.

    Terminates after k = terminate_at when supplied; otherwise stops when a
    numerator Pochhammer factor vanishes (within 1e-12) or when successive
    terms decay below series_tol."""
    q = complex(q)
    z = complex(z)
    numer = [complex(a) for a in numer]
    denom = [complex(b) for b in denom]
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    qk = 1.0 + 0.0j  # q**k
    for k in range(max_terms):
        if terminate_at is not None and k >= terminate_at:
            return total
        num_factor = 1.0 + 0.0j
        vanished = False
        for a in numer:
            fac = 1.0 - qk * a
            if abs(fac) < 1e-12:
                vanished = True
                break
            num_factor *= fac
        if vanished:
            return total
        den_factor = _check_denominator(1.0 - qk * q, "1 - q^{k+1}")
        for b in denom:
            den_factor *= _check_denominator(1.0 - qk * b, "1 - q^k b")
        term = term * z * num_factor / den_factor
        total += term
        if terminate_at is None and abs(term) < series_tol * max(abs(total),
                                                                 1e-300):
            return total
        qk *= q
    if terminate_at is not None:
        return total
    raise NonConvergent("basic hypergeometric series did not converge")


def vwp_basic_W(a1, rest, q, z, terminate_at=None, max_terms=512):
    """Very-well-poised basic hypergeometric series

        W(a1; a4..a_{r+1}; q, z) = sum_k z**k (a1;q)_k / (q;q)_k
            * (1 - a1 q**(2k)) / (1 - a1)
            * prod_j (a_j;q)_k / (q a1 / a_j; q)_k.
    """
    a1 = complex(a1)
    q = complex(q)
    z = complex(z)
    rest = [complex(a) for a in rest]
    _check_denominator(1.0 - a1, "1 - a1")
    total = 0.0 + 0.0j
    ratio = 1.0 + 0.0j  # running product of everything except the wp factor
    qk = 1.0 + 0.0j
    for k in range(max_terms):
        term = ratio * (1.0 - a1 * qk * qk) / (1.0 - a1)
        total += term
        if terminate_at is not None and k >= terminate_at:
            return total
        # update ratio from k to k+1
        num = (1.0 - qk * a1) * z
        vanished = abs(num) < 1e-12 * max(abs(z), 1.0)
        for a in rest:
            fac = 1.0 - qk * a
            if abs(fac) < 1e-12:
                vanished = True
                break
            num *= fac
        if vanished:
            return total
        den = _check_denominator(1.0 - qk * q, "1 - q^{k+1}")
        for a in rest:
            den *= _check_denominator(1.0 - qk * q * a1 / a, "1 - q^{k+1}a1/a")
        ratio = ratio * num / den
        if terminate_at is None and abs(ratio) < 1e-15 * max(abs(total),
                                                             1e-300):
            return total
        qk *= q
    if terminate_at is not None:
        return total
    raise NonConvergent("very-well-poised series did not converge")


def vwp_elliptic_v(a1, rest, z, ctx, terminate_at=None):
    """Very-well-poised elliptic hypergeometric series

        v(a1; a6..a_{r+1}; z) = sum_k z**k [a1]_k / [-2 eta]_k
            * f(a1 - 4 eta k) / f(a1)
            * prod_j [a_j]_k / [a1 - a_j - 2 eta]_k,

    summed for k = 0..terminate_at.  The termination index must be supplied
    structurally (it is min over the integer termination parameters)."""
    if terminate_at is None:
        raise NonTerminating(
            "elliptic very-well-poised series requires a termination index")
    a1 = complex(a1)
    z = complex(z)
    rest = [complex(a) for a in rest]
    eta = complex(ctx.eta)
    f_a1 = _check_denominator(f_eval(a1, ctx), "f(a1)")
    total = 0.0 + 0.0j
    ratio = 1.0 + 0.0j
    for k in range(terminate_at + 1):
        total += ratio * f_eval(a1 - 4.0 * eta * k, ctx) / f_a1
        if k == terminate_at:
            break
        # update ratio from k to k+1 (one new factor per Pochhammer)
        num = f_eval(a1 - 2.0 * eta * k, ctx) * z
        for a in rest:
            num *= f_eval(a - 2.0 * eta * k, ctx)
        den = _check_denominator(f_eval(-2.0 * eta * (k + 1), ctx),
                                 "f(-2 eta (k+1))")
        for a in rest:
            den *= _check_denominator(
                f_eval(a1 - a - 2.0 * eta * (k + 1), ctx),
                "f(a1 - a - 2 eta (k+1))")
        ratio = ratio * num / den
    return total


# ---------------------------------------------------------------------------
# Summation-identity checks

# The contexts the identity and partition-function checks run in.
CHECK_CONTEXTS = {
    "trig": EllipticContext(mode="trigonometric", eta=0.07),
    "elliptic": EllipticContext(mode="elliptic", eta=0.07, tau=1.3j),
}


def rel_residual(lhs, rhs):
    """|lhs - rhs| relative to the larger of |lhs| and |rhs|."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def _cplx(rng, lo, hi, im=0.15):
    return complex(rng.uniform(lo, hi), rng.uniform(-im, im))


# Each draw function takes its numbers from rng and returns the two sides
# (lhs, rhs) of its identity at them.


def _rogers(rng, n):
    """Rogers' terminating 6W5 summation."""
    q = _cplx(rng, 0.3, 0.6, 0.05)
    a = _cplx(rng, 0.5, 0.9)
    b = _cplx(rng, 0.25, 0.45)
    c = _cplx(rng, -0.7, -0.4)
    lhs = vwp_basic_W(a, [b, c, q ** -n], q, a * q ** (n + 1) / (b * c),
                      terminate_at=n)
    rhs = (q_pochhammer(a * q, q, n) * q_pochhammer(a * q / (b * c), q, n)
           / (q_pochhammer(a * q / b, q, n)
              * q_pochhammer(a * q / c, q, n)))
    return lhs, rhs


def _jackson(rng, ctx, n):
    """The Frenkel-Turaev 10v9 summation (elliptic Jackson)."""
    eta = complex(ctx.eta)
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
              * ep(a - d - 2 * eta, n) * ep(a - b - c - d - 2 * eta, n)))
    return lhs, rhs


def _quartic(rng, ctx):
    """Riemann's quartic identity of f."""
    w, x, y, z = (_cplx(rng, 0.05, 0.45, 0.2) for _ in range(4))
    fe = lambda u: f_eval(u, ctx)
    lhs = fe(x + z) * fe(x - z) * fe(y + w) * fe(y - w)
    rhs = (fe(x + y) * fe(x - y) * fe(z + w) * fe(z - w)
           + fe(x + w) * fe(x - w) * fe(y + z) * fe(y - z))
    return lhs, rhs


def _basic_list(rng, which):
    """Identity `which` (1-7) of the q-Pochhammer symbol."""
    a = _cplx(rng, 0.3, 0.8, 0.3)
    q = _cplx(rng, 0.35, 0.65, 0.1)
    k = int(rng.integers(-3, 5))
    m = int(rng.integers(-3, 5))
    qp = q_pochhammer
    if which == 1:
        return qp(a, q, k) * qp(a * q ** k, q, m), qp(a, q, k + m)
    if which == 2:
        return (qp(q ** (m - k) * a, q, m - k)
                * qp(q ** (2 * m - 2 * k + 1) * a, q, k),
                qp(q ** (m - k) * a, q, m + 1)
                / (1 - q ** (2 * m - 2 * k) * a))
    if which == 3:
        return (qp(q ** -k * a, q, m),
                qp(a, q, m) * qp(q / a, q, k)
                / (q ** (m * k) * qp(1 / (q ** (m - 1) * a), q, k)))
    if which == 4:
        return (qp(a, q, m - k),
                q ** ((k + 1) * k // 2 - m * k) / (-a) ** k
                * qp(a, q, m) / qp(1 / (a * q ** (m - 1)), q, k))
    if which == 5:
        k = abs(k)
        return qp(a, q, k) * qp(-a, q, k), qp(a * a, q * q, k)
    if which == 6:
        return (qp(q * q * a, q * q, k) / qp(a, q * q, k),
                (1 - q ** (2 * k) * a) / (1 - a))
    # q -> 1 degeneration to the rational symbol, factor by factor via
    # expm1/log1p so the 1 - q^{a+j} differences keep full relative
    # accuracy at q = 1 - 1e-12.
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
    return lhs, rational_pochhammer(ar, kk)


def _elliptic_list(rng, ctx, which):
    """Identity `which` (1-3) of the elliptic Pochhammer symbol."""
    eta = complex(ctx.eta)
    a = _cplx(rng, 0.2, 0.6, 0.2)
    m = int(rng.integers(0, 6))
    k = int(rng.integers(0, m + 1))
    ep = lambda x, n: elliptic_pochhammer(x, n, ctx)
    if which == 1:
        return ep(a, m), (-1) ** m * ep(2 * eta * (m - 1) - a, m)
    if which == 2:
        return ep(a, m - k), ep(a, m) / ep(a - 2 * eta * (m - k), k)
    return (ep(a, k) * ep(a - 2 * eta * (k + 1), m - k),
            ep(a, m + 1) / f_eval(a - 2 * eta * k, ctx))


def identity_checks(seed, grid_size, tol):
    """Every summation identity at grid_size random points, all drawn from
    one stream seeded by seed, in a fixed order.  Returns one gated row
    (name, None, worst relative residual, tol, grid_size) per identity."""
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1, got %d" % grid_size)
    draws = [("rogers_6w5_n%d" % n, _rogers, (n,)) for n in range(6)]
    for label, ctx in CHECK_CONTEXTS.items():
        draws += [("jackson_10v9_%s_n%d" % (label, n), _jackson, (ctx, n))
                  for n in range(5)]
        draws.append(("riemann_quartic_" + label, _quartic, (ctx,)))
        draws += [("elliptic_pochhammer_identity_%d_%s" % (i, label),
                   _elliptic_list, (ctx, i)) for i in range(1, 4)]
    draws += [("basic_pochhammer_identity_%d" % i, _basic_list, (i,))
              for i in range(1, 8)]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = []
    for name, draw, params in draws:
        worst = 0.0
        for _ in range(grid_size):
            worst = max(worst, rel_residual(*draw(rng, *params)))
        rows.append((name, None, worst, tol, grid_size))
    return rows
