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
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    Check,
    InadmissibleParameters,
    NonConvergent,
    SingularParameter,
)

_SINGULAR_TOL = 1e-13  # |value| below which a denominator, or phi's a, is 0
# theta1's stopping tolerance, relative to the partial sum, and the paired
# terms it sums before it raises NonConvergent.
_SERIES_TOL = 1e-12
_MAX_TERMS = 256
_PI = math.pi
_sin = cmath.sin
_POCHHAMMER_MEMO_CAP = 1 << 11  # entries per context; cleared when full
# The memo key of elliptic_pochhammer: the bytes of (Re a, Im a, k).  Keys
# of exact bits keep apart the signed zeros, which == confuses and whose
# bits can reach a result.
_pochhammer_key = struct.Struct("<ddq").pack


@dataclass(frozen=True)
class EllipticContext:
    """Evaluation context fixing the mode and the nome.

    mode is "elliptic" (f(z) = theta1(z; tau)) or "trigonometric"
    (f(z) = sin(pi z)).  q = exp(-4*pi*i*eta) is derived once and cached,
    and so are theta1's z-free exponents (theta_exponents).  Two values
    are kept per context outside equality and hashing, so equal contexts
    built apart keep their own: pochhammer_memo, the values of
    elliptic_pochhammer, and f(2*eta), which f_two_eta evaluates at its
    first use, never at construction, so that building a context
    evaluates no f and cannot raise NonConvergent.
    """

    mode: str
    eta: complex
    tau: complex = None
    q: complex = field(init=False)
    is_elliptic: bool = field(init=False, repr=False, compare=False)
    theta_exponents: tuple = field(init=False, repr=False, compare=False)
    pochhammer_memo: dict = field(default_factory=dict, init=False,
                                  repr=False, compare=False)
    f_two_eta_value: list = field(default_factory=list, init=False,
                                  repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("elliptic", "trigonometric"):
            raise ValueError("mode must be 'elliptic' or 'trigonometric'")
        if self.mode == "elliptic":
            if self.tau is None or complex(self.tau).imag <= 0:
                raise ValueError("elliptic mode requires Im(tau) > 0")
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
                         for h in (j + 0.5 for j in range(_MAX_TERMS)))
        object.__setattr__(self, "theta_exponents", exps)

    def f_two_eta(self):
        """f(2*eta), the value f_eval(2 * eta, self) gives, evaluated at
        the first call and then kept.  A call that raises keeps nothing,
        so every later call raises the same error."""
        kept = self.f_two_eta_value
        if not kept:
            kept.append(f_eval(2 * complex(self.eta), self))
        return kept[0]


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

    summed symmetrically in j until the next term falls below _SERIES_TOL
    relative to the partial sum.  Odd in z; theta(z+1) = -theta(z).  The
    z-free parts of the exponents are read from ctx.theta_exponents,
    computed once per context by the same expressions; the terms, sums
    and stopping test are those of the plain loop, so values equal
    recomputing everything on every call bit for bit.  Nothing that
    depends on z is cached.  InadmissibleParameters past float range."""
    if not ctx.is_elliptic:
        raise ValueError("theta1 requires an elliptic context")
    exp = cmath.exp
    tol = _SERIES_TOL
    zh = (z if type(z) is complex else complex(z)) + 0.5
    total = 0.0 + 0.0j
    # Pair j and -1-j: the quadratic exponent is symmetric under the swap.
    # scale is the largest |partial sum| so far; the test starts at j = 1.
    scale = 0.0
    later = False
    try:
        for a, b, a2, b2 in ctx.theta_exponents:
            t = exp(a + b * zh) + exp(a2 + b2 * zh)
            total += t
            size = abs(total)
            if size > scale:
                scale = size
            if later:
                if abs(t) < tol * (scale if scale >= 1e-300 else 1e-300):
                    return -total
            else:
                later = True
    except OverflowError as exc:
        raise InadmissibleParameters("theta1 argument %r out of float range "
                                     "(%s)" % (z, exc)) from None
    raise NonConvergent("theta series did not converge within max_terms")


def f_eval(z, ctx):
    """f(z): theta1(z; tau) in elliptic mode, sin(pi z) in trigonometric.
    InadmissibleParameters where the value leaves float range."""
    if ctx.is_elliptic:
        return theta1(z, ctx)
    if type(z) is not complex:  # complex(z) is z itself for a complex
        z = complex(z)
    try:
        return _sin(_PI * z)
    except OverflowError as exc:
        raise InadmissibleParameters("f argument %r out of float range (%s)"
                                     % (z, exc)) from None


def elliptic_pochhammer(a, k, ctx):
    """[a]_k = prod_{j=0}^{k-1} f(a - 2*eta*j) for k >= 0;
    prod_{j=1}^{-k} 1 / f(a + 2*eta*j) for k < 0.

    k = 0 returns 1.0 + 0.0j, the empty product, without the memo.  Every
    other k is memoized on ctx.pochhammer_memo under the exact bits of a
    and k: a hit returns the product a miss computes, in the same order,
    so values equal recomputing them bit for bit.  An input that raises is
    never stored, and the memo is cleared when it holds
    _POCHHAMMER_MEMO_CAP entries.  _pochhammer_product is the same product
    without the memo, for arguments that do not repeat."""
    if k == 0:
        return 1.0 + 0.0j
    if type(a) is not complex:
        a = complex(a)
    key = _pochhammer_key(a.real, a.imag, k)
    memo = ctx.pochhammer_memo
    out = memo.get(key)
    if out is None:
        out = _pochhammer_product(a, k, ctx)
        if len(memo) >= _POCHHAMMER_MEMO_CAP:
            memo.clear()
        memo[key] = out
    return out


def _pochhammer_product(a, k, ctx):
    """The product of elliptic_pochhammer, factor by factor."""
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


def vwp_basic_W(a1, rest, q, z, terminate_at):
    """Very-well-poised basic hypergeometric series

        W(a1; a4..a_{r+1}; q, z) = sum_k z**k (a1;q)_k / (q;q)_k
            * (1 - a1 q**(2k)) / (1 - a1)
            * prod_j (a_j;q)_k / (q a1 / a_j; q)_k,

    summed for k = 0..terminate_at, or until a factor of the next term's
    numerator vanishes."""
    a1 = complex(a1)
    q = complex(q)
    z = complex(z)
    rest = [complex(a) for a in rest]
    _check_denominator(1.0 - a1, "1 - a1")
    total = 0.0 + 0.0j
    ratio = 1.0 + 0.0j  # running product of everything except the wp factor
    qk = 1.0 + 0.0j
    for k in range(terminate_at + 1):
        term = ratio * (1.0 - a1 * qk * qk) / (1.0 - a1)
        total += term
        if k == terminate_at:
            break
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
        qk *= q
    return total


def vwp_elliptic_v(a1, rest, z, ctx, terminate_at):
    """Very-well-poised elliptic hypergeometric series

        v(a1; a6..a_{r+1}; z) = sum_k z**k [a1]_k / [-2 eta]_k
            * f(a1 - 4 eta k) / f(a1)
            * prod_j [a_j]_k / [a1 - a_j - 2 eta]_k,

    summed for k = 0..terminate_at.  The termination index must be supplied
    structurally (it is min over the integer termination parameters)."""
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


def _uniform(rng, lo, hi):
    """rng.uniform(lo, hi) bit for bit, without its argument handling:
    numpy's uniform is lo + (hi - lo) * u for the double u that
    rng.random() returns."""
    return lo + (hi - lo) * rng.random()


def _cplx(rng, lo, hi, im=0.15):
    return complex(_uniform(rng, lo, hi), _uniform(rng, -im, im))


# Each draw function takes its numbers from rng and returns the two sides
# (lhs, rhs) of its identity at them.  Random arguments never repeat, so
# the elliptic Pochhammer symbols are evaluated by _pochhammer_product,
# the product elliptic_pochhammer memoizes, and leave the memos of
# CHECK_CONTEXTS alone.


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
    ep = lambda x, k: _pochhammer_product(x, k, ctx)
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
    ar = _uniform(rng, 3.2, 3.9)
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
    ep = lambda x, n: _pochhammer_product(x, n, ctx)
    if which == 1:
        return ep(a, m), (-1) ** m * ep(2 * eta * (m - 1) - a, m)
    if which == 2:
        return ep(a, m - k), ep(a, m) / ep(a - 2 * eta * (m - k), k)
    return (ep(a, k) * ep(a - 2 * eta * (k + 1), m - k),
            ep(a, m + 1) / f_eval(a - 2 * eta * k, ctx))


def identity_checks(seed, grid_size, tol):
    """Every summation identity at grid_size random points, all drawn from
    one stream seeded by seed, in a fixed order: per identity, a Check of
    the worst relative residual, gated at tol, over grid_size points."""
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
        rows.append(Check(name, residual=worst, tolerance=tol,
                          points=grid_size))
    return rows
