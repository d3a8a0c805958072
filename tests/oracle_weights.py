"""Independent closed forms of the weights, kept as test references for
the fused-weight recursion and the stochastic weights that the package
computes: W_J as an elliptic-Pochhammer prefactor times a terminating
very-well-poised 12v11 series (Borodin-Petrov, arXiv:1601.05770), its
fully factored special cases, and the q-form of sigma_J's j1 = J column.
The tests compare them with w_fused_recursive and sigma."""

from dynvertex.errors import DynVertexError
from dynvertex.specfun import (
    elliptic_pochhammer,
    q_pochhammer,
    vwp_elliptic_v,
)
from dynvertex.weights import _inv, _on_support


class PatternMismatch(DynVertexError):
    """An arrow configuration does not match the requested special case."""


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
    f2e = ctx.f_two_eta()
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
    if not _on_support(J, cfg):
        return 0.0 + 0.0j
    i1, j1, i2, j2 = cfg
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
    f2e = ctx.f_two_eta()

    def ep(a, k):
        return elliptic_pochhammer(a, k, ctx)

    if i1 + j1 != i2 + j2:
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
