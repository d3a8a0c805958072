"""Exact moment identities for the particle systems, verified three ways:
Monte Carlo expectation, exact small-system enumeration, and nested-circle
contour quadrature.

Two forms are supported.  The multiplicative form applies to the q-Hahn
model: the expectation of a k-fold product involving q^(+-h_N(x)) equals a
k-fold contour integral over circles enclosing the cluster
union_i {1, 1/q, ..., q^(1-J_i)} and excluding 0 and every b_i, with

the nesting convention that, for i < j, the j-th circle strictly contains
1/q times the i-th (so later circles grow to the right while every left
edge hugs the cluster).  The additive (PEP) form applies to the partial
exclusion process: circles enclose {2, ..., J+1}, exclude 0, and for
i < j the j-th circle strictly contains the i-th shifted by -1.  Both
identities require the probe sites listed in weakly decreasing order.

For every k the integrand is prod_j f_j(z_j) times the pair factors
(z_i - z_j)/(z_i - q z_j), or (z_i - z_j)/(z_i - z_j - 1) for PEP, so one
recursive contraction runs the trapezoid rule for any k.  Node doubling
starts at 32 nodes per circle and stops once the relative change is below
tol, with the rounding level of the sum as a floor (so a zero integral
converges); a pass beyond 4096 nodes per circle or 2^32 nodes in all
raises NotConverged instead.

The printed sources drift by one in a few indices; the conventions frozen
here (which factors read the current at x_j versus x_j + 1, which prefix
products stop at x_j - 1, and the direction of the contour nesting) were
pinned by an automated offset sweep against exact enumeration and are
exercised by the tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourInfeasible, NotConverged, SizeLimit
from .models import ModelSpec, _cyc, current, exact_law, run_ensemble

# Frozen index conventions (calibrated against exact enumeration; see the
# tests).  The multiplicative-form expectation factor j (0-based) reads the
# current at site x_{j+1} and multiplies prod_{i=1}^{x_{j+1}-1} b_i; the
# PEP-form factors read the current at x_j + 1 and use the site exponent
# x_j as below.
_QHAHN_B_AT_SAME_X = True  # b-product index = current index (x_{j+1})
_PEP_H_SHIFT = 1           # current read at x_j + PEP_H_SHIFT
_PEP_X_COEFF_SHIFT = 0     # first factor uses (J+1)*(x_j + shift)
_RHS_PEP_EXPONENT_SHIFT = 0  # ((y-J-1)/y)^(x_j + shift)
_RHS_PEP_SIGN_PER_VAR = -1   # integral carries (-1)^k from orientation

# Quadrature budget and rounding floor (see rhs_quadrature).
_MAX_NODES = 4096   # nodes per circle
_MAX_GRID = 2 ** 32  # nodes per pass, n^k
_FLOOR_ULPS = 64    # floor = _FLOOR_ULPS * eps * prod_j sum_a |g_j[a]|
_CONTRACT_ROWS = 64  # rows per block of the 3-variable step and of inner
_IMAG_TOL = 1e-9    # cap on the imaginary-part bound, per max(1, |value|)


# ---------------------------------------------------------------------------
# Specification


@dataclass(frozen=True)
class ObservableSpec:
    """A k-point moment observable for one model at one time horizon."""

    model: ModelSpec
    x_list: tuple
    N: int

    def __post_init__(self):
        object.__setattr__(self, "x_list",
                           tuple(int(x) for x in self.x_list))
        if any(x < 1 for x in self.x_list) or not self.x_list:
            raise ValueError("x_list must hold positive site indices")
        if any(a < b for a, b in zip(self.x_list, self.x_list[1:])):
            raise ValueError(
                "x_list must be weakly decreasing; the identity is stated "
                "for ordered probe sites")
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.model.variant not in ("qhahn", "jgamma_pep"):
            raise ValueError(
                "moment identities cover the qhahn and jgamma_pep variants")

    @property
    def k(self):
        return len(self.x_list)

    @property
    def form(self):
        return "qhahn" if self.model.variant == "qhahn" else "pep"


@dataclass(frozen=True)
class ContourSpec:
    """Nested circles on the real axis, one per integration variable,
    ordered outermost first.  nodes_per_circle is where node doubling
    starts; it must be a power of two and stay within the quadrature
    budget (4096 per circle, 2^32 per pass)."""

    circles: tuple  # ((center, radius), ...) as floats
    nodes_per_circle: int = 32
    # Per-level nesting maps applied to earlier circles when checking the
    # later ones: a multiplicative factor (1/q) for the multiplicative form,
    # an additive shift (-1) for the PEP form.  Populated by solve_contours;
    # informational for hand-built contours.
    nesting_offsets: tuple = ()

    def __post_init__(self):
        n = self.nodes_per_circle
        if n < 4 or n & (n - 1):
            raise ValueError("nodes_per_circle must be a power of two >= 4")
        object.__setattr__(
            self, "circles",
            tuple((float(c), float(r)) for c, r in self.circles))
        object.__setattr__(self, "nesting_offsets",
                           tuple(self.nesting_offsets))


# ---------------------------------------------------------------------------
# Left sides


def _qhahn_lhs_factors(spec):
    """Per-sample functional fn(h_values) -> float of the current vector
    for the multiplicative form."""
    m = spec.model
    q, delta = m.q, m.delta
    k = spec.k
    cprod = 1.0
    for i in range(1, spec.N + 1):
        cprod *= _cyc(m.C, i)
    bprods = []
    for x in spec.x_list:
        b = 1.0
        for i in range(1, x):
            b *= _cyc(m.B, i)
        bprods.append(b)

    if delta == 0.0:
        # delta -> 0 limit of the normalized product.
        def fn(h):
            out = (-1.0) ** k
            for j in range(k):
                out *= q ** j - q ** h[j]
            return out
        return fn

    dinv = 1.0 / delta
    norm = 1.0
    for j in range(k):
        norm *= 1.0 - dinv * q ** j

    def fn(h):
        out = 1.0 / norm
        for j in range(k):
            out *= ((dinv * q ** j - q ** (-h[j]) * cprod * bprods[j])
                    * (q ** j - q ** h[j]))
        return out

    return fn


def _pep_lhs_factors(spec):
    m = spec.model
    J, gamma = int(m.J), m.gamma
    k, N = spec.k, spec.N
    norm = 1.0
    for j in range(k):
        norm *= gamma + j

    def fn(h):
        out = 1.0 / norm
        for j in range(k):
            x = spec.x_list[j]
            out *= ((N * J - (J + 1) * (x + _PEP_X_COEFF_SHIFT) - h[j]
                     - gamma - j) * (h[j] - j))
        return out

    return fn


def _lhs_functional(spec):
    """(sites, fn): the sites whose currents h feed fn(h) -> float."""
    if spec.form == "qhahn":
        return list(spec.x_list), _qhahn_lhs_factors(spec)
    return [x + _PEP_H_SHIFT for x in spec.x_list], _pep_lhs_factors(spec)


def lhs_mc(spec, samples, seed):
    """Monte Carlo estimate of the left side (an MCEstimate)."""
    sites, fn = _lhs_functional(spec)

    def obs(state):
        return fn([current(state, x) for x in sites])

    return run_ensemble(spec.model, spec.N, samples, seed, [obs])[0]


def lhs_exact(spec, bound=200000):
    """The same functional summed exactly over the support of the
    small-system law."""
    sites, fn = _lhs_functional(spec)
    law = exact_law(spec.model, spec.N, bound=bound)

    def value(cfg):
        h = [sum(cfg[x - 1:]) if x - 1 < len(cfg) else 0 for x in sites]
        return fn(h)

    return law.mean(value)


# ---------------------------------------------------------------------------
# Contour geometry


def _pole_cluster(spec):
    """Real points every contour must enclose."""
    m = spec.model
    if spec.form == "qhahn":
        pts = set()
        for y in range(1, spec.N + 1):
            jy = m.J[(y - 1) % len(m.J)]
            for p in range(jy):
                pts.add(m.q ** (-p))
        return sorted(pts)
    return list(range(2, int(m.J) + 2))


def _exclusions(spec):
    """Real points no contour may enclose or touch."""
    m = spec.model
    if spec.form == "qhahn":
        excl = {0.0}
        for x in range(1, max(spec.x_list) + 1):
            excl.add(float(_cyc(m.B, x)))
        return sorted(excl)
    return [0.0]


def solve_contours(spec, nodes_per_circle=32, margin=0.25):
    """Greedy nested-circle geometry.  The first circle hugs the pole
    cluster; for i < j the j-th circle additionally contains the image
    (1/q times, or -1 plus) of the i-th circle, with a strict margin.
    Raises ContourInfeasible when the exclusions cannot be kept outside."""
    cluster = _pole_cluster(spec)
    excl = _exclusions(spec)
    lo0, hi0 = min(cluster), max(cluster)
    q = spec.model.q if spec.form == "qhahn" else None
    intervals = []
    lo, hi = lo0 - margin, hi0 + margin
    for depth in range(spec.k):
        if depth > 0:
            plo, phi = intervals[-1]
            if spec.form == "qhahn":
                ilo, ihi = plo / q, phi / q
            else:
                ilo, ihi = plo - 1.0, phi - 1.0
            lo = min(lo0 - margin, ilo - 0.5 * margin)
            hi = max(hi0 + margin, ihi + 0.5 * margin)
        intervals.append((lo, hi))
    circles = []
    for lo, hi in intervals:
        c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for e in excl:
            if abs(e - c) <= r + 0.02 * margin:
                raise ContourInfeasible(
                    "excluded point %.6f inside circle (%.4f, %.4f)"
                    % (e, c, r))
        circles.append((c, r))
    if spec.form == "qhahn":
        offsets = (1.0 / q,) * (spec.k - 1)
    else:
        offsets = (-1.0,) * (spec.k - 1)
    return ContourSpec(circles=tuple(circles),
                       nodes_per_circle=nodes_per_circle,
                       nesting_offsets=offsets)


def _relation(img_c, img_r, c, r):
    """Placement of an image circle against a disk on the real axis."""
    d = abs(img_c - c)
    if d > r + img_r:
        return "disjoint"
    if d + img_r < r:
        return "inside"
    if d + r < img_r:
        return "enclosing"
    return "crossing"


def _check_contour(spec, contour):
    cluster = _pole_cluster(spec)
    excl = _exclusions(spec)
    if len(contour.circles) != spec.k:
        raise ContourInfeasible("need one circle per variable")
    for c, r in contour.circles:
        for p in cluster:
            if abs(p - c) >= r:
                raise ContourInfeasible(
                    "cluster point %.6f outside circle (%.4f, %.4f)"
                    % (p, c, r))
        for e in excl:
            if abs(e - c) <= r:
                raise ContourInfeasible(
                    "excluded point %.6f inside circle (%.4f, %.4f)"
                    % (e, c, r))
    for i in range(spec.k):
        for j in range(i + 1, spec.k):
            ci, ri = contour.circles[i]
            cj, rj = contour.circles[j]
            if spec.form == "qhahn":
                q = spec.model.q
                early = _relation(q * cj, q * rj, ci, ri)
                late = _relation(ci / q, ri / q, cj, rj)
            else:
                early = _relation(cj + 1.0, rj, ci, ri)
                late = _relation(ci - 1.0, ri, cj, rj)
            # The cross pole hit by the earlier variable must stay outside
            # its disk; the one hit by the later variable may be enclosed
            # or avoided but must not touch the contour.
            if early not in ("disjoint", "enclosing"):
                raise ContourInfeasible(
                    "cross pole of variable %d not excluded by circle %d"
                    % (i, i))
            if late not in ("disjoint", "inside"):
                raise ContourInfeasible(
                    "cross pole of variable %d touches circle %d"
                    % (j, j))


# ---------------------------------------------------------------------------
# Right sides


def _rhs_single(spec, j, z):
    """The j-th single-variable factor f_j(z) of the integrand (j is 0-based,
    matching x_list order): prod_{i<x_j} (1-z)/(1-z/b_i) *
    prod_{y<=N} (1-c_y z)/(1-z) in the multiplicative form, and
    ((z-J-1)/z)^x_j * ((z-1)/(z-J-1))^N in the PEP form."""
    m = spec.model
    x = spec.x_list[j]
    if spec.form == "qhahn":
        out = np.ones_like(z)
        for i in range(1, x):
            bi = _cyc(m.B, i)
            out = out * (1.0 - z) / (1.0 - z / bi)
        for i in range(1, spec.N + 1):
            out = out * (1.0 - _cyc(m.C, i) * z) / (1.0 - z)
        return out
    J = int(m.J)
    return (((z - J - 1.0) / z) ** (x + _RHS_PEP_EXPONENT_SHIFT)
            * ((z - 1.0) / (z - J - 1.0)) ** spec.N)


def _cross_factor(spec, zi, zj):
    """Pair factor for i < j (with one q of the q^(k(k-1)/2) prefactor)."""
    if spec.form == "qhahn":
        return (zi - zj) / (zi / spec.model.q - zj)
    return (zi - zj) / (zi - zj - 1.0)


def _contract(z, g, cross, inner=None):
    """Sum of prod_j g[j][a_j] * prod_{i<j} cross(z[i][a_i], z[j][a_j]) over
    the node grid, for any number of variables.  The last pair's n x n
    matrix `inner` is built once, in blocks of rows.  Two variables are
    g @ inner @ g'; three go through matrix products against inner,
    _CONTRACT_ROWS nodes of the first variable at a time; with more, each
    node of the first variable scales every later g_j by its cross row and
    recurses."""
    if len(g) == 1:
        return g[0].sum()
    if inner is None:
        # Filled in blocks so that no n x n temporary is ever alive.
        inner = np.empty((len(z[-2]), len(z[-1])), dtype=complex)
        for r in range(0, len(z[-2]), _CONTRACT_ROWS):
            inner[r:r + _CONTRACT_ROWS] = cross(
                z[-2][r:r + _CONTRACT_ROWS, None], z[-1])
    if len(g) == 2:
        return g[0] @ inner @ g[1]
    if len(g) == 3:
        total = 0.0
        for r in range(0, len(z[0]), _CONTRACT_ROWS):
            za = z[0][r:r + _CONTRACT_ROWS, None]
            left = (g[1] * cross(za, z[1])) @ inner
            total += g[0][r:r + _CONTRACT_ROWS] @ (
                left * (g[2] * cross(za, z[2]))).sum(axis=1)
        return total
    return sum(ga * _contract(z[1:], [gj * cross(za, zj)
                                      for gj, zj in zip(g[1:], z[1:])],
                              cross, inner)
               for za, ga in zip(z[0], g[0]))


def _quad_once(spec, contour, n):
    """Tensor-product trapezoid rule with n nodes per circle.  Returns the
    value and its rounding floor, _FLOOR_ULPS * eps * prod_j sum |g_j|."""
    theta = 2.0 * math.pi * np.arange(n) / n
    z, g = [], []
    for j, (c, r) in enumerate(contour.circles):
        e = r * np.exp(1j * theta)
        z.append(c + e)
        # (1/2 pi i) dz -> (r e^{i theta} / n) per node; the measure of the
        # multiplicative form also divides by z, that of the PEP form
        # carries the orientation sign.
        w = (e / n / z[-1] if spec.form == "qhahn"
             else _RHS_PEP_SIGN_PER_VAR * e / n)
        g.append(_rhs_single(spec, j, z[-1]) * w)
    floor = (_FLOOR_ULPS * np.finfo(float).eps
             * math.prod(float(np.abs(gj).sum()) for gj in g))
    return _contract(z, g, lambda zi, zj: _cross_factor(spec, zi, zj)), floor


def rhs_quadrature(spec, contour=None, tol=1e-8, full=False):
    """The k-fold contour integral for any k, doubling the nodes from
    contour.nodes_per_circle until |cur - prev| / max(|cur|, floor / tol)
    (the doubling_change of full=True) is at most tol, within the
    _MAX_NODES / _MAX_GRID budget.  Returns a float when the imaginary part
    is at most max(tol |value|, floor), and at most 1e-9 max(1, |value|),
    else raises NotConverged; with full=True, a dict with the value and
    diagnostics."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if contour is None:
        contour = solve_contours(spec)
    _check_contour(spec, contour)
    n, prev = contour.nodes_per_circle, None
    while True:
        if n > _MAX_NODES or n ** spec.k > _MAX_GRID:
            raise NotConverged(
                "node doubling did not reach relative change %g before "
                "the budget stopped it at %d nodes per circle" % (tol, n))
        cur, floor = _quad_once(spec, contour, n)
        if prev is not None:
            change = abs(cur - prev) / max(abs(cur), floor / tol)
            if change <= tol:
                break
        prev = cur
        n *= 2
    # The imaginary part must vanish to the accuracy of the real part, as
    # in the doubling rule, and in no case beyond _IMAG_TOL * max(1, |cur|).
    imag_bound = min(max(tol * abs(cur), floor),
                     _IMAG_TOL * max(1.0, abs(cur)))
    if abs(cur.imag) > imag_bound:
        raise NotConverged(
            "integral has non-negligible imaginary part %.3e (bound %.3e)"
            % (cur.imag, imag_bound))
    if full:
        return {"value": float(cur.real), "nodes_used": n,
                "doubling_change": float(change),
                "imag_part": float(cur.imag)}
    return float(cur.real)


# ---------------------------------------------------------------------------
# Combined check


def identity_check(spec, samples=0, seed=0, exact_bound=200000,
                   contour=None, tol=1e-8):
    """Evaluate the available sides of the identity and report residuals.

    Always computes the quadrature; computes the exact expectation when
    the system is small enough, and a Monte Carlo estimate when samples
    are requested.  Residuals between MC and the others are normalized by
    the standard error."""
    report = {
        "form": spec.form,
        "k": spec.k,
        "x_list": list(spec.x_list),
        "N": spec.N,
        "conventions": {
            "qhahn_b_product_at_current_site": _QHAHN_B_AT_SAME_X,
            "pep_current_site_shift": _PEP_H_SHIFT,
            "pep_x_coefficient_shift": _PEP_X_COEFF_SHIFT,
            "pep_rhs_exponent_shift": _RHS_PEP_EXPONENT_SHIFT,
            "pep_rhs_sign_per_variable": _RHS_PEP_SIGN_PER_VAR,
        },
    }
    if contour is None:
        contour = solve_contours(spec)
    report["contour"] = {"circles": [list(c) for c in contour.circles],
                         "nodes_per_circle": contour.nodes_per_circle,
                         "nesting_offsets": list(contour.nesting_offsets)}
    diag = rhs_quadrature(spec, contour, tol=tol, full=True)
    rhs = diag["value"]
    report["rhs_quadrature"] = rhs
    report["quadrature_diagnostics"] = {
        key: val for key, val in diag.items() if key != "value"}
    try:
        ex = lhs_exact(spec, bound=exact_bound)
        report["lhs_exact"] = ex
        report["residual_exact_vs_quadrature"] = abs(ex - rhs)
    except SizeLimit:
        report["lhs_exact"] = None
    if samples:
        est = lhs_mc(spec, samples, seed)
        report["lhs_mc"] = {"mean": est.mean, "stderr": est.stderr,
                            "n_samples": est.n_samples,
                            "base_seed": est.base_seed}
        def sigmas(diff):
            if est.stderr > 0.0:
                return diff / est.stderr
            return 0.0 if diff < 1e-12 else math.inf

        report["residual_mc_vs_quadrature_sigmas"] = sigmas(
            abs(est.mean - rhs))
        if report.get("lhs_exact") is not None:
            report["residual_mc_vs_exact_sigmas"] = sigmas(
                abs(est.mean - report["lhs_exact"]))
    return report
