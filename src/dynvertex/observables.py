"""Exact moment identities for the particle systems, verified three ways:
Monte Carlo expectation, exact small-system enumeration, and nested-circle
contour quadrature.

Two forms are supported.  The multiplicative form applies to the q-Hahn
model: the expectation of a k-fold product involving q^(+-h_N(x)) equals a
k-fold contour integral over circles enclosing the cluster
union_i {1, 1/q, ..., q^(1-J_i)} and excluding 0 and every b_i.  The
additive (PEP) form applies to the partial exclusion process: circles
enclose {2, ..., J+1} and exclude 0.  In each form one map nests the
circles, z/q or z - 1: for i < j the j-th circle strictly contains the
image of the i-th (_image; later q-Hahn circles grow to the right).
Both identities require the probe sites listed in weakly decreasing order.

solve_contours places the circles.  Its seed is greedy: the first circle
pads the cluster by 0.25 on each side, and each later one also contains
the image of the one before, padded by 0.125.  A short coordinate search
then moves each circle's two real-axis endpoints by 0.4, 0.2, 0.1 and
0.05 of its radius to lower the product of the node counts that the
trapezoid rule's geometric rate predicts on each circle: the rate is set
by the circle's nearest singularity, weighed by its pole order
(_pole_orders), the images of the other circles counting at half weight.
A move is kept only if no pole's predicted count more than doubles, the
contour stays valid and the rounding-floor estimate of the sum does not
rise above the seed's.  An identity that vanishes whatever the
parameters keeps the seed.

For every k the integrand is prod_j f_j(z_j) times the pair factors
(z_i - z_j)/(z_i - q z_j), or (z_i - z_j)/(z_i - z_j - 1) for PEP, so one
recursive contraction runs the trapezoid rule for any k.  Each circle has
its own node count, since the rule converges on each at the geometric
rate its nearest singularity sets.  A pass orders every circle's nodes
evens first and returns the sums over the 2^k parity classes of its node
tuples, which give, at no extra cost, the value with any set of circles
at half their nodes.  The value is accepted from a pass whose relative
change (doubling_change) from the pass at half the nodes on every circle
is below tol, with the rounding level of the sum as a floor (so a zero
integral converges).  The first pass puts twice the start count on every
circle: twice the constant ContourSpec.nodes_per_circle = 32, or twice
the first power of two above the largest pole order inside the contours
(fewer nodes alias the integrand's Laurent coefficients), so that its
halved pass keeps that guard.  A failed pass doubles the fewest circles
predicted to suffice, or every circle, and sums only the node tuples new
to it: a doubled circle's even nodes are its previous nodes.  A pass
beyond 4096 nodes on a circle or 2^32 node tuples, or a rounding floor
above tol * max(1, |value|), raises NotConverged instead.

The printed sources drift by one in a few indices; the conventions frozen
here (which factors read the current at x_j versus x_j + 1, which prefix
products stop at x_j - 1, and the direction of the contour nesting) were
pinned by an automated offset sweep against exact enumeration and are
exercised by the tests.
"""

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .errors import (Check, ContourInfeasible, InadmissibleParameters,
                     NotConverged, SizeLimit)
from .models import ModelSpec, _cyc, current, exact_law, run_ensemble

# Frozen index conventions (calibrated against exact enumeration; see the
# tests).  The multiplicative-form expectation factor j (0-based) reads the
# current at site x_{j+1} and multiplies prod_{i=1}^{x_{j+1}-1} b_i; the
# PEP-form factors read the current at x_j + 1 and use (J+1) x_j and the
# site exponent x_j.
_PEP_H_SHIFT = 1           # current read at x_j + PEP_H_SHIFT
_RHS_PEP_SIGN_PER_VAR = -1   # integral carries (-1)^k from orientation

# Quadrature budget and rounding floor (see rhs_quadrature).
_MAX_NODES = 4096   # nodes per circle
_MAX_GRID = 2 ** 32  # node tuples per pass, prod_j n_j
_FLOOR_ULPS = 64    # floor = _FLOOR_ULPS * eps * prod_j sum_a |g_j[a]|
_CONTRACT_ROWS = 64  # rows per block of the 3-variable step and of inner
_START_NODES = 32   # start count of the node schedule (ContourSpec)
_MARGIN = 0.25      # the seed circles' clearance around the pole cluster
_LADDER = (0.4, 0.2, 0.1, 0.05)  # circle search steps, per radius
_RATE_NODES = 64    # nodes a circle of the rate model and the floor guard
_RATE_DIGITS = math.log(1e10)  # error reduction the rate model asks for
_TRUST = 2.0        # a move may raise a pole's predicted count this much
_IMAG_TOL = 1e-9    # cap on the imaginary-part bound, per max(1, |value|)
_SAFETY = 10.0      # a planned pass aims at tol / _SAFETY
_MC_AGREE_FLOOR = 1e-6  # least exact chance that every MC sample agrees


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
            raise ValueError("x_list must hold positive site indices, got "
                             "%r" % (self.x_list,))
        if any(a < b for a, b in zip(self.x_list, self.x_list[1:])):
            raise ValueError(
                "x_list must be weakly decreasing; the identity is stated "
                "for ordered probe sites")
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.model.variant not in ("qhahn", "jgamma_pep"):
            raise ValueError(
                "moment identities cover the qhahn and jgamma_pep variants")
        if self.form == "pep":
            # at gamma = inf the left side's lead 1/gamma... is 0, and 0 * inf
            if not math.isfinite(self.model.gamma):
                raise ValueError("the PEP identity needs a finite gamma, "
                                 "got %r" % self.model.gamma)
            return
        q, delta = self.model.q, self.model.delta
        # The factors of the left side's normalization (none at delta = 0).
        dinv = 1.0 / delta if delta else 0.0
        try:
            norm = [1.0 - dinv * q ** j for j in range(self.k)]
            q ** (1 - max(self.model.J))  # the farthest contour point
        except OverflowError:
            raise ValueError("q = %r overflows q^j for a j < k = %d or "
                             "1/q^p for a p < max(J) = %d"
                             % (q, self.k, max(self.model.J)))
        if 0.0 in norm:
            raise ValueError("delta = %r equals q^j for a j < k = %d, where "
                             "the normalization prod_j (1 - q^j / delta) "
                             "vanishes" % (delta, self.k))
        if not all(map(math.isfinite, norm)):
            raise ValueError("delta = %r puts q^j / delta past float range "
                             "for a j < k = %d" % (delta, self.k))

    @property
    def k(self):
        return len(self.x_list)

    @property
    def form(self):
        return "qhahn" if self.model.variant == "qhahn" else "pep"


@dataclass(frozen=True)
class ContourSpec:
    """Nested circles on the real axis, one per integration variable,
    ordered outermost first.  nodes_per_circle, a constant, is the start
    count of the quadrature's node schedule (rhs_quadrature)."""

    circles: tuple  # ((center, radius), ...) as floats
    nodes_per_circle: ClassVar[int] = _START_NODES

    def __post_init__(self):
        object.__setattr__(
            self, "circles",
            tuple((float(c), float(r)) for c, r in self.circles))


# ---------------------------------------------------------------------------
# Left sides


def _qhahn_lhs_factors(spec):
    """(lead, factors) of the multiplicative form: the functional of the
    current vector h is lead times factors[j](h[j]), multiplied on in
    order of j."""
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
    if not all(map(math.isfinite, [cprod] + bprods)):
        raise InadmissibleParameters(
            "the product of the c_y over the N rows or of the b_x before a "
            "probe site leaves float range: %r, %r" % (cprod, bprods))

    if delta == 0.0:
        # delta -> 0 limit of the normalized product.
        return (-1.0) ** k, [lambda hj, j=j: q ** j - q ** hj
                             for j in range(k)]

    dinv = 1.0 / delta
    norm = 1.0
    for j in range(k):
        norm *= 1.0 - dinv * q ** j
    return 1.0 / norm, [
        lambda hj, j=j: ((dinv * q ** j - q ** (-hj) * cprod * bprods[j])
                         * (q ** j - q ** hj))
        for j in range(k)]


def _pep_lhs_factors(spec):
    """(lead, factors) of the PEP form, as _qhahn_lhs_factors."""
    m = spec.model
    J, gamma = int(m.J), m.gamma
    k, N = spec.k, spec.N
    norm = 1.0
    for j in range(k):
        norm *= gamma + j
    return 1.0 / norm, [
        lambda hj, j=j, x=x: (N * J - (J + 1) * x - hj - gamma - j) * (hj - j)
        for j, x in enumerate(spec.x_list)]


def pep_site(x):
    """The lattice site whose current is h(x) of the PEP identity:
    current(state, x + _PEP_H_SHIFT)."""
    return x + _PEP_H_SHIFT


def _lhs_factors(spec):
    """(sites, lead, factors): the sites whose currents h feed the
    functional lead * prod_j factors[j](h[j])."""
    if spec.form == "qhahn":
        return (list(spec.x_list),) + _qhahn_lhs_factors(spec)
    return ([pep_site(x) for x in spec.x_list],) + _pep_lhs_factors(spec)


def _lhs_functional(spec):
    """(sites, fn): the sites whose currents h feed fn(h) -> float."""
    sites, lead, factors = _lhs_factors(spec)

    def fn(h):
        out = lead
        for factor, hj in zip(factors, h):
            out *= factor(hj)
        return out

    return sites, fn


def _lhs_range(spec):
    """(lo, hi) bounding the functional over every current vector with
    entries in 0..H, H the most particles a site can have passed: the
    total of the row degrees, or J * N in the PEP form.  Each factor's
    range over 0..H multiplies into the interval in turn, so the bound
    holds however the currents of the sites are coupled.  (-inf, inf)
    where a factor leaves float range."""
    _, lead, factors = _lhs_factors(spec)
    H = sum(map(spec.model.row_degree, range(1, spec.N + 1)))
    lo = hi = lead
    try:
        for factor in factors:
            values = [factor(h) for h in range(H + 1)]
            a, b = min(values), max(values)
            ends = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(ends), max(ends)
    except OverflowError:
        return -math.inf, math.inf
    return lo, hi


def _agreement_bound(v, rhs, lo, hi):
    """Upper bound on P(X = v) for an X in [lo, hi] with mean rhs, by
    Markov's inequality on X - lo (v > rhs) or hi - X (v < rhs); 1 at
    v == rhs or where the range is not finite, and 0 where rhs lies
    beyond v's side of the range, which no such X has."""
    if v == rhs or not (math.isfinite(lo) and math.isfinite(hi)):
        return 1.0
    if v > rhs:
        num, den = rhs - lo, v - lo
    else:
        num, den = hi - rhs, hi - v
    if not den > 0.0:
        return 0.0
    return min(1.0, max(0.0, num / den))


def lhs_mc(spec, samples, seed):
    """Monte Carlo estimate of the left side (an MCEstimate)."""
    sites, fn = _lhs_functional(spec)

    def obs(state):
        return fn([current(state, x) for x in sites])

    return run_ensemble(spec.model, spec.N, samples, seed, [obs])[0]


def _lhs_value(spec):
    """The functional's value on a configuration of the exact law."""
    sites, fn = _lhs_functional(spec)
    return lambda cfg: fn([sum(cfg[x - 1:]) if x - 1 < len(cfg) else 0
                           for x in sites])


def lhs_exact(spec):
    """The same functional summed exactly over the support of the
    small-system law."""
    return exact_law(spec.model, spec.N).mean(_lhs_value(spec))


# ---------------------------------------------------------------------------
# Contour geometry


def _points(spec):
    """(cluster, exclusions): the real points every contour must enclose,
    and those no contour may enclose or touch."""
    m = spec.model
    if spec.form == "pep":
        return list(range(2, int(m.J) + 2)), [0.0]
    cluster = {m.q ** -p for y in range(1, spec.N + 1)
               for p in range(_cyc(m.J, y))}
    excl = {0.0} | {float(_cyc(m.B, x))
                    for x in range(1, max(spec.x_list) + 1)}
    return sorted(cluster), sorted(excl)


def _image(spec, circle, later):
    """The circle (c, r) under the nesting map, z/q (multiplicative form)
    or z - 1 (PEP form), as a later circle sees it, when later; else under
    its inverse, q z or z + 1, as an earlier circle sees it."""
    c, r = circle
    if spec.form == "pep":
        return (c - 1.0, r) if later else (c + 1.0, r)
    q = spec.model.q
    return (c / q, r / q) if later else (c * q, r * q)


def _relation(image, circle):
    """(relation, rho) of an image circle, of radius a and center d from
    c, against a circle (c, r) on the real axis: disjoint, inside,
    enclosing or crossing, and the ratio at which the trapezoid rule on
    (c, r) converges past the image's nearest point (inf where crossing)."""
    (ci, a), (c, r) = image, circle
    d = abs(ci - c)
    if d > r + a:
        return "disjoint", r / (d - a)
    if d + a < r:
        return "inside", (d + a) / r
    if d + r < a:
        return "enclosing", r / (a - d)
    return "crossing", math.inf


# The relations an image may have to the circle that sees it, by `later`:
# a later circle holds an earlier one's image or keeps it outside, and an
# earlier circle lies inside a later one's inverse image or outside it.
_ALLOWED = {True: ("disjoint", "inside"), False: ("disjoint", "enclosing")}


def _seed_circles(spec, cluster, excl):
    """Greedy nested circles: the first pads the pole cluster by _MARGIN;
    for i < j the j-th circle also contains the image (_image) of the
    (j-1)-th, its endpoints mapped and padded by _MARGIN / 2.  cluster and
    excl are _points(spec).  Raises ContourInfeasible when the exclusions
    cannot be kept outside."""
    lo0, hi0 = min(cluster) - _MARGIN, max(cluster) + _MARGIN
    lo, hi = lo0, hi0
    circles = []
    for depth in range(spec.k):
        if depth > 0:
            lo, hi = (_image(spec, (e, 0.0), True)[0] for e in (lo, hi))
            lo = min(lo0, lo - 0.5 * _MARGIN)
            hi = max(hi0, hi + 0.5 * _MARGIN)
        c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for e in excl:
            if abs(e - c) <= r + 0.02 * _MARGIN:
                raise ContourInfeasible(
                    "excluded point %.6f inside circle (%.4f, %.4f)"
                    % (e, c, r))
        circles.append((c, r))
    return circles


def _pole_orders(spec, j):
    """(enclosed, excluded): {point: order} of the poles of variable j's
    integrand, f_j times its measure, that circle j must enclose and
    exclude.  The multiplicative form has order N - x_j + 1 at 1, the
    multiplicity of each b_i (i < x_j) and 1 at 0; the PEP form has
    N - x_j at J + 1 and x_j at 0.  An order may be 0."""
    m, x = spec.model, spec.x_list[j]
    if spec.form == "pep":
        return {m.J + 1.0: spec.N - x}, {0.0: x}
    enclosed, excluded = {1.0: spec.N - x + 1}, {0.0: 1}
    for i in range(1, x):
        bi = float(_cyc(m.B, i))
        excluded[bi] = excluded.get(bi, 0) + 1
    return enclosed, excluded


def _rate_poles(spec, j):
    """The poles of _pole_orders(spec, j) of positive order, each as
    (point, _RATE_DIGITS + (order - 1) ln _RATE_NODES)."""
    return tuple([(p, _RATE_DIGITS + (order - 1) * math.log(_RATE_NODES))
                  for p, order in poles.items() if order > 0]
                 for poles in _pole_orders(spec, j))


def _vanishes(spec):
    """Whether the identity is 0 whatever the parameters.  h(x_j) is at
    most J o_j, o_j the order of circle j's enclosed pole (_pole_orders)
    and J the largest row degree, and grows with j as the sites fall.  So
    where J o_j <= j for some j, the first i with h(x_i) <= i has
    h(x_i) = i, and factor i of the left side, q^i - q^h or h - i, is 0."""
    J = np.max(spec.model.J)  # a tuple in the multiplicative form
    return any(J * order <= j for j in range(spec.k)
               for order in _pole_orders(spec, j)[0].values())


def _pole_nodes(circle, poles):
    """The node counts at which the trapezoid rule on circle (c, r)
    converges past each of its own poles (_rate_poles), enclosed first:
    weight / -ln(rho), rho being |p - c| / r for an enclosed pole p and
    r / |e - c| for an excluded pole e, and at least _START_NODES, below
    which no circle's count falls; inf for a pole on the wrong side."""
    c, r = circle
    enclosed, excluded = poles
    counts = []
    for rho, w in ([(abs(p - c) / r, w) for p, w in enclosed]
                   + [(r / abs(e - c) if e != c else math.inf, w)
                      for e, w in excluded]):
        if rho >= 1.0:
            counts.append(math.inf)
        elif rho > 0.0:
            counts.append(max(_START_NODES, w / -math.log(rho)))
        else:
            counts.append(_START_NODES)
    return counts


def _predicted_nodes(spec, circles, own):
    """The product over circles j of the node count the trapezoid rule's
    geometric rate (Trefethen & Weideman, SIAM Review 56 (2014) 385)
    predicts: the larger of own[j], the largest count of _pole_nodes on
    circle j, and, for every other variable, the count past its circle's
    image, the cross factor's poles in variable j, at the image's rho
    (_relation).  Its weight is _RATE_DIGITS / 2: the image's poles are
    the other circle's nodes, so its error falls with that circle's count
    as well.  Returns inf when an image crosses a circle or lies on the
    wrong side of it (_ALLOWED)."""
    # Images as scale * z + shift, the coefficients read off _image: its
    # own z / q moves some predictions by an ulp, and so a few searches.
    maps = {later: _image(spec, (0.0, 1.0), later) for later in (False, True)}
    total = 1.0
    for j, (c, r) in enumerate(circles):
        worst = 0.0  # the largest rho of an image
        for i, (ci, ri) in enumerate(circles):
            if i == j:
                continue
            shift, scale = maps[i < j]
            relation, rho = _relation((scale * ci + shift, scale * ri), (c, r))
            if relation not in _ALLOWED[i < j]:
                return math.inf
            worst = max(worst, rho)
        if worst >= 1.0:
            return math.inf
        total *= (max(own[j], 0.5 * _RATE_DIGITS / -math.log(worst))
                  if worst > 0.0 else own[j])
    return total


def solve_contours(spec):
    """Nested circles, one per variable, placed for the quadrature's
    convergence rate.  The seed is the greedy geometry of _seed_circles.
    A coordinate search then moves each circle's two real-axis endpoints
    in turn, out or in, by each step of _LADDER, a fraction of the
    circle's current radius, largest first, one sweep over the circles a
    step.  A move is kept when

    - no pole of the moved circle needs more than _TRUST times its
      count before the move (_pole_nodes): the model misses cancellations
      between the variables and the power-of-two counts, so a move whose
      gain rests on it more than doubling a pole's count is not trusted;
    - it lowers _predicted_nodes, the predicted product of the counts;
    - the contour passes _check_contour;
    - the rounding floor estimate _FLOOR_ULPS * eps * prod_j sum |g_j|, at
      _RATE_NODES nodes a circle as _quad_once computes it, does not
      exceed the seed's, so no spec meets a higher floor than on the seed.

    The seed is returned where its estimate is 0 or not finite, and where
    the identity vanishes (_vanishes): such a quadrature converges only on
    its rounding floor, so its counts follow the floor and every term at
    once, which the model does not see.  Raises ContourInfeasible when the
    exclusions cannot be kept outside."""
    points = _points(spec)
    circles, k = _seed_circles(spec, *points), spec.k
    if _vanishes(spec):
        return ContourSpec(circles=circles)
    poles = [_rate_poles(spec, j) for j in range(k)]

    def size(j, c, r):
        g = _weighted_nodes(spec, j, c, r, _RATE_NODES)[1]
        return float(np.abs(g).sum())

    def estimate(sizes):
        return _FLOOR_ULPS * eps * math.prod(sizes)

    def moved(j, end, sign, frac):
        """The search state with the endpoint c + end * r of circle j
        moved by sign * frac * r, or None where the move is not kept."""
        c, r = circles[j]
        shift = 0.5 * sign * frac * r
        trial, trial_own = list(circles), list(own)
        trial[j] = (c + shift, r + end * shift)
        trial_own[j] = _pole_nodes(trial[j], poles[j])
        if any(n > _TRUST * n0 for n, n0 in zip(trial_own[j], own[j])):
            return None
        pred = _predicted_nodes(spec, trial, [max(n) for n in trial_own])
        if not pred < best:
            return None
        try:
            _check_contour(spec, ContourSpec(circles=trial), points)
        except ContourInfeasible:
            return None
        trial_sizes = list(sizes)
        trial_sizes[j] = size(j, *trial[j])
        if not estimate(trial_sizes) <= floor:
            return None
        return trial, trial_own, trial_sizes, pred

    eps = np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = [size(j, c, r) for j, (c, r) in enumerate(circles)]
        own = [_pole_nodes(cr, pl) for cr, pl in zip(circles, poles)]
        floor = estimate(sizes)
        best = _predicted_nodes(spec, circles, [max(n) for n in own])
        steps = (_LADDER if 0.0 < floor < math.inf and best < math.inf
                 else ())
        for frac, j, end in itertools.product(steps, range(k), (-1, 1)):
            # Out, else in: at most one move per endpoint and step.
            state = moved(j, end, 1.0, frac) or moved(j, end, -1.0, frac)
            if state:
                circles, own, sizes, best = state
    return ContourSpec(circles=circles)


def _pole_order(spec):
    """Largest order of a pole inside the contours in one variable: the
    pole of f_j at J+1 has order N - x_j, and each of the k-1 cross factors
    can add one (PEP form); every row puts a pole at z = 1, so the cluster
    multiplicity there is N (multiplicative form)."""
    if spec.form == "qhahn":
        return spec.N
    return spec.N - min(spec.x_list) + spec.k - 1


def _check_contour(spec, contour, points=None):
    """Raise ContourInfeasible unless contour is valid for spec (_points,
    _image, _ALLOWED).  points, when given, is _points(spec), built once by
    a caller that checks many contours."""
    cluster, excl = points or _points(spec)
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
    for pair in itertools.combinations(range(spec.k), 2):
        for later, (i, j), what in ((False, pair[::-1], "not excluded by"),
                                    (True, pair, "touches")):
            image = _image(spec, contour.circles[i], later)
            if _relation(image, contour.circles[j])[0] not in _ALLOWED[later]:
                raise ContourInfeasible("cross pole of variable %d %s "
                                        "circle %d" % (j, what, j))


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
        out, one_minus_z = np.ones_like(z), 1.0 - z
        for i in range(1, x):
            bi = _cyc(m.B, i)
            out = out * one_minus_z / (1.0 - z / bi)
        for i in range(1, spec.N + 1):
            out = out * (1.0 - _cyc(m.C, i) * z) / one_minus_z
        return out
    J = int(m.J)
    return ((z - J - 1.0) / z) ** x * ((z - 1.0) / (z - J - 1.0)) ** spec.N


def _cross_factor(spec, zi, zj):
    """Pair factor for i < j (with one q of the q^(k(k-1)/2) prefactor)."""
    if spec.form == "qhahn":
        return (zi - zj) / (zi / spec.model.q - zj)
    return (zi - zj) / (zi - zj - 1.0)


@functools.lru_cache(maxsize=None)
def _unit_nodes(n):
    """The n-th roots of unity, evens first (read-only; n is a power of
    two no larger than _MAX_NODES, so the cache stays small)."""
    nodes = np.exp(2j * math.pi / n * np.r_[0:n:2, 1:n:2])
    nodes.flags.writeable = False
    return nodes


def _weighted_nodes(spec, j, c, r, n):
    """(z, g): the n nodes of circle (c, r), evens first, and f_j times
    the trapezoid weight at each."""
    e = r * _unit_nodes(n)
    z = c + e
    # (1/2 pi i) dz -> (r e^{i theta} / n) per node; the measure of the
    # multiplicative form also divides by z, that of the PEP form carries
    # the orientation sign.
    w = e / n / z if spec.form == "qhahn" else _RHS_PEP_SIGN_PER_VAR * e / n
    return z, _rhs_single(spec, j, z) * w


def _halves(n):
    """The slices of the first and the second half of n nodes."""
    return slice(0, n // 2), slice(n // 2, n)


def _halved(sums, circles):
    """The value of a pass, from its parity sums, with the circles in
    `circles` at half their nodes: their even nodes alone, at twice the
    weight."""
    index = tuple(0 if j in circles else slice(None)
                  for j in range(sums.ndim))
    return 2 ** len(circles) * sums[index].sum()


def _contract(z, g, cross, inner=None):
    """The 2^k sums S[p_1, ..., p_k] of prod_j g[j][a_j] *
    prod_{i<j} cross(z[i][a_i], z[j][a_j]) over the node tuples whose node
    a_j lies in half p_j (0 the first, 1 the second) of variable j's nodes,
    for any number k of variables; each variable may have its own count.
    _quad_once orders every circle's nodes evens first, so the halves are
    the parity classes of the node indices, and the split costs no extra
    flops and no copies.  The last pair's matrix `inner` is built once, in
    blocks of rows.  Two variables are g @ inner @ g' by halves; three go
    through matrix products of each half of the last variable against
    inner, _CONTRACT_ROWS nodes of the first variable at a time; with
    more, each node of the first variable scales every later g_j by its
    cross row and recurses."""
    if len(g) == 1:
        return np.array([g[0][s].sum() for s in _halves(len(g[0]))])
    if inner is None:
        # Filled in blocks so that no n x n temporary is ever alive.
        inner = np.empty((len(z[-2]), len(z[-1])), dtype=complex)
        for r in range(0, len(z[-2]), _CONTRACT_ROWS):
            inner[r:r + _CONTRACT_ROWS] = cross(
                z[-2][r:r + _CONTRACT_ROWS, None], z[-1])
    first, last = _halves(len(g[0])), _halves(len(g[-1]))
    if len(g) == 2:
        rows = [g[0][s] @ inner[s] for s in first]
        return np.array([[row[t] @ g[1][t] for t in last] for row in rows])
    if len(g) == 3:
        sums = np.empty((len(z[0]), 2, 2), dtype=complex)
        for r in range(0, len(z[0]), _CONTRACT_ROWS):
            za = z[0][r:r + _CONTRACT_ROWS, None]
            left, right = g[1] * cross(za, z[1]), g[2] * cross(za, z[2])
            for t, u in enumerate(last):
                terms = left * (right[:, u] @ inner[:, u].T)
                for p, s in enumerate(_halves(len(g[1]))):
                    sums[r:r + _CONTRACT_ROWS, p, t] = terms[:, s].sum(axis=1)
        return np.array([np.tensordot(g[0][s], sums[s], axes=1)
                         for s in first])
    out = np.zeros((2,) * len(g), dtype=complex)
    for p, s in enumerate(first):
        for za, ga in zip(z[0][s], g[0][s]):
            out[p] += ga * _contract(z[1:], [gj * cross(za, zj)
                                             for gj, zj in zip(g[1:], z[1:])],
                                     cross, inner)
    return out


def _quad_once(spec, contour, ns, prev=None, grown=()):
    """Tensor-product trapezoid rule with ns[j] nodes (even) on circle j,
    each circle's nodes ordered evens first.  Returns the 2^k parity sums
    of _contract, whose total is the value of the rule, and the rounding
    floor, _FLOOR_ULPS * eps * prod_j sum |g_j|.

    prev, if given, holds the parity sums of the pass before, with the
    circles in `grown` at half their counts.  Their even nodes are its
    nodes at half the weight, so the classes with all of them even are
    prev summed over their axes and divided by 2^|grown|; only the other
    classes are summed afresh, over their matching halves of nodes."""
    z, g = zip(*(_weighted_nodes(spec, j, c, r, n)
                 for j, ((c, r), n) in enumerate(zip(contour.circles, ns))))
    floor = (_FLOOR_ULPS * np.finfo(float).eps
             * math.prod(float(np.abs(gj).sum()) for gj in g))
    cross = functools.partial(_cross_factor, spec)
    if prev is None:
        return _contract(z, g, cross), floor
    grown = tuple(grown)
    sums = np.empty((2,) * len(ns), dtype=complex)
    for bits in itertools.product((0, 1), repeat=len(grown)):
        index, zs, gs = [slice(None)] * len(ns), list(z), list(g)
        for j, b in zip(grown, bits):
            index[j] = b
            half = _halves(ns[j])[b]
            zs[j], gs[j] = z[j][half], g[j][half]
        sums[tuple(index)] = (_contract(zs, gs, cross).sum(axis=grown)
                              if any(bits) else
                              prev.sum(axis=grown) / 2 ** len(grown))
    return sums, floor


def rhs_quadrature(spec, contour=None, tol=1e-8, full=False):
    """The k-fold contour integral for any k.  Each pass puts its own even
    count N_j of nodes on circle j, and its parity sums (_contract) give
    its value V and, for any set of circles, the value with those circles
    at N_j / 2 (_halved).  V is accepted when its change from V_half, the
    value with every circle halved, |V - V_half| / max(|V|, floor / tol)
    (the doubling_change of full=True), is at most tol.  The first pass
    puts twice _START_NODES, or twice the first power of two
    above _pole_order, on every circle.  After a failed pass, the fewest
    circles double whose doubling the sums predict to bring the next
    change within tol / _SAFETY: with every other circle halved, the value
    must already lie that close to V.  If no proper subset does, every
    circle doubles.  So every count is the start count times a power of
    two, and a pass sums only its node tuples with a doubled circle at an
    odd node, taking the rest from the pass before (_quad_once).  No pass
    goes beyond _MAX_NODES on a circle or _MAX_GRID node tuples in all.
    Returns a float when the rounding floor is at most tol max(1, |value|)
    and the imaginary part at most max(tol |value|, floor) and
    1e-9 max(1, |value|), else raises NotConverged.  With full=True it
    returns a dict with the value and diagnostics: nodes_used, the largest
    count of the accepted pass, and nodes_per_circle, its counts; passes,
    the counts of every pass; nodes_evaluated, the node tuples summed
    over all passes, which is the product of the accepted pass's counts;
    and rounding_floor, the accepted pass's floor, which the floor gate
    compares with tol * max(1, |value|)."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if contour is None:
        contour = solve_contours(spec)
    _check_contour(spec, contour)
    k = spec.k

    def run(ns, prev, grown):
        """(parity sums, value, rounding floor) of the pass at ns, nested
        in the pass with sums prev when the circles grown doubled."""
        if max(ns) > _MAX_NODES or math.prod(ns) > _MAX_GRID:
            raise NotConverged(
                "node doubling did not reach relative change %g before "
                "the budget stopped it at %s nodes per circle" % (tol, ns))
        with np.errstate(over="ignore", invalid="ignore"):
            sums, floor = _quad_once(spec, contour, ns, prev, grown)
        cur = sums.sum()
        # Non-finite terms, or terms that all underflowed to 0, leave the
        # pass with no number to compare.
        if not (np.isfinite(sums).all() and np.isfinite(floor)
                and max(abs(cur), floor) > 0.0):
            raise NotConverged(
                "the sum at %s nodes per circle is %s with rounding floor %s:"
                " its terms overflowed or all underflowed" % (ns, cur, floor))
        return sums, cur, floor

    n = _START_NODES
    # Fewer nodes than the pole order alias the Laurent coefficients of the
    # integrand, and two aliased passes can agree.
    order = _pole_order(spec)
    while n <= order:
        n *= 2
    every = tuple(range(k))
    ns, passes, sums, grow = [2 * n] * k, [], None, ()
    while True:
        passes.append(list(ns))
        sums, cur, floor = run(passes[-1], sums, grow)
        # Python floats, which overflow to inf without numpy's warning
        scale = max(float(abs(cur)), float(floor) / tol)
        change = abs(_halved(sums, every) - cur) / scale
        if change <= tol:
            break
        # Double the fewest circles after which the next change is
        # predicted within tol / _SAFETY.  A circle's own move, V_j - V,
        # would miss terms that alias on several circles at once.
        grow = every
        for size in range(1, k):
            pred, subset = min(
                (abs(_halved(sums, set(every) - set(t)) - cur), t)
                for t in itertools.combinations(every, size))
            if pred <= tol * scale / _SAFETY:
                grow = subset
                break
        ns = [2 * n if j in grow else n for j, n in enumerate(ns)]
    # A sum whose rounding floor exceeds the tolerance cannot resolve its
    # value, however well two passes agree.
    size = float(abs(cur))
    if floor > tol * max(1.0, size):
        raise NotConverged(
            "rounding floor %.3e of the sum exceeds tol * max(1, |value|) "
            "at value %.3e" % (floor, abs(cur)))
    # The imaginary part must vanish to the accuracy of the real part, as
    # in the pair rule, and in no case beyond _IMAG_TOL * max(1, |cur|).
    imag_bound = min(max(tol * size, floor), _IMAG_TOL * max(1.0, size))
    if abs(cur.imag) > imag_bound:
        raise NotConverged(
            "integral has non-negligible imaginary part %.3e (bound %.3e)"
            % (cur.imag, imag_bound))
    if full:
        return {"value": float(cur.real), "nodes_used": max(ns),
                "nodes_per_circle": ns, "doubling_change": float(change),
                "imag_part": float(cur.imag), "passes": passes,
                "nodes_evaluated": math.prod(ns),
                "rounding_floor": float(floor)}
    return float(cur.real)


def rhs_exact(spec):
    """The right side exactly, as a Fraction, where a closed form is known:
    the jgamma_pep J = 1, k = 1 identity, whose integral is minus the
    residue at z = 2,

        -sum_{b=0..B} (-1)^b C(N, B-b) C(x+b-1, b) 2^-(x+b),  B = N-x-1

    (0 when x >= N).  The sum runs on one integer term
    t_b = C(N, B-b) C(x+b-1, b) 2^(B-b), updated by exact division.
    Returns None for every other observable."""
    from fractions import Fraction  # here: the CLI's start-up needs none

    m = spec.model
    if spec.form != "pep" or m.J != 1 or spec.k != 1:
        return None
    (x,), N = spec.x_list, spec.N
    B = N - x - 1
    if B < 0:
        return Fraction(0)
    t, total = math.comb(N, B) << B, 0
    for b in range(B + 1):
        total += -t if b & 1 else t
        t = t * (B - b) * (x + b) // (2 * (N - B + b + 1) * (b + 1))
    return Fraction(-total, 1 << (x + B))


# ---------------------------------------------------------------------------
# Combined check


def mc_sigmas(est, value):
    """|est.mean - value| in standard errors of the MCEstimate est; at a
    standard error of 0, 0 where the difference is below 1e-12, else inf."""
    if est.stderr > 0.0:
        return abs(est.mean - value) / est.stderr
    return 0.0 if abs(est.mean - value) < 1e-12 else math.inf


def mc_check(name, est, exact, agree):
    """The row name gating the MCEstimate est against exact, at 4 standard
    errors (mc_sigmas) where the standard error is positive.  Where all n
    samples equal one value v it is 0: agree(v) returns p, the chance that
    one sample equals v or a bound on it, and the message's clause saying
    which, and the residual p^n has a floor gate at _MC_AGREE_FLOOR."""
    if est.stderr > 0.0:
        return Check(name, value=est.mean, residual=mc_sigmas(est, exact),
                     tolerance=4.0)
    p, clause = agree(est.mean)
    return Check(name, value=est.mean, residual=p ** est.n_samples,
                 tolerance=_MC_AGREE_FLOOR, floor=True,
                 message="all %d samples agree, so the standard error is "
                 "0; %s, gated to be at least the tolerance"
                 % (est.n_samples, clause))


def identity_check(spec, samples=0, seed=0, tol=1e-8):
    """Evaluate the available sides of the identity and report residuals.
    Returns (report, checks), checks being a list of Check.

    The answer, report["rhs"], is the quadrature, gated by the relative
    change of its final pair, or rhs_exact where the quadrature raises
    NotConverged and rhs_exact has a closed form.  The quadrature's outcome
    is then an ungated check, rhs_quadrature_not_converged, whose message
    is the NotConverged message; without rhs_exact the NotConverged
    propagates.  Where both exist, the quadrature is gated against the
    exact right side relative to max(1, |exact|).  The exact expectation,
    when the system is small enough, is gated against the answer relative
    to min(1, |exact|) (absolute at 0); otherwise
    report["lhs_exact_skipped"] gives the SizeLimit reason, and
    report["lhs_exact_diagnostics"] its counters.  A Monte Carlo estimate,
    when samples are requested, is gated against the answer by mc_check,
    the chance of a sample at v being the law's mass there or, without the
    law, _agreement_bound(v, answer, *_lhs_range(spec)), 1 where v is
    within the exact row's tolerance of the answer."""
    report = {
        "form": spec.form,
        "k": spec.k,
        "x_list": list(spec.x_list),
        "N": spec.N,
        "conventions": {
            "pep_current_site_shift": _PEP_H_SHIFT,
            "pep_rhs_sign_per_variable": _RHS_PEP_SIGN_PER_VAR,
        },
    }
    contour = solve_contours(spec)
    # The nesting map's shift -1 (PEP form), or, where it has none, its
    # factor 1/q: the image of the unit circle about 0.
    shift, factor = _image(spec, (0.0, 1.0), True)
    report["contour"] = {"circles": [list(c) for c in contour.circles],
                         "nodes_per_circle": contour.nodes_per_circle,
                         "nesting_offsets": [shift or factor] * (spec.k - 1)}
    exact_rhs = rhs_exact(spec)
    if exact_rhs is not None:
        exact_rhs = float(exact_rhs)
    report["rhs_exact"] = exact_rhs
    try:
        diag = rhs_quadrature(spec, contour, tol=tol, full=True)
    except NotConverged as exc:
        if exact_rhs is None:
            raise
        rhs, against = exact_rhs, "rhs_exact"
        report["rhs_quadrature"] = None
        report["quadrature_diagnostics"] = {"not_converged": str(exc)}
        checks = [Check("rhs_quadrature_not_converged", message=str(exc))]
    else:
        rhs, against = diag["value"], "quadrature"
        report["rhs_quadrature"] = rhs
        report["quadrature_diagnostics"] = {
            key: val for key, val in diag.items() if key != "value"}
        checks = [Check("rhs_quadrature_converged", value=rhs,
                        residual=diag["doubling_change"], tolerance=tol)]
        if exact_rhs is not None:
            gap = abs(rhs - exact_rhs) / max(1.0, abs(exact_rhs))
            report["residual_quadrature_vs_rhs_exact"] = gap
            checks.append(Check("quadrature_vs_exact_rhs", value=exact_rhs,
                                residual=gap, tolerance=tol))
    report["rhs"] = rhs
    law = None
    try:
        law, value = exact_law(spec.model, spec.N), _lhs_value(spec)
        ex = law.mean(value)
        report["lhs_exact"] = ex
        report["lhs_exact_diagnostics"] = {
            "configurations_per_step": list(law.configs),
            "completed_branches": law.branches,
            "pruned_mass": law.pruned_mass}
        report["residual_exact_vs_" + against] = abs(ex - rhs)
        checks.append(Check(
            "exact_expectation_vs_" + against, value=ex, tolerance=tol,
            residual=abs(ex - rhs) / (min(1.0, abs(ex)) or 1.0)))
    except SizeLimit as exc:
        report["lhs_exact"] = None
        report["lhs_exact_skipped"] = str(exc)
    if samples:
        est = lhs_mc(spec, samples, seed)
        report["lhs_mc"] = asdict(est)
        report["residual_mc_vs_%s_sigmas" % against] = mc_sigmas(est, rhs)
        if law is not None:
            def agree(v):  # the law's values, matched to v within rounding
                values = ((pr, value(cfg)) for cfg, pr in law.support)
                return (sum(pr for pr, u in values
                            if abs(u - v) <= 1e-12 * max(1.0, abs(u))),
                        "the residual is the exact chance of that")
            report["residual_mc_vs_exact_sigmas"] = mc_sigmas(est, ex)
        else:
            def agree(v):
                lo, hi = _lhs_range(spec)
                at = abs(v - rhs) <= tol * (min(1.0, abs(v)) or 1.0)
                return (1.0 if at else _agreement_bound(v, rhs, lo, hi),
                        "the exact law was skipped, so the residual bounds "
                        "the chance of that by Markov's inequality on the "
                        "observable's range [%.6g, %.6g] and the answer"
                        % (lo, hi))
        checks.append(mc_check("mc_expectation_vs_%s_sigmas" % against,
                               est, rhs, agree))
    return report, checks
