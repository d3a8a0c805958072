"""Reference copies of the contour quadrature as it was before the circles
were placed by their convergence rate and before per-circle node counts.

solve_contours is the greedy geometry with a fixed margin: the first
circle pads the pole cluster by the margin, and each later one also
contains the image of the one before, padded by half of it.  The
placement test compares the library's circles against it.

rhs_quadrature_doubling is the node schedule of pure doubling of every
circle from the start count until a pair of passes at n and 2n nodes per
circle changes by at most tol, with the same budget, rounding-floor and
imaginary-part gates.  The schedule test compares the library's
rhs_quadrature against it.  The passes (the total of the library's parity
sums), the contour checks, the pole cluster, the exclusions and the pole
order are the library's own."""

import numpy as np

from dynvertex import observables
from dynvertex.errors import ContourInfeasible, NotConverged
from dynvertex.observables import (
    _IMAG_TOL,
    _MAX_GRID,
    _MAX_NODES,
    ContourSpec,
    _check_contour,
    _points,
    _pole_order,
)


def solve_contours(spec, margin=0.25):
    """Greedy nested-circle geometry.  The first circle hugs the pole
    cluster; for i < j the j-th circle additionally contains the image
    (1/q times, or -1 plus) of the i-th circle, with a strict margin.
    Raises ContourInfeasible when the exclusions cannot be kept outside."""
    cluster, excl = _points(spec)
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
    return ContourSpec(circles=tuple(circles))


def rhs_quadrature_doubling(spec, contour=None, tol=1e-8):
    """The diagnostics dict of rhs_quadrature(full=True) under pure node
    doubling, plus "passes", the node counts of every pass in order."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if contour is None:
        contour = solve_contours(spec)
    _check_contour(spec, contour)
    n, prev, passes = contour.nodes_per_circle, None, []
    order = _pole_order(spec)
    while n <= order:
        n *= 2
    while True:
        if n > _MAX_NODES or n ** spec.k > _MAX_GRID:
            raise NotConverged(
                "node doubling did not reach relative change %g before "
                "the budget stopped it at %d nodes per circle" % (tol, n))
        with np.errstate(over="ignore", invalid="ignore"):
            sums, floor = observables._quad_once(spec, contour,
                                                 [n] * spec.k)
        cur = sums.sum()
        passes.append(n)
        if not (np.isfinite(cur) and np.isfinite(floor)
                and max(abs(cur), floor) > 0.0):
            raise NotConverged(
                "the sum at %d nodes per circle is %s with rounding floor %s:"
                " its terms overflowed or all underflowed" % (n, cur, floor))
        if prev is not None:
            change = abs(cur - prev) / max(abs(cur), floor / tol)
            if change <= tol:
                break
        prev = cur
        n *= 2
    if floor > tol * max(1.0, abs(cur)):
        raise NotConverged(
            "rounding floor %.3e of the sum exceeds tol * max(1, |value|) "
            "at value %.3e" % (floor, abs(cur)))
    imag_bound = min(max(tol * abs(cur), floor),
                     _IMAG_TOL * max(1.0, abs(cur)))
    if abs(cur.imag) > imag_bound:
        raise NotConverged(
            "integral has non-negligible imaginary part %.3e (bound %.3e)"
            % (cur.imag, imag_bound))
    return {"value": float(cur.real), "nodes_used": n,
            "doubling_change": float(change),
            "imag_part": float(cur.imag), "passes": passes}
