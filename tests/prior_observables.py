"""Reference copy of the contour quadrature's node schedule as it was
before per-circle node counts and the rate-based final pair: pure
doubling of every circle from the start count until a pair of passes at
n and 2n nodes per circle changes by at most tol, with the same budget,
rounding-floor and imaginary-part gates.  The schedule test compares the
library's rhs_quadrature against it.  The passes (the total of the
library's parity sums), the contour checks and the pole order are the
library's own."""

import numpy as np

from dynvertex import observables
from dynvertex.errors import NotConverged
from dynvertex.observables import (
    _IMAG_TOL,
    _MAX_GRID,
    _MAX_NODES,
    _check_contour,
    _pole_order,
    solve_contours,
)


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
