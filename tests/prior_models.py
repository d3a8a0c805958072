"""Reference copies of engines as they were before a rewrite.

The q-Hahn ensemble engine before the height-function row engine: a
(samples, sites) occupancy array whose suffix cumsum gives the heights on
every step, trajectories grouped by (occupancy, height) per site with
np.unique, and one rng.random(samples) per site.  The equality test
compares the library's engine against it with ==.  The kernel, the dtype
rule and the Ensemble are the library's own.

The corner-growth sweep, exact law and vector engine on their own
half-integer lattice, before the corner models ran as the J = 1 exclusion
process: the tests compare the library's laws and streams against them.

The exact law as it enumerated before its branches were swept in
parallel: one sweep per configuration, every positive branch followed as a
cons list.  The tests compare the library's support, total mass and errors
against it with ==.  Its row_sweep calls the kernel at every site, the
packed prefix of an exclusion process too, so with one sampled branch it
is also the reference for `oracle_models.step`."""

import math

import numpy as np

from dynvertex import models
from dynvertex.errors import InadmissibleWeights, SizeLimit
from dynvertex.models import (
    _PEP,
    _SWEEP_CAP,
    _WEIGHT_NEG_TOL,
    Ensemble,
    ExactLaw,
    _int_dtype,
    _kernel,
)


def ensemble_qhahn(spec, N, samples, rng):
    """Vectorized q-Hahn engine: per site, trajectories are grouped by
    (occupancy, height) and share one exact inverse-CDF table."""
    dtype = _int_dtype(sum(spec.row_degree(y) for y in range(1, N + 1)))
    occ = np.zeros((samples, N + 2), dtype=dtype)
    total = 0
    for t in range(N):
        y = t + 1
        j_in = np.full(samples, spec.row_degree(y), dtype=dtype)
        pre = occ.copy()
        suf = pre[:, ::-1].cumsum(axis=1)[:, ::-1]
        for x in range(1, t + 3):
            i1 = pre[:, x - 1].astype(np.int64)
            h = suf[:, x - 1].astype(np.int64)
            if not h.any() and not j_in.any():
                break
            key = i1 * (total + 1) + h
            u = rng.random(samples)
            j2 = np.zeros(samples, dtype=dtype)
            for kv in np.unique(key):
                mask = key == kv
                ik, hk = divmod(int(kv), total + 1)
                if ik == 0:
                    continue
                _, w, _ = _kernel(spec, x, t, ik, 0, hk)
                cdf = np.cumsum(w)
                j2[mask] = np.searchsorted(
                    cdf, u[mask], side="right").clip(0, ik)
            occ[:, x - 1] = i1 + j_in - j2
            j_in = j2
        if j_in.any():
            raise SizeLimit("horizontal propagation past the support")
        total += spec.row_degree(y)
    return Ensemble(N, 1, occ[:, ::-1].cumsum(axis=1)[:, ::-1])


# The corner-growth models as they ran on their own lattice before they
# became the J = 1 exclusion process: heights at the positions left,
# left + 1, ..., the wedge 2|x| outside them, left = -2 - t/2 at time t.


def corner_up_prob(spec, height):
    if spec.variant == "corner":
        return spec.p
    return 0.5 * (1.0 - 1.0 / (spec.gamma + height))


def corner_sweep(cfg, t, spec, pick):
    """One midpoint update of a corner height function cfg = (heights,
    left).  The stored window is first extended by one lattice unit on each
    side with wedge values; sloped segments midpoint deterministically,
    flat segments go up or down by one with the (possibly height-dependent)
    coin.  Returns one ((heights, left), probability) per branch."""
    heights, left = cfg
    n = len(heights)
    ext = ([int(round(2 * abs(left - 1)))] + [int(v) for v in heights]
           + [int(round(2 * abs(left + n)))])
    live = [(None, 1.0)]
    for i in range(n + 1):
        h1, h2 = ext[i], ext[i + 1]
        if h1 != h2:
            if abs(h1 - h2) != 2:
                raise InadmissibleWeights(
                    "segment slope %d not in {-2, 0, 2} at time %d"
                    % (h2 - h1, t))
            live = [(((h1 + h2) // 2, new), pr) for new, pr in live]
            continue
        up = corner_up_prob(spec, h1)
        if not -_WEIGHT_NEG_TOL <= up <= 1 + _WEIGHT_NEG_TOL:
            raise InadmissibleWeights("up-probability %.6f at x=%.1f, time %d"
                                      % (up, left - 0.5 + i, t))
        live = [((h1 + move, new), p) for new, pr in live
                for move, p in pick((-1, 1), (1.0 - up, up), pr)]
    return [((_unroll(new), left - 0.5), pr) for new, pr in live]


def corner_exact_law(spec, N):
    """{(heights tuple, left): probability} after N steps from the wedge,
    following every positive branch of corner_sweep."""
    def pick(values, w, pr):
        return [(v, pr * p) for v, p in zip(values, w) if p > 0.0]

    dist = {(tuple(2 * abs(i - 2) for i in range(5)), -2.0): 1.0}
    for t in range(N):
        nxt = {}
        for cfg, pr in dist.items():
            for ncfg, npr in corner_sweep(cfg, t, spec, pick):
                nxt[ncfg] = nxt.get(ncfg, 0.0) + pr * npr
        dist = nxt
    return dist


def ensemble_corner(spec, N, samples, rng):
    """Vectorized engine for both corner-growth variants: row i of the
    state holds the height at left + i for every sample (column).  Each
    step extends the window by one wedge value on each side and moves left
    by -1/2, as corner_sweep does; sloped segments take the midpoint.  One
    uniform is drawn per flat segment, in site-major order, and the segment
    goes down by one when u < 1 - up, else up by one.  Returns (left, the
    (samples, width) heights)."""
    left = -2.0
    h = np.repeat(np.array([2 * abs(i - 2) for i in range(5)],
                           dtype=np.int64)[:, None], samples, axis=1)
    for t in range(N):
        n = len(h)
        ext = np.empty((n + 2, samples), dtype=np.int64)
        ext[0] = round(2 * abs(left - 1))
        ext[1:-1] = h
        ext[-1] = round(2 * abs(left + n))
        h1, h2 = ext[:-1], ext[1:]
        slope = h2 - h1
        bad = (slope != 0) & (slope != 2) & (slope != -2)
        if bad.any():
            raise InadmissibleWeights(
                "segment slope %d not in {-2, 0, 2} at time %d"
                % (slope.ravel()[np.flatnonzero(bad)[0]], t))
        flat = np.flatnonzero(slope == 0)
        up = np.broadcast_to(corner_up_prob(spec, h1.ravel()[flat]),
                             flat.shape)
        out = np.flatnonzero((up < -_WEIGHT_NEG_TOL)
                             | (up > 1 + _WEIGHT_NEG_TOL))
        if len(out):
            k = out[0]
            raise InadmissibleWeights(
                "up-probability %.6f at x=%.1f, time %d"
                % (up[k], left - 0.5 + flat[k] // samples, t))
        h = h1 + h2
        h //= 2
        h.ravel()[flat] += np.where(rng.random(len(flat)) < 1.0 - up, -1, 1)
        left -= 0.5
    return left, h.T


# The exact law before the branch-parallel sweep.  Partial rows are cons
# lists (value, rest), so a branch is extended in constant time.


def _unroll(cons):
    out = []
    while cons is not None:
        value, cons = cons
        out.append(value)
    return tuple(reversed(out))


def row_sweep(occ, t, spec, pick):
    """Row t+1 of a particle system over the occupancy tuple occ (site x at
    index x-1).  Returns one (new occupancy tuple, probability, clamp
    count) per branch."""
    done = []
    live = [(None, spec.row_degree(t + 1), sum(occ), 1.0, 0)]
    x = 0
    while live:
        x += 1
        i1 = occ[x - 1] if x <= len(occ) else 0
        nxt = []
        for new, j1, h, pr, clamped in live:
            if x > len(occ) and j1 == 0:
                while new is not None and new[0] == 0:
                    new = new[1]
                done.append((_unroll(new), pr, clamped))
                continue
            if x > len(occ) + _SWEEP_CAP:
                raise SizeLimit("horizontal propagation exceeded the cap")
            values, w, c = models._kernel(spec, x, t, i1, j1, h)
            for j2, p in pick(values, w, pr):
                i2 = i1 + j1 - j2
                if spec.variant in _PEP and i2 > spec.J + 1:
                    raise InadmissibleWeights(
                        "occupancy %d out of [0, J+1] at site %d" % (i2, x))
                nxt.append(((i2, new), j2, h - i1, p, clamped + c))
        live = nxt
    return done


def exact_law(spec, N, bound=200000):
    """Exact forward distribution after N steps, one row_sweep per
    configuration; the general model drops branches and configurations of
    probability at most 1e-14."""
    prune = 1e-14 if spec.variant == "general" else 0.0

    def pick(values, w, pr):
        return [(v, pr * p) for v, p in zip(values, w)
                if p > 0.0 and pr * p > prune]

    dist = {(): 1.0}
    for t in range(N):
        nxt = {}
        work = 0
        for cfg, pr in dist.items():
            for ncfg, npr, _ in row_sweep(cfg, t, spec, pick):
                nxt[ncfg] = nxt.get(ncfg, 0.0) + pr * npr
                work += 1
                if len(nxt) > bound or work > 64 * bound:
                    raise SizeLimit(
                        "exact law exceeds the configuration bound %d at "
                        "step %d of %d" % (bound, t + 1, N))
        if prune:
            nxt = {c: p for c, p in nxt.items() if p > prune}
        growth = len(nxt) / len(dist)
        if growth > 1 and (N - t - 1) * math.log(growth) > math.log(
                bound / len(nxt)):
            raise SizeLimit(
                "exact law support of %d configurations at step %d of %d, "
                "growing %.3gx per step, is projected past the "
                "configuration bound %d" % (len(nxt), t + 1, N, growth,
                                            bound))
        dist = nxt
    return ExactLaw.from_dict(dist)
