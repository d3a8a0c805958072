"""The scalar sampler: one trajectory stepped site by site, its occupancy a
list, a uniform drawn from a `_sample_index` inverse-CDF only at vertices
with two or more positive weights.  The package ran it beside its
vectorized engines until every trajectory ran on them; the tests keep it
as a reference for the scalar laws and streams (its draws are pinned),
and read exact laws and single trajectories through `occupancy_ensemble`.
It shares the package's kernel, Ensemble and checks."""

from dataclasses import dataclass

import numpy as np

from dynvertex.errors import InadmissibleWeights, SizeLimit
from dynvertex.models import _PEP, _SWEEP_CAP, Ensemble, _kernel


@dataclass
class SystemState:
    """One particle-system trajectory at a fixed time.  rng is the
    trajectory's generator, built by `initial_state`; its annotation is a
    string, which the class never evaluates, so that importing this module
    does not load `numpy.random`."""

    time: int
    occupancy: np.ndarray
    total_particles: int
    rng: "np.random.Generator"
    clamped: int = 0


def initial_state(spec, seed=0):
    """Fresh trajectory at time 0 (an empty system)."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    occ = np.zeros(1, dtype=np.int64)
    return SystemState(time=0, occupancy=occ, total_particles=0, rng=rng)


def occupancy_ensemble(spec, t, rows):
    """The Ensemble of `spec` at time t whose sample i has the occupancy
    rows[i] (site x at index x - 1): one scalar trajectory, or the
    configurations of an exact law."""
    occ = np.zeros((len(rows), 1 + max(map(len, rows))), dtype=np.int64)
    for row, cfg in zip(occ, rows):
        row[:len(cfg)] = cfg
    heights = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]
    pep = spec.variant in _PEP  # as the engines locate their heights
    packed, total = (spec.J + 1, spec.J * t) if pep else (0, 0)
    return Ensemble(t, 1, heights, packed, total, spec.is_corner)


def _sample_index(w, rng):
    """Inverse-CDF draw from a validated weight vector; no uniform is drawn
    where one weight holds all the mass (it is then exactly 1.0)."""
    pos = [k for k, p in enumerate(w) if p > 0.0]
    if len(pos) == 1:
        return pos[0]
    u = rng.random()
    acc = 0.0
    for k, p in enumerate(w):
        acc += p
        if u < acc:
            return k
    return len(w) - 1


def _row_sweep(occ, t, spec, rng):
    """Row t+1 of one trajectory over the occupancy tuple occ (site x at
    index x-1), vertex by vertex as one branch of `_sweep_block`, with its
    checks, and a `_sample_index` draw from each kernel until the sweep is
    past the support with no arrow left.  Returns (the new occupancy list
    without trailing zeros, clamp count).

    An exclusion process starts past the leading sites at occupancy J+1,
    as `_ensemble_pep` does with lo.  Each of them takes J arrows in and
    passes J on with a stay of exactly 1, so it stays full, draws no
    uniform and clamps nothing; its key from _pep_key is h >= 0, so no
    check can fire there either."""
    new, clamped = [], 0
    j1, h = spec.row_degree(t + 1), sum(occ)
    x = 0
    if spec.variant in _PEP:
        while x < len(occ) and occ[x] == spec.J + 1:
            x += 1
        new, h = list(occ[:x]), h - (spec.J + 1) * x
    while x < len(occ) or j1:
        x += 1
        if x > len(occ) + _SWEEP_CAP:
            raise SizeLimit("horizontal propagation exceeded the cap")
        i1 = occ[x - 1] if x <= len(occ) else 0
        values, w, c = _kernel(spec, x, t, i1, j1, h)
        j2 = values[_sample_index(w, rng)]
        i2 = i1 + j1 - j2
        if spec.variant in _PEP and i2 > spec.J + 1:
            raise InadmissibleWeights(
                "occupancy %d out of [0, J+1] at site %d" % (i2, x))
        new.append(i2)
        j1, h, clamped = j2, h - i1, clamped + c
    while new and new[-1] == 0:
        new.pop()
    return new, clamped


def step(state, spec):
    """Advance one trajectory by one time step (`_row_sweep`, which skips
    an exclusion process's packed prefix without changing its draws)."""
    new, clamped = _row_sweep(tuple(int(v) for v in state.occupancy),
                              state.time, spec, state.rng)
    arr = np.array(new or [0], dtype=np.int64)
    return SystemState(time=state.time + 1, occupancy=arr,
                       total_particles=int(arr.sum()), rng=state.rng,
                       clamped=state.clamped + clamped)
