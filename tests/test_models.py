"""Particle-system samplers: transition laws, exact small-system oracle,
vectorized ensemble engines, and the height-function views."""

import dataclasses
import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import oracle_models as oracle
import prior_models as prior
from dynvertex import models
from dynvertex.errors import (
    DynVertexError,
    InadmissibleParameters,
    InadmissibleWeights,
    SingularParameter,
    SizeLimit,
)
from dynvertex.models import (
    ModelSpec,
    _ensemble_pep,
    _ensemble_rows,
    _trajectory_rng,
    current,
    exact_law,
    run_ensemble,
)
from dynvertex.weights import asym_pep_stay, jgamma_pep_stay

Q = 0.4
DELTA = -0.2
B0 = -0.3  # s^2 for the stochastic regime (s imaginary)
S_IM = 1j * math.sqrt(-B0)

QHAHN = ModelSpec.qhahn(Q, DELTA, B=(B0,), C=(Q,), J=(1,))
GENERAL = ModelSpec.general(Q, DELTA, U=(1.05,), Xi=(S_IM,), S=(S_IM,),
                            J=(1,))
JG = ModelSpec.jgamma_pep(J=1, gamma=10.0)
ASYM = ModelSpec.asym_pep(0.25, -0.5)
# Both exclusion processes, at delta = 0 and delta < 0, at J = 1 and 2,
# jgamma_pep J = 1 at the gamma of `heat`, which runs bit-sliced, and the
# corner models, J = 1 exclusion processes: corner on the bit-sliced engine,
# corner_dyn at the gamma of the benchmark's corner-dyn task on the band.
PEP_SPECS = pytest.mark.parametrize("spec", [
    ModelSpec.asym_pep(0.25, 0.0), ASYM, ModelSpec.jgamma_pep(J=1, gamma=3.0),
    ModelSpec.jgamma_pep(J=2, gamma=7.0), ModelSpec.jgamma_pep(1, 1e12),
    ModelSpec.corner(0.3), ModelSpec.corner_dyn(3.0)],
    ids=["asym-d0", "asym-d-0.5", "jgamma-J1", "jgamma-J2", "jgamma-thin",
         "corner", "corner-dyn"])


def run_engine(engine, spec, N, samples, rng):
    """The time-N Ensemble of every sample of an engine started on rng."""
    return next(itertools.islice(engine(spec, samples, rng), N, None))(samples)


def h_tail(cfg, x):
    """Particles at sites >= x of an occupancy tuple."""
    return sum(cfg[x - 1:]) if x - 1 < len(cfg) else 0


def last_site(occ):
    """The last column of an occupancy array (samples, sites) non-empty in
    some sample, -1 if none."""
    nz = np.flatnonzero(occ.any(axis=0))
    return int(nz[-1]) if len(nz) else -1


def suffix_cumsum_pep(spec, N, samples, rng, trace=None):
    """Oracle for the exclusion-process window engine: the same window
    rules and random stream on an occupancy state (samples, width), with
    the heights recomputed by a suffix cumsum and the stay probability
    evaluated at every cell.  A uniform is drawn only where
    0 < eta < J+1, site by site; the other cells compare 0.5 with their
    stay probability, exactly 0 (empty) or 1 (full).
    Returns (lo, occupancy); a trace list gets (lo, advance, r) per step,
    r the last site non-empty in some sample (lo - 1 if none)."""
    J, cap = spec.J, spec.J + 1
    arr = np.zeros((samples, 8), dtype=np.int64)
    lo = 1
    for t in range(N):
        h = arr[:, ::-1].cumsum(axis=1)[:, ::-1]
        x = np.arange(lo, lo + arr.shape[1])
        if spec.variant == "asym_pep":
            stay = asym_pep_stay(arr, spec.q, spec.delta,
                                 t - 2 * (x - 1) - 2 * h)
        else:
            stay = jgamma_pep_stay(
                arr, J, spec.gamma + 2.0 * h + cap * (x - 1) - J * t)
        u = np.full(arr.shape, 0.5)
        drawn = (arr > 0) & (arr < cap)
        u.T[drawn.T] = rng.random(drawn.sum())
        xs = arr - (u < stay)
        arr = arr - xs
        arr[:, 0] += J
        arr[:, 1:] += xs[:, :-1]
        if arr[:, -1].any():
            arr = np.concatenate([arr, np.zeros((samples, 64), np.int64)],
                                 axis=1)
        k = 0
        while (arr[:, k] == cap).all():
            k += 1
        arr, lo = arr[:, k:], lo + k
        if trace is not None:
            trace.append((lo, k, lo + last_site(arr)))
    return lo, arr


def bit_sliced(spec):
    """The exclusion processes of the bit-sliced engine: asym_pep at
    delta = 0 and corner, whose stay probability does not depend on the
    height, and jgamma_pep and corner_dyn at J = 1 from gamma =
    models._THIN_GAMMA on."""
    return (spec.variant == "asym_pep" and spec.delta == 0.0
            or spec.variant == "corner"
            or spec.variant in ("jgamma_pep", "corner_dyn") and spec.J == 1
            and spec.gamma >= models._THIN_GAMMA)


def lane_bits(words):
    """Bit l of every uint64 word, along a new last axis of length 64."""
    return (words[..., None] >> np.arange(64, dtype=np.uint64)) & 1


def bernoulli_lanes(bitgen, p, lanes):
    """Oracle for the Bernoulli words: 0/1 stay bits on the True entries
    of the bool array `lanes` (words along its second-to-last axis, their
    64 lanes along the last), 0 elsewhere, from the random_raw words read
    in the order the engine reads them: the first 8 binary digits of every
    lane's uniform U from whole digit-major passes over all words, then one
    word per digit for each word that still holds a lane whose digits so
    far equal those of p.  A lane gets 1 when U < p."""
    num, den = p.as_integer_ratio()
    if num == den:
        return lanes.astype(np.int64)
    k = den.bit_length() - 1
    shape = lanes.shape[:-1]
    out = np.zeros(lanes.shape, dtype=np.int64)
    und = lanes.copy()
    dense = min(k, 8)
    raw = bitgen.random_raw(dense * math.prod(shape)).reshape((dense,) + shape)
    for i in range(1, k + 1):
        if i <= dense:
            u = lane_bits(raw[i - 1])
        else:
            live = und.any(axis=-1)
            if not live.any():
                break
            words = np.zeros(shape, dtype=np.uint64)
            words[live] = bitgen.random_raw(int(live.sum()))
            u = lane_bits(words)
        d = num >> (k - i) & 1
        out[und & (u < d)] = 1
        und &= u == d
    return out


def thinned_lanes(spec, rng, lanes, occ, lo, t):
    """Oracle for the thinned correction of jgamma_pep J = 1: 0/1 bits on
    the True entries of `lanes` (sites, words, 64), 0 elsewhere.  The
    candidates are found by skipping rng.geometric(1/gamma) True entries
    at a time in (site, word, lane) order, one skip per candidate and one
    that ends past the last entry; then each candidate draws a uniform u
    and gets 1 when u * Upsilon < gamma, with Upsilon = gamma + 2h +
    2(x - 1) - t at its site x and height h (the suffix sum of its lane's
    occupancies `occ`, of shape (lanes, sites))."""
    flat, found = np.flatnonzero(lanes), []
    at = rng.geometric(1 / spec.gamma)
    while at <= len(flat):
        found.append(flat[at - 1])
        at += rng.geometric(1 / spec.gamma)
    out = np.zeros(lanes.shape, dtype=np.int64)
    if found:
        site, lane = np.divmod(np.array(found), lanes[0].size)
        h = occ[:, ::-1].cumsum(axis=1)[:, ::-1][lane, site]
        upsilon = spec.gamma + (2 * h + 2 * (lo + site - 1) - t)
        keep = rng.random(len(found)) * upsilon < spec.gamma
        out.reshape(-1)[np.array(found)[keep]] = 1
    return out


def bitplane_pep(spec, N, samples, rng, trace=None):
    """Oracle for the bit-sliced engine: the same step per lane on an
    occupancy state (lanes, width), where the lanes fill whole 64-lane
    words and every lane is a trajectory.  The band runs from lo, the
    first site not full in every lane, to r + 1, with r the last site
    non-empty in some lane; the stay bits of the cells holding one
    particle come from bernoulli_lanes on the same random_raw words, with
    the band's words site-major: at the constant stay probability of
    asym_pep or corner (and of jgamma_pep at gamma = inf, 1/2), or, for
    jgamma_pep and corner_dyn at a finite gamma, a fair coin C or'ed with
    thinned_lanes on the cells where C = 0.  A cell holding one
    particle keeps it when its bit is 1, a full cell keeps one and passes
    one, and site lo receives one particle from the left.  Returns (lo,
    occupancy of the first `samples` lanes); a trace list gets (lo,
    advance, r) per step."""
    words = -(-samples // 64)
    occ = np.zeros((64 * words, 1), dtype=np.int64)
    lo = 1
    for t in range(N):
        single = (occ == 1).T.reshape(occ.shape[1], words, 64)
        if spec.gamma is None or spec.gamma == math.inf:
            p = float(models._pep_stay(spec, np.arange(3), 0)[1])
            stay = bernoulli_lanes(rng.bit_generator, p, single)
        else:
            stay = bernoulli_lanes(rng.bit_generator, 0.5, single)
            stay |= thinned_lanes(spec, rng, single & (stay == 0), occ, lo, t)
        s = (occ == 2) | (stay.reshape(occ.shape[1], -1).T == 1)
        xs = occ - s
        occ = s + np.concatenate([np.ones((len(occ), 1), np.int64),
                                  xs[:, :-1]], axis=1)
        if occ[:, -1].any():
            occ = np.concatenate([occ, np.zeros((len(occ), 1), np.int64)],
                                 axis=1)
        k = 0
        while k < occ.shape[1] - 1 and (occ[:, k] == 2).all():
            k += 1
        occ, lo = occ[:, k:], lo + k
        if trace is not None:
            trace.append((lo, k, lo + last_site(occ)))
    return lo, occ[:samples]


def kappa_audit(spec, N, seed=0):
    """Run one scalar trajectory of a row-update model and check, at every
    visited vertex, that the incremental dynamical-parameter recursion
    (multiply by q^{J_y - 2 j1} moving up, by q^{2 i2} b_x moving right)
    reproduces the closed form q^{-2 h} * prod b * prod c exactly at the
    level of integer q-exponents.  Returns the number of vertices checked.
    """
    if spec.variant not in ("qhahn", "general", "asym_pep"):
        raise ValueError("kappa audit applies to row-update models")
    state = oracle.initial_state(spec, seed=seed)
    checked = 0
    # exponents[x] = integer q-exponent of kappa_{x, y} after row y,
    # relative to delta * prod_{k<x} b_k * prod_{k<=y} c_k.
    exponents = {1: 0}
    for t in range(N):
        pre = [int(v) for v in state.occupancy]
        state = oracle.step(state, spec)
        post = [int(v) for v in state.occupancy]
        y = t + 1
        # Recover the row data: j1 entering site x and i2 leaving above.
        j_in = spec.row_degree(y)
        x = 0
        row_j1 = {}
        while True:
            x += 1
            i1 = pre[x - 1] if x <= len(pre) else 0
            i2 = post[x - 1] if x <= len(post) else 0
            row_j1[x] = j_in
            j_out = i1 + j_in - i2
            if x > len(pre) and j_in == 0:
                break
            j_in = j_out
        max_x = x
        # Move every tracked exponent up one row (the c_y factor sits in
        # the reference product), then extend to the right.
        for xx in list(exponents):
            exponents[xx] -= 2 * row_j1.get(xx, 0)
        for xx in range(2, max_x + 1):
            if xx not in exponents:
                i2 = post[xx - 2] if xx - 2 < len(post) else 0
                exponents[xx] = exponents[xx - 1] + 2 * i2
        # Closed form: exponent of kappa_{x, y} is -2 h_y(x).
        h = sum(post)
        for xx in range(1, max_x + 1):
            closed = -2 * h
            if exponents[xx] != closed:
                raise AssertionError(
                    "kappa exponent mismatch at site %d after row %d: "
                    "incremental %d, closed %d"
                    % (xx, y, exponents[xx], closed))
            checked += 1
            h -= post[xx - 1] if xx - 1 < len(post) else 0
    return checked


def run_scalar(spec, N, samples, seed, observables):
    """run_ensemble on the scalar oracle.step: trajectory i runs from
    _trajectory_rng(seed, i), and the final occupancies make one
    Ensemble."""
    rows = []
    for i in range(samples):
        state = dataclasses.replace(oracle.initial_state(spec),
                                    rng=_trajectory_rng(seed, i))
        for _ in range(N):
            state = oracle.step(state, spec)
        rows.append(state.occupancy)
    return models.estimates(oracle.occupancy_ensemble(spec, N, rows), seed,
                             observables)


def sampler(vectorized):
    """The engine of run_ensemble, or oracle.step through run_scalar."""
    return run_ensemble if vectorized else run_scalar


def row_sweep_oracle(spec, N, samples, rng):
    """Oracle for the row engine: sample by sample and site by site with
    `_kernel`, on the engine's stream: one rng.random(samples) per site
    while some sample has h(x) > 0 or arrows to pass on, and an active
    sample's j2 the number of its cumulative weights, all but the last,
    that are <= its uniform.  Returns the int64 occupancy (samples, sites
    1, 2, ...) after N steps, its last column zero."""
    occ = np.zeros((samples, 1), dtype=np.int64)
    for t in range(N):
        h, j1 = occ.sum(axis=1), np.full(samples, spec.row_degree(t + 1))
        new, x = occ.copy(), 0
        while (h > 0).any() or (j1 > 0).any():
            x += 1
            if x == new.shape[1]:  # keep a zero last column
                occ, new = (np.pad(a, ((0, 0), (0, x))) for a in (occ, new))
            u = rng.random(samples)
            for i in np.flatnonzero((h > 0) | (j1 > 0)):
                i1 = int(occ[i, x - 1])
                w = models._kernel(spec, x, t, i1, int(j1[i]), int(h[i]))[1]
                j2 = int((np.cumsum(w)[:-1] <= u[i]).sum())
                new[i, x - 1] += j1[i] - j2
                h[i], j1[i] = h[i] - i1, j2
        occ = new
    return occ


def oracle_heights(spec, N, samples, seed, trace=None):
    """The oracle's int64 heights (bitplane_pep for the bit-sliced specs,
    else suffix_cumsum_pep) from the engine's generator: column x - 1
    holds h(x) of every sample, at the sites x = 1, ..., N + 3."""
    sweep = bitplane_pep if bit_sliced(spec) else suffix_cumsum_pep
    lo, occ = sweep(spec, N, samples, _trajectory_rng(seed, 0), trace)
    total = spec.J * N
    h = np.empty((samples, N + 3), dtype=np.int64)
    for x in range(1, N + 4):
        if x <= lo:
            h[:, x - 1] = total - (spec.J + 1) * (x - 1)
        else:
            h[:, x - 1] = occ[:, x - lo:].sum(axis=1)
    return h


def assert_engine_matches_oracle(spec, N, samples, seed, trace=None):
    """Final heights of the engine equal the oracle's at every site, bit
    for bit, from the same generator; returns the engine's (lo, width)."""
    ens = run_engine(_ensemble_pep, spec, N, samples, _trajectory_rng(seed, 0))
    ref = oracle_heights(spec, N, samples, seed, trace)
    for x in range(1, N + 3):
        got = current(ens, x)
        assert np.array_equal(got, ref[:, x - 1]), (spec, x)
    return ens.left, ens.heights.shape[1]


def state_current(spec, state, x):
    """h_t(x) of one trajectory of spec, read through occupancy_ensemble."""
    ens = oracle.occupancy_ensemble(spec, state.time, [state.occupancy])
    return int(current(ens, x)[0])


def corner_view(spec, state):
    """Height-function samples of a J=1 partial-exclusion state: returns
    {position: height} with height(x - t/2 - 1) = 2*h_t(x) + 2*(x-1) - t,
    on the grid x = 1, ..., t+2."""
    if spec.variant == "jgamma_pep" and spec.J != 1:
        raise ValueError("corner_view requires J = 1")
    t = state.time
    out = {}
    for x in range(1, t + 3):
        pos = x - t / 2.0 - 1.0
        out[pos] = 2 * state_current(spec, state, x) + 2 * (x - 1) - t
    return out


def corner_view_exact(spec, N):
    """Exact law of the corner_view height vector after N steps of a J=1
    partial-exclusion model, as {height tuple on the grid: probability}."""
    law = exact_law(spec, N)
    out = {}
    for cfg, pr in law.support:
        occ = list(cfg)

        def h(x):
            return sum(occ[x - 1:]) if x - 1 < len(occ) else 0

        key = tuple(2 * h(x) + 2 * (x - 1) - N for x in range(1, N + 3))
        out[key] = out.get(key, 0.0) + pr
    return out


def assert_mean_matches(est, dist, sigmas, floor=1e-12):
    """est.mean lies within sigmas standard errors, plus floor, of the mean
    of dist, the exact law of the observable as (value, probability)
    pairs.  When every sample agrees there is no standard error to gate
    with: then the exact chance of that agreement, P(X = est.mean)^n, must
    not be tiny."""
    dist = list(dist)
    if est.stderr == 0.0:
        same = sum(pr for v, pr in dist if v == est.mean)
        assert same ** est.n_samples >= 1e-6
        return
    exact = sum(pr * v for v, pr in dist)
    assert abs(est.mean - exact) < sigmas * est.stderr + floor


def corner_window(t):
    """The positions -2 - t/2, ..., 2 + t/2 the corner models stored at
    time t when they ran on their own lattice."""
    return [i - 2 - t / 2 for i in range(t + 5)]


def corner_heights_exact(spec, N, positions):
    """Exact law of a corner model's heights at the given positions, read
    by `Ensemble.height` from exact_law, as {height tuple: probability}."""
    law = exact_law(spec, N)
    ens = oracle.occupancy_ensemble(spec, N, [cfg for cfg, _ in law.support])
    cols = np.stack([ens.height(p) for p in positions], axis=1)
    out = {}
    for row, (_, pr) in zip(cols, law.support):
        key = tuple(int(v) for v in row)
        out[key] = out.get(key, 0.0) + pr
    return out


def prior_corner_heights(spec, N, positions):
    """The same law from the corner models' prior lattice sweep."""
    out = {}
    for (heights, left), pr in prior.corner_exact_law(spec, N).items():
        key = tuple(heights[round(p - left)] for p in positions)
        out[key] = out.get(key, 0.0) + pr
    return out


def tv(a, b):
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in a | b)


class TestModelSpec:
    def test_variant_validated(self):
        with pytest.raises(ValueError):
            ModelSpec(variant="boson")

    def test_qhahn_requires_c_power(self):
        with pytest.raises(InadmissibleParameters):
            ModelSpec.qhahn(Q, DELTA, B=(B0,), C=(0.3,), J=(1,))

    def test_jgamma_gamma_bound(self):
        with pytest.raises(InadmissibleParameters):
            ModelSpec.jgamma_pep(J=2, gamma=3.0)

    def test_asym_bounds(self):
        with pytest.raises(InadmissibleParameters):
            ModelSpec.asym_pep(1.5, -0.5)
        with pytest.raises(InadmissibleParameters):
            ModelSpec.asym_pep(0.5, 0.1)

    @pytest.mark.parametrize("delta", [math.nan, -math.inf, math.inf])
    def test_asym_delta_is_finite(self, delta):
        # A NaN delta passed "delta > 0" and ran with every stay draw false.
        with pytest.raises(InadmissibleParameters,
                           match="requires a finite delta <= 0"):
            ModelSpec.asym_pep(0.25, delta)

    @pytest.mark.parametrize("kw, says", [
        ({"B": ()}, "B must hold one or more values"),
        ({"B": (B0, math.nan)}, r"B must be finite, got \(-?[0-9.]+, nan\)"),
        ({"C": (), "J": ()}, "row degrees must be positive integers, one "
         "or more"),
        ({"q": math.inf}, r"q must be finite, got \(inf,\)"),
        ({"delta": math.nan}, r"delta must be finite, got \(nan,\)"),
        ({"B": (B0, 0.0)}, "every b_x != 0"),  # then phi's a = b c_y is 0
        ({"q": 0.0, "C": (0.0,)}, "needs q != 0"),  # and so is c_y = q^J_y
        # phi's a = b_x c_y below its singular tolerance, which sampling
        # once found with SingularParameter
        ({"q": 1e-200, "C": (1e-200,)}, r"qhahn needs every \|a\| = "
         r"\|b_x c_y\| >= 1e-13, where phi is not singular; the least is "
         r"2\.99"),
        ({"B": (5.0, 2e-13)}, r"the least is 8\.0{6}"),
    ])
    def test_qhahn_parameters_are_finite_lists(self, kw, says):
        # An empty list ended in a ZeroDivisionError of _cyc.
        args = dict(q=Q, delta=DELTA, B=(B0,), C=(Q,), J=(1,)) | kw
        with pytest.raises((ValueError, InadmissibleParameters), match=says):
            ModelSpec.qhahn(**args)

    @pytest.mark.parametrize("kw, says", [
        ({"U": ()}, "U must hold one"), ({"Xi": ()}, "Xi must hold one"),
        ({"S": ()}, "S must hold one"), ({"J": ()}, "row degrees must be"),
        ({"S": (complex(0, math.inf),)}, "S must be finite"),
        ({"q": math.nan}, "q must be finite"),
        ({"delta": math.inf}, "delta must be finite"),
    ])
    def test_general_parameters_are_finite_lists(self, kw, says):
        args = dict(q=Q, delta=DELTA, U=(1.05,), Xi=(S_IM,), S=(S_IM,),
                    J=(1,)) | kw
        with pytest.raises(ValueError, match=says):
            ModelSpec.general(**args)

    @pytest.mark.parametrize("make, key", [
        (lambda v: ModelSpec.jgamma_pep(v, 5.0), "J"),
        (lambda v: ModelSpec.jgamma_pep(1, v), "gamma"),
        (lambda v: ModelSpec.asym_pep(v, 0.0), "q"),
        (lambda v: ModelSpec.asym_pep(0.25, v), "delta"),
        (lambda v: ModelSpec.corner(v), "p"),
        (lambda v: ModelSpec.corner_dyn(v), "gamma"),
        (lambda v: ModelSpec.qhahn(Q, DELTA, (v,), (Q,), (1,)), "B"),
        (lambda v: ModelSpec.qhahn(Q, DELTA, (B0,), (Q,), (v,)), "J"),
        (lambda v: ModelSpec.general(v, DELTA, (1.05,), (S_IM,), (S_IM,),
                                     (1,)), "q"),
        (lambda v: ModelSpec.general(Q, DELTA, (v,), (S_IM,), (S_IM,),
                                     (1,)), "U")],
        ids=["pep-J", "pep-gamma", "asym-q", "asym-delta", "corner-p",
             "corner-dyn-gamma", "qhahn-B", "qhahn-J", "general-q",
             "general-U"])
    @pytest.mark.parametrize("value", [True, "1", None, [1], 10 ** 400],
                             ids=["bool", "str", "None", "list", "huge"])
    def test_parameters_are_real_numbers(self, make, key, value):
        # A bool, a string, None or a list once passed as a number, or
        # failed with Python's own text and no key; an int past float
        # range escaped as an OverflowError.
        with pytest.raises(ValueError, match=r"^(row degrees .*)?%s " % key):
            make(value)

    @pytest.mark.parametrize("variant, q, steps", [
        ("qhahn", 1.0, 3), ("qhahn", 1.0000000000000002, 3),
        ("qhahn", -1.0, 6), ("general", 1.0, 3),
        ("general", 1.0000000000000002, 3)])
    def test_q_where_the_weights_are_singular(self, variant, q, steps):
        # The constructors reject these q by the test the weights make at
        # sampling, where they once failed (exit 1).
        args = (dict(B=(B0,), C=(q,), J=(1,)) if variant == "qhahn"
                else dict(U=(1.05,), Xi=(S_IM,), S=(S_IM,), J=(1,)))
        with pytest.raises(InadmissibleParameters, match="q = %r$" % q):
            getattr(ModelSpec, variant)(q, DELTA, **args)
        with pytest.raises(SingularParameter):
            run_ensemble(ModelSpec(variant, q, DELTA, **args), steps, 200, 1,
                         [])

    def test_corner_dyn_bound(self):
        with pytest.raises(InadmissibleParameters):
            ModelSpec.corner_dyn(0.5)

    @pytest.mark.parametrize("J", [1.5, 0, math.inf, math.nan])
    def test_degrees_are_positive_integers(self, J):
        # int(J) used to run J = 1.5 as J = 1 and raise OverflowError at inf.
        for make in (lambda: ModelSpec.jgamma_pep(J, 9.0),
                     lambda: ModelSpec.qhahn(Q, DELTA, B=(B0,), C=(Q,),
                                             J=(J,)),
                     lambda: ModelSpec.general(Q, DELTA, U=(1.05,),
                                               Xi=(S_IM,), S=(S_IM,),
                                               J=(J,))):
            with pytest.raises(ValueError, match="row degrees must be "
                               "positive integers"):
                make()


class TestStepAndCurrent:
    def test_origin_current_zero(self):
        for spec in (QHAHN, JG, ASYM):
            assert state_current(spec, oracle.initial_state(spec), 1) == 0

    @pytest.mark.parametrize("J", [1, 3])
    def test_jgamma_first_step_deterministic(self, J):
        spec = ModelSpec.jgamma_pep(J=J, gamma=2 * J + 5.0)
        for seed in range(5):
            st = oracle.step(oracle.initial_state(spec, seed=seed), spec)
            assert list(st.occupancy) == [J]

    def test_no_uniform_drawn_where_the_kernel_is_certain(self):
        # Every vertex of a first jgamma step, and of a step of an empty
        # qhahn row, has one outcome of weight 1: the generator is not read.
        for spec in (ModelSpec.jgamma_pep(J=1, gamma=5.0), QHAHN):
            st = oracle.initial_state(spec, seed=3)
            before = st.rng.bit_generator.state
            oracle.step(st, spec)
            assert st.rng.bit_generator.state == before

    def test_total_particles_match_step_data(self):
        spec = ModelSpec.qhahn(Q, DELTA, B=(B0, 2 * B0), C=(Q, Q * Q),
                               J=(1, 2))
        st = oracle.initial_state(spec, seed=9)
        for t in range(1, 7):
            st = oracle.step(st, spec)
            expect = sum(spec.row_degree(y) for y in range(1, t + 1))
            assert st.total_particles == expect
            assert state_current(spec, st, 1) == expect
            assert state_current(spec, st, t + 5) == 0

    def test_current_monotone(self):
        st = oracle.initial_state(ASYM, seed=3)
        for _ in range(12):
            st = oracle.step(st, ASYM)
        vals = [state_current(ASYM, st, x) for x in range(1, 16)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_jgamma_site_cap(self):
        spec = ModelSpec.jgamma_pep(J=2, gamma=8.0)
        st = oracle.initial_state(spec, seed=4)
        for _ in range(15):
            st = oracle.step(st, spec)
            assert st.occupancy.max() <= spec.J + 1
            assert st.occupancy.min() >= 0

    def test_asym_site_cap(self):
        st = oracle.initial_state(ASYM, seed=8)
        for _ in range(20):
            st = oracle.step(st, ASYM)
            assert st.occupancy.max() <= 2


class TestStepStreams:
    # 300-step trajectories from seed 3, recorded before the scalar sweep
    # skipped the packed prefix: the sha256 of the repr of every step's
    # occupancy list, the particle count and the generator's next uniform.
    @pytest.mark.parametrize("spec, digest, particles, draw", [
        (ModelSpec.jgamma_pep(1, 5.0),
         "e36fb0a81db096e889872b152ce00a4f03e6f00db4ecbb64e8d140e8ac52150e",
         300, "0x1.3207a7ecb13bcp-3"),
        (ModelSpec.jgamma_pep(2, 7.0),
         "25bf2f097a7e68b4ec1c482f297c53b69436fd964374cab4f208c2d343ea642e",
         600, "0x1.ba7d8c5d36cb4p-3"),
        (ASYM,
         "58e537a9bf16bbedbf2388c299afc55d40c7804ab712bd4a404c98f437f91176",
         300, "0x1.ec726933b3a23p-1"),
        (ModelSpec.corner(0.3),
         "f80138f83ee104b6f6f54cdcb429efc3dc35a964cf944b50acff7bb4311a6cfd",
         300, "0x1.2effc09d1960ep-2")],
        ids=["jgamma-J1", "jgamma-J2", "asym", "corner"])
    def test_pinned(self, spec, digest, particles, draw):
        state = oracle.initial_state(spec, seed=3)
        sha = hashlib.sha256()
        for _ in range(300):
            state = oracle.step(state, spec)
            sha.update(repr(state.occupancy.tolist()).encode())
        assert sha.hexdigest() == digest
        assert (state.total_particles, state.clamped) == (particles, 0)
        assert state.rng.random().hex() == draw

    @settings(max_examples=30)
    @given(st.sampled_from([ModelSpec.jgamma_pep(1, 3.0), JG, ASYM,
                            ModelSpec.asym_pep(0.25, 0.0),
                            ModelSpec.jgamma_pep(2, 7.0),
                            ModelSpec.jgamma_pep(3, 9.0),
                            ModelSpec.corner(0.3),
                            ModelSpec.corner_dyn(3.0)]),
           st.integers(1, 60), st.integers(0, 2 ** 32))
    def test_equals_a_sweep_of_every_site(self, spec, N, seed):
        # The reference sweep calls the kernel at every site, the packed
        # prefix too, and draws from its kernels as step does.
        state = oracle.initial_state(spec, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        occ, clamped = (), 0

        def pick(values, w, pr):
            return [(values[oracle._sample_index(w, rng)], pr)]

        for t in range(N):
            state = oracle.step(state, spec)
            (occ, _, c), = prior.row_sweep(occ, t, spec, pick)
            clamped += c
            assert tuple(state.occupancy.tolist()) == (occ or (0,))
        assert state.clamped == clamped
        assert state.rng.random() == rng.random()


def corner_state_heights(spec, state):
    """One trajectory's heights at the corner positions of its time."""
    ens = oracle.occupancy_ensemble(spec, state.time, [state.occupancy])
    return {p: int(ens.height(p)[0]) for p in corner_window(state.time)}


class TestCorner:
    def test_initial_wedge(self):
        spec = ModelSpec.corner(0.5)
        ens = oracle.occupancy_ensemble(
            spec, 0, [oracle.initial_state(spec).occupancy])
        for p in corner_window(0):
            assert ens.height(p) == 2 * abs(p)
        assert ens.height(17) == 34  # outside the stored window

    def test_time_one_deterministic(self):
        spec = ModelSpec.corner(0.3)
        for seed in range(4):
            h = corner_state_heights(spec, oracle.step(
                oracle.initial_state(spec, seed=seed), spec))
            assert h[0.5] == 1 and h[-0.5] == 1
            assert h[1.5] == 3

    def test_height_above_wedge(self):
        spec = ModelSpec.corner_dyn(5.0)
        st = oracle.initial_state(spec, seed=2)
        for _ in range(10):
            st = oracle.step(st, spec)
            for p, h in corner_state_heights(spec, st).items():
                assert h >= 2 * abs(p)

    @pytest.mark.parametrize("vectorized", [True, False],
                             ids=["vector", "scalar"])
    @pytest.mark.parametrize("spec", [
        ModelSpec.corner(0.3), ModelSpec.corner_dyn(3.0)],
        ids=["corner(0.3)", "corner_dyn(3.0)"])
    def test_corner_frequencies_match_exact_law(self, spec, vectorized):
        n = 100000 if vectorized else 4000
        positions = [p - 3.5 for p in range(8)]  # the N = 3 lattice
        law = corner_heights_exact(spec, 3, positions)
        obs = [lambda st, p=p: st.height(p) for p in positions]
        ests = sampler(vectorized)(spec, 3, n, 57, obs)
        for i, got in enumerate(ests):
            assert_mean_matches(got, [(key[i], pr)
                                      for key, pr in law.items()], 4)

    @pytest.mark.parametrize("spec", [
        ModelSpec.corner(p) for p in (0.0, 0.3, 0.5, 1.0)] + [
        ModelSpec.corner_dyn(g) for g in (1.5, 3.0, 50.0)],
        ids=lambda spec: "%s(%g)" % (spec.variant, spec.p if spec.gamma
                                     is None else spec.gamma))
    def test_exact_law_equals_prior(self, spec):
        # The heights of the J = 1 exclusion law at every position of the
        # prior lattice have the law of the prior midpoint sweep.
        for N in range(7):
            grid = corner_window(N)
            assert tv(corner_heights_exact(spec, N, grid),
                      prior_corner_heights(spec, N, grid)) <= 1e-15, N

    @pytest.mark.parametrize("N, samples", [(200, 100), (20, 20)])
    def test_benchmark_inputs_equal_prior_engine(self, N, samples):
        # The sizes of the benchmark's corner-dyn task, full and tiny, at
        # its base seeds for benchmark seeds 1..20 (the kernels workload's
        # task 7: 64 seed + 23).  A lone particle stays where the prior
        # engine's flat segment went down, from the same uniform.
        spec = ModelSpec.corner_dyn(3.0)
        grid = corner_window(N)
        for seed in range(1, 21):
            rng = _trajectory_rng(64 * seed + 23, 0)
            ens = run_engine(_ensemble_pep, spec, N, samples, rng)
            left, ref = prior.ensemble_corner(
                spec, N, samples, _trajectory_rng(64 * seed + 23, 0))
            assert left == grid[0]
            got = np.stack([ens.height(p) for p in grid], axis=1)
            assert np.array_equal(got, ref), seed

    @settings(max_examples=60)
    @given(st.floats(1, models._THIN_GAMMA, exclude_min=True,
                     exclude_max=True),
           st.integers(0, 60), st.integers(1, 5), st.integers(0, 2 ** 20))
    def test_engine_equals_prior_engine(self, gamma, N, samples, seed):
        # corner_dyn below the bit-sliced gamma runs on the band engine,
        # which draws the prior engine's uniforms in the prior's order.
        spec = ModelSpec.corner_dyn(gamma)
        ens = run_engine(_ensemble_pep, spec, N, samples,
                         _trajectory_rng(seed, 0))
        _, ref = prior.ensemble_corner(spec, N, samples,
                                       _trajectory_rng(seed, 0))
        got = np.stack([ens.height(p) for p in corner_window(N)], axis=1)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("vectorized", [True, False],
                             ids=["vector", "scalar"])
    def test_up_probability_checked(self, vectorized):
        # p = -0.5 (bypassing the constructor): the lone particle at site 1
        # at time 1 stays with chance 1.5, an up-probability of -0.5.
        bad = ModelSpec(variant="corner", p=-0.5, J=1)
        match = (r"^stay probability 1\.500000 out of \[0, 1\] at time 1, "
                 r"site 1$" if vectorized else
                 r"^negative weight -5\.000e-01 at site 1, row 2 \(corner\)$")
        with pytest.raises(InadmissibleWeights, match=match):
            sampler(vectorized)(bad, 4, 3, 1, [lambda st: 0.0])


class TestExactLaw:
    def test_zero_steps_point_mass(self):
        law = exact_law(QHAHN, 0)
        assert law.support == (((), 1.0),)

    def test_one_step_point_mass(self):
        law = exact_law(QHAHN, 1)
        assert len(law.support) == 1
        cfg, pr = law.support[0]
        assert tuple(cfg) == (1,)
        assert pr == pytest.approx(1.0, abs=1e-12)

    def test_qhahn_matches_general_at_u_equals_s(self):
        # The phi model is the u = s point of the psi model.
        gen = ModelSpec.general(Q, DELTA, U=(1.0,), Xi=(S_IM,), S=(S_IM,),
                                J=(1,))
        a = dict(exact_law(QHAHN, 3).support)
        b = dict(exact_law(gen, 3).support)
        tv = 0.5 * sum(abs(a.get(c, 0.0) - b.get(c, 0.0)) for c in a | b)
        assert tv < 1e-10

    def test_general_off_diagonal_mass(self):
        # u != s: horizontal arrows may slide past empty sites; the law
        # still has unit mass after tail truncation.
        gen = ModelSpec.general(Q, DELTA, U=(1.05,), Xi=(S_IM,), S=(S_IM,),
                                J=(1,))
        law = exact_law(gen, 3)
        assert law.total_mass == pytest.approx(1.0, abs=1e-10)
        assert len(law.support) == 51

    def test_jgamma_j2_support(self):
        # Fixes the enumerator's branching: every positive branch is kept.
        law = exact_law(ModelSpec.jgamma_pep(J=2, gamma=7.0), 8)
        assert len(law.support) == 939
        assert law.total_mass == pytest.approx(1.0, abs=1e-10)
        assert law.configs == (1, 2, 5, 13, 36, 104, 309, 939)
        assert law.branches == 7577 and law.pruned_mass == 0.0

    def test_pruned_mass_is_the_missing_mass(self):
        law = exact_law(GENERAL, 3)
        assert law.configs == (8, 24, 51) and law.branches == 1291
        assert 0.0 < law.pruned_mass < 1e-12
        assert abs(law.total_mass + law.pruned_mass - 1.0) < 1e-15

    def test_jgamma_two_step_height(self):
        gamma = 10.0
        law = exact_law(JG, 2)
        p1 = sum(pr for cfg, pr in law.support if h_tail(cfg, 2) == 1)
        assert p1 == pytest.approx(gamma / (2 * (gamma + 1)), abs=1e-12)

    def test_size_limit(self, monkeypatch):
        monkeypatch.setattr(models, "_EXACT_LAW_BOUND", 3)
        with pytest.raises(SizeLimit):
            exact_law(QHAHN, 5)

    def test_projected_size_limit(self):
        # jgamma J=1 gamma=3 has 1, 2, 4, 9, ... configurations: 2x per
        # step from step 2 projects past 200000 long before step 30.
        with pytest.raises(SizeLimit, match=r"^exact law support of 2 "
                           r"configurations at step 2 of 30, growing 2x per"
                           r" step, is projected past the configuration "
                           r"bound 200000$"):
            exact_law(ModelSpec.jgamma_pep(J=1, gamma=3.0), 30)

    def test_projection_spares_a_support_within_the_bound(self,
                                                          monkeypatch):
        # 2188 configurations at N=10, growing faster every step: a bound
        # just above that must not be cut short by the projection.
        model = ModelSpec.jgamma_pep(J=1, gamma=3.0)
        monkeypatch.setattr(models, "_EXACT_LAW_BOUND", 2188)
        assert len(exact_law(model, 10).support) == 2188
        monkeypatch.setattr(models, "_EXACT_LAW_BOUND", 2187)
        with pytest.raises(SizeLimit, match="bound 2187 at step 10 of 10"):
            exact_law(model, 10)

    def test_inadmissible_regime_detected(self):
        bad = ModelSpec.qhahn(Q, DELTA, B=(0.09,), C=(Q,), J=(1,))
        with pytest.raises(InadmissibleWeights):
            exact_law(bad, 2)


@st.composite
def enumerated_models(draw):
    """A spec of any variant with drawn parameters, some of them
    inadmissible, and a number of steps: up to 6 for the exclusion
    processes, 3 for the row models."""
    variant = draw(st.sampled_from(models._VARIANTS))
    N = draw(st.integers(0, 6 if variant in models._PEP else 3))
    if variant == "jgamma_pep":
        J = draw(st.integers(1, 2))
        if draw(st.booleans()):
            spec = ModelSpec.jgamma_pep(J, J + 1 + draw(st.floats(0.01, 50)))
        else:  # gamma below J+1, past the constructor's check
            spec = ModelSpec(variant="jgamma_pep", J=J,
                             gamma=draw(st.floats(-3.0, J + 1.0)))
    elif variant == "asym_pep":
        spec = ModelSpec.asym_pep(
            draw(st.floats(0.01, 0.99)),
            draw(st.one_of(st.just(0.0), st.floats(-1e3, 0.0))))
    elif variant == "general":
        spec = draw(general_specs)
    elif variant == "qhahn":
        q, J = draw(st.floats(0.05, 0.95)), draw(st.integers(1, 2))
        delta, b = draw(st.floats(-1.0, 0.0)), draw(st.floats(-3.0, 0.5))
        if abs(b) * q ** J >= 1e-13:
            spec = ModelSpec.qhahn(q, delta, B=(b,), C=(q ** J,), J=(J,))
        else:  # phi's a = b q^J singular, past the constructor's check
            spec = ModelSpec(variant="qhahn", q=q, delta=delta, B=(b,),
                             C=(q ** J,), J=(J,))
    elif variant == "corner":
        spec = ModelSpec.corner(draw(st.floats(0, 1)))
    else:
        spec = ModelSpec.corner_dyn(draw(st.floats(1, 1e6, exclude_min=True)))
    return spec, N


def law_outcome(law, spec, N, **kw):
    """(support, total mass) of an exact law, or the type and message of
    the package error it raises."""
    try:
        out = law(spec, N, **kw)
    except DynVertexError as exc:
        return type(exc), str(exc)
    return out.support, out.total_mass


class TestExactLawEqualsPrior:
    # The branch-parallel enumeration against one sweep per configuration
    # (prior_models): the same support, mass and errors, bit for bit.
    @settings(max_examples=80, deadline=None)
    @given(enumerated_models())
    def test_drawn_specs(self, model):
        spec, N = model
        assert law_outcome(exact_law, spec, N) == law_outcome(
            prior.exact_law, spec, N)

    @pytest.mark.parametrize("spec, N, bound", [
        (ModelSpec.jgamma_pep(J=2, gamma=7.0), 6, 200000),
        (ModelSpec.jgamma_pep(J=1, gamma=3.0), 10, 2187),
        (GENERAL, 3, 200000), (QHAHN, 4, 200000), (QHAHN, 5, 3),
        (ModelSpec.qhahn(Q, DELTA, B=(0.09,), C=(Q,), J=(1,)), 3, 200000),
        (ModelSpec.corner_dyn(1.5), 6, 200000)],
        ids=["jgamma-J2", "bound", "general", "qhahn", "qhahn-bound",
             "qhahn-bad", "corner-dyn"])
    def test_across_blocks(self, monkeypatch, spec, N, bound):
        monkeypatch.setattr(models, "_EXACT_BLOCK", 3)
        monkeypatch.setattr(models, "_EXACT_LAW_BOUND", bound)
        assert law_outcome(exact_law, spec, N) == law_outcome(
            prior.exact_law, spec, N, bound=bound)
        # Codes as Python ints, as where int64 would wrap.
        monkeypatch.setattr(models, "_CODE_LIMIT", 2 ** 5)
        assert law_outcome(exact_law, spec, N) == law_outcome(
            prior.exact_law, spec, N, bound=bound)

    def test_earlier_configuration_failing_later_wins(self, monkeypatch):
        # Step 3 of jgamma J = 1 sweeps (2,), then (1, 1).  The first fails
        # at site 2, the second at site 1, which the site-major sweep meets
        # first; one sweep per configuration raises the first one's error.
        kernel = models._kernel

        def failing(spec, x, t, i1, j1, h):
            if t == 2 and (x, i1, h) in ((2, 0, 0), (1, 1, 2)):
                raise InadmissibleWeights("fails at site %d" % x)
            return kernel(spec, x, t, i1, j1, h)

        monkeypatch.setattr(models, "_kernel", failing)
        spec = ModelSpec.jgamma_pep(J=1, gamma=10.0)
        want = (InadmissibleWeights, "fails at site 2")
        assert law_outcome(prior.exact_law, spec, 3) == want
        assert law_outcome(exact_law, spec, 3) == want

    def test_jgamma_j2_n10(self):
        spec = ModelSpec.jgamma_pep(J=2, gamma=7.0)
        law = exact_law(spec, 10)
        assert len(law.support) == 9118
        assert law.support == prior.exact_law(spec, 10).support


class TestEnsembles:
    def test_constant_observable(self):
        est = run_ensemble(QHAHN, 2, 64, 17, [lambda st: 1.0])[0]
        assert est.mean == 1.0 and est.stderr == 0.0
        assert est.n_samples == 64 and est.base_seed == 17

    def test_deterministic_reruns(self):
        obs = [lambda st: current(st, 2)]
        a = run_ensemble(QHAHN, 3, 400, 23, obs)[0]
        b = run_ensemble(QHAHN, 3, 400, 23, obs)[0]
        assert a == b
        c = run_scalar(JG, 3, 200, 23, obs)[0]
        d = run_scalar(JG, 3, 200, 23, obs)[0]
        assert c == d

    def test_jgamma_mean_within_4_sigma(self):
        law = exact_law(JG, 2)
        est = run_ensemble(JG, 2, 20000, 31,
                           [lambda st: current(st, 2)])[0]
        assert_mean_matches(est, [(h_tail(cfg, 2), pr)
                                  for cfg, pr in law.support], 4, floor=0.0)

    @pytest.mark.parametrize("vectorized", [True, False],
                             ids=["vector", "scalar"])
    @pytest.mark.parametrize("spec", [
        QHAHN, GENERAL, JG, ASYM, ModelSpec.jgamma_pep(J=2, gamma=7.0),
        ModelSpec.asym_pep(0.25, 0.0)],
        ids=["qhahn", "general", "jgamma", "asym", "jgamma-J2", "asym-d0"])
    def test_frequencies_match_exact_law(self, spec, vectorized):
        n = 100000 if vectorized else 4000
        law = exact_law(spec, 3)
        # Joint law of the height vector determines the configuration.
        obs = [lambda st, x=x: current(st, x) for x in range(1, 5)]
        ests = sampler(vectorized)(spec, 3, n, 57, obs)
        for x, got in zip(range(1, 5), ests):
            assert_mean_matches(got, [(h_tail(cfg, x), pr)
                                      for cfg, pr in law.support], 4)

    def test_frequencies_per_configuration(self):
        # Sharper oracle comparison: per-configuration frequencies within
        # four binomial standard errors for every configuration of mass
        # above 1e-3.
        n = 100000
        law = exact_law(QHAHN, 3)
        counts = {}
        ens = run_engine(_ensemble_rows, QHAHN, 3, n, np.random.default_rng(
            np.random.SeedSequence(99)))
        occ = np.stack([current(ens, x) - current(ens, x + 1)
                        for x in range(1, 5)], axis=1)
        for row in occ:
            cfg = tuple(int(c) for c in row)
            while cfg and cfg[-1] == 0:
                cfg = cfg[:-1]
            counts[cfg] = counts.get(cfg, 0) + 1
        for cfg, pr in law.support:
            if pr <= 1e-3:
                continue
            freq = counts.get(tuple(cfg), 0) / n
            sigma = math.sqrt(pr * (1 - pr) / n)
            assert abs(freq - pr) < 4 * sigma + 1e-9, (cfg, freq, pr)

    def test_large_capacity_vector_matches_scalar(self):
        # J + 1 = 40001 does not fit the int16 window of small capacities.
        spec = ModelSpec.jgamma_pep(J=40000, gamma=1e6)
        obs = [lambda st, x=x: current(st, x) for x in (1, 2, 3)]
        for vectorized in (True, False):
            h1, h2, h3 = sampler(vectorized)(spec, 2, 10, 1, obs)
            assert (h1.mean, h3.mean) == (80000, 0)
            assert 39999 <= h2.mean <= 40000

    def test_general_error_names_site_and_row(self):
        # The test parameters of general reach a negative weight by row 8;
        # the kernel's message names the vertex of the engine's call.
        with pytest.raises(InadmissibleWeights, match=r"^negative weight "
                           r"-\S+ at site \d+, row \d+ \(general\)$"):
            run_ensemble(GENERAL, 8, 20, 1, [lambda st: current(st, 1)])

    def test_sweep_cap_raises_size_limit(self, monkeypatch):
        # With one site of slack past the support, arrows that slide
        # further stop the engine as they stop the exact law.
        monkeypatch.setattr(models, "_SWEEP_CAP", 1)
        with pytest.raises(SizeLimit, match="exceeded the cap"):
            exact_law(GENERAL, 3)
        with pytest.raises(SizeLimit, match="exceeded the cap"):
            run_ensemble(GENERAL, 3, 2000, 1, [])

    def test_vector_error_names_time_and_site(self):
        # gamma below J+1 (bypassing the constructor): at time 1 site 1
        # holds one particle at Upsilon = 0.5, so P[stay] = 1.5.
        bad = ModelSpec(variant="jgamma_pep", J=1, gamma=-0.5)
        with pytest.raises(InadmissibleWeights,
                           match=r"1\.5.* at time 1, site 1$"):
            run_ensemble(bad, 3, 4, 1, [lambda st: 0.0])

    @pytest.mark.parametrize("spec", [
        ModelSpec.jgamma_pep(10 ** 18, math.inf),
        ModelSpec(variant="qhahn", q=1.0, delta=DELTA, B=(B0,), C=(1.0,),
                  J=(10 ** 300,))],
        ids=["pep", "qhahn"])
    def test_values_past_int64_raise_size_limit(self, spec):
        # A row degree this large once gave the engines an object dtype
        # and a raw TypeError.  The qhahn spec is built past its
        # constructor, which rejects q = 1, the one q whose c = q^J stays
        # 1 at this J.
        with pytest.raises(SizeLimit, match="past int64"):
            run_ensemble(spec, 2, 2, 0, [lambda st: 0.0])

    @pytest.mark.parametrize("gamma", [1e14, math.inf])
    def test_pair_code_sized_j_runs(self, gamma):
        # At J = 10^13 the heights fit int64, but (occupancy, key) pair
        # codes, about J^2, do not: they once wrapped and read as a stay
        # probability of -0.000000, and then raised SizeLimit.  The stay
        # formula on the band's cells needs no codes.
        J, N = 10 ** 13, 3
        ens = run_engine(_ensemble_pep, ModelSpec.jgamma_pep(J, gamma), N, 4,
                         _trajectory_rng(0, 0))
        assert ens.heights.dtype == np.int64
        h = np.stack([current(ens, x) for x in range(1, N + 3)], axis=1)
        assert (h[:, 0] == J * N).all()
        occ = h[:, :-1] - h[:, 1:]
        assert ((occ >= 0) & (occ <= J + 1)).all()

    def test_nan_stay_probability_fails_the_screen(self):
        # A NaN delta (past the constructor) gives a NaN stay table, which
        # the keyed engine's screen once let through to draws that never
        # stay.
        bad = ModelSpec(variant="asym_pep", q=0.25, delta=math.nan, J=1)
        with pytest.raises(InadmissibleWeights,
                           match=r"^stay probability nan out of \[0, 1\] "
                           r"at time 1, site 1$"):
            run_ensemble(bad, 20, 200, 0, [lambda st: 0.0])

    @pytest.mark.parametrize("spec", [
        ModelSpec.asym_pep(0.25, 0.0), ASYM, JG,
        ModelSpec.jgamma_pep(J=2, gamma=7.0)],
        ids=["asym-d0", "asym-d-0.5", "jgamma-J1", "jgamma-J2"])
    @pytest.mark.parametrize("occ", ["empty", "full"])
    def test_skipped_draws_guarded(self, monkeypatch, spec, occ):
        # From the third step on, the table's empty (full) entries are
        # off 0 (1) by 1e-9, still inside [0, 1].
        cap = spec.J + 1
        target, value = (0, 1e-9) if occ == "empty" else (cap, 1 - 1e-9)
        real, calls = models._pep_stay, []

        def perturbed(spec, eta, key):
            calls.append(None)
            p = real(spec, eta, key)
            return np.where(eta == target, value, p) if len(calls) > 2 else p

        monkeypatch.setattr(models, "_pep_stay", perturbed)
        with pytest.raises(InadmissibleWeights, match=r"at time 2$"):
            run_ensemble(spec, 5, 64, 1, [lambda st: 0.0])

    def test_skipped_draws_guarded_sparse_table(self, monkeypatch):
        # J + 1 = 40001: a table over (occupancy, key) pairs would be wider
        # than the band, so the formula runs on the band's cells, and at
        # time 0 every site is empty.
        real = models._pep_stay
        monkeypatch.setattr(
            models, "_pep_stay",
            lambda spec, eta, key: real(spec, eta, key) + 1e-9 * (eta == 0))
        with pytest.raises(InadmissibleWeights, match=r"at time 0$"):
            run_ensemble(ModelSpec.jgamma_pep(J=40000, gamma=1e6), 2, 3, 1,
                         [lambda st: 0.0])

    @pytest.mark.parametrize("occ", ["empty", "full"])
    def test_skipped_draws_guarded_on_the_band(self, monkeypatch, occ):
        # One sample at J = 2: a table over (occupancy, key) pairs is wider
        # than the band at most steps, so the formula runs on the band's
        # cells, and there their empty (full) values are off 0 (1) by 1e-9.
        target, value = (0, 1e-9) if occ == "empty" else (3, 1 - 1e-9)
        real = models._pep_stay

        def perturbed(spec, eta, key):
            p = real(spec, eta, key)
            return np.where(eta == target, value, p) if np.ndim(key) == 2 \
                else p

        monkeypatch.setattr(models, "_pep_stay", perturbed)
        with pytest.raises(InadmissibleWeights,
                           match=r"not exactly 0 or 1 at time \d+$"):
            run_ensemble(ModelSpec.jgamma_pep(J=2, gamma=7.0), 40, 1, 1,
                         [lambda st: 0.0])

    def test_stay_error_on_the_band_names_site(self, monkeypatch):
        # As test_late_stay_error_names_site, on the band's cells: one
        # sample at J = 2, whose occupancy-1 values read 1.5 from time 20
        # on, where the formula runs on the band.
        spec = ModelSpec.jgamma_pep(J=2, gamma=7.0)
        real, calls = models._pep_stay, []

        def patched(spec, eta, key):
            calls.append(None)
            p = real(spec, eta, key)
            return np.where(eta == 1, 1.5, p) if len(calls) > 20 \
                and np.ndim(key) == 2 else p

        monkeypatch.setattr(models, "_pep_stay", patched)
        with pytest.raises(InadmissibleWeights) as info:
            run_ensemble(spec, 60, 1, 5, [lambda st: 0.0])
        t, site = map(int, re.fullmatch(
            r"stay probability 1\.500000 out of \[0, 1\] at time (\d+), "
            r"site (\d+)", str(info.value)).groups())
        lo, occ = suffix_cumsum_pep(spec, t, 1, _trajectory_rng(5, 0))
        assert t >= 20
        assert site == lo + np.flatnonzero(occ[0] == 1)[0]

    @PEP_SPECS
    def test_late_stay_error_names_site(self, monkeypatch, spec):
        # From time 100 on, after the band has moved, the occupancy-1
        # entries of the table read 1.5: the first site holding exactly
        # one particle in some sample at time 100 names the error.  The
        # bit-sliced engine steps all 64 lanes of its one word.
        if bit_sliced(spec):
            lo, occ = bitplane_pep(spec, 100, 64, _trajectory_rng(5, 0))
        else:
            lo, occ = suffix_cumsum_pep(spec, 100, 6, _trajectory_rng(5, 0))
        site = lo + np.flatnonzero((occ == 1).any(axis=0))[0]
        real, calls = models._pep_stay, []

        def patched(spec, eta, key):
            calls.append(None)
            p = real(spec, eta, key)
            return np.where(eta == 1, 1.5, p) if len(calls) > 100 else p

        monkeypatch.setattr(models, "_pep_stay", patched)
        with pytest.raises(InadmissibleWeights, match=r"1\.500000 out of "
                           r"\[0, 1\] at time 100, site %d$" % site):
            run_ensemble(spec, 120, 6, 5, [lambda st: 0.0])

    @pytest.mark.parametrize("spec", [
        ModelSpec.asym_pep(0.25, 0.0), ModelSpec.jgamma_pep(J=2, gamma=7.0),
        ModelSpec.jgamma_pep(1, 1e12)],
        ids=["asym-d0", "jgamma-J2", "jgamma-thin"])
    @pytest.mark.parametrize("occ", ["empty", "full"])
    def test_late_skipped_draws_guarded(self, monkeypatch, spec, occ):
        # As test_skipped_draws_guarded, from time 100 on.
        cap = spec.J + 1
        target, value = (0, 1e-9) if occ == "empty" else (cap, 1 - 1e-9)
        real, calls = models._pep_stay, []

        def perturbed(spec, eta, key):
            calls.append(None)
            p = real(spec, eta, key)
            return np.where(eta == target, value, p) if len(calls) > 100 else p

        monkeypatch.setattr(models, "_pep_stay", perturbed)
        with pytest.raises(InadmissibleWeights, match=r"at time 100$"):
            run_ensemble(spec, 120, 6, 5, [lambda st: 0.0])

    @pytest.mark.parametrize("spec", [
        ModelSpec.jgamma_pep(1, 7.0), ModelSpec.jgamma_pep(2, 9.0),
        ModelSpec.corner_dyn(7.0)], ids=["1", "2", "corner-dyn"])
    def test_late_upsilon_error_names_site(self, monkeypatch, spec):
        # From time 100 on every key reads 1000 lower, so Upsilon < gamma
        # first at the minimal key of the time-100 window, site by site
        # (the window the oracle keeps, past the band's right end too).
        J = spec.J
        lo, occ = suffix_cumsum_pep(spec, 100, 6, _trajectory_rng(5, 0))
        h = occ[:, ::-1].cumsum(axis=1)[:, ::-1]
        x = np.arange(lo, lo + occ.shape[1])
        key = (2 * h + (J + 1) * (x - 1) - J * 100).T  # site-major
        site = lo + int(key.argmin()) // key.shape[1]
        real = models._pep_key
        monkeypatch.setattr(models, "_pep_key", lambda spec, x, t, h:
                            real(spec, x, t, h) - 1000 * (t >= 100))
        with pytest.raises(InadmissibleWeights, match=r"gamma - %d < gamma "
                           r"at time 100, site %d$"
                           % (1000 - key.min(), site)):
            run_ensemble(spec, 120, 6, 5, [lambda st: 0.0])

    def test_asym_mean_matches_exact(self):
        law = exact_law(ASYM, 3)
        est = run_ensemble(ASYM, 3, 40000, 3,
                           [lambda st: current(st, 2)])[0]
        assert_mean_matches(est, [(h_tail(cfg, 2), pr)
                                  for cfg, pr in law.support], 4)


class TestWindowEngine:
    @pytest.mark.parametrize("spec", [
        ModelSpec.asym_pep(0.25, 0.0), ModelSpec.asym_pep(0.25, -0.5),
        ModelSpec.jgamma_pep(J=1, gamma=3.0),
        ModelSpec.jgamma_pep(J=2, gamma=7.0)],
        ids=["asym-d0", "asym-d-0.5", "jgamma-J1", "jgamma-J2"])
    def test_matches_suffix_cumsum_oracle(self, spec):
        trace = []
        lo, width = assert_engine_matches_oracle(spec, 80, 20, 5, trace)
        # The band is the oracle's lo..r+1; it advanced, and its right end
        # passed the oracle's first 8 sites.
        (lo_n, _, r), = trace[-1:]
        assert (lo, lo + width - 1) == (lo_n, r + 1)
        assert lo > 1 and r >= 8

    @settings(max_examples=40)
    @given(st.one_of(
        st.builds(ModelSpec.asym_pep, st.floats(0.01, 0.99),
                  st.one_of(st.just(0.0), st.floats(-1e3, 0.0))),
        st.builds(lambda J, extra: ModelSpec.jgamma_pep(J, J + 2 + extra),
                  st.integers(1, 3), st.integers(0, 20))),
        st.integers(1, 60), st.integers(1, 12), st.integers(0, 2 ** 20))
    def test_matches_oracle_property(self, spec, N, samples, seed):
        assert_engine_matches_oracle(spec, N, samples, seed)

    def test_every_stay_path_matches_oracle(self, monkeypatch):
        # Specs of every exclusion variant over their admissible range.  A
        # spy tells the stay law's paths apart by the key's shape: 0-d on
        # the bit-sliced engine, 1-d on the dense table and 2-d on the
        # band's cells, where a table would be wider than the band (one
        # sample, mostly), and the keyed engine must take both.
        seen, real = set(), models._pep_stay

        def spy(spec, eta, key):
            seen.add(np.ndim(key))
            return real(spec, eta, key)

        # gamma - (J + 1) below 50 runs keyed at J = 1 too; from
        # models._THIN_GAMMA on, J = 1 runs bit-sliced
        extra = st.one_of(st.floats(1e-3, 50.0), st.floats(50.0, 1e5),
                          st.just(math.inf))

        @settings(max_examples=300)
        @given(st.one_of(
            st.builds(lambda J, g: ModelSpec.jgamma_pep(J, J + 1 + g),
                      st.integers(1, 4), extra),
            st.builds(ModelSpec.asym_pep, st.floats(0.01, 0.99),
                      st.one_of(st.just(0.0), st.floats(-1e3, 0.0))),
            st.builds(ModelSpec.corner, st.floats(0.0, 1.0)),
            st.builds(lambda g: ModelSpec.corner_dyn(1 + g), extra)),
            st.integers(1, 40), st.sampled_from([1, 2, 3, 17, 64]),
            st.integers(0, 2 ** 20))
        def check(spec, N, samples, seed):
            assert_engine_matches_oracle(spec, N, samples, seed)

        monkeypatch.setattr(models, "_pep_stay", spy)
        check()
        assert seen == {0, 1, 2}

    @PEP_SPECS
    def test_band_moves_match_oracle(self, spec):
        trace = []
        lo, width = assert_engine_matches_oracle(spec, 200, 3, 7, trace)
        grow = models._WINDOW_GROW
        (lo_n, _, r), = trace[-1:]
        assert (lo, lo + width - 1) == (lo_n, r + 1)
        if not bit_sliced(spec):  # the height buffer of _ensemble_pep
            # The origin starts _WINDOW_GROW rows before site 1 and moves
            # left one row a step and right with lo: at time t it is used
            # up once t - lo_t + 1 reaches _WINDOW_GROW, and the band must
            # move.
            los = [1] + [lo_t for lo_t, _, _ in trace[:-1]]
            assert max(t - lo_t + 1 for t, lo_t in enumerate(los)) >= grow + 8
            # The band advanced, and its right end passed site
            # 8 + _WINDOW_GROW.
            assert lo > 1 and r >= 8 + grow
        # lo never advances by two sites in one step: a site left not full
        # in some sample keeps its right neighbour below J + 1 there, so
        # the engine's advance loop runs at most once a step.
        assert {k for _, k, _ in trace} == {0, 1}

    @PEP_SPECS
    def test_frequent_band_moves_match_oracle(self, monkeypatch, spec):
        # Two free rows: the band moves every other step and its buffer
        # grows every few, in place and into a new buffer alike.
        monkeypatch.setattr(models, "_WINDOW_GROW", 2)
        assert_engine_matches_oracle(spec, 60, 4, 11)


class ScriptedBits:
    """A bit generator whose random_raw hands out fixed words in order."""

    def __init__(self, words):
        self.words, self.used = np.asarray(words, dtype=np.uint64), 0

    def random_raw(self, size):
        out = self.words[self.used:self.used + size].copy()
        assert len(out) == size, "script ran out of words"
        self.used += size
        return out


def bit_engine_configs(spec, N, samples, seed):
    """{occupancy tuple, trailing zeros dropped: count} over the final
    heights of the exclusion-process engine."""
    ens = run_engine(_ensemble_pep, spec, N, samples, _trajectory_rng(seed, 0))
    lo = ens.left
    band = ens.heights  # h at sites lo, lo+1, ...
    h = np.zeros((samples, N + 3), dtype=np.int64)
    for x in range(1, N + 3):
        if x <= lo:
            h[:, x - 1] = N - 2 * (x - 1)
        elif x - lo < band.shape[1]:
            h[:, x - 1] = band[:, x - lo]
    cfgs, counts = np.unique(h[:, :-1] - h[:, 1:], axis=0, return_counts=True)
    return {tuple(int(c) for c in np.trim_zeros(cfg, "b")): int(n)
            for cfg, n in zip(cfgs, counts)}


class TestBitSlicedEngine:
    """asym_pep at delta = 0 and jgamma_pep at J = 1 (and the corner models,
    which run as them) on the bit-sliced engine: their law against
    exact_law, the Bernoulli words against exact rational comparisons, the
    thinned stream against its oracle, and the padding lanes."""

    @pytest.mark.parametrize("spec, bits", [
        (ModelSpec.asym_pep(0.25, 0.0), True), (ASYM, False),
        (ModelSpec.jgamma_pep(1, 1e4), True),
        (ModelSpec.jgamma_pep(1, 9999.0), False),
        (ModelSpec.jgamma_pep(2, 1e12), False), (ModelSpec.corner(0.3), True),
        (ModelSpec.corner_dyn(1e4), True), (ModelSpec.corner_dyn(3.0), False)])
    def test_which_specs_run_bit_sliced(self, monkeypatch, spec, bits):
        def bit_engine(*args):
            raise LookupError("bit-sliced")

        monkeypatch.setattr(models, "_ensemble_bits", bit_engine)
        assert bit_sliced(spec) == bits
        if bits:
            with pytest.raises(LookupError):
                run_ensemble(spec, 3, 2, 1, [])
        else:
            run_ensemble(spec, 3, 2, 1, [])

    @pytest.mark.parametrize("gamma", [2.5, 3.0, 7.0])
    @pytest.mark.parametrize("samples", [20, 65])
    def test_thinned_stream_matches_oracle(self, monkeypatch, gamma,
                                           samples):
        # With the floor at 0 a small gamma runs thinned, and candidates
        # (the only cells whose key the engine reads) are common.
        monkeypatch.setattr(models, "_THIN_GAMMA", 0.0)
        real, calls = models._pep_key, []
        monkeypatch.setattr(models, "_pep_key", lambda spec, x, t, h:
                            calls.append(len(x)) or real(spec, x, t, h))
        spec = ModelSpec.jgamma_pep(1, gamma)
        assert_engine_matches_oracle(spec, 80, samples, 5)
        assert sum(calls) > 80

    @pytest.mark.parametrize("gamma", [2.5, 3.0, 7.0])
    @pytest.mark.parametrize("N", [4, 5])
    def test_thinned_frequencies_per_configuration(self, monkeypatch, gamma,
                                                   N):
        monkeypatch.setattr(models, "_THIN_GAMMA", 0.0)
        spec = ModelSpec.jgamma_pep(1, gamma)
        n = 100000
        counts = bit_engine_configs(spec, N, n, 43)
        law = dict(exact_law(spec, N).support)
        assert set(counts) <= set(law)
        for cfg, pr in law.items():
            if pr > 1e-3:
                sigma = math.sqrt(pr * (1 - pr) / n)
                assert abs(counts.get(cfg, 0) / n - pr) < 4 * sigma, cfg

    def test_thinned_upsilon_checked_at_candidates(self, monkeypatch):
        # From time 10 on every key reads 1000 lower; the first candidate
        # then names the error.
        monkeypatch.setattr(models, "_THIN_GAMMA", 0.0)
        real = models._pep_key
        monkeypatch.setattr(models, "_pep_key", lambda spec, x, t, h:
                            real(spec, x, t, h) - 1000 * (t >= 10))
        with pytest.raises(InadmissibleWeights,
                           match=r"< gamma at time 10, site \d+$"):
            run_ensemble(ModelSpec.jgamma_pep(1, 3.0), 20, 64, 5, [])

    def test_infinite_gamma_is_the_fair_coin(self, monkeypatch):
        # heat's model: at gamma = inf a lone particle stays with chance
        # 1/2, and no thinning pass runs.
        monkeypatch.setattr(models, "_thinned_words", None)
        spec = ModelSpec.jgamma_pep(1, math.inf)
        assert_engine_matches_oracle(spec, 60, 70, 9)
        n = 100000
        counts = bit_engine_configs(spec, 4, n, 43)
        law = dict(exact_law(spec, 4).support)
        assert set(counts) <= set(law)
        for cfg, pr in law.items():
            sigma = math.sqrt(pr * (1 - pr) / n)
            assert abs(counts.get(cfg, 0) / n - pr) < 4 * sigma, cfg

    def test_extreme_gamma(self):
        # 1/gamma = 1e-300: every skip saturates at INT64_MAX, and no
        # candidate is drawn, without overflow.
        spec = ModelSpec.jgamma_pep(1, 1e300)
        assert_engine_matches_oracle(spec, 60, 70, 9)
        est, = run_ensemble(spec, 60, 70, 9, [lambda st: current(st, 1)])
        assert est.mean == 60

    @pytest.mark.parametrize("q", [0.25, 0.6])
    @pytest.mark.parametrize("N", [3, 4])
    def test_frequencies_per_configuration(self, q, N):
        spec = ModelSpec.asym_pep(q, 0.0)
        n = 100000
        counts = bit_engine_configs(spec, N, n, 41)
        law = dict(exact_law(spec, N).support)
        assert set(counts) <= set(law)
        for cfg, pr in law.items():
            if pr > 1e-3:
                sigma = math.sqrt(pr * (1 - pr) / n)
                assert abs(counts.get(cfg, 0) / n - pr) < 4 * sigma, cfg

    @pytest.mark.parametrize("p", [
        0.0, 1.0, 0.5, 0.75, 0.2, 1 / 3, 0.1, 0.6 / 1.6, 2.0 ** -60,
        1 - 2.0 ** -53])
    @pytest.mark.parametrize("masked", [False, True], ids=["all", "masked"])
    def test_bernoulli_words_match_fraction_comparison(self, p, masked):
        # Word j, lane l has the uniform U whose i-th binary digit is
        # digits[j, l, i - 1]; some lanes copy p's first m digits, so they
        # stay undecided up to digit m + 1, or to the end at m = k.
        n, gen = 24, np.random.default_rng(5)
        num, den = p.as_integer_ratio()
        k = den.bit_length() - 1
        pd = [num >> (k - i) & 1 for i in range(1, k + 1)]
        digits = gen.integers(0, 2, size=(n, 64, max(k, 1)))
        for j, l in zip(gen.integers(0, n, 40), gen.integers(0, 64, 40)):
            m = int(gen.integers(0, k + 1))
            digits[j, l, :m] = pd[:m]
        lanes = (gen.integers(0, 2, size=(n, 64)) if masked
                 else np.ones((n, 64), dtype=np.int64))

        def word(bits):
            return sum(int(b) << l for l, b in enumerate(bits))

        # The stream the sampler must read: the first min(k, 8) digits of
        # every word, then each later digit of the words with a lane whose
        # digits so far equal p's.
        dense = min(k, 8) if num != den else 0
        script = [word(digits[j, :, i]) for i in range(dense)
                  for j in range(n)]
        read = [dense] * n
        for i in range(dense + 1, k + 1 if num != den else 0):
            live = [j for j in range(n) if any(
                lanes[j, l] and list(digits[j, l, :i - 1]) == pd[:i - 1]
                for l in range(64))]
            script += [word(digits[j, :, i - 1]) for j in live]
            for j in live:
                read[j] = i
        bitgen = ScriptedBits(script)
        got = models._bernoulli_words(
            bitgen, p, np.array([word(lanes[j]) for j in range(n)],
                                dtype=np.uint64))
        assert bitgen.used == len(script)
        for j in range(n):
            for l in range(64):
                u = Fraction(word(digits[j, l, read[j] - 1::-1]),
                             2 ** read[j]) if read[j] else Fraction(0)
                want = bool(lanes[j, l]) and (
                    num == den or u < Fraction(num, den))
                assert (int(got[j]) >> l & 1) == want, (j, l)

    @pytest.mark.parametrize("samples", [1, 63, 64, 65])
    def test_padding_lanes(self, samples):
        spec = ModelSpec.asym_pep(0.25, 0.0)
        assert_engine_matches_oracle(spec, 40, samples, 3)
        ens = run_engine(_ensemble_pep, spec, 40, samples,
                         _trajectory_rng(3, 0))
        assert len(ens.heights) == samples
        assert (current(ens, 1) == 40).all() and (current(ens, 42) == 0).all()

    @settings(max_examples=20)
    @given(st.floats(0.02, 0.98), st.integers(1, 3), st.integers(0, 2 ** 20))
    def test_mean_heights_match_exact_law(self, q, N, seed):
        spec = ModelSpec.asym_pep(q, 0.0)
        law = exact_law(spec, N)
        obs = [lambda st, x=x: current(st, x) for x in range(1, N + 2)]
        for x, est in zip(range(1, N + 2),
                          run_ensemble(spec, N, 2000, seed, obs)):
            assert_mean_matches(est, [(h_tail(cfg, x), pr)
                                      for cfg, pr in law.support], 5)


class TestCornerView:
    def test_wedge_at_time_zero(self):
        st = oracle.initial_state(JG)
        for pos, h in corner_view(JG, st).items():
            assert h == 2 * abs(pos)

    def test_time_one_deterministic(self):
        st = oracle.step(oracle.initial_state(JG, seed=1), JG)
        view = corner_view(JG, st)
        assert view[-0.5] == 1 and view[0.5] == 1 and view[1.5] == 3

    def test_heights_dominate_wedge(self):
        st = oracle.initial_state(JG, seed=6)
        for _ in range(8):
            st = oracle.step(st, JG)
        for pos, h in corner_view(JG, st).items():
            assert h >= 2 * abs(pos) - 1e-9

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_symmetric_limit_matches_midpoint_model(self, t):
        pep = ModelSpec.jgamma_pep(J=1, gamma=1e12)
        via_pep = corner_view_exact(pep, t)
        grid = [x - t / 2.0 - 1.0 for x in range(1, t + 3)]
        direct = prior_corner_heights(ModelSpec.corner(0.5), t, grid)
        assert tv(via_pep, direct) < 1e-9


class TestKappaBookkeeping:
    def test_qhahn_incremental_equals_closed(self):
        assert kappa_audit(QHAHN, 6, seed=3) > 10

    def test_asym_incremental_equals_closed(self):
        assert kappa_audit(ASYM, 8, seed=3) > 15

    def test_general_incremental_equals_closed(self):
        gen = ModelSpec.general(Q, DELTA, U=(1.05,), Xi=(S_IM,), S=(S_IM,),
                                J=(1,))
        assert kappa_audit(gen, 5, seed=1) > 8


class TestFloatRange:
    @pytest.mark.parametrize("spec, vertex, where", [
        # q**(-2h) overflows at h = 388 in a Python power (real, complex)
        (ModelSpec.qhahn(Q, DELTA, B=(15.625,), C=(Q,), J=(1,)),
         (1, 388, 1, 1, 400), "site 1, row 389 (qhahn)"),
        (GENERAL, (1, 388, 1, 1, 400), "site 1, row 389 (general)"),
        # b_1 b_2 = 1e600 overflows to inf without an exception
        (ModelSpec.qhahn(Q, DELTA, B=(1e300,), C=(Q,), J=(1,)),
         (3, 0, 1, 1, 1), "site 3, row 1 (qhahn)")],
        ids=["qhahn-power", "general-power", "qhahn-product"])
    def test_kappa_out_of_range_is_typed(self, spec, vertex, where):
        with pytest.raises(InadmissibleWeights, match=r"^dynamical "
                           r"parameter out of float range at %s$"
                           % re.escape(where)):
            models._kernel(spec, *vertex)

    def test_zero_delta_past_overflow(self):
        # At delta = 0 kappa is 0 at every height, also where q**(-2h)
        # overflows: the kernel at h = 400 is the kernel at h = 0.
        spec = ModelSpec.qhahn(0.25, 0.0, B=(16.0,), C=(0.25,), J=(1,))
        far, near = (models._kernel(spec, 1, 388, 1, 1, h)[1]
                     for h in (400, 0))
        assert np.array_equal(far, near)

    def test_nan_weights_rejected(self):
        with pytest.raises(InadmissibleWeights, match="weight sum nan"):
            models._validate_weights([math.nan, 1.0], "here")


class TestEnsembleContract:
    @pytest.mark.parametrize("vectorized", [True, False],
                             ids=["vector", "scalar"])
    @pytest.mark.parametrize("spec", [
        JG, ModelSpec.jgamma_pep(J=2, gamma=7.0), ASYM,
        ModelSpec.asym_pep(0.25, 0.0), QHAHN, GENERAL, ModelSpec.corner(0.3),
        ModelSpec.corner_dyn(3.0)],
        ids=["jgamma", "jgamma-J2", "asym", "asym-d0", "qhahn", "general",
             "corner", "corner_dyn"])
    def test_observables_run_once_on_int64_heights(self, spec, vectorized):
        # At N = 4 the corner lattice holds the integers; site 40 and
        # position -40 lie outside every stored window.
        seen = []
        obs = [lambda ens, k=k: seen.append((k, ens)) or 0.0 for k in (0, 1)]
        sampler(vectorized)(spec, 4, 7, 1, obs)
        assert [k for k, _ in seen] == [0, 1]
        ens = seen[0][1]
        assert seen[1][1] is ens
        got = [current(ens, x) for x in (1, 2, 3, 40)]
        got += [ens.height(x) for x in (1, 2, 3, 40)]
        if spec.is_corner:
            got.append(ens.height(-40.0))
        for h in got:
            assert h.dtype == np.int64 and h.shape == (7,)

    @pytest.mark.parametrize("vectorized", [True, False],
                             ids=["vector", "scalar"])
    @pytest.mark.parametrize("spec", [QHAHN, GENERAL],
                             ids=["qhahn", "general"])
    def test_row_model_height_left_of_site_1(self, spec, vectorized):
        # A row model has no site left of 1, so height rejects x < 1 as
        # current does.
        seen = []
        sampler(vectorized)(spec, 3, 5, 1,
                            [lambda ens: seen.append(ens) or 0.0])
        (ens,) = seen
        assert (ens.height(1) == current(ens, 1)).all()
        for x in (0, -3):
            with pytest.raises(ValueError, match="site index must be >= 1"):
                ens.height(x)
            with pytest.raises(ValueError, match="site index must be >= 1"):
                current(ens, x)

    @pytest.mark.parametrize("spec", [JG, ModelSpec.corner(0.3)],
                             ids=["jgamma", "corner"])
    def test_exclusion_height_left_of_site_1(self, spec):
        # Sites left of 1 of an exclusion process hold J + 1 particles
        # each; the corner lattice reads the wedge there.
        seen = []
        run_ensemble(spec, 4, 5, 1, [lambda ens: seen.append(ens) or 0.0])
        (ens,) = seen
        if spec.is_corner:
            assert (ens.height(-40.0) == 80).all()
        else:
            assert (ens.height(0) == current(ens, 1) + spec.J + 1).all()

    @pytest.mark.parametrize("N, samples", [(-1, 5), (3, 0)])
    def test_bad_sizes_rejected(self, N, samples):
        with pytest.raises(ValueError, match="at least one sample"):
            run_ensemble(JG, N, samples, 1, [])

    def test_squares_do_not_wrap(self):
        # The engine stores int16 here, and h(1) = 400 squares past it.
        spec, N, samples, seed = ModelSpec.jgamma_pep(1, 1e12), 400, 20, 7
        ens = run_engine(_ensemble_pep, spec, N, samples,
                         _trajectory_rng(seed, 0))
        assert ens.heights.dtype == np.int16
        ref = oracle_heights(spec, N, samples, seed)
        sites = range(1, N + 3)
        obs = [lambda ens, x=x: current(ens, x) ** 2 for x in sites]
        for x, est in zip(sites, run_ensemble(spec, N, samples, seed, obs)):
            assert est.mean == np.mean((ref[:, x - 1] ** 2).astype(float)), x


# Every engine: the row engine, the band engine at J = 1 and 2, and the
# bit-sliced engine, plain and thinned, and the corner models on both.
SNAPSHOT_SPECS = pytest.mark.parametrize("spec", [
    QHAHN, GENERAL, JG, ModelSpec.jgamma_pep(J=2, gamma=7.0), ASYM,
    ModelSpec.asym_pep(0.25, 0.0), ModelSpec.jgamma_pep(1, 1e12),
    ModelSpec.corner(0.3), ModelSpec.corner_dyn(3.0)],
    ids=["qhahn", "general", "jgamma", "jgamma-J2", "asym", "asym-d0",
         "jgamma-thin", "corner", "corner_dyn"])


def particles(spec, t):
    """The particles of the step data after t steps."""
    return sum(spec.row_degree(y) for y in range(1, t + 1))


class TestSnapshots:
    """The engines' snapshot of every time: the run stopped there, and the
    `initial_state` / `step` surface of one trajectory."""

    @SNAPSHOT_SPECS
    def test_each_time_is_the_run_stopped_there(self, spec):
        # Snapshot t holds the Ensemble, dtype and extent included, of a
        # run of t steps from the same seed, and sample 0's occupancy.
        # Both row models meet a negative weight at row 6.
        N = 5 if spec.variant in ("qhahn", "general") else 12
        for t, snap in zip(range(N + 1), models.Trajectory(spec, 7, 3)):
            seen = []
            run_ensemble(spec, t, 7, 3, [lambda ens: seen.append(ens) or 0])
            got, (want,) = snap.ensemble(), seen
            assert snap.time == got.time == want.time == t
            assert got.heights.dtype == want.heights.dtype
            assert np.array_equal(got.heights, want.heights)
            assert (got.left, got.packed, got.total, got.corner) == (
                want.left, want.packed, want.total, want.corner)
            occ = snap.occupancy
            h = [int(current(want, x)[0]) for x in range(1, len(occ) + 3)]
            assert occ.tolist() == [a - b for a, b in zip(h, h[1:])][
                :len(occ)]
            assert h[len(occ)] == 0 and (occ[-1] or len(occ) == 1)
            assert snap.total_particles == h[0] == particles(spec, t)

    @SNAPSHOT_SPECS
    def test_snapshot_stores_only_its_band(self, spec):
        # No snapshot stores a row past its band.  An exclusion process
        # stores the oracle's lo..r+1, r the last site non-empty in some
        # sample (or lane), and site r+1 is empty in every sample; a row
        # model its buffer, a zero last row within twice the r+1 sites a
        # run to t reaches.  Both row models meet a negative weight at row
        # 6.  The heights at sites 1..t+3 and sample 0's occupancy are the
        # oracle's.
        rows = spec.variant in ("qhahn", "general")
        N, samples, seed = (5 if rows else 12), 7, 3
        for t, snap in zip(range(N + 1),
                           models.Trajectory(spec, samples, seed)):
            ens = snap.ensemble()
            heights = ens.heights
            if rows:
                occ = row_sweep_oracle(spec, t, samples,
                                       _trajectory_rng(seed, 0))
                r = last_site(occ) + 1
                assert ens.left == 1
                assert r + 1 <= heights.shape[1] <= 2 * (r + 1)
                ref = occ[:, ::-1].cumsum(axis=1)[:, ::-1]
                ref = np.pad(ref, ((0, 0), (0, t + 3)))[:, :t + 3]
            else:
                trace = []
                ref = oracle_heights(spec, t, samples, seed, trace)
                (lo, _, r), = trace[-1:] or [(1, 0, 0)]
                assert (ens.left, ens.left + heights.shape[1] - 1) == (
                    lo, r + 1)
                occ = ref[:, :-1] - ref[:, 1:]
            assert not heights[:, -1].any()
            for x in range(1, t + 4):
                assert np.array_equal(current(ens, x), ref[:, x - 1]), (t, x)
            want = np.trim_zeros(occ[0], "b")
            assert snap.occupancy.tolist() == (want.tolist() or [0])

    @SNAPSHOT_SPECS
    def test_step_runs_one_trajectory(self, spec):
        # initial_state and step give the snapshots of a one-sample run.
        state = models.initial_state(spec, seed=4)
        for snap in itertools.islice(models.Trajectory(spec, 1, 4), 6):
            assert state.time == snap.time
            assert np.array_equal(state.occupancy, snap.occupancy)
            assert state.total_particles == particles(spec, state.time)
            if state.time < 5:
                state = models.step(state, spec)

    def test_dtype_widens_when_the_bound_passes_it(self):
        # J = 40: the keyed engine's bound 161 (t + 1) passes int16 at
        # t = 203, where the heights must not have wrapped.
        spec, seed = ModelSpec.jgamma_pep(40, 100.0), 5
        run = models.Trajectory(spec, 3, seed)
        dtypes = [snap.ensemble().heights.dtype
                  for snap in itertools.islice(run, 204)]
        assert dtypes[202] == np.int16 and dtypes[203] == np.int32
        ref = oracle_heights(spec, 203, 3, seed)
        ens = run_engine(_ensemble_pep, spec, 203, 3, _trajectory_rng(seed, 0))
        for x in range(1, 206):
            assert np.array_equal(current(ens, x), ref[:, x - 1]), x

    def test_step_needs_the_newest_snapshot(self):
        first = models.initial_state(JG, seed=1)
        second = models.step(first, JG)
        for stale in (lambda: models.step(first, JG),
                      lambda: first.occupancy, lambda: first.ensemble()):
            with pytest.raises(ValueError, match="^the snapshot at time 0 "
                               "is not the newest of"):
                stale()
        with pytest.raises(ValueError, match="^the snapshot at time 1 is "
                           "not the newest of a trajectory of this spec$"):
            models.step(second, ASYM)
        assert models.step(second, JG).time == 2

    @pytest.mark.parametrize("spec, samples", [
        (ModelSpec(variant="corner", p=-0.5, J=1), 3),
        (ModelSpec.qhahn(Q, DELTA, B=(B0, 2 * B0), C=(Q, Q * Q), J=(1, 2)),
         2000)], ids=["bits", "rows"])
    def test_no_snapshot_outlives_an_engine_error(self, spec, samples):
        # The row engine fails in mid-sweep, its buffer half written.
        run = models.Trajectory(spec, samples, 11)
        with pytest.raises(InadmissibleWeights):
            for last in run:
                pass
        assert run.time is None and last.time >= 1
        with pytest.raises(ValueError, match="not the newest"):
            last.ensemble()


# The general model on a grid of its test parameters.
general_specs = st.builds(
    lambda q, delta, U, J: ModelSpec.general(q, delta, U=(U,), Xi=(S_IM,),
                                             S=(S_IM,), J=(J,)),
    st.sampled_from([0.3, 0.4]), st.sampled_from([-0.2, -0.5]),
    st.sampled_from([1.0, 1.05]), st.integers(1, 2))


class TestRowEngine:
    @pytest.mark.parametrize("spec, N, samples, seed", [
        (QHAHN, 0, 5, 0), (QHAHN, 1, 10, 2), (QHAHN, 3, 1000, 1),
        (QHAHN, 5, 100000, 7),
        (ModelSpec.qhahn(Q, DELTA, B=(B0, 2 * B0), C=(Q, Q * Q), J=(1, 2)),
         4, 20000, 3)],
        ids=["N0", "N1", "N3", "N5-1e5", "J12-N4"])
    def test_qhahn_equals_prior_engine(self, spec, N, samples, seed):
        # The q-Hahn stream and heights of the engine before the row
        # engine, value for value, at every site the prior stores and one
        # past them.
        ens = run_engine(_ensemble_rows, spec, N, samples,
                         _trajectory_rng(seed, 0))
        ref = prior.ensemble_qhahn(spec, N, samples, _trajectory_rng(seed, 0))
        assert (ens.time, ens.left) == (ref.time, ref.left)
        for x in range(1, ref.heights.shape[1] + 2):
            assert np.array_equal(current(ens, x), current(ref, x)), x

    def test_qhahn_error_equals_prior_engine(self):
        # At N = 5 the two-row parameters meet a negative weight.
        spec = ModelSpec.qhahn(Q, DELTA, B=(B0, 2 * B0), C=(Q, Q * Q),
                               J=(1, 2))
        errors = []
        for engine in (lambda *args: run_engine(_ensemble_rows, *args),
                       prior.ensemble_qhahn):
            with pytest.raises(InadmissibleWeights) as info:
                engine(spec, 5, 2000, _trajectory_rng(11, 0))
            errors.append(str(info.value))
        assert errors[0] == errors[1]


@st.composite
def small_models(draw, variant):
    """A spec of the variant with drawn parameters, a number of steps
    N <= 3 and the exact law, which raises no weight error at these
    parameters (they are admissible up to N)."""
    N = draw(st.integers(1, 3))
    if variant == "jgamma_pep":
        J = draw(st.integers(1, 2))
        spec = ModelSpec.jgamma_pep(J, J + 1 + draw(st.floats(0.01, 50.0)))
    elif variant == "asym_pep":
        spec = ModelSpec.asym_pep(
            draw(st.floats(0.01, 0.99)),
            draw(st.one_of(st.just(0.0), st.floats(-1e3, 0.0))))
    elif variant == "general":
        spec = draw(general_specs)
    elif variant == "qhahn":
        q, J = draw(st.floats(0.05, 0.95)), draw(st.integers(1, 2))
        spec = ModelSpec.qhahn(q, draw(st.floats(-1.0, 0.0)),
                               B=(draw(st.floats(-3.0, -0.01)),),
                               C=(q ** J,), J=(J,))
    elif variant == "corner":
        spec = ModelSpec.corner(draw(st.one_of(st.sampled_from([0.0, 1.0]),
                                               st.floats(0, 1))))
    else:
        spec = ModelSpec.corner_dyn(draw(st.floats(1, 1e6, exclude_min=True)))
    try:
        law = exact_law(spec, N)
    except InadmissibleWeights:
        reject()
    return spec, N, law


class TestLawsAgree:
    @pytest.mark.parametrize("variant", [
        "jgamma_pep", "asym_pep", "qhahn", "general", "corner", "corner_dyn"])
    @settings(max_examples=12)
    @given(data=st.data(), seed=st.integers(0, 2 ** 20))
    def test_scalar_vector_and_exact_means(self, variant, data, seed):
        # The mean height at every stored site or position, on both paths,
        # lies within 5 sigma of the exact mean, sigma from the exact
        # variance (so a branch too rare to be sampled is no failure).
        spec, N, law = data.draw(small_models(variant))
        sites, h = range(1, N + 3), h_tail
        if spec.is_corner:  # the prior lattice, read through the map
            sites = corner_window(N)
            ens = oracle.occupancy_ensemble(spec, N, [cfg for cfg, _ in
                                                      law.support])
            cols = {x: dict(zip((cfg for cfg, _ in law.support),
                                ens.height(x).tolist())) for x in sites}

            def h(cfg, x):
                return cols[x][cfg]
        obs = [lambda ens, x=x: ens.height(x) for x in sites]
        for vectorized, n in ((True, 4000), (False, 400)):
            ests = sampler(vectorized)(spec, N, n, seed, obs)
            for x, est in zip(sites, ests):
                mean = law.mean(lambda cfg: h(cfg, x))
                var = law.mean(lambda cfg: (h(cfg, x) - mean) ** 2)
                assert (abs(est.mean - mean)
                        <= 5 * math.sqrt(var / n) + 1e-9), (vectorized, x)


@st.composite
def kernel_draws(draw):
    """A fresh spec of qhahn, general, jgamma_pep or asym_pep with drawn
    parameters, and a list of kernel inputs (x, t, i1, j1, h) that may
    repeat each other or share an exclusion-process key."""
    variant = draw(st.sampled_from(["qhahn", "general", "jgamma_pep",
                                    "asym_pep"]))
    if variant == "qhahn":
        q = draw(st.sampled_from([0.25, 0.4, 0.6]))
        J = draw(st.integers(1, 2))
        spec = ModelSpec.qhahn(q, draw(st.sampled_from([0.0, -0.2, -1.0])),
                               B=(draw(st.sampled_from([-0.3, -0.5])),),
                               C=(q ** J,), J=(J,))
    elif variant == "general":
        spec = draw(general_specs)
    elif variant == "jgamma_pep":
        J = draw(st.integers(1, 3))
        spec = ModelSpec.jgamma_pep(J, J + 1 + draw(st.floats(0.1, 30.0)))
    else:
        spec = ModelSpec.asym_pep(draw(st.floats(0.05, 0.95)),
                                  draw(st.floats(-2.0, 0.0)))
    cap = spec.row_degree(1) + 1
    inputs = st.tuples(st.integers(1, 6), st.integers(0, 6),
                       st.integers(0, cap), st.integers(0, cap - 1),
                       st.integers(0, 8))
    return spec, draw(st.lists(inputs, min_size=1, max_size=6))


def kernel_outcome(fn, spec, args):
    """(values, weight bytes, clamp count) of one kernel call, or the type
    and message of the package error it raises."""
    try:
        values, w, clamped = fn(spec, *args)
    except DynVertexError as exc:
        return type(exc), str(exc)
    return tuple(values), np.asarray(w, dtype=float).tobytes(), clamped


class TestKernelMemo:
    @settings(max_examples=150)
    @given(kernel_draws())
    def test_cold_and_warm_equal_eval(self, draw):
        spec, calls = draw
        want = [kernel_outcome(models._kernel_eval, spec, a) for a in calls]
        for _ in ("cold", "warm"):
            got = [kernel_outcome(models._kernel, spec, a) for a in calls]
            assert got == want

    def test_failing_sites_sharing_a_key_name_themselves(self):
        # gamma below J+1 (bypassing the constructor).  Key 1 means
        # Upsilon = 0.5 and P[stay] = 1.5; key -1 fails the Upsilon test.
        # Each pair of sites shares its key.
        bad = ModelSpec(variant="jgamma_pep", J=1, gamma=-0.5)
        for (x, t, h), where in [((1, 1, 1), r"site 1, row 2 "),
                                 ((2, 3, 1), r"site 2, row 4 "),
                                 ((1, 1, 0), r"time 1, site 1$"),
                                 ((2, 3, 0), r"time 3, site 2$")]:
            with pytest.raises(InadmissibleWeights, match=where):
                models._kernel(bad, x, t, 1, 0, h)
        assert bad._kernel_memo == {}

    @pytest.mark.parametrize("spec, N", [
        (QHAHN, 4), (JG, 6), (ASYM, 6), (ModelSpec.jgamma_pep(2, 7.0), 5),
        (ModelSpec.general(Q, DELTA, U=(1.05,), Xi=(S_IM,), S=(S_IM,),
                           J=(1,)), 3)],
        ids=["qhahn", "jgamma-J1", "asym", "jgamma-J2", "general"])
    def test_engines_equal_unmemoized(self, monkeypatch, spec, N):
        obs = [lambda st: current(st, 1), lambda st: current(st, 2)]
        memo = (exact_law(spec, N).support, run_scalar(spec, N, 50, 5, obs),
                run_ensemble(spec, N, 50, 5, obs))
        monkeypatch.setattr(models, "_kernel", models._kernel_eval)
        plain = (exact_law(spec, N).support, run_scalar(spec, N, 50, 5, obs),
                 run_ensemble(spec, N, 50, 5, obs))
        assert memo == plain

    def test_memo_stays_within_its_bound(self, monkeypatch):
        spec = ModelSpec.general(Q, DELTA, U=(1.05,), Xi=(S_IM,),
                                 S=(S_IM,), J=(1,))
        want = exact_law(spec, 3).support
        spec = ModelSpec.general(Q, DELTA, U=(1.05,), Xi=(S_IM,),
                                 S=(S_IM,), J=(1,))
        kernel, sizes = models._kernel, []

        def spy(spec, *args):
            out = kernel(spec, *args)
            sizes.append(len(spec._kernel_memo))
            return out

        monkeypatch.setattr(models, "_KERNEL_MEMO_CAP", 8)
        monkeypatch.setattr(models, "_kernel", spy)
        assert exact_law(spec, 3).support == want
        assert max(sizes) == 8 and sizes.count(1) > 1
