"""Particle-system samplers: transition laws, exact small-system oracle,
vectorized ensemble engines, and the height-function views."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import prior_models as prior
from dynvertex import models
from dynvertex.errors import (
    DynVertexError,
    InadmissibleParameters,
    InadmissibleWeights,
    SizeLimit,
)
from dynvertex.models import (
    CornerState,
    Ensemble,
    ModelSpec,
    _ensemble_corner,
    _ensemble_pep,
    _ensemble_rows,
    _trajectory_rng,
    current,
    exact_law,
    initial_state,
    run_ensemble,
    step,
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
# Both exclusion processes, at delta = 0 and delta < 0 and at J = 1 and 2.
PEP_SPECS = pytest.mark.parametrize("spec", [
    ModelSpec.asym_pep(0.25, 0.0), ASYM, ModelSpec.jgamma_pep(J=1, gamma=3.0),
    ModelSpec.jgamma_pep(J=2, gamma=7.0)],
    ids=["asym-d0", "asym-d-0.5", "jgamma-J1", "jgamma-J2"])


def h_tail(cfg, x):
    """Particles at sites >= x of an occupancy tuple."""
    return sum(cfg[x - 1:]) if x - 1 < len(cfg) else 0


def suffix_cumsum_pep(spec, N, samples, rng, trace=None):
    """Oracle for the exclusion-process window engine: the same window
    rules and random stream on an occupancy state (samples, width), with
    the heights recomputed by a suffix cumsum and the stay probability
    evaluated at every cell.  A uniform is drawn only where
    0 < eta < J+1, site by site; the other cells compare 0.5 with their
    stay probability, exactly 0 (empty) or 1 (full).
    Returns (lo, occupancy); a trace list gets (lo, advance) per step."""
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
            trace.append((lo, k))
    return lo, arr


def keyless(spec):
    """asym_pep at delta = 0, the one exclusion process whose stay
    probability does not depend on the height."""
    return spec.variant == "asym_pep" and spec.delta == 0.0


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


def bitplane_pep(spec, N, samples, rng, trace=None):
    """Oracle for the bit-sliced asym_pep delta = 0 engine: the same step
    per lane on an occupancy state (lanes, width), where the lanes fill
    whole 64-lane words and every lane is a trajectory.  The band runs
    from lo, the first site not full in every lane, to r + 1, with r the
    last site non-empty in some lane; the stay bits of the cells holding
    one particle come from bernoulli_lanes on the same random_raw words,
    with the band's words site-major.  A cell
    holding one particle keeps it when its bit is 1, a full cell keeps one
    and passes one, and site lo receives one particle from the left.
    Returns (lo, occupancy of the first `samples` lanes); a trace list gets
    (lo, advance) per step."""
    words = -(-samples // 64)
    occ = np.zeros((64 * words, 1), dtype=np.int64)
    lo = 1
    for t in range(N):
        p = float(models._pep_stay(spec, np.arange(3), 0)[1])
        single = (occ == 1).T.reshape(occ.shape[1], words, 64)
        stay = bernoulli_lanes(rng.bit_generator, p, single)
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
            trace.append((lo, k))
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
    state = initial_state(spec, seed=seed)
    checked = 0
    # exponents[x] = integer q-exponent of kappa_{x, y} after row y,
    # relative to delta * prod_{k<x} b_k * prod_{k<=y} c_k.
    exponents = {1: 0}
    for t in range(N):
        pre = [int(v) for v in state.occupancy]
        state = step(state, spec)
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
    """run_ensemble on `step`: trajectory i runs from _trajectory_rng(seed,
    i), and the final states are stacked into one Ensemble (suffix sums
    padded with zeros, corner heights on their common lattice)."""
    rows = []
    for i in range(samples):
        state = initial_state(spec, rng=_trajectory_rng(seed, i))
        for _ in range(N):
            state = step(state, spec)
        rows.append(state.heights if spec.is_corner
                    else state.occupancy[::-1].cumsum()[::-1])
    heights = np.zeros((samples, max(map(len, rows))), dtype=np.int64)
    for row, final in zip(heights, rows):
        row[:len(final)] = final
    ens = Ensemble(N, state.left if spec.is_corner else 1, heights,
                   corner=spec.is_corner)
    return models._estimates(ens, seed, observables)


def sampler(vectorized):
    """The engine of run_ensemble, or `step` through run_scalar."""
    return run_ensemble if vectorized else run_scalar


def oracle_heights(spec, N, samples, seed, trace=None):
    """The oracle's int64 heights (bitplane_pep for asym_pep at delta = 0,
    else suffix_cumsum_pep) from the engine's generator: column x - 1
    holds h(x) of every sample, at the sites x = 1, ..., N + 2."""
    oracle = bitplane_pep if keyless(spec) else suffix_cumsum_pep
    lo, occ = oracle(spec, N, samples, _trajectory_rng(seed, 0), trace)
    total = spec.J * N
    h = np.empty((samples, N + 2), dtype=np.int64)
    for x in range(1, N + 3):
        if x <= lo:
            h[:, x - 1] = total - (spec.J + 1) * (x - 1)
        else:
            h[:, x - 1] = occ[:, x - lo:].sum(axis=1)
    return h


def assert_engine_matches_oracle(spec, N, samples, seed, trace=None):
    """Final heights of the engine equal the oracle's at every site, bit
    for bit, from the same generator; returns the engine's (lo, width)."""
    ens = _ensemble_pep(spec, N, samples, _trajectory_rng(seed, 0))
    ref = oracle_heights(spec, N, samples, seed, trace)
    for x in range(1, N + 3):
        got = current(ens, x)
        assert np.array_equal(got, ref[:, x - 1]), (spec, x)
    return ens.left, ens.heights.shape[1]


def corner_view(state, spec=None):
    """Height-function samples of a J=1 partial-exclusion state: returns
    {position: height} with height(x - t/2 - 1) = 2*h_t(x) + 2*(x-1) - t,
    on the grid x = 1, ..., t+2."""
    if spec is not None and spec.variant == "jgamma_pep" and spec.J != 1:
        raise ValueError("corner_view requires J = 1")
    t = state.time
    out = {}
    for x in range(1, t + 3):
        pos = x - t / 2.0 - 1.0
        out[pos] = 2 * current(state, x) + 2 * (x - 1) - t
    return out


def corner_view_exact(spec, N, bound=200000):
    """Exact law of the corner_view height vector after N steps of a J=1
    partial-exclusion model, as {height tuple on the grid: probability}."""
    law = exact_law(spec, N, bound=bound)
    out = {}
    for cfg, pr in law.support:
        occ = list(cfg)

        def h(x):
            return sum(occ[x - 1:]) if x - 1 < len(occ) else 0

        key = tuple(2 * h(x) + 2 * (x - 1) - N for x in range(1, N + 3))
        out[key] = out.get(key, 0.0) + pr
    return out


def corner_heights_exact(spec, N, positions, bound=200000):
    """Exact law of the direct corner model restricted to the given
    positions, as {height tuple: probability}."""
    law = exact_law(spec, N, bound=bound)
    out = {}
    for (heights, left), pr in law.support:
        st = CornerState(time=N, left=left,
                         heights=np.array(heights, dtype=np.int64),
                         rng=None)
        key = tuple(st.height(p) for p in positions)
        out[key] = out.get(key, 0.0) + pr
    return out


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

    def test_corner_dyn_bound(self):
        with pytest.raises(InadmissibleParameters):
            ModelSpec.corner_dyn(0.5)


class TestStepAndCurrent:
    def test_origin_current_zero(self):
        for spec in (QHAHN, JG, ASYM):
            assert current(initial_state(spec), 1) == 0

    @pytest.mark.parametrize("J", [1, 3])
    def test_jgamma_first_step_deterministic(self, J):
        spec = ModelSpec.jgamma_pep(J=J, gamma=2 * J + 5.0)
        for seed in range(5):
            st = step(initial_state(spec, seed=seed), spec)
            assert list(st.occupancy) == [J]

    def test_total_particles_match_step_data(self):
        spec = ModelSpec.qhahn(Q, DELTA, B=(B0, 2 * B0), C=(Q, Q * Q),
                               J=(1, 2))
        st = initial_state(spec, seed=9)
        for t in range(1, 7):
            st = step(st, spec)
            expect = sum(spec.row_degree(y) for y in range(1, t + 1))
            assert st.total_particles == expect
            assert current(st, 1) == expect
            assert current(st, t + 5) == 0

    def test_current_monotone(self):
        st = initial_state(ASYM, seed=3)
        for _ in range(12):
            st = step(st, ASYM)
        vals = [current(st, x) for x in range(1, 16)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_jgamma_site_cap(self):
        spec = ModelSpec.jgamma_pep(J=2, gamma=8.0)
        st = initial_state(spec, seed=4)
        for _ in range(15):
            st = step(st, spec)
            assert st.occupancy.max() <= spec.J + 1
            assert st.occupancy.min() >= 0

    def test_asym_site_cap(self):
        st = initial_state(ASYM, seed=8)
        for _ in range(20):
            st = step(st, ASYM)
            assert st.occupancy.max() <= 2


class TestCorner:
    def test_initial_wedge(self):
        st = initial_state(ModelSpec.corner(0.5))
        for p in st.positions():
            assert st.height(p) == 2 * abs(p)
        assert st.height(17) == 34  # outside the stored window

    def test_time_one_deterministic(self):
        spec = ModelSpec.corner(0.3)
        for seed in range(4):
            st = step(initial_state(spec, seed=seed), spec)
            assert st.height(0.5) == 1 and st.height(-0.5) == 1
            assert st.height(1.5) == 3

    def test_height_above_wedge(self):
        spec = ModelSpec.corner_dyn(5.0)
        st = initial_state(spec, seed=2)
        for _ in range(10):
            st = step(st, spec)
            for p in st.positions():
                assert st.height(p) >= 2 * abs(p) - 1e-9

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
            exact = sum(pr * key[i] for key, pr in law.items())
            assert abs(got.mean - exact) < 4 * got.stderr + 1e-12

    @settings(max_examples=60)
    @given(st.one_of(
        st.builds(ModelSpec.corner,
                  st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))),
        st.builds(ModelSpec.corner_dyn,
                  st.floats(1, 1e6, exclude_min=True))),
        st.integers(0, 60), st.integers(0, 2 ** 20))
    def test_engine_equals_scalar_path(self, spec, N, seed):
        ens = _ensemble_corner(spec, N, 1, _trajectory_rng(seed, 0))
        state = initial_state(spec, rng=_trajectory_rng(seed, 0))
        for _ in range(N):
            state = step(state, spec)
        assert ens.left == state.left
        assert np.array_equal(ens.heights[0], state.heights)

    @pytest.mark.parametrize("vectorized", [True, False],
                             ids=["vector", "scalar"])
    def test_up_probability_checked(self, monkeypatch, vectorized):
        # At p = 1 every flat segment goes up, so the first flat segments
        # at height 2 meet the check in the step at time 2.
        real = models._corner_up_prob
        monkeypatch.setattr(
            models, "_corner_up_prob",
            lambda spec, h: np.where(np.asarray(h) >= 2, 1.5,
                                     real(spec, h)))
        with pytest.raises(InadmissibleWeights,
                           match=r"up-probability 1\.5.* time 2$"):
            sampler(vectorized)(ModelSpec.corner(1.0), 4, 3, 1,
                                [lambda st: 0.0])


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
        tv = exact_law(QHAHN, 3).tv_distance(exact_law(gen, 3))
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

    def test_jgamma_two_step_height(self):
        gamma = 10.0
        law = exact_law(JG, 2)
        p1 = sum(pr for cfg, pr in law.support if h_tail(cfg, 2) == 1)
        assert p1 == pytest.approx(gamma / (2 * (gamma + 1)), abs=1e-12)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            exact_law(QHAHN, 5, bound=3)

    def test_inadmissible_regime_detected(self):
        bad = ModelSpec.qhahn(Q, DELTA, B=(0.09,), C=(Q,), J=(1,))
        with pytest.raises(InadmissibleWeights):
            exact_law(bad, 2)


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
        exact = law.mean(lambda cfg: h_tail(cfg, 2))
        assert abs(est.mean - exact) < 4 * est.stderr

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
        for x in range(1, 5):
            exact = law.mean(lambda cfg, x=x: h_tail(cfg, x))
            got = ests[x - 1]
            tol = 4 * got.stderr + 1e-12
            assert abs(got.mean - exact) < tol

    def test_frequencies_per_configuration(self):
        # Sharper oracle comparison: per-configuration frequencies within
        # four binomial standard errors for every configuration of mass
        # above 1e-3.
        n = 100000
        law = exact_law(QHAHN, 3)
        counts = {}
        ens = _ensemble_rows(
            QHAHN, 3, n, np.random.default_rng(np.random.SeedSequence(99)))
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
        # J + 1 = 40001: the table holds only the (occupancy, key) pairs
        # present, and at time 0 every site is empty.
        real = models._pep_stay
        monkeypatch.setattr(
            models, "_pep_stay",
            lambda spec, eta, key: real(spec, eta, key) + 1e-9 * (eta == 0))
        with pytest.raises(InadmissibleWeights, match=r"at time 0$"):
            run_ensemble(ModelSpec.jgamma_pep(J=40000, gamma=1e6), 2, 3, 1,
                         [lambda st: 0.0])

    @PEP_SPECS
    def test_late_stay_error_names_site(self, monkeypatch, spec):
        # From time 100 on, after the band has moved, the occupancy-1
        # entries of the table read 1.5: the first site holding exactly
        # one particle in some sample at time 100 names the error.  The
        # bit-sliced engine steps all 64 lanes of its one word.
        if keyless(spec):
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
        ModelSpec.asym_pep(0.25, 0.0), ModelSpec.jgamma_pep(J=2, gamma=7.0)],
        ids=["asym-d0", "jgamma-J2"])
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

    @pytest.mark.parametrize("J", [1, 2])
    def test_late_upsilon_error_names_site(self, monkeypatch, J):
        # From time 100 on every key reads 1000 lower, so Upsilon < gamma
        # first at the minimal key of the time-100 window, site by site
        # (the window the oracle keeps, past the band's right end too).
        spec = ModelSpec.jgamma_pep(J, 2.0 * J + 5.0)
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
        exact = law.mean(lambda cfg: h_tail(cfg, 2))
        assert abs(est.mean - exact) < 4 * est.stderr + 1e-12


class TestWindowEngine:
    @pytest.mark.parametrize("spec", [
        ModelSpec.asym_pep(0.25, 0.0), ModelSpec.asym_pep(0.25, -0.5),
        ModelSpec.jgamma_pep(J=1, gamma=3.0),
        ModelSpec.jgamma_pep(J=2, gamma=7.0)],
        ids=["asym-d0", "asym-d-0.5", "jgamma-J1", "jgamma-J2"])
    def test_matches_suffix_cumsum_oracle(self, spec):
        lo, width = assert_engine_matches_oracle(spec, 80, 20, 5)
        # The window advanced and grew by 64 past its first 8 sites.
        assert lo > 1 and lo + width - 1 >= 72

    @settings(max_examples=40)
    @given(st.one_of(
        st.builds(ModelSpec.asym_pep, st.floats(0.01, 0.99),
                  st.one_of(st.just(0.0), st.floats(-1e3, 0.0))),
        st.builds(lambda J, extra: ModelSpec.jgamma_pep(J, J + 2 + extra),
                  st.integers(1, 3), st.integers(0, 20))),
        st.integers(1, 60), st.integers(1, 12), st.integers(0, 2 ** 20))
    def test_matches_oracle_property(self, spec, N, samples, seed):
        assert_engine_matches_oracle(spec, N, samples, seed)

    @PEP_SPECS
    def test_band_moves_match_oracle(self, spec):
        trace = []
        lo, width = assert_engine_matches_oracle(spec, 200, 3, 7, trace)
        grow = models._WINDOW_GROW
        if not keyless(spec):  # the height buffer of _ensemble_pep
            # The origin starts _WINDOW_GROW rows before site 1 and moves
            # left one row a step and right with lo: at time t it is used
            # up once t - lo_t + 1 reaches _WINDOW_GROW, and the band must
            # move.
            los = [1] + [lo_t for lo_t, _ in trace[:-1]]
            assert max(t - lo_t + 1 for t, lo_t in enumerate(los)) >= grow + 8
            # The right end passed 8 + _WINDOW_GROW, so the heights reach
            # the window's second extent.
            assert lo + width - 1 >= 8 + 2 * grow
        # lo never advances by two sites in one step: a site left not full
        # in some sample keeps its right neighbour below J + 1 there, so
        # the engine's advance loop runs at most once a step.
        assert {k for _, k in trace} == {0, 1}

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
    ens = _ensemble_pep(spec, N, samples, _trajectory_rng(seed, 0))
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
    """asym_pep at delta = 0 on the bit-sliced engine: its law against
    exact_law, its Bernoulli words against exact rational comparisons, and
    its padding lanes."""

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
        ens = _ensemble_pep(spec, 40, samples, _trajectory_rng(3, 0))
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
            exact = law.mean(lambda cfg: h_tail(cfg, x))
            assert abs(est.mean - exact) <= 5 * est.stderr + 1e-12, x


class TestCornerView:
    def test_wedge_at_time_zero(self):
        st = initial_state(JG)
        for pos, h in corner_view(st).items():
            assert h == 2 * abs(pos)

    def test_time_one_deterministic(self):
        st = step(initial_state(JG, seed=1), JG)
        view = corner_view(st)
        assert view[-0.5] == 1 and view[0.5] == 1 and view[1.5] == 3

    def test_heights_dominate_wedge(self):
        st = initial_state(JG, seed=6)
        for _ in range(8):
            st = step(st, JG)
        for pos, h in corner_view(st).items():
            assert h >= 2 * abs(pos) - 1e-9

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_symmetric_limit_matches_midpoint_model(self, t):
        pep = ModelSpec.jgamma_pep(J=1, gamma=1e12)
        via_pep = corner_view_exact(pep, t)
        grid = [x - t / 2.0 - 1.0 for x in range(1, t + 3)]
        direct = corner_heights_exact(ModelSpec.corner(0.5), t, grid)
        keys = set(via_pep) | set(direct)
        tv = 0.5 * sum(abs(via_pep.get(k, 0.0) - direct.get(k, 0.0))
                       for k in keys)
        assert tv < 1e-9


class TestKappaBookkeeping:
    def test_qhahn_incremental_equals_closed(self):
        assert kappa_audit(QHAHN, 6, seed=3) > 10

    def test_asym_incremental_equals_closed(self):
        assert kappa_audit(ASYM, 8, seed=3) > 15

    def test_general_incremental_equals_closed(self):
        gen = ModelSpec.general(Q, DELTA, U=(1.05,), Xi=(S_IM,), S=(S_IM,),
                                J=(1,))
        assert kappa_audit(gen, 5, seed=1) > 8


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

    @pytest.mark.parametrize("N, samples", [(-1, 5), (3, 0)])
    def test_bad_sizes_rejected(self, N, samples):
        with pytest.raises(ValueError, match="at least one sample"):
            run_ensemble(JG, N, samples, 1, [])

    def test_squares_do_not_wrap(self):
        # The engine stores int16 here, and h(1) = 400 squares past it.
        spec, N, samples, seed = ModelSpec.jgamma_pep(1, 1e12), 400, 20, 7
        ens = _ensemble_pep(spec, N, samples, _trajectory_rng(seed, 0))
        assert ens.heights.dtype == np.int16
        ref = oracle_heights(spec, N, samples, seed)
        sites = range(1, N + 3)
        obs = [lambda ens, x=x: current(ens, x) ** 2 for x in sites]
        for x, est in zip(sites, run_ensemble(spec, N, samples, seed, obs)):
            assert est.mean == np.mean((ref[:, x - 1] ** 2).astype(float)), x


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
        # engine, value for value.
        ens = _ensemble_rows(spec, N, samples, _trajectory_rng(seed, 0))
        ref = prior.ensemble_qhahn(spec, N, samples, _trajectory_rng(seed, 0))
        assert (ens.time, ens.left) == (ref.time, ref.left)
        assert np.array_equal(ens.heights, ref.heights)

    def test_qhahn_error_equals_prior_engine(self):
        # At N = 5 the two-row parameters meet a negative weight.
        spec = ModelSpec.qhahn(Q, DELTA, B=(B0, 2 * B0), C=(Q, Q * Q),
                               J=(1, 2))
        errors = []
        for engine in (_ensemble_rows, prior.ensemble_qhahn):
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
        if spec.is_corner:
            (heights, left), _ = law.support[0]
            sites = [left + j for j in range(len(heights))]

            def h(cfg, x):
                return cfg[0][round(x - left)]
        else:
            sites, h = range(1, N + 3), h_tail
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
