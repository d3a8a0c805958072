"""Particle-system samplers: transition laws, exact small-system oracle,
vectorized ensemble engines, and the height-function views."""

import math

import numpy as np
import pytest

from dynvertex.errors import (
    InadmissibleParameters,
    InadmissibleWeights,
    SizeLimit,
)
from dynvertex.models import (
    ModelSpec,
    corner_heights_exact,
    corner_view,
    corner_view_exact,
    current,
    exact_law,
    initial_state,
    kappa_audit,
    run_ensemble,
    step,
)

Q = 0.4
DELTA = -0.2
B0 = -0.3  # s^2 for the stochastic regime (s imaginary)
S_IM = 1j * math.sqrt(-B0)

QHAHN = ModelSpec.qhahn(Q, DELTA, B=(B0,), C=(Q,), J=(1,))
JG = ModelSpec.jgamma_pep(J=1, gamma=10.0)
ASYM = ModelSpec.asym_pep(0.25, -0.5)


def h_tail(cfg, x):
    """Particles at sites >= x of an occupancy tuple."""
    return sum(cfg[x - 1:]) if x - 1 < len(cfg) else 0


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
        c = run_ensemble(JG, 3, 200, 23, obs, vectorized=False)[0]
        d = run_ensemble(JG, 3, 200, 23, obs, vectorized=False)[0]
        assert c == d

    def test_jgamma_mean_within_4_sigma(self):
        law = exact_law(JG, 2)
        est = run_ensemble(JG, 2, 20000, 31,
                           [lambda st: current(st, 2)])[0]
        exact = law.mean(lambda cfg: h_tail(cfg, 2))
        assert abs(est.mean - exact) < 4 * est.stderr

    @pytest.mark.parametrize("vectorized", [True, False],
                             ids=["vector", "scalar"])
    @pytest.mark.parametrize("spec", [QHAHN, JG, ASYM],
                             ids=["qhahn", "jgamma", "asym"])
    def test_frequencies_match_exact_law(self, spec, vectorized):
        n = 100000 if vectorized else 4000
        law = exact_law(spec, 3)
        # Joint law of the height vector determines the configuration.
        obs = [lambda st, x=x: current(st, x) for x in range(1, 5)]
        ests = run_ensemble(spec, 3, n, 57, obs, vectorized=vectorized)
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
        from dynvertex.models import _ensemble_qhahn
        views = _ensemble_qhahn(
            QHAHN, 3, n, np.random.default_rng(np.random.SeedSequence(99)))
        for v in views:
            cfg = tuple(v._hcur(x) - v._hcur(x + 1) for x in range(1, 5))
            cfg = tuple(int(c) for c in cfg)
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
            h1, h2, h3 = run_ensemble(spec, 2, 10, 1, obs,
                                      vectorized=vectorized)
            assert (h1.mean, h3.mean) == (80000, 0)
            assert 39999 <= h2.mean <= 40000

    def test_asym_mean_matches_exact(self):
        law = exact_law(ASYM, 3)
        est = run_ensemble(ASYM, 3, 40000, 3,
                           [lambda st: current(st, 2)])[0]
        exact = law.mean(lambda cfg: h_tail(cfg, 2))
        assert abs(est.mean - exact) < 4 * est.stderr + 1e-12


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
