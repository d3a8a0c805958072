"""Scaling-limit layer: closed-form evaluators against independent
oracles, and structural checks of the desk-scale experiments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_models as oracle
import prior_asymptotics as prior
from dynvertex import asymptotics
from dynvertex.asymptotics import (
    GammaLaw,
    experiment,
    gamma_moment,
    heat_profile,
    lln_shapes,
)
from dynvertex.errors import Check, OutOfDomain
from dynvertex.models import ModelSpec, exact_law
from dynvertex.observables import ObservableSpec, rhs_exact

Q = 0.25


def line_integral_profile(s, r, J, n=1001):
    """H(s, r) from its contour-integral representation on 1 + iR, by the
    trapezoid rule.  z = 1 + it; the Gaussian envelope exp(rJ(1 - t^2)/2)
    truncates the line once it falls below 1e-14 relative to its peak.  The
    integrand is conjugate-symmetric in t, so the integral is twice the
    half-line integral of its real part, which is even in t: the trapezoid
    rule converges geometrically."""
    rj, a = r * J, J + 1.0
    tmax = math.sqrt(1.0 + 2.0 * 14.0 * math.log(10.0) / rj)
    t, dt = np.linspace(0.0, tmax, n, retstep=True)
    z = 1.0 + 1j * t
    f = (np.exp(0.5 * rj * z * z - s * a * z) / (z * z)).real
    # Top-to-bottom orientation of the line makes the result positive.
    return dt * (f.sum() - 0.5 * (f[0] + f[-1])) / math.pi


class TestHeatProfile:
    @pytest.mark.parametrize("r,J", [(1.0, 1), (2.0, 3)])
    def test_origin_value(self, r, J):
        assert heat_profile(0.0, r, J) == pytest.approx(
            math.sqrt(r * J / (2 * math.pi)), abs=1e-8)

    @pytest.mark.parametrize("s,r,J", [
        (-0.7, 1.3, 1), (0.4, 0.6, 2), (-1.2, 2.0, 3), (0.9, 3.7, 2),
    ])
    def test_matches_gaussian_smoothing(self, s, r, J):
        # heat_profile is the Gaussian smoothing in closed form; the
        # independent oracle is the line integral over 1 + iR.
        assert heat_profile(s, r, J) == pytest.approx(
            line_integral_profile(s, r, J), abs=1e-10)

    def test_small_time_wedge(self):
        assert heat_profile(-0.3, 1e-4, 1) == pytest.approx(0.6, abs=1e-3)
        assert heat_profile(0.3, 1e-4, 1) == pytest.approx(0.0, abs=1e-3)

    def test_far_right_decay(self):
        assert abs(heat_profile(5.0, 1.0, 1)) < 1e-4

    def test_positive_time_required(self):
        with pytest.raises(ValueError):
            heat_profile(0.0, 0.0, 1)

    @pytest.mark.parametrize("s,r,J", [(0.3, 1.0, 1), (-0.5, 0.8, 2)])
    def test_pde_residual(self, s, r, J):
        h = 1e-3
        dr = (heat_profile(s, r + h, J) - heat_profile(s, r - h, J)) / (2 * h)
        dss = (heat_profile(s + h, r, J) - 2 * heat_profile(s, r, J)
               + heat_profile(s - h, r, J)) / h ** 2
        assert abs(2 * (J + 1) ** 2 * dr - J * dss) < 1e-4


class TestGammaLaw:
    def test_moment_values(self):
        law = GammaLaw(a=3.0, b=2.0)
        assert gamma_moment(law, 0) == 1.0
        assert gamma_moment(law, 1) == pytest.approx(1.5)
        assert gamma_moment(law, 2) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaLaw(a=0.0, b=1.0)
        with pytest.raises(ValueError):
            gamma_moment(GammaLaw(1.0, 1.0), -1)


def corner_shapes(q, s):
    """(M(s), F(s)), the asymmetric corner growth model's shapes: the
    exclusion shapes through the corner map, M(s) = 2s + 2 m(s + 1/2) and
    F(s) = 2 f(s + 1/2), at a slope s in (-(1-q)/(2(1+q)), (1-q)/(2(1+q)))."""
    return (2.0 * s + 2.0 * lln_shapes(q, "m", s + 0.5),
            2.0 * lln_shapes(q, "f", s + 0.5))


class TestLlnShapes:
    def test_density_edges(self):
        p = 1.0 / (1.0 + Q)
        eps = 1e-12
        assert lln_shapes(Q, "m", p - eps) == pytest.approx(0.0, abs=1e-6)
        assert lln_shapes(Q, "m", 1 - p + eps) == pytest.approx(
            (1 - Q) / (1 + Q), abs=1e-6)

    def test_slope_edges(self):
        half = 0.5 * (1 - Q) / (1 + Q)
        eps = 1e-12
        assert corner_shapes(Q, half - eps)[0] == pytest.approx(
            2 * half, abs=1e-5)
        assert corner_shapes(Q, -half + eps)[0] == pytest.approx(
            2 * half, abs=1e-5)

    def test_f_positive_inside(self):
        for eta in (0.35, 0.5, 0.72):
            assert lln_shapes(Q, "f", eta) > 0
        for s in (-0.2, 0.0, 0.25):
            assert corner_shapes(Q, s)[1] > 0

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            lln_shapes(Q, "m", 0.9)
        with pytest.raises(OutOfDomain):
            lln_shapes(1.5, "m", 0.5)
        # only the exclusion shapes are kept; the corner ones are their map
        for which in ("M", "F", "bogus"):
            with pytest.raises(ValueError, match="'m' or 'f'"):
                lln_shapes(Q, which, 0.1)

    @settings(max_examples=200)
    @given(st.floats(0.02, 0.98), st.floats(-0.999, 0.999))
    def test_corner_shapes_equal_prior_closed_forms(self, q, u):
        # M and F through the corner map equal their closed forms in s.
        half = 0.5 * (1 - q) / (1 + q)
        s = u * half
        M, F = corner_shapes(q, s)
        assert M == pytest.approx(prior.corner_shape_M(q, s), rel=1e-10)
        assert F == pytest.approx(prior.corner_shape_F(q, s), rel=1e-10)
        for edge in (1.001 * half, -1.001 * half):
            with pytest.raises(OutOfDomain):
                corner_shapes(q, edge)
        for which in ("m", "f"):
            for eta in (q / (1 + q), 1 / (1 + q)):
                with pytest.raises(OutOfDomain):
                    lln_shapes(q, which, eta)


class TestExperiments:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            experiment("bogus")

    def test_config_is_keyword_parameters(self):
        run = experiment("f_collapse", {"T": 16, "samples": 20})
        assert run.config == {"q": 0.25, "T": 16,
                              "eta_list": (0.4, 0.5, 0.6), "samples": 20}
        with pytest.raises(TypeError, match="smaples"):
            experiment("f_collapse", {"T": 16, "smaples": 20})
        with pytest.raises(TypeError):
            experiment("f_collapse", {"seed": 3})

    def test_kpz_needs_two_horizons(self):
        with pytest.raises(ValueError, match="two distinct"):
            experiment("kpz_exponent", {"T_list": [64, 64], "samples": 20})

    def test_heat_lln_small(self):
        rep = experiment("heat_lln", {"T": 400, "samples": 4000},
                         seed=1).report
        assert rep["kind"] == "heat_lln"
        assert rep["n_samples"] == 4000
        # loose finite-size gate at this tiny horizon
        assert rep["rel_error"] < 0.25
        assert rep["ci95"][0] < rep["mc_mean"] < rep["ci95"][1]

    def test_heat_lln_deterministic(self):
        a = experiment("heat_lln", {"T": 64, "samples": 500}, seed=9)
        b = experiment("heat_lln", {"T": 64, "samples": 500}, seed=9)
        assert a == b

    def test_dynamic_gamma_small(self):
        rep = experiment("dynamic_gamma",
                         {"T": 800, "samples": 2000, "gamma": 3.0},
                         seed=2).report
        assert set(rep["moments"]) == {1, 2}
        for d in rep["moments"].values():
            assert d["mc_stderr"] > 0
            # slow quartic-scale convergence: only a coarse gate here
            assert d["rel_error"] < 0.8

    def test_kpz_exponent_structure(self):
        cfg = {"T_list": (100, 200, 400), "samples": 800}
        rep = experiment("kpz_exponent", cfg, seed=3).report
        stds = [p["std"] for p in rep["points"]]
        assert all(b > a for a, b in zip(stds, stds[1:]))
        assert 0.1 < rep["fitted_exponent"] < 0.6
        err = rep["fitted_exponent_stderr"]
        assert math.isfinite(err) and err > 0
        assert experiment("kpz_exponent", cfg, seed=3).report[
            "fitted_exponent_stderr"] == err

    def test_f_collapse_structure(self):
        rep = experiment("f_collapse",
                         {"T": 400, "samples": 800}, seed=4).report
        assert len(rep["rows"]) == 3
        for row in rep["rows"]:
            assert row["normalized_std"] > 0
            assert abs(row["lln_mean"] - row["lln_target"]) < 0.05
        assert rep["pairwise_spread"] < 0.5

    def test_corner_quartic_small(self):
        # gamma's corner block carries the values of the corner-quartic
        # experiment it replaced, bit for bit.
        run = experiment("dynamic_gamma", {"T": 800, "samples": 1500},
                         seed=5)
        rep = run.report
        assert rep["height_scale"] == "zeta(0) = 2 * current(T/2 + 1)"
        corner = rep["corner_moments"]
        assert (corner[1]["corner_value"], corner[2]["corner_value"]) == (
            4.778533346354529, 28.62432)
        assert (corner[1]["corner_target"], corner[2]["corner_target"]) == (
            4.787307364817193, 30.557749073643905)
        for m, d in rep["moments"].items():
            assert corner[m]["corner_value"] == 4.0 ** m * d["mc_mean"]
        assert run.checks == [
            Check("factorial_moment_m%d" % m, value=d["mc_mean"],
                  residual=d["rel_error"]) for m, d in rep["moments"].items()]

    @pytest.mark.parametrize("config", [
        {"J": 2, "gamma": 5.0}, {"s": 0.5}, {"T": 15}],
        ids=["J2", "s0.5", "odd-N"])
    def test_no_corner_block_off_the_origin(self, config):
        # Only at J = 1, s = 0 and an even step count is the identity site
        # the corner origin.
        rep = experiment("dynamic_gamma",
                         {"T": 16, "samples": 20, **config}).report
        assert "corner_moments" not in rep
        assert "height_scale" not in rep


def exact_mean(spec, N, fn):
    """Mean of the observable fn over the exact law after N steps, read
    from the Ensemble of the law's configurations."""
    law = exact_law(spec, N)
    ens = oracle.occupancy_ensemble(spec, N, [cfg for cfg, _ in law.support])
    return sum(pr * v for (_, pr), v in zip(law.support, fn(ens)))


def exact_rhs(x, N):
    """The right side of the J = 1, k = 1 PEP identity at site x after N
    steps, which does not depend on gamma."""
    return float(rhs_exact(
        ObservableSpec(ModelSpec.jgamma_pep(1, 3.0), (x,), N)))


class TestIdentitySite:
    """The experiments read the current where the PEP identity reads h(x):
    at J = 1 its k = 1 case is E[h(h - P + gamma)] = -gamma * RHS, with
    h = h(x) and P = N - 2x, and its gamma -> inf limit E[h] = -RHS."""

    @pytest.mark.parametrize("gamma", [3.0, 5.0])
    @pytest.mark.parametrize("T, s, x", [(8, 0.0, 4), (10, 0.6, 6)])
    def test_gamma_m1_is_the_exact_identity(self, gamma, T, s, x):
        model = ModelSpec.jgamma_pep(1, gamma)
        got_x, N, (fn,) = asymptotics._gamma_observables(model, 1.0, s, T,
                                                         (1,))
        assert (got_x, N) == (x, T)
        mean = exact_mean(model, N, fn)
        assert mean == pytest.approx(
            -gamma * exact_rhs(x, N) / math.sqrt(T), rel=1e-12)

    def test_gamma_m1_value(self):
        # E[h(5)(h(5) + 3)] = 3.28125 after 8 steps.
        model = ModelSpec.jgamma_pep(1, 3.0)
        _, _, (fn,) = asymptotics._gamma_observables(model, 1.0, 0.0, 8,
                                                     (1,))
        assert exact_mean(model, 8, fn) * \
            math.sqrt(8) == pytest.approx(3.28125, rel=1e-12)

    def test_default_heat_within_5_sigma_of_exact(self):
        # The default run (T = 1600, 20000 samples, gamma = inf, the
        # bit-sliced engine) against the exact E[h(800)] / 40 = -RHS / 40
        # = 0.39888 of the identity.
        rep = experiment("heat_lln", seed=0).report
        exact = -exact_rhs(800, 1600) / 40
        assert abs(exact - 0.39888) < 1e-5
        assert abs(rep["mc_mean"] - exact) <= 5 * rep["mc_stderr"]

    @pytest.mark.parametrize("N", range(1, 9))
    def test_heat_model_is_the_identity_limit(self, N):
        # heat's model, gamma = inf, gives E[h(x + 1)] = -RHS(x) exactly at
        # every site: each stay chance is 1/2, so the law is dyadic.
        law = exact_law(ModelSpec.jgamma_pep(1, math.inf), N)
        for x in range(1, N + 2):
            mean = law.mean(lambda cfg: sum(cfg[x:]))
            assert mean == -exact_rhs(x, N)

    @pytest.mark.parametrize("p", [4.0, 4.25])
    def test_heat_reads_identity_sites(self, p):
        # heat's observable reads E[h(x)] = -RHS at the identity sites and
        # interpolates linearly between them.
        T = 8
        fn, x = asymptotics._heat_observable((p - 4.0) / math.sqrt(T), 1.0,
                                             1, T)
        assert x == 4
        frac = p - x
        want = -((1 - frac) * exact_rhs(4, T)
                 + frac * exact_rhs(5, T)) / math.sqrt(T)
        mean = exact_mean(ModelSpec.jgamma_pep(1, math.inf), T, fn)
        assert mean == pytest.approx(want, rel=1e-12)
