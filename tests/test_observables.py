"""Moment-identity layer: exact enumeration vs contour quadrature vs Monte
Carlo, delta-independence, and contour geometry validation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynvertex import observables
from dynvertex.errors import ContourInfeasible, NotConverged, SizeLimit
from dynvertex.models import ModelSpec
from dynvertex.observables import (
    ContourSpec,
    ObservableSpec,
    identity_check,
    lhs_exact,
    lhs_mc,
    rhs_quadrature,
    solve_contours,
)

Q = 0.4
QHAHN = ModelSpec.qhahn(Q, -0.2, B=(-0.3,), C=(Q,), J=(1,))
PEP = ModelSpec.jgamma_pep(J=1, gamma=5.0)


def qhahn_model(q=Q, delta=-0.2, b=-0.3, J=1):
    return ModelSpec.qhahn(q, delta, B=(b,), C=(q ** J,), J=(J,))


def assert_identity(spec):
    """rhs_quadrature within 1e-9 * min(1, |lhs_exact|) (absolute at 0)."""
    ex = lhs_exact(spec)
    assert abs(ex - rhs_quadrature(spec)) < 1e-9 * (min(1.0, abs(ex)) or 1.0)


class TestObservableSpec:
    def test_variant_restricted(self):
        with pytest.raises(ValueError):
            ObservableSpec(ModelSpec.asym_pep(0.25, -0.5), (1,), 2)

    def test_sites_positive(self):
        with pytest.raises(ValueError):
            ObservableSpec(QHAHN, (0,), 2)
        with pytest.raises(ValueError):
            ObservableSpec(QHAHN, (), 2)

    def test_sites_weakly_decreasing(self):
        # The identity pairs the j-th factor with the j-th listed site, so
        # the probe order matters; increasing order is rejected.
        with pytest.raises(ValueError):
            ObservableSpec(QHAHN, (1, 2), 3)
        ObservableSpec(QHAHN, (2, 2, 1), 3)

    def test_form(self):
        assert ObservableSpec(QHAHN, (1,), 1).form == "qhahn"
        assert ObservableSpec(PEP, (1,), 1).form == "pep"


class TestHandCases:
    def test_single_residue_value(self):
        # k=1, x=1, N=1, c1=q: the only enclosed pole is z=1 and its
        # residue gives q-1 on the integral side; the expectation side is
        # deterministic and collapses to the same value.
        spec = ObservableSpec(QHAHN, (1,), 1)
        assert rhs_quadrature(spec) == pytest.approx(Q - 1, abs=1e-10)
        assert lhs_exact(spec) == pytest.approx(Q - 1, abs=1e-12)
        est = lhs_mc(spec, 50, 5)
        assert est.mean == pytest.approx(Q - 1, abs=1e-12)
        assert est.stderr == 0.0

    def test_pep_poleless_integrand(self):
        # PEP form, k=1, J=1, N=1, x=1: the integrand (y-2)(y-1)/y^2 has
        # no pole inside a contour that excludes 0, so the integral is 0.
        spec = ObservableSpec(PEP, (1,), 1)
        assert rhs_quadrature(spec) == pytest.approx(0.0, abs=1e-12)
        assert lhs_exact(spec) == pytest.approx(0.0, abs=1e-12)


class TestExactVersusQuadrature:
    @pytest.mark.parametrize("xs,N,J", [
        ((2,), 2, 1), ((2, 1), 3, 1), ((1, 1), 2, 1),
        ((2, 1), 3, 2), ((3, 2), 3, 2), ((2, 2, 1), 3, 1),
    ])
    def test_qhahn(self, xs, N, J):
        assert_identity(ObservableSpec(qhahn_model(J=J), xs, N))

    def test_qhahn_k4(self):
        spec = ObservableSpec(qhahn_model(q=0.75), (1, 1, 1, 1), 4)
        assert lhs_exact(spec) == pytest.approx(0.00769317266531289,
                                                rel=1e-12)
        assert_identity(spec)

    @pytest.mark.parametrize("xs,N,J,gamma", [
        ((2,), 3, 1, 5.0), ((1,), 2, 2, 7.0), ((3,), 3, 2, 7.0),
        ((2, 1), 3, 1, 5.0), ((2, 2), 3, 2, 7.0), ((2, 2), 3, 1, 12.0),
    ])
    def test_pep(self, xs, N, J, gamma):
        m = ModelSpec.jgamma_pep(J=J, gamma=gamma)
        assert_identity(ObservableSpec(m, xs, N))

    @pytest.mark.parametrize("q", [0.3, 0.5])
    @pytest.mark.parametrize("delta", [0.0, -0.5])
    @pytest.mark.parametrize("J", [1, 2])
    def test_parameter_grid(self, q, delta, J):
        assert_identity(
            ObservableSpec(qhahn_model(q, delta, -0.05, J), (2, 1), 3))


class TestDeltaDependence:
    def test_lhs_delta_independent(self):
        vals = [lhs_exact(ObservableSpec(qhahn_model(delta=d, b=-0.1),
                                         (2, 1), 3))
                for d in (-0.3, -1.7)]
        assert abs(vals[0] - vals[1]) < 1e-12

    def test_delta_zero_reduction(self):
        # delta -> 0 continuously matches the non-dynamical functional.
        at_zero = lhs_exact(ObservableSpec(qhahn_model(delta=0.0), (2, 1), 3))
        near_zero = lhs_exact(
            ObservableSpec(qhahn_model(delta=-1e-9), (2, 1), 3))
        assert abs(at_zero - near_zero) < 1e-6
        spec = ObservableSpec(qhahn_model(delta=0.0), (2, 1), 3)
        assert abs(at_zero - rhs_quadrature(spec)) < 1e-9

    def test_rhs_has_no_delta(self):
        a = rhs_quadrature(ObservableSpec(qhahn_model(delta=-0.05), (2,), 2))
        b = rhs_quadrature(ObservableSpec(qhahn_model(delta=-0.3), (2,), 2))
        assert a == b


class TestContours:
    def test_solver_feasible_k3_multiplicative(self):
        spec = ObservableSpec(qhahn_model(J=2), (2, 2, 1), 3)
        contour = solve_contours(spec)
        assert len(contour.circles) == 3
        assert all(c - r > 0 for c, r in contour.circles)

    def test_pep_k3_infeasible(self):
        # Three levels of -1 shifts push a real-centered circle onto 0.
        spec = ObservableSpec(PEP, (2, 2, 1), 3)
        with pytest.raises(ContourInfeasible):
            solve_contours(spec)

    def test_contour_independence_qhahn(self):
        spec = ObservableSpec(QHAHN, (2, 1), 3)
        a = rhs_quadrature(spec)
        b = rhs_quadrature(
            spec, ContourSpec(circles=((1.0, 0.3), (2.2, 1.5))))
        # identical small circles also exclude every cross pole at J=1
        c = rhs_quadrature(
            spec, ContourSpec(circles=((1.0, 0.3), (1.0, 0.3))))
        assert abs(a - b) < 1e-8
        assert abs(a - c) < 1e-8

    def test_contour_independence_pep(self):
        spec = ObservableSpec(PEP, (2, 1), 3)
        a = rhs_quadrature(spec)
        b = rhs_quadrature(
            spec, ContourSpec(circles=((2.0, 0.6), (1.4, 1.25))))
        assert abs(a - b) < 1e-8

    def test_cluster_must_be_enclosed(self):
        spec = ObservableSpec(qhahn_model(J=2), (1,), 2)
        with pytest.raises(ContourInfeasible):
            # misses 1/q = 2.5
            rhs_quadrature(spec, ContourSpec(circles=((1.0, 0.5),)))

    def test_zero_must_be_excluded(self):
        spec = ObservableSpec(QHAHN, (1,), 1)
        with pytest.raises(ContourInfeasible):
            rhs_quadrature(spec, ContourSpec(circles=((1.0, 1.5),)))

    def test_b_pole_excluded(self):
        spec = ObservableSpec(qhahn_model(b=0.5), (2,), 2)
        with pytest.raises(ContourInfeasible):
            rhs_quadrature(spec, ContourSpec(circles=((0.8, 0.5),)))

    def test_nesting_checked(self):
        spec = ObservableSpec(QHAHN, (2, 1), 3)
        with pytest.raises(ContourInfeasible):
            # second circle crosses the 1/q image of the first
            rhs_quadrature(
                spec, ContourSpec(circles=((1.0, 0.3), (1.7, 1.0))))

    def test_not_converged_near_pole(self):
        spec = ObservableSpec(QHAHN, (1,), 1)
        with pytest.raises(NotConverged):
            rhs_quadrature(
                spec, ContourSpec(circles=((1.5, 0.5005),)))

    def test_k4_budget(self, monkeypatch):
        # The exact value is 0 (h(1) = N zeroes the last factor) and the
        # doubling approaches it slowly: it must either converge to 0 or
        # raise NotConverged without a pass beyond n^4 <= 2^32.
        passes = []
        quad_once = observables._quad_once

        def spy(spec, contour, n):
            passes.append(n)
            return quad_once(spec, contour, n)

        monkeypatch.setattr(observables, "_quad_once", spy)
        spec = ObservableSpec(QHAHN, (2, 2, 1, 1), 3)
        assert lhs_exact(spec) == 0.0
        try:
            assert abs(rhs_quadrature(spec)) < 1e-9
        except NotConverged:
            pass
        assert passes[0] == 32 and max(passes) ** 4 <= 2 ** 32

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            rhs_quadrature(ObservableSpec(QHAHN, (1,), 1), tol=0.0)

    @pytest.mark.parametrize("imag, ok", [(1e-14, True), (1e-12, False)])
    def test_imag_part_relative(self, imag, ok, monkeypatch):
        # A value of 1e-5 carries at most tol * 1e-5 = 1e-13 of imaginary
        # part (an absolute 1e-9 bound would accept 1e-12).
        monkeypatch.setattr(observables, "_quad_once",
                            lambda spec, contour, n: (1e-5 + imag * 1j, 0.0))
        spec = ObservableSpec(QHAHN, (1,), 1)
        if ok:
            assert rhs_quadrature(spec) == 1e-5
        else:
            with pytest.raises(NotConverged, match="imaginary part"):
                rhs_quadrature(spec)

    def test_bad_node_count(self):
        with pytest.raises(ValueError):
            ContourSpec(circles=((1.0, 0.3),), nodes_per_circle=500)


@st.composite
def contraction_draws(draw):
    """Random complex single factors g_j and pair matrices for k <= 4
    variables with n <= 6 nodes each.  Node a of variable j is the integer
    j * n + a, so cross(zi, zj) is a lookup in one (k n) x (k n) matrix."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return k, n, [cplx(n) for _ in range(k)], cplx(k * n, k * n)


class TestContraction:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(contraction_draws())
    def test_matches_brute_force(self, draw):
        k, n, g, cross = draw
        z = [j * n + np.arange(n) for j in range(k)]
        terms = [np.prod([g[j][a[j]] for j in range(k)])
                 * np.prod([cross[z[i][a[i]], z[j][a[j]]]
                            for i in range(k) for j in range(i + 1, k)])
                 for a in itertools.product(range(n), repeat=k)]
        got = observables._contract(z, g, lambda zi, zj: cross[zi, zj])
        assert abs(got - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_row_blocks(self, k, monkeypatch):
        # Blocks of 2 rows over n = 5 nodes (a short last block), in the
        # inner matrix and the three-variable step, give the one-block
        # value.
        n = 5
        rng = np.random.default_rng(k)
        g = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(k)]
        cross = rng.normal(size=(k * n, k * n))
        z = [j * n + np.arange(n) for j in range(k)]
        one = observables._contract(z, g, lambda zi, zj: cross[zi, zj])
        monkeypatch.setattr(observables, "_CONTRACT_ROWS", 2)
        blocked = observables._contract(z, g, lambda zi, zj: cross[zi, zj])
        assert abs(blocked - one) <= 1e-13 * abs(one)


class TestMonteCarlo:
    def test_qhahn_within_4_sigma(self):
        spec = ObservableSpec(QHAHN, (2, 1), 3)
        est = lhs_mc(spec, 40000, 11)
        assert abs(est.mean - lhs_exact(spec)) < 4 * est.stderr

    def test_pep_within_4_sigma(self):
        spec = ObservableSpec(PEP, (2,), 3)
        est = lhs_mc(spec, 40000, 13)
        assert abs(est.mean - lhs_exact(spec)) < 4 * est.stderr

    def test_deterministic(self):
        spec = ObservableSpec(QHAHN, (2,), 3)
        assert lhs_mc(spec, 500, 3) == lhs_mc(spec, 500, 3)


class TestIdentityCheck:
    def test_report_contents(self):
        spec = ObservableSpec(QHAHN, (2, 1), 3)
        rep = identity_check(spec, samples=4000, seed=7)
        assert rep["residual_exact_vs_quadrature"] < 1e-10
        assert rep["residual_mc_vs_quadrature_sigmas"] < 4.0
        assert rep["quadrature_diagnostics"]["doubling_change"] < 1e-8
        assert abs(rep["quadrature_diagnostics"]["imag_part"]) < 1e-12
        assert rep["contour"]["circles"]
        assert rep["conventions"]["pep_rhs_sign_per_variable"] == -1

    def test_size_limited_exact_is_none(self):
        spec = ObservableSpec(QHAHN, (2,), 3)
        rep = identity_check(spec, samples=0, exact_bound=2)
        assert rep["lhs_exact"] is None
        assert isinstance(rep["rhs_quadrature"], float)
