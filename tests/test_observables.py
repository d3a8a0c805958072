"""Moment-identity layer: exact enumeration vs contour quadrature vs Monte
Carlo, delta-independence, and contour geometry validation."""

import contextlib
import itertools
import math
import re
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import prior_observables as prior
from dynvertex import models, observables
from dynvertex.errors import (
    Check,
    ContourInfeasible,
    InadmissibleWeights,
    NotConverged,
    SizeLimit,
)
from dynvertex.models import MCEstimate, ModelSpec, exact_law
from dynvertex.observables import (
    ContourSpec,
    ObservableSpec,
    identity_check,
    lhs_exact,
    lhs_mc,
    rhs_exact,
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


@contextlib.contextmanager
def recorded(result=None):
    """The list, filled as they run, of the (counts, parity sums, floor)
    of every quadrature pass inside the block.  Each pass returns `result`
    when one is given, else what _quad_once returns; either way it takes
    _quad_once's arguments."""
    passes, quad_once = [], observables._quad_once

    def spy(spec, contour, ns, *args, **kwargs):
        out = result or quad_once(spec, contour, ns, *args, **kwargs)
        passes.append((list(ns),) + tuple(out))
        return out

    with mock.patch.object(observables, "_quad_once", spy):
        yield passes


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

    def test_circles_are_the_only_field(self):
        # The start count of the node schedule is a constant.
        assert ContourSpec.nodes_per_circle == 32
        assert ContourSpec(circles=[(1, 0.5)]).circles == ((1.0, 0.5),)
        with pytest.raises(TypeError):
            ContourSpec(circles=((1.0, 0.3),), nodes_per_circle=64)

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

    def test_k4_budget(self):
        # The exact value is 0 (h(1) = N zeroes the last factor) and the
        # doubling approaches it slowly: it must either converge to 0 or
        # raise NotConverged without a pass beyond 2^32 node tuples.
        spec = ObservableSpec(QHAHN, (2, 2, 1, 1), 3)
        assert lhs_exact(spec) == 0.0
        with recorded() as passes:
            try:
                assert abs(rhs_quadrature(spec)) < 1e-9
            except NotConverged:
                pass
        assert passes[0][0] == [64] * 4
        assert all(math.prod(p[0]) <= 2 ** 32 for p in passes)

    def test_underflowed_sum_not_converged(self):
        # asym_pep(0.25, 0) as its q-Hahn spec: at N = 400, x = 600 every
        # node's term underflows to 0, so the sum and its rounding floor
        # are 0 and the doubling rule would divide 0 by 0.  The first pass
        # has 1024 nodes: twice 512, the first power of two above N.
        spec = ObservableSpec(
            ModelSpec.qhahn(0.25, 0.0, B=(16.0,), C=(0.25,), J=(1,)),
            (600,), 400)
        with pytest.raises(NotConverged, match=r"^the sum at \[1024\] nodes "
                           r"per circle is 0j with rounding floor 0\.0: its "
                           r"terms overflowed or all underflowed$"):
            rhs_quadrature(spec)

    @pytest.mark.parametrize("value", [complex(math.inf, 0.0),
                                       complex(math.nan, 0.0)])
    def test_non_finite_sum_not_converged(self, value):
        with recorded((np.full(2, value), 1.0)), pytest.raises(
                NotConverged, match="overflowed"):
            rhs_quadrature(ObservableSpec(QHAHN, (1,), 1))

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            rhs_quadrature(ObservableSpec(QHAHN, (1,), 1), tol=0.0)

    @pytest.mark.parametrize("imag, ok", [(1e-14, True), (1e-12, False)])
    def test_imag_part_relative(self, imag, ok):
        # A value of 1e-5 carries at most tol * 1e-5 = 1e-13 of imaginary
        # part (an absolute 1e-9 bound would accept 1e-12).  Equal parity
        # sums make the pass agree with its halved pass.
        half = (1e-5 + imag * 1j) / 2
        spec = ObservableSpec(QHAHN, (1,), 1)
        with recorded((np.full(2, half), 0.0)):
            if ok:
                assert rhs_quadrature(spec) == 1e-5
            else:
                with pytest.raises(NotConverged, match="imaginary part"):
                    rhs_quadrature(spec)


class TestAliasing:
    # jgamma_pep J=1, gamma=3, x = N/2: the integrand has a pole of order
    # N - x at z = 2 inside the circle of radius 0.25.
    MODEL = ModelSpec.jgamma_pep(J=1, gamma=3.0)

    def test_pole_order_above_nodes_raises(self):
        # With 32 and 64 nodes two aliased passes agreed to 1e-9 on
        # -2.08e42; the true value, about -5.6, lies far below the
        # rounding floor on this circle.  The first pass has 256 nodes, so
        # its halved pass has 128, the first power of two above N - x.
        with recorded() as passes, pytest.raises(NotConverged,
                                                 match="rounding floor"):
            rhs_quadrature(ObservableSpec(self.MODEL, (100,), 200))
        assert passes[0][0] == [256]

    def test_qhahn_starts_above_the_cluster_multiplicity(self):
        # z = 1 is a pole of order N = 40; two circles of different radii
        # give the same value.
        spec = ObservableSpec(QHAHN, (1,), 40)
        with recorded() as passes:
            small = rhs_quadrature(spec, ContourSpec(circles=((1.0, 0.6),)))
        assert passes[0][0] == [128]
        large = rhs_quadrature(spec, ContourSpec(circles=((1.0, 0.9),)))
        assert abs(small - large) < 1e-9

    def test_resolvable_case_unchanged(self):
        diag = rhs_quadrature(ObservableSpec(self.MODEL, (15,), 30),
                              full=True)
        assert diag["nodes_used"] == 64
        assert abs(diag["value"] + 2.16696672173) < 1e-10


@st.composite
def schedule_specs(draw, max_k=3):
    """Small q-Hahn specs with k = 1 to max_k and PEP specs with k = 1-2
    (no PEP contour nests three circles; see test_pep_k3_infeasible)."""
    N = draw(st.integers(1, 4))
    if draw(st.booleans()):
        k, J = draw(st.integers(1, max_k)), draw(st.sampled_from([1, 2]))
        model = qhahn_model(q=draw(st.sampled_from([0.25, 0.4, 0.5, 0.75])),
                            b=draw(st.sampled_from([-0.05, -0.3, -3.0])),
                            J=J)
    else:
        k, J = draw(st.integers(1, 2)), draw(st.sampled_from([1, 2]))
        model = ModelSpec.jgamma_pep(
            J, draw(st.sampled_from([J + 1.5, 5.0, 7.0])))
    xs = draw(st.lists(st.integers(1, N + 1), min_size=k, max_size=k))
    return ObservableSpec(model, sorted(xs, reverse=True), N)


class TestNodeSchedule:
    """Per-circle node counts against pure doubling of every circle
    (prior_observables): the same acceptance rule, never more nodes on a
    circle, and no more node tuples in all."""

    QHAHN_K3 = ObservableSpec(QHAHN, (3, 2, 1), 3)

    def test_qhahn_k3_final_pair(self):
        # The placed circles (1.01, 0.16), (1.85, 1.27), (4.50, 3.94) settle
        # at 64, 256 and 512 nodes.  On the greedy circles (1, 0.25),
        # (2, 1.25), (4.5, 3.75) the third, whose left edge passes 0.25 from
        # the order-3 pole at z = 1, doubled on to 1024.
        with recorded() as passes:
            diag = rhs_quadrature(self.QHAHN_K3, full=True)
        assert [p[0] for p in passes] == diag["passes"] == [
            [64, 64, 64], [64, 128, 128], [64, 256, 256], [64, 256, 512]]
        assert diag["nodes_per_circle"] == [64, 256, 512]
        assert diag["nodes_used"] == 512
        ex = lhs_exact(self.QHAHN_K3)
        assert abs(diag["value"] - ex) <= 1e-12 * abs(ex)

    def test_qhahn_k3_nodes_evaluated(self):
        # Each pass sums only the node triples new to it, so the passes
        # evaluate the accepted pass's 64 * 256 * 512 triples in all.
        diag = rhs_quadrature(self.QHAHN_K3, full=True)
        assert diag["nodes_evaluated"] == math.prod(
            diag["passes"][-1]) == 8388608

    def test_rounding_floor_reported(self):
        # The floor the gate compares: that of the accepted pass.
        with recorded() as passes:
            diag = rhs_quadrature(self.QHAHN_K3, full=True)
        assert diag["rounding_floor"] == passes[-1][2] <= 1e-8 * max(
            1.0, abs(diag["value"]))

    @settings(max_examples=40)
    @given(schedule_specs())
    # A zero integral, reached by doubling one circle of two.
    @example(ObservableSpec(qhahn_model(q=0.5), (3, 2), 2))
    def test_against_doubling(self, spec):
        tol = 1e-8
        try:
            contour = solve_contours(spec)
        except ContourInfeasible:
            reject()
        try:
            with recorded() as old_passes:
                old = prior.rhs_quadrature_doubling(spec, contour, tol)
        except NotConverged:
            reject()
        with recorded() as passes:
            new = rhs_quadrature(spec, contour, tol=tol, full=True)
        counts = [p[0] for p in passes]
        assert old["passes"] == [p[0][0] for p in old_passes]
        assert new["passes"] == counts
        assert new["nodes_per_circle"] == counts[-1]
        assert new["nodes_used"] == max(counts[-1])
        # The accepted pass changes by at most tol from its halved pass.
        _, sums, floor = passes[-1]
        cur = sums.sum()
        assert new["doubling_change"] == abs(
            cur - 2 ** spec.k * sums[(0,) * spec.k]) / max(
            abs(cur), floor / tol) <= tol
        assert all(max(ns) <= observables._MAX_NODES
                   and math.prod(ns) <= observables._MAX_GRID
                   for ns in counts)
        # No circle gets more nodes than doubling gives it, and the passes,
        # each summing only its new node tuples, evaluate no more of them
        # than doubling's.
        assert max(max(ns) for ns in counts) <= old["nodes_used"]
        assert new["nodes_evaluated"] == math.prod(counts[-1]) <= sum(
            n ** spec.k for n in old["passes"])
        assert new["rounding_floor"] == floor
        # Both values lie within the acceptance scale of the truth.
        scale = max(tol * abs(old["value"]), floor, old_passes[-1][2])
        assert abs(new["value"] - old["value"]) <= 2 * scale
        try:
            ex = lhs_exact(spec)
        except (SizeLimit, InadmissibleWeights):
            return
        assert abs(new["value"] - ex) <= 2 * max(tol * abs(ex), floor)

    @settings(max_examples=60)
    @given(schedule_specs(max_k=4), st.data())
    def test_nested_pass_equals_fresh(self, spec, data):
        # A pass nested in the one before, after doubling any set of
        # circles, has the parity sums of a fresh pass at its counts,
        # within its rounding floor.
        try:
            contour = solve_contours(spec)
        except ContourInfeasible:
            reject()
        ns = data.draw(st.lists(st.sampled_from([4, 8]), min_size=spec.k,
                                max_size=spec.k))
        sums, _ = observables._quad_once(spec, contour, ns)
        for _ in range(data.draw(st.integers(1, 3))):
            grown = data.draw(st.sets(st.sampled_from(range(spec.k)),
                                      min_size=1))
            ns = [2 * n if j in grown else n for j, n in enumerate(ns)]
            sums, floor = observables._quad_once(spec, contour, ns, sums,
                                                 grown)
            fresh, fresh_floor = observables._quad_once(spec, contour, ns)
            assert floor == fresh_floor
            assert sums.shape == fresh.shape == (2,) * spec.k
            assert (np.abs(sums - fresh) <= floor).all()


class TestPlacement:
    """The placed circles of solve_contours against the greedy ones
    (prior_observables.solve_contours), which seed the search."""

    @settings(max_examples=40)
    @given(schedule_specs())
    # Each of these evaluated twice the greedy circles' node tuples
    # (8,388,608 -> 16,777,216; 67,108,864 -> 134,217,728; 16,384 ->
    # 32,768): the first with the images at the full weight of a pole, the
    # second with no limit on a pole's count per move, the third, an
    # identity that vanishes, when it was searched.
    @example(ObservableSpec(qhahn_model(q=0.5, b=-3.0), (3, 2, 1), 4))
    @example(ObservableSpec(qhahn_model(q=0.5, b=-3.0, J=2), (3, 2, 1), 4))
    @example(ObservableSpec(qhahn_model(q=0.5, b=-0.05), (3, 3), 3))
    def test_no_more_node_tuples_than_greedy(self, spec):
        tol = 1e-8
        try:
            greedy = prior.solve_contours(spec)
        except ContourInfeasible as exc:
            with pytest.raises(ContourInfeasible, match=re.escape(str(exc))):
                solve_contours(spec)
            return
        placed = solve_contours(spec)
        observables._check_contour(spec, placed)
        try:
            old = rhs_quadrature(spec, greedy, tol=tol, full=True)
        except NotConverged:
            # The placed circles may stop too; where they converge, the
            # exact left side checks them.
            try:
                new = rhs_quadrature(spec, placed, tol=tol, full=True)
            except NotConverged:
                return
        else:
            new = rhs_quadrature(spec, placed, tol=tol, full=True)
            assert new["nodes_evaluated"] <= old["nodes_evaluated"]
            floor = max(new["rounding_floor"], old["rounding_floor"])
            assert abs(new["value"] - old["value"]) <= 2 * max(
                tol * abs(old["value"]), floor)
        try:
            ex = lhs_exact(spec)
        except (SizeLimit, InadmissibleWeights):
            return
        assert abs(new["value"] - ex) <= 2 * max(tol * abs(ex),
                                                 new["rounding_floor"])

    def test_rate_pole_orders(self):
        # q-Hahn x = (3, 2, 1), N = 3, b = -0.3: order N - x_j + 1 at 1,
        # x_j - 1 at b and 1 at 0.  PEP J = 1, x = (2, 1), N = 4: order
        # N - x_j at J + 1 and x_j at 0.
        def weight(order):
            return math.log(1e10) + (order - 1) * math.log(64)

        spec = ObservableSpec(QHAHN, (3, 2, 1), 3)
        assert [observables._rate_poles(spec, j) for j in range(3)] == [
            ([(1.0, weight(1))], [(0.0, weight(1)), (-0.3, weight(2))]),
            ([(1.0, weight(2))], [(0.0, weight(1)), (-0.3, weight(1))]),
            ([(1.0, weight(3))], [(0.0, weight(1))])]
        spec = ObservableSpec(PEP, (2, 1), 4)
        assert [observables._rate_poles(spec, j) for j in range(2)] == [
            ([(2.0, weight(2))], [(0.0, weight(2))]),
            ([(2.0, weight(3))], [(0.0, weight(1))])]

    def test_floor_guard_keeps_the_seed(self):
        # The rate model would shrink the circle away from the pole of
        # order 20 at z = 0, to (2.003, 0.174), but the pole of order 20 at
        # z = 2 raises the rounding floor there, so the seed stays; the
        # quadrature still stops on its floor (see TestIdentityCheck).
        spec = ObservableSpec(ModelSpec.jgamma_pep(J=1, gamma=3.0), (20,), 40)
        assert solve_contours(spec).circles == ((2.0, 0.25),)

    def test_non_finite_floor_keeps_the_seed(self):
        # The terms overflow on the seed circle, so there is no floor to
        # guard and the seed stays.
        spec = ObservableSpec(PEP, (1,), 1000)
        assert not observables._vanishes(spec)
        assert solve_contours(spec) == prior.solve_contours(spec)

    @settings(max_examples=60)
    @given(schedule_specs(max_k=3))
    def test_vanishes_where_the_left_side_is_zero(self, spec):
        try:
            ex = lhs_exact(spec)
        except InadmissibleWeights:
            reject()
        assert observables._vanishes(spec) == (ex == 0.0)
        if observables._vanishes(spec):
            assert solve_contours(spec) == prior.solve_contours(spec)

    def test_vanishes_reads_the_largest_row_degree(self):
        # Row 1 has degree 2, so h(1) may reach 2 and this identity is not
        # 0, though row 2's degree, 1, would bound h(1) by 1.
        model = ModelSpec.qhahn(0.4, -0.2, B=(-0.3,), C=(0.16, 0.4), J=(2, 1))
        spec = ObservableSpec(model, (1, 1), 1)
        assert lhs_exact(spec) != 0.0
        assert not observables._vanishes(spec)

    def test_geometry_built_once_per_search(self, monkeypatch):
        # The search checks many trial contours against one pole cluster
        # and one set of exclusions, _points, built once per solve_contours
        # call.
        spec = ObservableSpec(QHAHN, (3, 2, 1), 3)
        want = solve_contours(spec)
        calls = []

        def counted(name):
            fn = getattr(observables, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(observables, name, wrapper)

        for name in ("_points", "_check_contour"):
            counted(name)
        assert solve_contours(spec) == want
        assert calls.count("_points") == 1
        assert calls.count("_check_contour") > 1


@st.composite
def contraction_draws(draw):
    """Random complex single factors g_j and pair matrices for k <= 4
    variables with an even number n_j <= 6 of nodes each.  Node a of
    variable j is the integer 6 j + a, so cross(zi, zj) is a lookup in one
    6k x 6k matrix."""
    k = draw(st.integers(1, 4))
    ns = draw(st.lists(st.sampled_from([2, 4, 6]), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return k, ns, [cplx(n) for n in ns], cplx(6 * k, 6 * k)


class TestContraction:
    @settings(max_examples=200)
    @given(contraction_draws())
    def test_matches_brute_force(self, draw):
        # Each variable's nodes go evens first, as _quad_once orders them;
        # the result is the sums over the parity classes of the node
        # indices.
        k, ns, g, cross = draw
        order = [np.r_[0:n:2, 1:n:2] for n in ns]
        z = [6 * j + order[j] for j in range(k)]
        want = np.zeros((2,) * k, dtype=complex)
        size = np.zeros((2,) * k)
        for a in itertools.product(*map(range, ns)):
            term = (np.prod([g[j][a[j]] for j in range(k)])
                    * np.prod([cross[6 * i + a[i], 6 * j + a[j]]
                               for i in range(k) for j in range(i + 1, k)]))
            parity = tuple(aj % 2 for aj in a)
            want[parity] += term
            size[parity] += abs(term)
        got = observables._contract(z, [gj[o] for gj, o in zip(g, order)],
                                    lambda zi, zj: cross[zi, zj])
        assert got.shape == (2,) * k
        assert (np.abs(got - want) <= 1e-12 * size).all()

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
        assert np.abs(blocked - one).max() <= 1e-13 * np.abs(one).max()


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
        rep, _ = identity_check(spec, samples=4000, seed=7)
        assert rep["residual_exact_vs_quadrature"] < 1e-10
        assert rep["residual_mc_vs_quadrature_sigmas"] < 4.0
        assert rep["quadrature_diagnostics"]["doubling_change"] < 1e-8
        assert abs(rep["quadrature_diagnostics"]["imag_part"]) < 1e-12
        assert rep["contour"]["circles"]
        assert rep["contour"]["nesting_offsets"] == [1 / Q]
        assert rep["conventions"]["pep_rhs_sign_per_variable"] == -1

    def test_pep_contour_report(self):
        # The PEP form nests by the shift -1, once per later circle.
        contour = identity_check(ObservableSpec(PEP, (2, 1), 3))[0]["contour"]
        assert contour["nesting_offsets"] == [-1.0]
        assert contour["nodes_per_circle"] == 32

    def test_size_limited_exact_is_none(self, monkeypatch):
        monkeypatch.setattr(models, "_EXACT_LAW_BOUND", 2)
        spec = ObservableSpec(QHAHN, (2,), 3)
        rep, _ = identity_check(spec, samples=0)
        assert rep["lhs_exact"] is None
        assert rep["lhs_exact_skipped"].startswith("exact law ")
        assert isinstance(rep["rhs_quadrature"], float)

    def test_exact_rhs_answers_where_quadrature_cannot(self):
        # x = N/2 at N = 40 lies below the rounding floor of the default
        # circle; the Monte Carlo row is gated against the exact value.
        spec = ObservableSpec(ModelSpec.jgamma_pep(J=1, gamma=3.0), (20,), 40)
        rep, checks = identity_check(spec, samples=4000, seed=2)
        assert rep["rhs"] == rep["rhs_exact"] == float(rhs_exact(spec))
        assert rep["rhs_quadrature"] is None
        message = rep["quadrature_diagnostics"]["not_converged"]
        assert message.startswith("rounding floor 5.028e-07")
        assert checks == [
            Check("rhs_quadrature_not_converged", message=message),
            Check("mc_expectation_vs_rhs_exact_sigmas",
                  value=rep["lhs_mc"]["mean"],
                  residual=rep["residual_mc_vs_rhs_exact_sigmas"],
                  tolerance=4.0)]
        assert checks[1].residual < 4.0

    def test_mc_row_gated_by_the_range_bound_when_the_law_is_skipped(
            self, monkeypatch):
        # Both samples give the same current and the exact law is skipped:
        # the row's residual is a Markov bound on the chance of n samples
        # at v from the observable's range and its mean, the answer.
        monkeypatch.setattr(models, "_EXACT_LAW_BOUND", 1)
        spec = ObservableSpec(PEP, (2,), 3)
        rep, checks = identity_check(spec, samples=2, seed=1)
        assert rep["lhs_exact"] is None
        assert rep["lhs_mc"]["stderr"] == 0.0
        assert rep["residual_mc_vs_quadrature_sigmas"] == math.inf
        v, rhs = rep["lhs_mc"]["mean"], rep["rhs"]
        # X = -(1 + h + 5) h / 5 over currents h = 0..3 (J N = 3).
        assert observables._lhs_range(spec) == (-5.4, -0.0)
        assert v == 0.0 and rhs == pytest.approx(-0.25, abs=1e-12)
        assert checks[-1] == Check(
            "mc_expectation_vs_quadrature_sigmas", value=v,
            residual=((rhs + 5.4) / 5.4) ** 2, tolerance=1e-6, floor=True,
            message="all 2 samples agree, so the standard error is 0; the "
            "exact law was skipped, so the residual bounds the chance of "
            "that by Markov's inequality on the observable's range "
            "[-5.4, -0] and the answer, gated to be at least the tolerance")
        assert checks[-1].as_dict()["passed"] is True

    def test_law_skipped_agreement_off_the_answer_fails(self, monkeypatch):
        # 10000 samples all at 0, a quarter above the answer -0.25: the
        # bound ((rhs - lo) / (v - lo))^n is far below the floor.
        def lhs_mc(spec, samples, seed):
            return MCEstimate(mean=0.0, stderr=0.0, n_samples=10000,
                              base_seed=seed)

        monkeypatch.setattr(observables, "lhs_mc", lhs_mc)
        monkeypatch.setattr(models, "_EXACT_LAW_BOUND", 1)
        _, checks = identity_check(ObservableSpec(PEP, (2,), 3), samples=2)
        row = checks[-1].as_dict()
        assert row["gated"] and row["floor"] and not row["passed"]
        assert row["residual"] < 1e-6
        assert all(c.as_dict()["passed"] for c in checks[:-1])

    @pytest.mark.parametrize("x", [3, 4])
    def test_law_skipped_agreement_at_the_answer_passes(self, monkeypatch,
                                                         x):
        # At x >= N no particle passes the probe site: every sample is 0,
        # the answer is 0 up to the quadrature's rounding, and the bound
        # is 1.
        monkeypatch.setattr(models, "_EXACT_LAW_BOUND", 1)
        rep, checks = identity_check(ObservableSpec(PEP, (x,), 3),
                                     samples=20, seed=1)
        assert rep["lhs_exact"] is None
        assert rep["lhs_mc"] == {"mean": 0.0, "stderr": 0.0,
                                 "n_samples": 20, "base_seed": 1}
        assert 0.0 < abs(rep["rhs"]) < 1e-15
        assert checks[-1].residual == 1.0
        assert checks[-1].floor and checks[-1].tolerance == 1e-6
        assert all(c.as_dict()["passed"] for c in checks)

    @pytest.mark.parametrize("spec", [
        ObservableSpec(PEP, (2, 1), 4),
        ObservableSpec(ModelSpec.jgamma_pep(J=2, gamma=7.0), (3,), 3),
        ObservableSpec(QHAHN, (2, 1), 3),
        ObservableSpec(qhahn_model(delta=0.0), (2,), 3),
        ObservableSpec(ModelSpec.qhahn(Q, -0.2, B=(-0.3, -0.5),
                                       C=(Q, Q ** 2), J=(1, 2)), (2, 1), 3)])
    def test_range_holds_every_value_of_the_law(self, spec):
        lo, hi = observables._lhs_range(spec)
        value = observables._lhs_value(spec)
        values = [value(cfg) for cfg, _ in
                  exact_law(spec.model, spec.N).support]
        assert lo <= min(values) and max(values) <= hi

    def test_agreement_bound(self):
        bound = observables._agreement_bound
        assert bound(2.0, 1.0, 0.0, 4.0) == 0.5   # (rhs - lo) / (v - lo)
        assert bound(0.0, 1.0, 0.0, 4.0) == 0.75  # (hi - rhs) / (hi - v)
        assert bound(1.0, 1.0, 0.0, 4.0) == 1.0
        assert bound(2.0, 1.0, -math.inf, 4.0) == 1.0
        assert bound(2.0, -1.0, 0.0, 4.0) == 0.0  # rhs below the range
        assert bound(0.0, -1.0, 0.0, 4.0) == 0.0  # v at lo, above rhs
        assert bound(4.0, 5.0, 0.0, 4.0) == 0.0

    def test_mc_row_gated_by_the_exact_chance_of_agreeing(self):
        # With the exact law the same row's residual is P(X = v)^n, the
        # chance that n samples all equal v, with a floor of 1e-6.
        spec = ObservableSpec(PEP, (2,), 3)
        rep, checks = identity_check(spec, samples=2, seed=1)
        row = checks[-1]
        value = observables._lhs_value(spec)
        chance = sum(pr for cfg, pr in exact_law(spec.model, spec.N).support
                     if value(cfg) == row.value)
        assert 0.0 < chance < 1.0
        assert row == Check(
            "mc_expectation_vs_quadrature_sigmas",
            value=rep["lhs_mc"]["mean"], residual=chance ** 2,
            tolerance=1e-6, floor=True,
            message="all 2 samples agree, so the standard error is 0; the "
            "residual is the exact chance of that, gated to be at least the "
            "tolerance")
        assert rep["lhs_exact_diagnostics"]["configurations_per_step"] == [
            1, 2, 4]

    def test_exact_rhs_reported_and_matched(self):
        rep, _ = identity_check(ObservableSpec(PEP, (3,), 8))
        assert rep["rhs_exact"] == -2.3671875
        assert rep["residual_quadrature_vs_rhs_exact"] < 1e-8
        assert identity_check(ObservableSpec(QHAHN, (2,), 3))[0][
            "rhs_exact"] is None


class TestRhsExact:
    @pytest.mark.parametrize("gamma", [3.0, 5.0])
    def test_equals_lhs_exact(self, gamma):
        model = ModelSpec.jgamma_pep(J=1, gamma=gamma)
        for N in range(1, 11):
            for x in sorted({1, 2, N // 2 + 1, N - 1, N, N + 1} - {0}):
                spec = ObservableSpec(model, (x,), N)
                ex = rhs_exact(spec)
                assert isinstance(ex, Fraction)
                assert float(ex) == pytest.approx(lhs_exact(spec),
                                                  rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("N, value", [
        (30, -2.16696672141552), (40, -2.50741375239159),
        (200, -5.63484790092564)])
    def test_values_at_half_filling(self, N, value):
        spec = ObservableSpec(PEP, (N // 2,), N)
        assert float(rhs_exact(spec)) == pytest.approx(value, rel=1e-13)

    def test_large_N_is_fast(self):
        start = time.perf_counter()
        ex = rhs_exact(ObservableSpec(PEP, (5000,), 10 ** 4))
        assert time.perf_counter() - start < 1.0
        assert float(ex) == pytest.approx(-39.8932306969108, rel=1e-13)

    @pytest.mark.parametrize("spec", [
        ObservableSpec(QHAHN, (2,), 3),
        ObservableSpec(ModelSpec.jgamma_pep(J=2, gamma=7.0), (2,), 4),
        ObservableSpec(PEP, (2, 1), 4)], ids=["qhahn", "J2", "k2"])
    def test_none_without_closed_form(self, spec):
        assert rhs_exact(spec) is None
