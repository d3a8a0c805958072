"""Vertex-weight layer: the unfused weight, column fusion, the fused-weight
recursion against the closed form and factored special cases of
oracle_weights, stochastic corrections, multiplicative-parameter weights,
and closed-form degenerations."""

import cmath
import math
import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import prior_weights as prior
from oracle_weights import (
    PatternMismatch,
    sigma_j1_full_row,
    w_fused_closed,
    w_fused_special,
)
from dynvertex import specfun, weights
from dynvertex.errors import (
    DynVertexError,
    InadmissibleParameters,
    NonConvergent,
    SingularParameter,
)
from dynvertex.specfun import EllipticContext, elliptic_pochhammer, f_eval
from dynvertex.weights import (
    ArrowConfig,
    PhiParams,
    PsiParams,
    UnfusedWeightParams,
    asym_pep_stay,
    c_correction,
    jgamma_pep_stay,
    phi,
    psi,
    psi_row,
    psi_u_equals_s,
    row_sum_checks,
    sigma,
    w1,
    w_fused_recursive,
)

TRIG = EllipticContext(mode="trigonometric", eta=0.07)
ELL = EllipticContext(mode="elliptic", eta=0.07, tau=1.3j)


def params(ctx):
    return UnfusedWeightParams(-0.05 + 0.02j, 0.8 + 0.03j, 2.3 + 0.1j, ctx)


def column_weight(i1, j1_bits, i2, j2_bits, v_base, p):
    """Weight of a single column of J unfused vertices.

    Rows are indexed bottom to top; row k (0-based) carries spectral
    parameter v_base + 2*eta*k.  The dynamical parameter at the topmost row
    is p.lam; going down it shifts by -2*eta where the row above has
    horizontal input 0 and by +2*eta where it has input 1.  Vertical counts
    flow upward from i1 to i2."""
    J = len(j1_bits)
    if len(j2_bits) != J:
        raise ValueError("bit lists must have equal length")
    eta = complex(p.ctx.eta)
    lam_rows = [0.0j] * J
    lam_rows[J - 1] = complex(p.lam)
    for y in range(J - 2, -1, -1):
        shift = 2 * eta if j1_bits[y + 1] else -2 * eta
        lam_rows[y] = lam_rows[y + 1] + shift
    out = 1.0 + 0.0j
    i_cur = i1
    for k in range(J):
        b1, b2 = j1_bits[k], j2_bits[k]
        i_next = i_cur + b1 - b2
        if i_next < 0:
            return 0.0 + 0.0j
        pk = UnfusedWeightParams(complex(v_base) + 2 * eta * k, lam_rows[k],
                                 p.Lambda, p.ctx)
        out *= w1(ArrowConfig(i_cur, b1, i_next, b2), pk)
        if out == 0:
            return 0.0 + 0.0j
        i_cur = i_next
    if i_cur != i2:
        return 0.0 + 0.0j
    return out


def conserving_configs(J, imax):
    for i1 in range(imax + 1):
        for j1 in range(J + 1):
            for j2 in range(J + 1):
                i2 = i1 + j1 - j2
                if 0 <= i2 <= imax:
                    yield ArrowConfig(i1, j1, i2, j2)


class TestUnfused:
    @pytest.mark.parametrize("ctx", [TRIG, ELL], ids=["trig", "ell"])
    def test_support(self, ctx):
        p = params(ctx)
        assert w1(ArrowConfig(1, 1, 1, 0), p) == 0  # non-conserving
        assert w1(ArrowConfig(0, 0, 0, 0), p) == pytest.approx(1.0)
        assert w1(ArrowConfig(1, 2, 2, 1), p) == 0  # j > 1

    @pytest.mark.parametrize("ctx", [TRIG, ELL], ids=["trig", "ell"])
    def test_column_equals_w1_for_single_row(self, ctx):
        p = params(ctx)
        for cfg in [(1, 0, 1, 0), (1, 1, 2, 0), (2, 0, 1, 1), (1, 1, 1, 1)]:
            i1, b1, i2, b2 = cfg
            col = column_weight(i1, [b1], i2, [b2], p.v, p)
            assert col == pytest.approx(w1(ArrowConfig(*cfg), p), rel=1e-12)


class TestFusionOracleChain:
    """Column enumeration == recursion == closed hypergeometric form."""

    @pytest.mark.parametrize("ctx", [TRIG, ELL], ids=["trig", "ell"])
    def test_column_sum_equals_recursion(self, ctx):
        p = params(ctx)
        for J in (1, 2, 3):
            for cfg in conserving_configs(J, 3):
                i1, j1, i2, j2 = cfg
                tot = 0.0 + 0.0j
                for inp in combinations(range(J), j1):
                    j1b = [1 if r in inp else 0 for r in range(J)]
                    for outp in combinations(range(J), j2):
                        j2b = [1 if r in outp else 0 for r in range(J)]
                        tot += column_weight(i1, j1b, i2, j2b, p.v, p)
                ref = w_fused_recursive(J, cfg, p) * math.comb(J, j2)
                assert tot == pytest.approx(ref, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("ctx", [TRIG, ELL], ids=["trig", "ell"])
    def test_closed_form_equals_recursion(self, ctx):
        p = params(ctx)
        for J in (1, 2, 3, 4):
            for cfg in conserving_configs(J, 4):
                ref = w_fused_recursive(J, cfg, p)
                val = w_fused_closed(J, cfg, p)
                assert val == pytest.approx(ref, rel=5e-10, abs=5e-10)

    def test_regularized_branch_configs(self):
        # Configurations that hit the structural zero/pole pairs of the
        # closed form (j1 + j2 > J or i2 < j1) go through the Richardson
        # branch; pin a representative set tightly.
        p = params(TRIG)
        cases = [(1, (2, 1, 2, 1)), (2, (1, 2, 1, 2)), (3, (1, 3, 2, 2)),
                 (3, (2, 2, 1, 3)), (2, (3, 2, 4, 1)), (4, (2, 3, 2, 3)),
                 (2, (0, 2, 1, 1)), (3, (0, 3, 1, 2))]
        for J, cfg in cases:
            _, j1, i2, j2 = cfg = ArrowConfig(*cfg)
            assert j1 + j2 > J or i2 < j1
            ref = w_fused_recursive(J, cfg, p)
            val = w_fused_closed(J, cfg, p)
            assert val == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("ctx", [TRIG, ELL], ids=["trig", "ell"])
    def test_off_support_zero(self, ctx):
        p = params(ctx)
        assert w_fused_recursive(2, ArrowConfig(1, 1, 1, 2), p) == 0
        assert w_fused_closed(2, ArrowConfig(1, 1, 1, 2), p) == 0
        assert w_fused_closed(2, ArrowConfig(0, 3, 1, 2), p) == 0


class TestSpecialCases:
    @pytest.mark.parametrize("ctx", [TRIG, ELL], ids=["trig", "ell"])
    @pytest.mark.parametrize("case", ["jJ", "j20", "j2J"])
    def test_factored_cases(self, ctx, case):
        p = params(ctx)
        for J in (1, 2, 3, 4):
            for i in range(4):
                for j in range(J + 1):
                    if case == "jJ":
                        cfg = ArrowConfig(i, J, i + J - j, j)
                    elif case == "j20":
                        cfg = ArrowConfig(i, j, i + j, 0)
                    else:
                        if i + j - J < 0:
                            continue
                        cfg = ArrowConfig(i, j, i + j - J, J)
                    ref = w_fused_recursive(J, cfg, p)
                    val = w_fused_special(J, cfg, p, case)
                    assert val == pytest.approx(ref, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("ctx", [TRIG, ELL], ids=["trig", "ell"])
    def test_v_lambda_case(self, ctx):
        eta = complex(ctx.eta)
        Lambda = 2.3 + 0.1j
        p = UnfusedWeightParams(-eta * Lambda, 0.8 + 0.03j, Lambda, ctx)
        for J in (1, 2, 3):
            for cfg in conserving_configs(J, 3):
                ref = w_fused_recursive(J, cfg, p)
                val = w_fused_special(J, cfg, p, "vLambda")
                assert val == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_pattern_mismatch(self):
        p = params(TRIG)
        with pytest.raises(PatternMismatch):
            w_fused_special(2, ArrowConfig(1, 1, 1, 1), p, "jJ")
        with pytest.raises(PatternMismatch):
            w_fused_special(2, ArrowConfig(1, 1, 1, 1), p, "j20")
        with pytest.raises(PatternMismatch):
            w_fused_special(2, ArrowConfig(1, 1, 1, 1), p, "j2J")
        with pytest.raises(PatternMismatch):
            w_fused_special(2, ArrowConfig(1, 1, 1, 1), p, "vLambda")


class TestStochastic:
    def test_sigma_row_sums_trigonometric(self):
        p = params(TRIG)
        for J in range(1, 5):
            for i1 in range(5):
                for j1 in range(J + 1):
                    tot = sum(
                        sigma(J, ArrowConfig(i1, j1, i1 + j1 - j2, j2), p)
                        for j2 in range(min(J, i1 + j1) + 1))
                    assert abs(tot - 1) < 1e-10

    def test_sigma_matches_q_form_full_row(self):
        q, s, u, xi, kappa = 0.4, 0.3, 0.7, 1.3, 0.15
        eta = 1j * cmath.log(q) / (4 * math.pi)
        ctx = EllipticContext(mode="trigonometric", eta=eta)
        two_pi_i = 2j * math.pi
        Lambda = cmath.log(s) / (two_pi_i * eta)
        for J in range(1, 4):
            lam = (J * cmath.log(q) - cmath.log(kappa)) / two_pi_i
            v = -cmath.log(u * xi) / two_pi_i
            p = UnfusedWeightParams(v, lam, Lambda, ctx)
            for i in range(4):
                tot = 0.0
                for j in range(J + 1):
                    a = sigma(J, ArrowConfig(i, J, i + J - j, j), p)
                    b = sigma_j1_full_row(J, i, j, u, s, q, xi, kappa)
                    tot += b.real
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-13)
                assert tot == pytest.approx(1.0, abs=1e-12)

    def test_boundary_correction_identity(self):
        # C(0,J; J,0) at dynamical parameter lambda - 2 eta Lambda0 and
        # column spin Lambda1, divided by the product of the single-row
        # (0,1;0,1) weights in column 0, factors into an explicit
        # Pochhammer/crossing-ratio product.
        for ctx in (TRIG, ELL):
            eta = complex(ctx.eta)
            lam, L0, L1 = 0.8 + 0.03j, 2.3 + 0.1j, 1.7 - 0.05j
            z0, u = 0.21 + 0.04j, -0.13 + 0.06j
            p0 = z0 + eta * (1 - L0)
            q0 = z0 + eta * (1 + L0)
            ep = lambda a, k: elliptic_pochhammer(a, k, ctx)
            f = lambda z: f_eval(z, ctx)
            for J in (1, 2, 3):
                us = [u + 2 * eta * k for k in range(J)]
                vs = [uk - z0 - eta for uk in us]
                lhs = c_correction(J, ArrowConfig(0, J, J, 0),
                                   lam - 2 * eta * L0, L1, ctx)
                for k in range(J):
                    pk = UnfusedWeightParams(vs[J - k - 1],
                                             lam + 2 * eta * k, L0, ctx)
                    lhs /= w1(ArrowConfig(0, 1, 0, 1), pk)
                rhs = (ep(2 * eta * L1, J) * ep(lam + 2 * eta * (J - 1 - L0),
                                                J)
                       / (f(2 * eta) ** J
                          * ep(lam + 2 * eta * (2 * J - 1 - L0 - L1), J)))
                for k in range(1, J + 1):
                    rhs *= (f(us[k - 1] - q0) / f(us[k - 1] - p0)
                            * f(lam + 2 * eta * (k - 1))
                            / f(lam + 2 * eta * (k - 1 - L0)))
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMultiplicative:
    def test_psi_row_sums(self):
        for J in (1, 2, 3):
            pp = PsiParams(u=0.91, s=0.3, q=0.4, J=J, kappa=0.15)
            for i1 in range(4):
                for j1 in range(J + 1):
                    tot = sum(
                        psi(ArrowConfig(i1, j1, i1 + j1 - j2, j2), pp)
                        for j2 in range(min(J, i1 + j1) + 1))
                    assert abs(tot - 1) < 1e-12

    def test_psi_at_u_equals_s_matches_phi(self):
        for J in (1, 2, 3):
            pp = PsiParams(u=0.3, s=0.3, q=0.4, J=J, kappa=0.15)
            for i1 in range(4):
                for j1 in range(J + 1):
                    for j2 in range(min(J, i1 + j1) + 1):
                        cfg = ArrowConfig(i1, j1, i1 + j1 - j2, j2)
                        a = psi(cfg, pp)
                        b = psi_u_equals_s(cfg, pp)
                        assert a == pytest.approx(b, abs=1e-12)

    def test_phi_row_sums(self):
        p = PhiParams(q=0.4, a=0.09 * 0.4 ** 2, b=0.09, kappa=0.15)
        for i in range(8):
            tot = sum(phi(j, i, p) for j in range(i + 1))
            assert tot == pytest.approx(1.0, abs=1e-12)

    def test_phi_kappa_zero_is_q_hahn(self):
        # At kappa = 0 the dynamical factors drop out entirely.
        q, a, b = 0.4, 0.3, 0.12
        p0 = PhiParams(q=q, a=a, b=b, kappa=0.0)
        from dynvertex.specfun import q_pochhammer as qp
        for i in range(5):
            for j in range(i + 1):
                ref = (a ** j * qp(q, q, i)
                       / (qp(q, q, j) * qp(q, q, i - j))
                       * qp(b / a, q, j) * qp(a, q, i - j) / qp(b, q, i))
                assert phi(j, i, p0) == pytest.approx(ref, rel=1e-12)

    def test_phi_support(self):
        p = PhiParams(q=0.4, a=0.3, b=0.12, kappa=0.15)
        assert phi(3, 2, p) == 0
        assert phi(-1, 2, p) == 0

    def test_phi_out_of_float_range_is_typed(self):
        # a ** j overflows in complex arithmetic, which raises.
        p = PhiParams(q=0.4, a=4e299, b=1e300, kappa=0.1)
        with pytest.raises(InadmissibleParameters, match="float range"):
            phi(3, 4, p)


def degeneration_weight(kind, **kw):
    """Closed-form probabilities/rates for the named degenerations.

    aip:       kw A, B, j, i          -> coalescing jump probability
    asym_pep:  kw q, kappa, j, i      -> two-state exclusion probability
    hahn_pep:  kw A, J, kappa_hat, j, i
    jgamma_pep: kw J, Upsilon, eta, x -> P[X = x], x in {eta-1, eta}
    madm_rate: kw q, kappa_hat, j, i  -> continuous-time jump rate
    """
    if kind == "aip":
        A, B, j, i = kw["A"], kw["B"], kw["j"], kw["i"]
        if A <= 0 or B <= 0:
            raise InadmissibleParameters("aip requires A, B > 0")
        if i == 0:
            return 1.0 if j == 0 else 0.0
        if j == 0:
            return A / (A + B)
        if j == i:
            return B / (A + B)
        return 0.0
    if kind == "asym_pep":
        q, kap, j, i = kw["q"], kw["kappa"], kw["j"], kw["i"]
        if not (0 < q < 1) or kap > 0:
            raise InadmissibleParameters(
                "asym_pep requires q in (0,1) and kappa <= 0")
        if not 0 <= i <= 2 or j not in (i - 1, i):
            return 0.0
        stay = float(asym_pep_stay(i, q, kap, 0))
        return stay if j == i - 1 else 1.0 - stay
    if kind == "hahn_pep":
        A, J, kh, j, i = (kw["A"], kw["J"], kw["kappa_hat"], kw["j"],
                          kw["i"])
        if kh <= 2 * A + 2 * J:
            raise InadmissibleParameters(
                "hahn_pep requires kappa_hat > 2A + 2J")
        if j < 0 or j > min(i, J) or i - j > A:
            return 0.0
        from dynvertex.specfun import rational_pochhammer as rp
        val = (math.comb(J, j) * math.comb(A, i - j) / math.comb(A + J, i)
               * rp(i - A - J - kh, i - j) * rp(i - j - kh + 1, j)
               / (rp(i - j - A - kh, i - j)
                  * rp(2 * i - 2 * j + 1 - A - kh, j)))
        return val.real
    if kind == "jgamma_pep":
        J, ups, eta_k, x = kw["J"], kw["Upsilon"], kw["eta"], kw["x"]
        if ups < J + 1:
            raise InadmissibleParameters("jgamma_pep requires Upsilon >= J+1")
        if not 0 <= eta_k <= J + 1:
            raise InadmissibleParameters("eta must lie in [0, J+1]")
        if x not in (eta_k - 1, eta_k):
            return 0.0
        stay = jgamma_pep_stay(eta_k, J, ups)
        return stay if x == eta_k - 1 else 1.0 - stay
    if kind == "madm_rate":
        q, kh, j, i = kw["q"], kw["kappa_hat"], kw["j"], kw["i"]
        if not (0 < q < 1) or kh > 0:
            raise InadmissibleParameters(
                "madm_rate requires q in (0,1) and kappa_hat <= 0")
        if j < 1 or j > i:
            return 0.0
        return (q ** j * (1 - q ** (2 * i - 2 * j + 1) * kh)
                / ((1 - q ** j) * (1 - q ** (2 * i - j + 1) * kh)))
    raise ValueError("unknown degeneration kind %r" % (kind,))


class TestRowSumChecks:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            row_sum_checks("default", 1e-10)


class TestDegenerations:
    def test_aip_limit(self):
        # a = 1 - A eps, b = (1 - B eps) a, eps -> 0: jumps coalesce to
        # "none" or "all" with probabilities A/(A+B) and B/(A+B).
        A, B, eps = 0.7, 1.3, 1e-7
        p = PhiParams(q=0.45, a=1 - A * eps, b=(1 - B * eps) * (1 - A * eps),
                      kappa=0.2)
        for i in range(1, 5):
            assert phi(0, i, p).real == pytest.approx(
                degeneration_weight("aip", A=A, B=B, j=0, i=i), abs=1e-5)
            assert phi(i, i, p).real == pytest.approx(
                degeneration_weight("aip", A=A, B=B, j=i, i=i), abs=1e-5)
        assert degeneration_weight("aip", A=A, B=B, j=0, i=0) == 1.0
        assert degeneration_weight("aip", A=A, B=B, j=1, i=3) == 0.0

    def test_asym_pep_from_phi(self):
        # a = 1/q, b = 1/q^2 collapses phi to a two-state table.
        q, kap = 0.45, -0.3
        p = PhiParams(q=q, a=1 / q, b=1 / q ** 2, kappa=kap)
        for i in range(3):
            for j in range(3):
                want = degeneration_weight("asym_pep", q=q, kappa=kap,
                                           j=j, i=i)
                if j <= i:
                    assert phi(j, i, p).real == pytest.approx(want,
                                                              abs=1e-12)
        tot = sum(degeneration_weight("asym_pep", q=q, kappa=kap, j=j, i=1)
                  for j in (0, 1))
        assert tot == pytest.approx(1.0)

    def test_hahn_pep_frozen(self):
        # High-precision q -> 1 limits of phi at a = q^-A, b = q^-(A+J),
        # kappa = q^-kh (A=2, J=2, kh=12); frozen externally.
        cases = {
            (0, 0): 1.0,
            (1, 1): 0.4230769230769231,
            (0, 1): 0.5769230769230769,
            (2, 2): 0.11752136752136752,
            (1, 2): 0.6526806526806526,
            (0, 2): 0.22979797979797978,
            (2, 3): 0.4090909090909091,
            (2, 4): 1.0,
        }
        for (j, i), want in cases.items():
            got = degeneration_weight("hahn_pep", A=2, J=2, kappa_hat=12.0,
                                      j=j, i=i)
            assert got == pytest.approx(want, rel=1e-12)
        for i in range(5):
            tot = sum(degeneration_weight("hahn_pep", A=2, J=2,
                                          kappa_hat=12.0, j=j, i=i)
                      for j in range(i + 1))
            assert tot == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(InadmissibleParameters):
            degeneration_weight("hahn_pep", A=2, J=2, kappa_hat=7.9,
                                j=0, i=0)

    def test_jgamma_pep(self):
        J, ups = 3, 9.0
        for i in range(J + 2):
            lo = degeneration_weight("jgamma_pep", J=J, Upsilon=ups,
                                     eta=i, x=i - 1) if i >= 1 else 0.0
            hi = degeneration_weight("jgamma_pep", J=J, Upsilon=ups,
                                     eta=i, x=i)
            assert lo + hi == pytest.approx(1.0)
            want_lo = (i / (J + 1)) * (1 + (J + 1 - i) / ups)
            assert lo == pytest.approx(want_lo)
        with pytest.raises(InadmissibleParameters):
            degeneration_weight("jgamma_pep", J=3, Upsilon=3.5, eta=1, x=1)

    def test_madm_rate(self):
        q, kh = 0.45, -0.6
        for i in range(1, 5):
            for j in range(1, i + 1):
                want = (q ** j * (1 - q ** (2 * i - 2 * j + 1) * kh)
                        / ((1 - q ** j) * (1 - q ** (2 * i - j + 1) * kh)))
                got = degeneration_weight("madm_rate", q=q, kappa_hat=kh,
                                          j=j, i=i)
                assert got == pytest.approx(want, rel=1e-13)
        assert degeneration_weight("madm_rate", q=q, kappa_hat=kh,
                                   j=0, i=2) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            degeneration_weight("unknown", q=0.4)


@st.composite
def jgamma_draws(draw):
    """Admissible (J, gamma) and sites (x, t, eta, h) with
    Upsilon = gamma + 2h + (J+1)(x-1) - Jt >= gamma and h >= eta."""
    J = draw(st.integers(1, 60))
    gamma = draw(st.floats(J + 1, J + 1e4, exclude_min=True))
    sites = []
    for _ in range(draw(st.integers(1, 12))):
        x, t = draw(st.integers(1, 300)), draw(st.integers(0, 300))
        eta = draw(st.integers(0, J + 1))
        low = max(eta, -(-(J * t - (J + 1) * (x - 1)) // 2))
        sites.append((x, t, eta, low + draw(st.integers(0, 500))))
    return J, gamma, sites


class TestExclusionFormulas:
    """The two exclusion-process probabilities are single elementwise
    formulas shared by degeneration_weight, the scalar kernel and the
    vector engine: arrays and scalars must agree."""

    @settings(max_examples=300)
    @given(jgamma_draws())
    def test_jgamma_pep_stay(self, draw):
        J, gamma, sites = draw
        x, t, eta, h = (np.array(v) for v in zip(*sites))
        ups = gamma + 2 * h + (J + 1) * (x - 1) - J * t
        vec = jgamma_pep_stay(eta, J, ups)
        for k, (e, u) in enumerate(zip(eta.tolist(), ups.tolist())):
            one = jgamma_pep_stay(e, J, u)
            assert abs(vec[k] - one) <= 1e-15 * abs(one)
            assert 0.0 <= one <= 1.0
            assert one == degeneration_weight("jgamma_pep", J=J, Upsilon=u,
                                              eta=e, x=e - 1)

    @settings(max_examples=300)
    @given(st.floats(0.01, 0.99),
           st.one_of(st.just(0.0), st.just(-5e-324), st.floats(-1e3, 0.0),
                     st.floats(-1e-307, 0.0)),
           st.integers(-2000, 2000),
           st.integers(1, 60).flatmap(lambda J: st.tuples(
               st.just(J), st.floats(J + 1, 1e12, exclude_min=True))))
    def test_empty_and_full_sites_exact(self, q, delta, e, ups):
        # The vector engine draws no uniform at an empty or a full site:
        # these probabilities must be exactly 0 and 1, scalar and array.
        J, upsilon = ups
        assert asym_pep_stay(0, q, delta, e) == 0.0
        assert asym_pep_stay(2, q, delta, e) == 1.0
        assert jgamma_pep_stay(0, J, upsilon) == 0.0
        assert jgamma_pep_stay(J + 1, J, upsilon) == 1.0
        assert asym_pep_stay(np.array([0, 2]), q, delta,
                             np.array([e, e])).tolist() == [0.0, 1.0]
        assert jgamma_pep_stay(np.array([0, J + 1]), J,
                               upsilon).tolist() == [0.0, 1.0]

    @settings(max_examples=300)
    @given(st.floats(0.01, 0.99),
           st.one_of(st.just(0.0), st.floats(-1e3, 0.0)),
           st.lists(st.tuples(st.integers(0, 2), st.integers(-2000, 2000)),
                    min_size=1, max_size=12))
    def test_asym_pep_stay(self, q, delta, sites):
        eta, e = (np.array(v) for v in zip(*sites))
        vec = asym_pep_stay(eta, q, delta, e)
        for k, (i, ek) in enumerate(sites):
            one = float(asym_pep_stay(i, q, delta, ek))
            assert math.isfinite(one) and 0.0 <= one <= 1.0
            assert abs(vec[k] - one) <= 1e-15 * abs(one)
            if ek * math.log(q) > 600:
                continue  # kappa = delta * q**e is not a finite float
            kap = delta * q ** ek
            assert one == pytest.approx(degeneration_weight(
                "asym_pep", q=q, kappa=kap, j=i - 1, i=i), rel=1e-12)
            if abs(kap) <= 1e6 and i > 0:
                p = PhiParams(q=q, a=1 / q, b=1 / q ** 2, kappa=kap)
                assert abs(phi(i - 1, i, p).real - one) <= 1e-12


def outcome(fn, *args, **kw):
    """fn's value, or the type and message of the library error it raised,
    so that equal outcomes mean equal values or the same failure."""
    try:
        return fn(*args, **kw)
    except DynVertexError as err:
        return type(err), str(err)


ELL_SKEW = EllipticContext(mode="elliptic", eta=0.11 + 0.02j, tau=0.4 + 0.9j)


def cplx(re_lo, re_hi, im):
    return st.builds(complex, st.floats(re_lo, re_hi), st.floats(-im, im))


@st.composite
def weight_rows(draw):
    """A context, unfused parameters and one admissible row (J, i1, j1):
    every j2 with i2 = i1 + j1 - j2 >= 0."""
    ctx = draw(st.sampled_from([TRIG, ELL, ELL_SKEW]))
    p = UnfusedWeightParams(draw(cplx(-0.3, 0.3, 0.1)),
                            draw(cplx(0.2, 1.2, 0.1)),
                            draw(cplx(1.0, 3.0, 0.2)), ctx)
    J = draw(st.integers(1, 4))
    i1 = draw(st.integers(0, 3))
    j1 = draw(st.integers(0, J))
    return p, J, i1, j1


@st.composite
def phi_entries(draw):
    """Complex phi parameters, and (j, i) including entries off 0..i."""
    p = PhiParams(q=draw(cplx(0.1, 0.9, 0.2)), a=draw(cplx(-1.5, 1.5, 0.5)),
                  b=draw(cplx(-1.5, 1.5, 0.5)),
                  kappa=draw(cplx(-1.0, 1.0, 0.5)))
    i = draw(st.integers(0, 8))
    return p, draw(st.integers(-1, i + 1)), i


@st.composite
def psi_rows(draw):
    """Multiplicative parameters (s real or imaginary, as in the general
    model's defaults) and a row (i1, j1), including rows off the support."""
    J = draw(st.integers(1, 4))
    s = draw(st.floats(0.2, 0.6)) * draw(st.sampled_from([1, 1j]))
    pp = PsiParams(u=draw(st.floats(0.3, 0.95)), s=s,
                   q=draw(st.floats(0.2, 0.7)), J=J,
                   kappa=draw(st.floats(0.05, 0.5)))
    return pp, draw(st.integers(-1, 4)), draw(st.integers(-1, J + 1))


class TestEqualToPrior:
    """The shared top-row weights, the per-row memo and psi_row change no
    floating-point operation: values equal the reference copies with ==,
    and inputs that raise still raise the same error."""

    @settings(max_examples=60)
    @given(weight_rows())
    def test_w1_w_fused_and_sigma(self, draw):
        p, J, i1, j1 = draw
        for cfg in [(i1, 0, i1, 0), (i1, 1, i1 + 1, 0), (i1, 0, i1 - 1, 1),
                    (i1, 1, i1, 1)]:
            cfg = ArrowConfig(*cfg)
            assert outcome(w1, cfg, p) == outcome(prior.w1, cfg, p)
        memo = {}
        for j2 in range(min(J, i1 + j1) + 1):
            cfg = ArrowConfig(i1, j1, i1 + j1 - j2, j2)
            ref = outcome(prior.w_fused_recursive, J, cfg, p)
            assert outcome(w_fused_recursive, J, cfg, p) == ref
            ref = outcome(prior.sigma, J, cfg, p)
            assert outcome(sigma, J, cfg, p) == ref
            if weights._on_support(J, cfg):  # one memo across the row
                assert outcome(weights._sigma, J, cfg, p, memo) == ref
            args = (J, cfg, p.lam, p.Lambda, p.ctx)
            assert (outcome(c_correction, *args)
                    == outcome(prior.c_correction, *args))

    @settings(max_examples=100)
    @given(psi_rows())
    def test_psi_and_psi_row(self, draw):
        pp, i1, j1 = draw
        cfgs = [ArrowConfig(i1, j1, i1 + j1 - j2, j2)
                for j2 in range(min(pp.J, i1 + j1) + 1)]
        ref = [outcome(prior.psi, cfg, pp) for cfg in cfgs]
        assert [outcome(psi, cfg, pp) for cfg in cfgs] == ref
        row = outcome(psi_row, i1, j1, pp)
        errors = [r for r in ref if isinstance(r, tuple)]
        assert row == (errors[0] if errors else ref)

    @settings(max_examples=150)
    @given(phi_entries())
    # a ** 2 overflows; a = 0 is singular; k = 0 products at i = j = 0.
    @example((PhiParams(q=0.5, a=1e200, b=0.1, kappa=0.1), 2, 3))
    @example((PhiParams(q=0.5, a=0.0, b=0.1, kappa=0.1), 1, 3))
    @example((PhiParams(q=0.5, a=0.3, b=0.1, kappa=0.1), 0, 0))
    def test_phi(self, draw):
        p, j, i = draw
        want = bits(outcome(prior.phi, j, i, p))
        assert bits(outcome(phi, j, i, p)) == want

    def test_vanishing_f_two_eta_raises(self):
        # At eta = 1/2, f(2*eta) = sin(pi) is below the singular tolerance:
        # the (k,0; k-1,1) case raises from the same call as before, and
        # every other outcome is unchanged.
        ctx = EllipticContext(mode="trigonometric", eta=0.5)
        assert 0.0 < abs(ctx.f_two_eta()) < 1e-13
        p = params(ctx)
        expect = (SingularParameter, "vanishing f(2*eta)")
        assert outcome(w1, ArrowConfig(2, 0, 1, 1), p) == expect
        assert outcome(prior.w1, ArrowConfig(2, 0, 1, 1), p) == expect
        seen = []
        for J in (1, 2, 3):
            for i1, j1 in product(range(3), range(J + 1)):
                for j2 in range(min(J, i1 + j1) + 1):
                    cfg = ArrowConfig(i1, j1, i1 + j1 - j2, j2)
                    for new, old in ((w_fused_recursive,
                                      prior.w_fused_recursive),
                                     (sigma, prior.sigma)):
                        seen.append(outcome(new, J, cfg, p))
                        assert seen[-1] == outcome(old, J, cfg, p)
        assert expect in seen

    def test_f_two_eta_series_failure_raises_at_first_use(self):
        # The theta series fails at 2*eta (Im 0.1) but not on the real
        # axis: the context builds, f(2*eta) raises NonConvergent at each
        # use and is never kept, and the weights fail as before.
        ctx = EllipticContext(mode="elliptic", eta=0.07 + 0.05j,
                              tau=3e-4j)
        assert f_eval(0.3, ctx) == prior.f_eval(0.3, ctx)
        for _ in range(2):
            with pytest.raises(NonConvergent):
                ctx.f_two_eta()
            assert ctx.f_two_eta_value == []
        eta = complex(ctx.eta)
        p = UnfusedWeightParams(2.0 * eta - 0.3, 0.4, 2.0, ctx)
        for cfg in [(1, 0, 1, 0), (1, 1, 2, 0), (1, 0, 0, 1), (1, 1, 1, 1)]:
            cfg = ArrowConfig(*cfg)
            assert outcome(w1, cfg, p) == outcome(prior.w1, cfg, p)
        args = (2, ArrowConfig(1, 1, 1, 1), 0.4, 2.0, ctx)
        assert (outcome(c_correction, *args)
                == outcome(prior.c_correction, *args)
                == (NonConvergent,
                    "theta series did not converge within max_terms"))

    @pytest.mark.parametrize("eta, v, lam, L, J, cfg", [
        (0.0707308119919467 + 15.348252249433436j,
         0.9745184020660258 + 14.327998998951955j,
         0.41034450844253945 + 44.83691272849603j,
         0.8674035018337438 - 24.074199320451136j, 1, (2, 1, 3, 0)),
        (0.12094939800767869 - 1.1296621826270332j,
         0.6816966652553431 + 209.54096136558508j,
         -0.3126968126844645 - 9.201931573126132j,
         2.2489882278765463 - 4.4078805873583065j, 2, (2, 2, 2, 2))],
        ids=["J1", "J2"])
    def test_off_support_child_keeps_a_non_finite_top_weight(
            self, eta, v, lam, L, J, cfg):
        # The top-row weight of a child off the support is not finite
        # here, so 0 times it is nan.  The recursion keeps that nan as the
        # reference does, and w_fused_recursive raises at it.
        p = UnfusedWeightParams(v, lam, L,
                                EllipticContext(mode="trigonometric",
                                                eta=eta))
        cfg = ArrowConfig(*cfg)
        want = prior.w_fused_recursive(J, cfg, p)
        assert cmath.isnan(want)
        got = weights._w_hat(J, *cfg, p, 0, {}) / math.comb(J, cfg[3])
        assert bits(got) == bits(want)
        with pytest.raises(InadmissibleParameters,
                           match=r"^W_%d%s is \(nan\+nanj\): its parameters "
                           r"leave float range$" % (J, re.escape(str(cfg)))):
            w_fused_recursive(J, cfg, p)

    def test_vanishing_top_row_denominator_raises(self):
        # lam = 0 puts f(lambda) = 0 in the level-J top row at loff = 0.
        p = UnfusedWeightParams(-0.05 + 0.02j, 0.0, 2.3 + 0.1j, TRIG)
        msg = r"^vanishing f\(eta\*Lambda - v\) \* f\(lambda\)$"
        for J in (1, 2, 3):
            for f in (w_fused_recursive, prior.w_fused_recursive):
                with pytest.raises(SingularParameter, match=msg):
                    f(J, ArrowConfig(1, 1, 1, 1), p)
        # kappa = q**(2*j1 - J) maps to lam = 0 (here J = 2, j1 = 1).
        pp = PsiParams(u=0.7, s=0.3, q=0.4, J=2, kappa=1.0)
        with pytest.raises(SingularParameter, match=msg):
            psi_row(1, 1, pp)
        with pytest.raises(SingularParameter, match=msg):
            prior.psi(ArrowConfig(1, 1, 2, 0), pp)


def bits(value):
    """float.hex of the real and imaginary parts of a value or of each
    entry of a row; an outcome's error as it is."""
    if isinstance(value, list):
        return [bits(v) for v in value]
    if isinstance(value, tuple):
        return value
    return value.real.hex(), value.imag.hex()


def clear_caches():
    """Empty every weight-layer cache: psi's contexts and W_J memos, and
    the Pochhammer memos of the contexts the tests build."""
    weights._trig_contexts.clear()
    weights._w_memos.clear()
    for ctx in (TRIG, ELL, ELL_SKEW):
        ctx.pochhammer_memo.clear()


zeros = st.sampled_from([0.0, -0.0])


@st.composite
def cached_calls(draw):
    """psi, psi_row and elliptic_pochhammer calls that repeat parameters:
    rows (i1, j1) at a few admissible PsiParams (u carrying a signed zero
    imaginary part) and Pochhammer arguments with signed zero parts."""
    params = []
    for _ in range(draw(st.integers(1, 3))):
        J = draw(st.integers(1, 3))
        s = draw(st.floats(0.2, 0.6)) * draw(st.sampled_from([1, 1j]))
        params.append(PsiParams(
            u=complex(draw(st.floats(0.3, 0.95)), draw(zeros)),
            s=s, q=draw(st.floats(0.2, 0.7)), J=J,
            kappa=draw(st.floats(0.05, 0.5))))
    calls = []
    for _ in range(draw(st.integers(2, 10))):
        pp = draw(st.sampled_from(params))
        i1, j1 = draw(st.integers(0, 4)), draw(st.integers(0, pp.J))
        if draw(st.booleans()):
            calls.append((psi_row, (i1, j1, pp)))
        else:
            j2 = draw(st.integers(0, min(pp.J, i1 + j1)))
            calls.append((psi, (ArrowConfig(i1, j1, i1 + j1 - j2, j2), pp)))
    for _ in range(draw(st.integers(1, 6))):
        parts = st.one_of(zeros, st.floats(-0.4, 0.4))
        a = complex(draw(parts), draw(parts))
        calls.append((elliptic_pochhammer,
                      (a, draw(st.integers(-3, 4)),
                       draw(st.sampled_from([TRIG, ELL, ELL_SKEW])))))
    return calls


class TestCaches:
    """psi's shared contexts and W_J memos and the Pochhammer memo return
    the bits a call with empty caches computes, in any order of calls."""

    @settings(max_examples=60)
    @given(cached_calls(), st.randoms(use_true_random=False))
    def test_equal_to_empty_caches(self, calls, rnd):
        fresh = []
        for fn, args in calls:
            clear_caches()
            fresh.append(bits(outcome(fn, *args)))
        order = list(range(len(calls))) * 2
        rnd.shuffle(order)
        for i in order:
            fn, args = calls[i]
            assert bits(outcome(fn, *args)) == fresh[i]

    def test_signed_zero_arguments_kept_apart(self):
        # [a]_1 = f(a) keeps the sign of a's zero real part: the two
        # arguments compare equal but must not share a memo entry.
        args = (complex(0.0, 0.3), complex(-0.0, 0.3))
        fresh = []
        for a in args:
            clear_caches()
            fresh.append(bits(elliptic_pochhammer(a, 1, TRIG)))
        assert fresh[0] != fresh[1]
        assert [bits(elliptic_pochhammer(a, 1, TRIG)) for a in args] == fresh

    def test_caps_hold_after_the_check_grid(self, monkeypatch):
        # At small caps every cache is cleared or evicted many times over,
        # and the residuals keep their bits.
        want = row_sum_checks("psi", 1e-10)
        for caps in ({}, {"_W_MEMO_COUNT": 2, "_TRIG_CONTEXT_CAP": 2,
                          "_W_MEMO_ENTRIES": 8, "_POCHHAMMER_MEMO_CAP": 16}):
            for name, cap in caps.items():
                monkeypatch.setattr(specfun if "POCH" in name else weights,
                                    name, cap)
            clear_caches()
            assert row_sum_checks("psi", 1e-10) == want
            assert len(weights._w_memos) <= weights._W_MEMO_COUNT
            assert all(len(m) <= weights._W_MEMO_ENTRIES
                       for m in weights._w_memos.values())
            assert len(weights._trig_contexts) <= weights._TRIG_CONTEXT_CAP
            assert all(len(c.pochhammer_memo) <= specfun._POCHHAMMER_MEMO_CAP
                       for c in weights._trig_contexts.values())


@st.composite
def float_range_draws(draw):
    """A trigonometric or elliptic context, an argument z of f, unfused
    parameters, a level J with a configuration (on the support or not),
    and psi's parameters, each of modulus 0, in [0.05, 2] or, log-uniform,
    in [1e-300, 0.05], where psi's sines leave float range.  The
    imaginary parts of z lie within 2 of the real axis, those of v and lam
    within 10 and that of Lambda within 2.5, where a product of f in the
    weights can leave float range though each f stays in it; or, in half
    of the draws, those of z, v and lam may lie beyond 300, where f alone
    leaves it (sin(pi z) past about 226, theta1 sooner)."""
    near = st.floats(-2.0, 2.0)
    far = st.floats(300.0, 1e6) | st.floats(-1e6, -300.0)
    beyond = draw(st.booleans())
    eta = complex(draw(st.floats(0.02, 0.45)), draw(st.floats(-0.3, 0.3)))
    if draw(st.booleans()):
        ctx = EllipticContext(mode="elliptic", eta=eta, tau=complex(
            draw(st.floats(-0.5, 0.5)), draw(st.floats(0.5, 2.0))))
    else:
        ctx = EllipticContext(mode="trigonometric", eta=eta)
    wide = st.floats(-10.0, 10.0)
    z = complex(draw(near), draw(near | far if beyond else near))
    v, lam = (complex(draw(near), draw(wide | far if beyond else wide))
              for _ in range(2))
    L = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-2.5, 2.5)))
    J = draw(st.integers(1, 3))
    i1, j1, j2 = (draw(st.integers(0, n)) for n in (3, J, J))
    radius = (st.floats(0.0, 2.0).map(lambda r: r if r >= 0.05 else 0.0)
              | st.floats(-300.0, math.log10(0.05)).map(lambda e: 10.0 ** e))
    polar = st.builds(cmath.rect, radius, st.floats(-math.pi, math.pi))
    pp = PsiParams(u=draw(polar), s=draw(polar), q=draw(polar), J=J,
                   kappa=draw(polar))
    return (ctx, z, UnfusedWeightParams(v, lam, L, ctx), J,
            ArrowConfig(i1, j1, i1 + j1 - j2, j2), pp)


class TestFloatRange:
    """Where an argument of f, or a product of f values, leaves float
    range, the weights raise a DynVertexError, not cmath's OverflowError,
    and return no inf or nan."""

    @settings(max_examples=300)
    @given(float_range_draws())
    def test_finite_or_typed(self, draw):
        ctx, z, p, J, cfg, pp = draw
        i1, j1, _, j2 = cfg
        j1, j2 = min(j1, 1), min(j2, 1)
        calls = [(f_eval, z, ctx), (w1, (i1, j1, i1 + j1 - j2, j2), p),
                 (w_fused_recursive, J, cfg, p), (sigma, J, cfg, p),
                 (psi, cfg, pp)]
        if ctx.is_elliptic:
            calls.append((specfun.theta1, z, ctx))
        for fn, *args in calls:
            try:
                value = fn(*args)
            except DynVertexError:
                continue
            assert cmath.isfinite(value), (fn.__name__, args, value)

    def test_theta1_past_float_range(self):
        ctx = EllipticContext(mode="elliptic", eta=0.07, tau=1.3j)
        with pytest.raises(InadmissibleParameters,
                           match=r"^theta1 argument \(0\.1\+300j\) out of "
                           r"float range \(math range error\)$"):
            specfun.theta1(0.1 + 300j, ctx)

    @pytest.mark.parametrize("fn, args", [
        (w1, (ArrowConfig(1, 0, 1, 0),)),
        (w_fused_recursive, (2, ArrowConfig(1, 1, 1, 1))),
        (sigma, (2, ArrowConfig(1, 1, 1, 1)))])
    def test_weights_past_float_range(self, fn, args):
        # f(lam) = sin(pi lam) at Im lam = 250 is beyond float range.
        p = UnfusedWeightParams(0.3, 0.2 + 250j, 2.0, TRIG)
        with pytest.raises(InadmissibleParameters,
                           match=r"^f argument .* out of float range"):
            fn(*args, p)

    def test_psi_past_float_range(self):
        # Lambda = log(s) / (2 pi i eta) is about -1508 at s = 1e-300,
        # where the products of sines in sigma overflow to nan.
        p = PsiParams(u=0.7, s=1e-300, q=0.4, J=2, kappa=0.5)
        with pytest.raises(InadmissibleParameters,
                           match=r"^psi\(1, 1, 1, 1\) is \(nan\+nanj\): "
                           r"its parameters leave float range$"):
            psi(ArrowConfig(1, 1, 1, 1), p)
        with pytest.raises(InadmissibleParameters,
                           match=r"^psi\(1, 1, 2, 0\) is \(nan\+nanj\)"):
            psi_row(1, 1, p)

    @pytest.mark.parametrize("field", ["q", "u", "s"])
    def test_psi_degenerate_parameters(self, field):
        # u = 0 and s = 0 have no logarithm, and q = 1 puts eta at 0.
        kw = dict(u=0.7, s=0.3, q=0.4, J=2, kappa=0.5)
        kw[field] = 1.0 if field == "q" else 0.0
        with pytest.raises(SingularParameter, match="psi requires q != 1"):
            psi(ArrowConfig(1, 1, 1, 1), PsiParams(**kw))
