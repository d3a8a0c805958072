"""Vertex-weight layer: the unfused weight, column fusion, the fused-weight
recursion and closed form, factored special cases, stochastic corrections,
multiplicative-parameter weights, and closed-form degenerations."""

import cmath
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import prior_weights as prior
from dynvertex.errors import (
    DynVertexError,
    InadmissibleParameters,
    PatternMismatch,
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
    sigma_j1_full_row,
    w1,
    w_fused_closed,
    w_fused_recursive,
    w_fused_special,
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
            cfg = ArrowConfig(*cfg)
            assert cfg.j1 + cfg.j2 > J or cfg.i2 < cfg.j1
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
            assert outcome(sigma, J, cfg, p, memo=memo) == ref

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
