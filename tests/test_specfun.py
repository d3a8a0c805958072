"""Scalar special-function layer: contexts, Pochhammer symbols, theta
functions, and terminating hypergeometric summation identities."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import prior_weights as prior
from dynvertex import specfun
from dynvertex.errors import (
    DynVertexError,
    NonConvergent,
    SingularParameter,
)
from dynvertex.specfun import (
    EllipticContext,
    elliptic_pochhammer,
    f_eval,
    identity_checks,
    q_pochhammer,
    rational_pochhammer,
    theta1,
    vwp_basic_W,
    vwp_elliptic_v,
)

TRIG = EllipticContext(mode="trigonometric", eta=0.07)
ELL = EllipticContext(mode="elliptic", eta=0.07, tau=1.3j)
ELL_SKEW = EllipticContext(mode="elliptic", eta=0.11 + 0.02j,
                           tau=0.4 + 0.9j)
CONTEXTS = [TRIG, ELL]


def outcome_bits(fn, *args):
    """float.hex of the parts of fn's value, or the type and message of
    the library error it raised."""
    try:
        value = fn(*args)
    except DynVertexError as err:
        return type(err), str(err)
    return value.real.hex(), value.imag.hex()


class TestContext:
    def test_q_cached(self):
        assert TRIG.q == pytest.approx(cmath.exp(-4j * math.pi * 0.07))

    def test_elliptic_requires_tau(self):
        with pytest.raises(ValueError):
            EllipticContext(mode="elliptic", eta=0.07)
        with pytest.raises(ValueError):
            EllipticContext(mode="elliptic", eta=0.07, tau=-0.5j)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            EllipticContext(mode="hyperbolic", eta=0.07)


class TestPochhammer:
    def test_q_splicing(self):
        # (a;q)_{k+m} = (a;q)_k (a q^k; q)_m for all integer k, m.
        a, q = 0.37 + 0.21j, 0.55 + 0.1j
        for k in range(-3, 4):
            for m in range(-3, 4):
                lhs = q_pochhammer(a, q, k + m)
                rhs = q_pochhammer(a, q, k) * q_pochhammer(a * q ** k, q, m)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_q_negative_index_pole(self):
        q = 0.4
        with pytest.raises(SingularParameter):
            q_pochhammer(q, q, -1)

    def test_rational_splicing(self):
        a = 1.37 - 0.4j
        for k in range(-3, 4):
            for m in range(-3, 4):
                lhs = rational_pochhammer(a, k + m)
                rhs = rational_pochhammer(a, k) * rational_pochhammer(a + k, m)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_elliptic_splicing(self, ctx):
        a = 0.31 + 0.12j
        eta = complex(ctx.eta)
        for k in range(-3, 4):
            for m in range(-3, 4):
                lhs = elliptic_pochhammer(a, k + m, ctx)
                rhs = (elliptic_pochhammer(a, k, ctx)
                       * elliptic_pochhammer(a - 2 * eta * k, m, ctx))
                assert lhs == pytest.approx(rhs, rel=1e-11)

    @settings(max_examples=150)
    @given(st.floats(-0.6, 0.6), st.floats(-0.3, 0.3), st.integers(-4, 5),
           st.sampled_from([TRIG, ELL, ELL_SKEW]))
    @example(0.31, 0.12, 0, TRIG)
    @example(-0.0, 0.0, 0, ELL)
    @example(0.0, 0.0, -1, TRIG)  # 1 / f(2*eta)
    @example(-0.14, 0.0, -1, TRIG)  # 1 / f(0) raises SingularParameter
    def test_elliptic_equal_to_prior(self, x, y, k, ctx):
        ctx.pochhammer_memo.clear()
        a = complex(x, y)
        want = outcome_bits(prior.elliptic_pochhammer, a, k, ctx)
        assert outcome_bits(elliptic_pochhammer, a, k, ctx) == want
        assert outcome_bits(elliptic_pochhammer, a, k, ctx) == want  # hit

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_reflection(self, ctx):
        # [a]_m = (-1)^m [2 eta (m - 1) - a]_m.
        a = 0.23 - 0.08j
        eta = complex(ctx.eta)
        for m in range(6):
            lhs = elliptic_pochhammer(a, m, ctx)
            rhs = ((-1) ** m
                   * elliptic_pochhammer(2 * eta * (m - 1) - a, m, ctx))
            assert lhs == pytest.approx(rhs, rel=1e-11)

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_split_product(self, ctx):
        # [a]_k [a - 2 eta (k+1)]_{m-k} = [a]_{m+1} / f(a - 2 eta k).
        a = 0.29 + 0.17j
        eta = complex(ctx.eta)
        for m in range(5):
            for k in range(m + 1):
                lhs = (elliptic_pochhammer(a, k, ctx)
                       * elliptic_pochhammer(a - 2 * eta * (k + 1),
                                             m - k, ctx))
                rhs = (elliptic_pochhammer(a, m + 1, ctx)
                       / f_eval(a - 2 * eta * k, ctx))
                assert lhs == pytest.approx(rhs, rel=1e-11)


class TestTheta:
    def test_odd(self):
        for z in (0.3 + 0.1j, -0.7 + 0.45j, 1.2 - 0.2j):
            assert theta1(-z, ELL) == pytest.approx(-theta1(z, ELL),
                                                    rel=1e-12)

    def test_antiperiod_one(self):
        z = 0.27 + 0.06j
        assert theta1(z + 1, ELL) == pytest.approx(-theta1(z, ELL), rel=1e-12)

    def test_quasi_period_tau(self):
        z = 0.27 + 0.06j
        tau = complex(ELL.tau)
        factor = -cmath.exp(-1j * math.pi * tau - 2j * math.pi * z)
        assert theta1(z + tau, ELL) == pytest.approx(factor * theta1(z, ELL),
                                                     rel=1e-11)

    def test_sine_degeneration(self):
        # For tau deep in the upper half plane, theta1 ~ 2 exp(pi i tau/4)
        # sin(pi z).
        far = EllipticContext(mode="elliptic", eta=0.07, tau=8j)
        z = 0.31 - 0.04j
        lead = 2 * cmath.exp(1j * math.pi * 8j / 4) * cmath.sin(math.pi * z)
        assert theta1(z, far) == pytest.approx(lead, rel=1e-9)

    @settings(max_examples=200)
    @given(st.floats(-2.0, 2.0), st.floats(-0.6, 0.6),
           st.sampled_from([1.3j, 0.4 + 0.9j, 8j, -0.3 + 0.05j]))
    def test_equal_to_prior(self, x, y, tau):
        # tau = -0.3 + 0.05j converges slowly (about 15 paired terms).
        ctx = EllipticContext(mode="elliptic", eta=0.07, tau=tau)
        assert theta1(complex(x, y), ctx) == prior.theta1(complex(x, y), ctx)

    def test_too_few_terms_raise(self):
        # Im tau = 1e-3 needs about 190 paired terms at this z, and
        # Im tau = 3e-4 more than the 256 theta1 sums.
        few = EllipticContext(mode="elliptic", eta=0.07, tau=3e-4j)
        with pytest.raises(NonConvergent):
            theta1(0.3 + 0.1j, few)
        enough = EllipticContext(mode="elliptic", eta=0.07, tau=1e-3j)
        assert theta1(0.3 + 0.1j, enough) == prior.theta1(0.3 + 0.1j, enough)

    def test_f_two_eta_kept_from_first_use(self):
        for eta, tau in ((0.07, None), (0.11 + 0.02j, 0.4 + 0.9j)):
            mode = "trigonometric" if tau is None else "elliptic"
            ctx = EllipticContext(mode=mode, eta=eta, tau=tau)
            assert ctx.f_two_eta_value == []
            want = prior.f_eval(2 * complex(eta), ctx)
            assert ctx.f_two_eta() == want
            assert ctx.f_two_eta_value == [want]
            assert ctx.f_two_eta() == want

    def test_trig_mode_f(self):
        z = 0.42 + 0.11j
        assert f_eval(z, TRIG) == pytest.approx(cmath.sin(math.pi * z))
        with pytest.raises(ValueError):
            theta1(z, TRIG)

    def test_bridge_to_q_pochhammer(self):
        # [a]_k in trigonometric mode equals the q-Pochhammer conversion
        # (i / 2 A^{1/2})^k q^{-C(k,2)/2} (A; q)_k with A = e^{2 pi i a}.
        ctx = TRIG
        eta = complex(ctx.eta)
        a = 0.23 + 0.31j
        A = cmath.exp(2j * math.pi * a)
        A12 = cmath.exp(1j * math.pi * a)
        qh = cmath.exp(-2j * math.pi * eta)  # q^{1/2}
        for k in range(-3, 6):
            lhs = elliptic_pochhammer(a, k, ctx)
            rhs = ((1j / (2 * A12)) ** k * qh ** (-(k * (k - 1)) // 2)
                   * q_pochhammer(A, ctx.q, k))
            assert lhs == pytest.approx(rhs, rel=1e-11)


class TestSeries:
    def test_rogers_6w5(self):
        # 6W5(a; b, c, q^-n; q, a q^{n+1}/(b c))
        #   = (aq; q)_n (aq/bc; q)_n / ((aq/b; q)_n (aq/c; q)_n).
        q = 0.52 + 0.05j
        a, b, c = 0.7 + 0.1j, 0.35 - 0.12j, -0.6 + 0.2j
        for n in range(6):
            lhs = vwp_basic_W(a, [b, c, q ** -n], q,
                              a * q ** (n + 1) / (b * c), terminate_at=n)
            rhs = (q_pochhammer(a * q, q, n)
                   * q_pochhammer(a * q / (b * c), q, n)
                   / (q_pochhammer(a * q / b, q, n)
                      * q_pochhammer(a * q / c, q, n)))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_jackson_10v9(self, ctx):
        # 10v9(a; b, c, d, e, 2 eta n; 1) with the balancing condition
        # e = 2a - 2 eta - b - c - d - 2 eta n equals the Pochhammer ratio
        # [a-2eta]_n [a-b-c-2eta]_n [a-b-d-2eta]_n [a-c-d-2eta]_n /
        # ([a-b-2eta]_n [a-c-2eta]_n [a-d-2eta]_n [a-b-c-d-2eta]_n).
        eta = complex(ctx.eta)
        a, b, c, d = 0.61 + 0.2j, 0.23 - 0.11j, 0.17 + 0.08j, -0.29 + 0.13j
        ep = lambda x, k: elliptic_pochhammer(x, k, ctx)
        for n in range(5):
            e = 2 * a - 2 * eta - b - c - d - 2 * eta * n
            lhs = vwp_elliptic_v(a, [b, c, d, e, 2 * eta * n], 1.0, ctx,
                                 terminate_at=n)
            rhs = (ep(a - 2 * eta, n) * ep(a - b - c - 2 * eta, n)
                   * ep(a - b - d - 2 * eta, n) * ep(a - c - d - 2 * eta, n)
                   / (ep(a - b - 2 * eta, n) * ep(a - c - 2 * eta, n)
                      * ep(a - d - 2 * eta, n)
                      * ep(a - b - c - d - 2 * eta, n)))
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestIdentityChecks:
    @settings(max_examples=50)
    @given(st.integers(0, 2 ** 32), st.floats(-5.0, 5.0),
           st.floats(0.0, 5.0))
    def test_uniform_draws_as_numpy(self, seed, lo, width):
        ours, theirs = (np.random.default_rng(seed) for _ in range(2))
        hi = lo + width
        assert ([specfun._uniform(ours, lo, hi) for _ in range(20)]
                == [theirs.uniform(lo, hi) for _ in range(20)])

    def test_checks_leave_the_pochhammer_memos_alone(self):
        # Their random arguments never repeat, so the checks evaluate the
        # products without the memos of the contexts they run in.
        for ctx in specfun.CHECK_CONTEXTS.values():
            ctx.pochhammer_memo.clear()
        identity_checks(3, 2, 1e-10)
        assert [ctx.pochhammer_memo for ctx in
                specfun.CHECK_CONTEXTS.values()] == [{}, {}]

    @pytest.mark.parametrize("size", [0, -1])
    def test_empty_grid_rejected(self, size):
        with pytest.raises(ValueError, match="grid_size"):
            identity_checks(0, size, 1e-10)
