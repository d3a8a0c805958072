"""Partition-function layer: B/D symmetric functions, fusion consistency,
and the stochastically corrected variant."""

import cmath
import itertools
import math

import pytest

from dynvertex.errors import ModeError
from dynvertex.specfun import EllipticContext
from dynvertex.symfun import (
    ColumnSpec,
    RhoSpecialization,
    Signature,
    b_fused,
    b_munu,
    b_stochastic,
    consistency_checks,
    d_munu,
)
from dynvertex.symfun import _b_stochastic_vertex
from dynvertex.weights import ArrowConfig, UnfusedWeightParams, w1

TRIG = EllipticContext(mode="trigonometric", eta=0.07)
ELL = EllipticContext(mode="elliptic", eta=0.07, tau=1.3j)
CONTEXTS = [TRIG, ELL]
ETA = 0.07

LAM = 0.31 + 0.12j
Z = (0.11, -0.05 + 0.02j, 0.21, 0.08, -0.13, 0.17, 0.02, 0.09)
L = (0.83, 0.67 + 0.05j, 0.91, 0.55, 0.73, 0.61, 0.77, 0.59)
W1_, W2_, W3_ = 0.45, 0.29 + 0.1j, -0.18 + 0.07j


def sigs(n, maxp, minp=0):
    for p in itertools.combinations_with_replacement(range(minp, maxp + 1),
                                                     n):
        yield tuple(sorted(p, reverse=True))


class TestSignature:
    def test_validation(self):
        with pytest.raises(ValueError):
            Signature((1, 2))
        with pytest.raises(ValueError):
            Signature((2, -1))

    def test_accessors(self):
        s = Signature((3, 1, 1, 0))
        assert s.length == 4
        assert s.weight == 5
        assert s.largest == 3
        assert s.multiplicity(1) == 2
        assert s.multiplicity(2) == 0
        assert Signature(()).largest == 0


class TestTrivial:
    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_zero_rows(self, ctx):
        spec = ColumnSpec(LAM, (), Z, L, ctx)
        assert b_munu(Signature(()), Signature(()), spec) == 1
        assert b_munu(Signature((2, 1)), Signature((2, 1)), spec) == 1
        assert b_munu(Signature((2, 1)), Signature((2, 0)), spec) == 0
        assert d_munu(Signature((2,)), Signature((2,)), spec) == 1

    def test_length_mismatch(self):
        spec = ColumnSpec(LAM, (W1_,), Z, L, TRIG)
        with pytest.raises(ValueError):
            b_munu(Signature((1,)), Signature((1,)), spec)
        with pytest.raises(ValueError):
            d_munu(Signature((1, 0)), Signature((1,)), spec)


class TestSymmetry:
    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_b_two_vars(self, ctx):
        mu, nu = Signature((3, 2, 1)), Signature((2,))
        a = b_munu(mu, nu, ColumnSpec(LAM, (W1_, W2_), Z, L, ctx))
        b = b_munu(mu, nu, ColumnSpec(LAM, (W2_, W1_), Z, L, ctx))
        assert a == pytest.approx(b, rel=1e-11)

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_b_three_vars(self, ctx):
        mu, nu = Signature((4, 3, 1, 1)), Signature((2,))
        vals = [
            b_munu(mu, nu, ColumnSpec(LAM, ws, Z, L, ctx))
            for ws in itertools.permutations((W1_, W2_, W3_))
        ]
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-9)

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_d_two_vars(self, ctx):
        mu, nu = Signature((3, 2, 1)), Signature((2, 1, 0))
        a = d_munu(mu, nu, ColumnSpec(LAM, (W1_, W2_), Z, L, ctx))
        b = d_munu(mu, nu, ColumnSpec(LAM, (W2_, W1_), Z, L, ctx))
        assert a == pytest.approx(b, rel=1e-11)


class TestBranching:
    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_two_into_one_plus_one(self, ctx):
        mu, nu = Signature((3, 2, 1)), Signature((2,))
        lhs = b_munu(mu, nu, ColumnSpec(LAM, (W1_, W2_), Z, L, ctx))
        tot = 0.0
        for kp in sigs(2, 4):
            kap = Signature(kp)
            tot += (b_munu(mu, kap, ColumnSpec(LAM, (W1_,), Z, L, ctx))
                    * b_munu(kap, nu,
                             ColumnSpec(LAM + 2 * ETA, (W2_,), Z, L, ctx)))
        assert lhs == pytest.approx(tot, rel=1e-11)

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_three_into_two_plus_one(self, ctx):
        mu, nu = Signature((3, 3, 1, 1)), Signature((2,))
        lhs = b_munu(mu, nu, ColumnSpec(LAM, (W1_, W2_, W3_), Z, L, ctx))
        tot = 0.0
        for kp in sigs(2, 4):
            kap = Signature(kp)
            tot += (b_munu(mu, kap, ColumnSpec(LAM, (W1_, W2_), Z, L, ctx))
                    * b_munu(kap, nu,
                             ColumnSpec(LAM + 4 * ETA, (W3_,), Z, L, ctx)))
        assert lhs == pytest.approx(tot, rel=1e-9)


class TestDConsistency:
    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_straight_up(self, ctx):
        # All paths go straight up: the single ensemble is a product of
        # pass-through weights with dynamical parameter accumulated left to
        # right.
        nu = Signature((2, 1, 1))
        spec = ColumnSpec(LAM, (W1_,), Z, L, ctx)
        val = d_munu(nu, nu, spec)
        eta = ETA
        base = LAM - 2 * eta  # one row
        ref = 1.0
        phi_bottom = base
        for x in range(3):
            m = nu.multiplicity(x)
            phi = phi_bottom + 2 * eta  # j1 = 0 on this column
            v = W1_ - Z[x] - eta
            ref *= w1(ArrowConfig(m, 0, m, 0),
                      UnfusedWeightParams(v, phi, L[x], ctx))
            phi_bottom = phi_bottom + 4 * eta * m - 2 * eta * L[x]
        assert val == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_one_step_right(self, ctx):
        # nu = (1), mu = (2): the unique ensemble turns right at column 1
        # and up at column 2.
        spec = ColumnSpec(LAM, (W1_,), Z, L, ctx)
        val = d_munu(Signature((2,)), Signature((1,)), spec)
        eta = ETA
        base = LAM - 2 * eta
        phi0 = base + 4 * eta * 0 - 2 * eta * L[0]
        phi1 = phi0 + 4 * eta * 1 - 2 * eta * L[1]
        w_turn = w1(ArrowConfig(1, 0, 0, 1),
                    UnfusedWeightParams(W1_ - Z[1] - eta, phi0 + 2 * eta,
                                        L[1], ctx))
        w_exit = w1(ArrowConfig(0, 1, 1, 0),
                    UnfusedWeightParams(W1_ - Z[2] - eta, phi1 + 2 * eta
                                        - 4 * eta, L[2], ctx))
        assert val == pytest.approx(w_turn * w_exit, rel=1e-11)


class TestFusion:
    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    @pytest.mark.parametrize("jlist,wbase", [((2,), (W1_,)),
                                             ((1, 2), (W1_, W2_)),
                                             ((3,), (W2_,))])
    def test_consistency(self, ctx, jlist, wbase):
        eta = ETA
        jtot = sum(jlist)
        flat = []
        for j, w in zip(jlist, wbase):
            flat += [w + 2 * eta * k for k in range(j)]
        for mup, nup in [(tuple(range(jtot, 0, -1)), ()),
                         (tuple(sorted((3,) * jtot + (1,), reverse=True)),
                          (1,))]:
            mu, nu = Signature(mup), Signature(nup)
            fused = b_fused(mu, nu, ColumnSpec(LAM, wbase, Z, L, ctx, jlist))
            unfused = b_munu(mu, nu, ColumnSpec(LAM, flat, Z, L, ctx))
            assert fused == pytest.approx(unfused, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=["trig", "ell"])
    def test_all_ones_degrees(self, ctx):
        mu, nu = Signature((3, 2, 1)), Signature((2,))
        a = b_fused(mu, nu, ColumnSpec(LAM, (W1_, W2_), Z, L, ctx, (1, 1)))
        b = b_munu(mu, nu, ColumnSpec(LAM, (W1_, W2_), Z, L, ctx))
        assert a == b


def _stochastic_setup(q=0.4, s=0.3, uxi=0.25, delta=-0.2 + 0j, cut=16):
    eta = 1j * cmath.log(q) / (4 * math.pi)
    ctx = EllipticContext(mode="trigonometric", eta=eta)
    Lam = cmath.log(s) / (2j * math.pi * eta)
    z0 = 0.0
    w = -cmath.log(uxi) / (2j * math.pi) + z0 + eta
    lam = 1j * cmath.log(delta) / (2 * math.pi)
    rho = RhoSpecialization(z0, Lam)
    return ctx, lam, w, rho, [z0] * (cut + 1), [Lam] * (cut + 1)


class TestStochastic:
    def test_formula_equals_vertex(self):
        rho = RhoSpecialization(Z[0], L[0])
        for jlist, wbase in [((1,), (W1_.real,)), ((2,), (W1_.real,)),
                             ((1, 2), (W1_.real, 0.29))]:
            jtot = sum(jlist)
            spec = ColumnSpec(0.31, wbase, [Z[0].real] * 8, [L[0].real] * 8,
                              TRIG, jlist)
            for mup in [(2,) * jtot + (1,),
                        tuple(sorted((3, 2, 2, 1)[:jtot] + (1,),
                                     reverse=True))]:
                mu, nu = Signature(mup), Signature((1,))
                a = b_stochastic(mu, nu, spec, rho)
                b = _b_stochastic_vertex(mu, nu, spec)
                assert a == pytest.approx(b, rel=1e-11, abs=1e-14)

    def test_zero_smallest_part(self):
        rho = RhoSpecialization(Z[0], L[0])
        spec = ColumnSpec(0.31, (W1_.real,), [Z[0].real] * 8,
                          [L[0].real] * 8, TRIG, (1,))
        assert b_stochastic(Signature((2, 0)), Signature((1,)), spec,
                            rho) == 0

    def test_elliptic_rejected(self):
        rho = RhoSpecialization(Z[0], L[0])
        spec = ColumnSpec(LAM, (W1_,), Z, L, ELL, (1,))
        with pytest.raises(ModeError):
            b_stochastic(Signature((2, 1)), Signature((1,)), spec, rho)

    @pytest.mark.parametrize("J", [1, 2])
    def test_total_mass(self, J):
        cut = 16
        ctx, lam, w, rho, Zs, Ls = _stochastic_setup(cut=cut)
        spec = ColumnSpec(lam, (w,), Zs, Ls, ctx, (J,))
        nu = Signature((1,))
        total = 0.0
        for mup in sigs(1 + J, cut):
            val = b_stochastic(Signature(mup), nu, spec, rho)
            assert abs(val.imag) < 1e-9
            total += val.real
        assert total == pytest.approx(1.0, abs=1e-8)


class TestConsistencyChecks:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="suite"):
            consistency_checks("verify", 1e-9, 1e-8)
