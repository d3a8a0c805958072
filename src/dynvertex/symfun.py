"""Elliptic weight symmetric functions.

B and D are partition functions of dynamical directed path ensembles on a
rectangle, evaluated by a column-sweep dynamic program over horizontal
occupancy vectors.  Fused variants replace the single-arrow row weights by
the fused column weights of degree J.  The stochastically corrected variant
multiplies by an explicit factorized prefactor and a ratio of normalized D
functions at a factorizing specialization (trigonometric mode only).

Coordinate convention of this module: columns are indexed from 0, rows from
1, and left-entering paths arrive at column 0.  The additive dynamical
parameter at the origin is the base value; it shifts by
+2*eta*J_y - 4*eta*j1 when moving up one (possibly fused) row and by
+4*eta*i2 - 2*eta*Lambda_x when moving right one column.

consistency_checks checks the symmetry, branching and fusion of B and D
and the stochastic variant's formula and total mass at a fixed test point.
"""

import cmath
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

from .errors import Check, ModeError, SingularParameter, SizeLimit
from .specfun import (_SINGULAR_TOL, CHECK_CONTEXTS, EllipticContext,
                      f_eval, rel_residual)
from .weights import ArrowConfig, UnfusedWeightParams, sigma, w1, \
    w_fused_recursive

_STATE_LIMIT = 1 << 16


@dataclass(frozen=True)
class Signature:
    """Weakly decreasing tuple of nonnegative integers."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p < 0 for p in parts):
            raise ValueError("signature parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("signature parts must be weakly decreasing")

    @property
    def length(self):
        return len(self.parts)

    def multiplicity(self, j):
        """Number of parts equal to j."""
        return sum(1 for p in self.parts if p == j)

    @property
    def largest(self):
        return self.parts[0] if self.parts else 0


EMPTY = Signature(())


@dataclass(frozen=True)
class ColumnSpec:
    """Parameters of the partition-function rectangle.

    lam is the dynamical argument of the symmetric function (the labeled
    value, from which the origin value is reconstructed per function).  W
    holds one base spectral parameter per row block; J holds the fusion
    degree of each block (None means all ones, i.e. single-arrow rows).
    Z and L are the per-column inhomogeneity and spin parameters and must
    cover every column up to the largest part of mu.
    """

    lam: complex
    W: tuple
    Z: tuple
    L: tuple
    ctx: object
    J: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "W", tuple(self.W))
        object.__setattr__(self, "Z", tuple(self.Z))
        object.__setattr__(self, "L", tuple(self.L))
        if self.J is None:
            object.__setattr__(self, "J", (1,) * len(self.W))
        else:
            object.__setattr__(self, "J", tuple(int(j) for j in self.J))
        if len(self.J) != len(self.W):
            raise ValueError("J and W must have one entry per row block")
        if any(j < 1 for j in self.J):
            raise ValueError("fusion degrees must be positive integers")

    @property
    def rows(self):
        return len(self.W)

    @property
    def total_degree(self):
        return sum(self.J)


@dataclass(frozen=True)
class RhoSpecialization:
    """Factorizing spectral specialization, described by the column-0
    inhomogeneity z0 and spin Lambda0 it is attached to."""

    z0: complex
    Lambda0: complex

    def p0(self, eta):
        return complex(self.z0) + complex(eta) * (1 - complex(self.Lambda0))

    def q0(self, eta):
        return complex(self.z0) + complex(eta) * (1 + complex(self.Lambda0))


def _check_columns(mu, spec):
    X = mu.largest
    if len(spec.Z) <= X or len(spec.L) <= X:
        raise ValueError("Z and L must cover columns 0..mu_1")
    return X


def _sweep(mu, nu, spec, base_lam, vertex_weight, left_entries):
    """Column-sweep partition function.

    vertex_weight(x, y, cfg, phi) -> complex gives the weight of the vertex
    in row y (0-based block index) of column x, with dynamical parameter
    phi evaluated at that vertex.  left_entries is the tuple of horizontal
    arrow counts entering column 0 from the left.
    """
    X = _check_columns(mu, spec)
    r = spec.rows
    Jl = spec.J
    eta = complex(spec.ctx.eta)
    n_states = 1
    for j in Jl:
        n_states *= j + 1
    if n_states > _STATE_LIMIT:
        raise SizeLimit("horizontal state space too large (%d)" % n_states)

    states = {tuple(left_entries): 1.0 + 0.0j}
    phi_bottom = complex(base_lam)
    out_ranges = [range(j + 1) for j in Jl]
    for x in range(X + 1):
        m_nu = nu.multiplicity(x)
        m_mu = mu.multiplicity(x)
        nxt = defaultdict(complex)
        for h, amp in states.items():
            for g in itertools.product(*out_ranges):
                i = m_nu
                w = amp
                phi = phi_bottom
                ok = True
                for y in range(r):
                    phi = phi + 2 * eta * Jl[y] - 4 * eta * h[y]
                    i_out = i + h[y] - g[y]
                    if i_out < 0:
                        ok = False
                        break
                    w = w * vertex_weight(x, y, ArrowConfig(i, h[y], i_out,
                                                            g[y]), phi)
                    if w == 0:
                        ok = False
                        break
                    i = i_out
                if ok and i == m_mu:
                    nxt[g] += w
        states = nxt
        if not states:
            return 0.0 + 0.0j
        phi_bottom = phi_bottom + 4 * eta * m_nu - 2 * eta * complex(
            spec.L[x])
    return complex(states.get((0,) * r, 0.0))


def _fused_vertex_weight(spec):
    ctx = spec.ctx
    eta = complex(ctx.eta)

    def weight(x, y, cfg, phi):
        v = complex(spec.W[y]) - complex(spec.Z[x]) - eta
        p = UnfusedWeightParams(v, phi, complex(spec.L[x]), ctx)
        if spec.J[y] == 1:
            return w1(cfg, p)
        return w_fused_recursive(spec.J[y], cfg, p)

    return weight


def b_munu(mu, nu, spec):
    """B partition function over single-arrow row ensembles: l(mu) paths,
    rows entered from the left one per row, nu entered from the bottom."""
    if any(j != 1 for j in spec.J):
        raise ValueError("b_munu requires single-arrow rows; use b_fused")
    return b_fused(mu, nu, spec)


def b_fused(mu, nu, spec):
    """B partition function with fused row blocks of degrees spec.J."""
    M = spec.total_degree
    if mu.length != nu.length + M:
        raise ValueError("l(mu) must equal l(nu) + total row degree")
    eta = complex(spec.ctx.eta)
    base = complex(spec.lam) + 2 * eta * M
    return _sweep(mu, nu, spec, base, _fused_vertex_weight(spec),
                  spec.J)


def d_munu(mu, nu, spec):
    """D partition function: l(mu) = l(nu) paths entering from the bottom
    at nu and exiting at the top at mu, across len(spec.W) rows."""
    if mu.length != nu.length:
        raise ValueError("d_munu requires l(mu) = l(nu)")
    N = spec.rows
    eta = complex(spec.ctx.eta)
    base = complex(spec.lam) - 2 * eta * N
    return _sweep(mu, nu, spec, base, _fused_vertex_weight(spec), (0,) * N)


def _c_mu(mu, lam, L, ctx):
    """Normalization constant of the factorized D specialization."""
    eta = complex(ctx.eta)
    M = mu.length
    total = math.pi ** (-M) * ctx.f_two_eta() ** M
    for j in range(M):
        den = f_eval(lam + 2 * eta * j, ctx)
        if abs(den) < _SINGULAR_TOL:
            raise SingularParameter("vanishing f(lam + 2*eta*j)")
        total /= den
    m_below = 0
    lam_below = 0.0 + 0.0j
    for i in range(mu.largest + 1):
        mi = mu.multiplicity(i)
        Li = complex(L[i])
        for j in range(mi):
            num = (f_eval(lam + 2 * eta * (2 * m_below + mi + j)
                          - 2 * eta * (lam_below + Li), ctx)
                   * f_eval(lam + 2 * eta * (2 * m_below + j + 1)
                            - 2 * eta * lam_below, ctx))
            den = f_eval(2 * eta * (Li - j), ctx)
            if abs(den) < _SINGULAR_TOL:
                raise SingularParameter("vanishing f(2*eta*(Lambda_i - j))")
            total *= num / den
        m_below += mi
        lam_below += Li
    return total


def d_rho_normalized(mu, lam, spec):
    """Closed form of the normalized D function at the factorizing
    specialization; 0 when the smallest part of mu vanishes."""
    ctx = spec.ctx
    if ctx.is_elliptic:
        raise ModeError("factorized D specialization is trigonometric only")
    eta = complex(ctx.eta)
    lam = complex(lam)
    M = mu.length
    if M == 0:
        return 1.0 + 0.0j
    if mu.parts[-1] == 0:
        return 0.0 + 0.0j
    _check_columns(mu, spec)
    L0 = complex(spec.L[0])
    val = (-ctx.f_two_eta()) ** M / (math.pi ** M
                                     * _c_mu(mu, lam, spec.L, ctx))
    for k in range(M):
        den = f_eval(lam + 2 * eta * k, ctx)
        if abs(den) < _SINGULAR_TOL:
            raise SingularParameter("vanishing f(lam + 2*eta*k)")
        val *= f_eval(lam + 2 * eta * (k + 1 - L0), ctx) / den
    return val


def _b_stochastic_vertex(mu, nu, spec):
    """Stochastically corrected B as a partition function: corrected row
    weights at positive columns, weight 1 on the axis column."""
    ctx = spec.ctx
    eta = complex(ctx.eta)
    M = spec.total_degree
    if mu.length != nu.length + M:
        raise ValueError("l(mu) must equal l(nu) + total row degree")
    base = complex(spec.lam) + 2 * eta * M

    def weight(x, y, cfg, phi):
        if x == 0:
            return 1.0 + 0.0j
        v = complex(spec.W[y]) - complex(spec.Z[x]) - eta
        p = UnfusedWeightParams(v, phi, complex(spec.L[x]), ctx)
        return sigma(spec.J[y], cfg, p)

    return _sweep(mu, nu, spec, base, weight, spec.J)


def b_stochastic(mu, nu, spec, rho):
    """Stochastically corrected B function (trigonometric mode only): the
    fused B partition function times the factorized prefactor and the
    ratio of normalized D functions at the factorizing specialization rho.
    It agrees with _b_stochastic_vertex, the corrected-weight partition
    function evaluated directly.
    """
    ctx = spec.ctx
    if ctx.is_elliptic:
        raise ModeError("stochastic correction requires trigonometric mode")
    if nu.parts and nu.parts[-1] == 0:
        raise SingularParameter("nu must have positive parts")
    eta = complex(ctx.eta)
    lam = complex(spec.lam)
    J = spec.total_degree
    num = d_rho_normalized(mu, lam, spec)
    if num == 0:
        return 0.0 + 0.0j
    den = d_rho_normalized(nu, lam + 2 * eta * J, spec)
    if abs(den) < 1e-300:
        raise SingularParameter("vanishing normalized D at rho for nu")
    p0 = rho.p0(eta)
    q0 = rho.q0(eta)
    pref = (-1.0 / ctx.f_two_eta()) ** J
    k = 0
    for block, w in zip(spec.J, spec.W):
        for j in range(block):
            u = complex(w) + 2 * eta * j
            fp = f_eval(u - p0, ctx)
            if abs(fp) < _SINGULAR_TOL:
                raise SingularParameter("vanishing f(u - p0)")
            pref *= (f_eval(u - q0, ctx)
                     * f_eval(lam + 2 * eta * k, ctx) / fp)
            k += 1
    return pref * (num / den) * b_fused(mu, nu, spec)


# ---------------------------------------------------------------------------
# Consistency checks

SUITES = ("symmetry", "branching", "fusion", "stochastic-b", "all")

# The test point: dynamical argument, column inhomogeneities and spins,
# and two row spectral parameters.
_LAM = 0.31 + 0.12j
_Z = (0.11, -0.05 + 0.02j, 0.21, 0.08, -0.13, 0.17, 0.02, 0.09)
_L = (0.83, 0.67 + 0.05j, 0.91, 0.55, 0.73, 0.61, 0.77, 0.59)
_W1, _W2 = 0.45, 0.29 + 0.1j


def _signatures(n, maxp):
    for p in itertools.combinations_with_replacement(range(maxp + 1), n):
        yield Signature(sorted(p, reverse=True))


def consistency_checks(suite, tol, mass_tol):
    """The Checks of one suite of SUITES, in both modes of CHECK_CONTEXTS,
    gated at tol: B and D symmetric in the row parameters, B branching
    over one-row B's, fused B equal to unfused B (relative residuals), and,
    trigonometric only, b_stochastic equal to _b_stochastic_vertex; and its
    total mass, the value, within mass_tol of 1."""
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % (suite,))
    want = lambda name: suite in ("all", name)
    gate = lambda name, residual: Check(name, residual=residual, tolerance=tol)
    rows = []
    mu, nu = Signature((3, 2, 1)), Signature((2,))
    for label, ctx in CHECK_CONTEXTS.items():
        spec = lambda lam, W, J=None: ColumnSpec(lam, W, _Z, _L, ctx, J)
        if want("symmetry") or want("branching"):
            a = b_munu(mu, nu, spec(_LAM, (_W1, _W2)))
        if want("symmetry"):
            b = b_munu(mu, nu, spec(_LAM, (_W2, _W1)))
            rows.append(gate("b_symmetry_" + label, rel_residual(a, b)))
            da = d_munu(mu, Signature((2, 1, 0)), spec(_LAM, (_W1, _W2)))
            db = d_munu(mu, Signature((2, 1, 0)), spec(_LAM, (_W2, _W1)))
            rows.append(gate("d_symmetry_" + label, rel_residual(da, db)))
        if want("branching"):
            tot = 0.0
            for kap in _signatures(2, 4):
                tot += (b_munu(mu, kap, spec(_LAM, (_W1,)))
                        * b_munu(kap, nu, spec(_LAM + 2 * ctx.eta, (_W2,))))
            rows.append(gate("b_branching_" + label, rel_residual(a, tot)))
        if want("fusion"):
            worst = 0.0
            for jlist, wbase in (((2,), (_W1,)), ((1, 2), (_W1, _W2))):
                flat = [w + 2 * ctx.eta * k
                        for j, w in zip(jlist, wbase) for k in range(j)]
                fmu = Signature(tuple(range(sum(jlist), 0, -1)))
                fused = b_fused(fmu, EMPTY, spec(_LAM, wbase, jlist))
                unfused = b_munu(fmu, EMPTY, spec(_LAM, flat))
                worst = max(worst, rel_residual(fused, unfused))
            rows.append(gate("b_fusion_" + label, worst))
    if want("stochastic-b"):
        trig = CHECK_CONTEXTS["trig"]
        worst = 0.0
        for J in (1, 2):
            spec = ColumnSpec(0.31, (_W1,), [_Z[0]] * 8, [_L[0]] * 8, trig,
                              (J,))
            smu = Signature((2,) * J + (1,))
            worst = max(worst, abs(
                b_stochastic(smu, Signature((1,)), spec,
                             RhoSpecialization(_Z[0], _L[0]))
                - _b_stochastic_vertex(smu, Signature((1,)), spec)))
        rows.append(gate("b_stochastic_formula_vs_vertex", worst))
        # total mass over all reachable outputs, q = 0.4, s = 0.3,
        # u*xi = 0.25, delta = -0.2, parts up to 16
        q, s, uxi, delta, cut = 0.4, 0.3, 0.25, -0.2 + 0j, 16
        eta = 1j * cmath.log(q) / (4 * math.pi)
        ctx = EllipticContext(mode="trigonometric", eta=eta)
        Lam = cmath.log(s) / (2j * math.pi * eta)
        w = -cmath.log(uxi) / (2j * math.pi) + eta
        lam = 1j * cmath.log(delta) / (2 * math.pi)
        spec = ColumnSpec(lam, (w,), [0.0] * (cut + 1), [Lam] * (cut + 1),
                          ctx, (1,))
        total = sum(b_stochastic(smu, Signature((1,)), spec,
                                 RhoSpecialization(0.0, Lam)).real
                    for smu in _signatures(2, cut))
        rows.append(Check("b_stochastic_total_mass", value=total,
                          residual=abs(total - 1.0), tolerance=mass_tol))
    return rows
