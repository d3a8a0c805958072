"""Seeded Monte Carlo samplers for the dynamical particle systems, plus an
exact small-system distribution oracle.

Particle systems live on sites 1, 2, 3, ... with step boundary data: at time
t one packet of J_y arrows enters at the left of row y = t+1.  A scalar
trajectory stores its occupancy densely over [1, t+1] (support cannot
outrun the step data); the exclusion-process window engine stores the
height function instead.

Every particle system follows one local rule.  A time step sweeps its row
left to right, and at each site x one per-vertex kernel per variant,
`_kernel(spec, x, t, i1, j1, h)`, gives the law of the arrows j2 passed on
to x+1 from the occupancy i1, the incoming arrows j1 and the height
h = h_t(x) (particles at sites >= x).  The dynamical parameter is always
its closed form in the height function: kappa = delta * q^(-2h) * prod(b)
* prod(c) for the row-update models, and its exclusion-process
degenerations.  The two exclusion processes fit the same sweep because
their X(x) depends only on (eta(x), h(x)); their probabilities are the
shared formulas of `weights`.  An incremental-update audit utility checks
the exponent bookkeeping invariant.

The sweep takes a pick rule: `step` makes one inverse-CDF draw per vertex,
and `exact_law` follows every positive branch.  The corner-growth variants
evolve a piecewise-linear height function with slopes in {-2, 0, 2}
directly, through the same pick-driven sweep over its segments: sloped
segments midpoint deterministically and flat segments flip a (possibly
height-dependent) coin.

Large ensembles run on vectorized engines that advance all trajectories in
lockstep.  One window engine serves both exclusion processes (asym_pep is
its J = 1 case).  Its state is the height function h(x) over a moving
active window, one row per site and one column per trajectory; the packed
prefix and the empty suffix of the system evolve deterministically and are
tracked in closed form.  A step moves the height by the bond flux,
h'(x) = h(x) + X(x-1), and draws every X from one table of the shared
stay probability per step, since the dynamical parameter depends on
(x, t, h) only through an integer key.  The q-Hahn engine groups
trajectories by (occupancy, height) at each site and draws from the shared
kernel.  Engine integer dtypes are chosen from the largest reachable value
(occupancy, height or key).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DynVertexError,
    InadmissibleParameters,
    InadmissibleWeights,
    SizeLimit,
)
from .weights import (
    PhiParams,
    PsiParams,
    asym_pep_stay,
    jgamma_pep_stay,
    phi,
    psi,
)

_WEIGHT_SUM_TOL = 1e-10
_WEIGHT_NEG_TOL = 1e-12
_VARIANTS = ("general", "qhahn", "jgamma_pep", "asym_pep", "corner",
             "corner_dyn")
_PEP = ("jgamma_pep", "asym_pep")


# ---------------------------------------------------------------------------
# Model specification


@dataclass(frozen=True)
class ModelSpec:
    """Which particle system to run, with its parameters.

    Sequences (per-site or per-row parameter lists) extend cyclically.
    Admissibility of the sampled weight vectors is validated lazily at
    sampling time.
    """

    variant: str
    q: float = None
    delta: float = None
    U: tuple = None
    Xi: tuple = None
    S: tuple = None
    B: tuple = None
    C: tuple = None
    J: object = None
    gamma: float = None
    p: float = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError("unknown variant %r" % (self.variant,))
        for name in ("U", "Xi", "S", "B", "C"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, tuple(val))

    # -- constructors -------------------------------------------------------

    @classmethod
    def general(cls, q, delta, U, Xi, S, J):
        """Row-update model with the full psi transition weights."""
        J = tuple(int(j) for j in J)
        if any(j < 1 for j in J):
            raise ValueError("row degrees must be positive integers")
        return cls(variant="general", q=float(q), delta=complex(delta),
                   U=tuple(complex(u) for u in U),
                   Xi=tuple(complex(xi) for xi in Xi),
                   S=tuple(complex(s) for s in S), J=J)

    @classmethod
    def qhahn(cls, q, delta, B, C, J):
        """Row-update model with the q-Hahn-type phi transition weights;
        requires c_y = q^{J_y} with positive integer J_y."""
        q = float(q)
        J = tuple(int(j) for j in J)
        C = tuple(float(c) for c in C)
        if any(j < 1 for j in J):
            raise ValueError("row degrees must be positive integers")
        if len(C) != len(J):
            raise ValueError("C and J must have matching lengths")
        for c, j in zip(C, J):
            if abs(c - q ** j) > 1e-12 * max(1.0, abs(c)):
                raise InadmissibleParameters(
                    "qhahn requires c_y = q**J_y (got c=%r, J=%r)" % (c, j))
        return cls(variant="qhahn", q=q, delta=float(delta),
                   B=tuple(float(b) for b in B), C=C, J=J)

    @classmethod
    def jgamma_pep(cls, J, gamma):
        """Discrete-time partial exclusion with capacity J+1 and dynamical
        rate parameter gamma > J+1."""
        J = int(J)
        gamma = float(gamma)
        if J < 1:
            raise ValueError("J must be a positive integer")
        if not gamma > J + 1:
            raise InadmissibleParameters("jgamma_pep requires gamma > J+1")
        return cls(variant="jgamma_pep", J=J, gamma=gamma)

    @classmethod
    def asym_pep(cls, q, delta):
        """Asymmetric capacity-2 exclusion (the a=1/q, b=1/q^2 table)."""
        q = float(q)
        delta = float(delta)
        if not 0 < q < 1:
            raise InadmissibleParameters("asym_pep requires 0 < q < 1")
        if delta > 0:
            raise InadmissibleParameters("asym_pep requires delta <= 0")
        return cls(variant="asym_pep", q=q, delta=delta, J=1)

    @classmethod
    def corner(cls, p):
        """Midpoint corner growth with constant up-probability p."""
        p = float(p)
        if not 0 <= p <= 1:
            raise ValueError("p must lie in [0, 1]")
        return cls(variant="corner", p=p)

    @classmethod
    def corner_dyn(cls, gamma):
        """Midpoint corner growth with height-dependent up-probability
        (1/2) * (1 - 1/(gamma + height))."""
        gamma = float(gamma)
        if not gamma > 1:
            raise InadmissibleParameters("corner_dyn requires gamma > 1")
        return cls(variant="corner_dyn", gamma=gamma)

    # -- derived quantities -------------------------------------------------

    @property
    def is_corner(self):
        return self.variant in ("corner", "corner_dyn")

    def row_degree(self, y):
        """Arrows entering at the left of row y (1-based)."""
        if self.variant in _PEP:
            return int(self.J)
        return _cyc(self.J, y)


def _cyc(seq, i):
    """1-based cyclic lookup."""
    return seq[(i - 1) % len(seq)]


# ---------------------------------------------------------------------------
# States


@dataclass
class SystemState:
    """One particle-system trajectory at a fixed time."""

    time: int
    occupancy: np.ndarray
    total_particles: int
    prefix_particle_counts: np.ndarray
    rng: np.random.Generator
    clamped: int = 0

    def _hcur(self, x):
        """Height function: number of particles at sites >= x."""
        if x <= 1:
            return self.total_particles
        if x - 1 >= len(self.occupancy):
            return 0
        return self.total_particles - int(
            self.prefix_particle_counts[x - 2])


@dataclass
class CornerState:
    """One corner-growth trajectory: heights at lattice positions
    left, left+1, ..., left+len(heights)-1 (the lattice shifts by 1/2 each
    step); the height equals 2|x| outside the stored window."""

    time: int
    left: float
    heights: np.ndarray
    rng: np.random.Generator
    clamped: int = 0

    def height(self, x):
        i = x - self.left
        j = int(round(i))
        if abs(i - j) > 1e-9:
            raise ValueError("x=%r is not on the time-%d lattice"
                             % (x, self.time))
        if 0 <= j < len(self.heights):
            return int(self.heights[j])
        return int(round(2 * abs(x)))

    def positions(self):
        return [self.left + i for i in range(len(self.heights))]


def initial_state(spec, seed=0, rng=None):
    """Fresh trajectory at time 0 (empty system / wedge height)."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    if spec.is_corner:
        left = -2.0
        heights = np.array([2 * abs(left + i) for i in range(5)],
                           dtype=np.int64)
        return CornerState(time=0, left=left, heights=heights, rng=rng)
    occ = np.zeros(1, dtype=np.int64)
    return SystemState(time=0, occupancy=occ, total_particles=0,
                       prefix_particle_counts=np.zeros(1, dtype=np.int64),
                       rng=rng)


def current(state, x):
    """Height function h_t(x) = number of particles at sites >= x."""
    x = int(x)
    if x < 1:
        raise ValueError("site index must be >= 1")
    return state._hcur(x)


# ---------------------------------------------------------------------------
# Per-vertex kernels (shared by the sampler, the vector engines and the
# exact law)


def _validate_weights(w, where):
    """Clamp tiny negativity, check normalization; returns (weights,
    clamp count)."""
    w = np.asarray(w, dtype=float)
    clamped = 0
    neg = w < 0
    if neg.any():
        worst = w[neg].min()
        if worst < -_WEIGHT_NEG_TOL:
            raise InadmissibleWeights(
                "negative weight %.3e at %s" % (worst, where))
        clamped = int(neg.sum())
        w = np.where(neg, 0.0, w)
    s = w.sum()
    if abs(s - 1.0) > _WEIGHT_SUM_TOL:
        raise InadmissibleWeights(
            "weight sum %.15f != 1 at %s" % (s, where))
    return w / s, clamped


def _kappa_qhahn(spec, x, y, h):
    """Closed-form dynamical parameter at vertex (x, y-1) given the height
    h = h_{y-1}(x)."""
    val = float(spec.delta) * float(spec.q) ** (-2 * h)
    for k in range(1, x):
        val *= _cyc(spec.B, k)
    for k in range(1, y):
        val *= _cyc(spec.C, k)
    return val


def _kappa_general(spec, x, y, h):
    val = complex(spec.delta) * complex(spec.q) ** (-2 * h)
    for k in range(1, x):
        val *= complex(_cyc(spec.S, k)) ** 2
    for k in range(1, y):
        val *= complex(spec.q) ** _cyc(spec.J, k)
    return val


def _pep_key(spec, x, t, h):
    """The integer through which the dynamical parameter of either
    exclusion process depends on the site x, the time t and the height
    h = h_t(x), elementwise over integers or integer arrays (the result
    keeps their dtype): the exponent e of kappa = delta * q**e (asym_pep),
    or Upsilon - gamma (jgamma_pep), which must be nonnegative."""
    if spec.variant == "asym_pep":
        return t - 2 * (x - 1) - 2 * h
    return 2 * h + (spec.J + 1) * (x - 1) - spec.J * t


def _pep_stay(spec, eta, key):
    """P[X(x) = eta - 1] from the shared formula in `weights`, elementwise,
    at the dynamical parameter of the key from _pep_key."""
    if spec.variant == "asym_pep":
        return asym_pep_stay(eta, spec.q, spec.delta, key)
    return jgamma_pep_stay(eta, spec.J, spec.gamma + key)


def _upsilon_error(key, t, x):
    """jgamma_pep needs Upsilon = gamma + key >= gamma: the exact integer
    test key >= 0, failed at site x and time t."""
    return InadmissibleWeights(
        "Upsilon = gamma - %d < gamma at time %d, site %d" % (-key, t, x))


def _kernel(spec, x, t, i1, j1, h):
    """The per-vertex kernel at site x of row t+1.  From the vertical input
    i1 (the occupancy of x before the step), the horizontal input j1 and
    the height h = h_t(x), returns (values of j2, their validated
    probabilities, clamp count), where j2 is the number of arrows passed on
    from x to x+1.  The q-Hahn and exclusion kernels do not read j1."""
    y = t + 1
    where = "site %d, row %d (%s)" % (x, y, spec.variant)
    if spec.variant in _PEP:
        if i1 == 0:
            return (0,), (1.0,), 0
        key = _pep_key(spec, x, t, h)
        if key < 0 and spec.variant == "jgamma_pep":
            raise _upsilon_error(key, t, x)
        stay = float(_pep_stay(spec, i1, key))
        w, clamped = _validate_weights([stay, 1.0 - stay], where)
        return (i1 - 1, i1), w, clamped
    if spec.variant == "general":
        kappa = _kappa_general(spec, x, y, h)
        if abs(kappa) < 1e-40:
            # Reachable only after ~70 consecutive slide-past-empty moves
            # in one row (branch probability far below any tolerance
            # here); any valid distribution will do, so end the sweep.
            return (0,), (1.0,), 0
        Jy = _cyc(spec.J, y)
        p = PsiParams(u=complex(_cyc(spec.U, y)) * complex(_cyc(spec.Xi, x)),
                      s=complex(_cyc(spec.S, x)), q=complex(spec.q), J=Jy,
                      kappa=kappa)
        raw = [complex(psi((i1, j1, i1 + j1 - j2, j2), p))
               for j2 in range(min(Jy, i1 + j1) + 1)]
    else:
        bx = _cyc(spec.B, x)
        p = PhiParams(q=spec.q, a=bx * _cyc(spec.C, y), b=bx,
                      kappa=_kappa_qhahn(spec, x, y, h))
        raw = [complex(phi(j2, i1, p)) for j2 in range(i1 + 1)]
    if any(abs(w.imag) > 1e-9 for w in raw):
        raise InadmissibleWeights("non-real weight at %s" % where)
    w, clamped = _validate_weights([w.real for w in raw], where)
    return range(len(w)), w, clamped


def _corner_up_prob(spec, height):
    if spec.variant == "corner":
        return spec.p
    return 0.5 * (1.0 - 1.0 / (spec.gamma + height))


# ---------------------------------------------------------------------------
# Sweeps: one time step, left to right, following the branches a pick rule
# keeps at each vertex.  pick(values, weights, prob) returns the
# (value, prob * weight) pairs to follow: one inverse-CDF draw when
# sampling, every positive branch for the exact law.  Partial rows are
# cons lists (value, rest), so a branch is extended in constant time.

_SWEEP_CAP = 256  # safety bound on horizontal propagation past the support


def _unroll(cons):
    out = []
    while cons is not None:
        value, cons = cons
        out.append(value)
    return tuple(reversed(out))


def _row_sweep(occ, t, spec, pick):
    """Row t+1 of a particle system over the occupancy tuple occ (site x at
    index x-1).  Returns one (new occupancy tuple, probability, clamp
    count) per branch."""
    done = []
    live = [(None, spec.row_degree(t + 1), sum(occ), 1.0, 0)]
    x = 0
    while live:
        x += 1
        i1 = occ[x - 1] if x <= len(occ) else 0
        nxt = []
        for new, j1, h, pr, clamped in live:
            if x > len(occ) and j1 == 0:
                while new is not None and new[0] == 0:
                    new = new[1]
                done.append((_unroll(new), pr, clamped))
                continue
            if x > len(occ) + _SWEEP_CAP:
                raise SizeLimit("horizontal propagation exceeded the cap")
            values, w, c = _kernel(spec, x, t, i1, j1, h)
            for j2, p in pick(values, w, pr):
                i2 = i1 + j1 - j2
                if spec.variant in _PEP and i2 > spec.J + 1:
                    raise InadmissibleWeights(
                        "occupancy %d out of [0, J+1] at site %d" % (i2, x))
                nxt.append(((i2, new), j2, h - i1, p, clamped + c))
        live = nxt
    return done


def _corner_sweep(cfg, t, spec, pick):
    """One midpoint update of a corner height function cfg = (heights,
    left).  The stored window is first extended by one lattice unit on each
    side with wedge values; sloped segments midpoint deterministically,
    flat segments go up or down by one with the (possibly height-dependent)
    coin.  Returns one ((heights, left), probability, 0) per branch."""
    heights, left = cfg
    n = len(heights)
    ext = ([int(round(2 * abs(left - 1)))] + [int(v) for v in heights]
           + [int(round(2 * abs(left + n)))])
    live = [(None, 1.0)]
    for i in range(n + 1):
        h1, h2 = ext[i], ext[i + 1]
        if h1 != h2:
            if abs(h1 - h2) != 2:
                raise InadmissibleWeights(
                    "segment slope %d not in {-2, 0, 2} at time %d"
                    % (h2 - h1, t))
            live = [(((h1 + h2) // 2, new), pr) for new, pr in live]
            continue
        up = _corner_up_prob(spec, h1)
        if not -_WEIGHT_NEG_TOL <= up <= 1 + _WEIGHT_NEG_TOL:
            raise InadmissibleWeights("up-probability %.6f at x=%.1f, time %d"
                                      % (up, left - 0.5 + i, t))
        live = [((h1 + move, new), p) for new, pr in live
                for move, p in pick((-1, 1), (1.0 - up, up), pr)]
    return [((_unroll(new), left - 0.5), pr, 0) for new, pr in live]


# ---------------------------------------------------------------------------
# Sampling


def _sample_index(w, rng):
    """Inverse-CDF draw from a validated weight vector."""
    u = rng.random()
    acc = 0.0
    for k, p in enumerate(w):
        acc += p
        if u < acc:
            return k
    return len(w) - 1


def step(state, spec):
    """Advance one trajectory by one time step."""
    rng = state.rng

    def pick(values, w, pr):
        return ((values[_sample_index(w, rng)], pr),)

    if spec.is_corner:
        ((heights, left), _, _), = _corner_sweep(
            (state.heights, state.left), state.time, spec, pick)
        return CornerState(time=state.time + 1, left=left,
                           heights=np.array(heights, dtype=np.int64),
                           rng=rng, clamped=state.clamped)
    (new, _, clamped), = _row_sweep(
        tuple(int(v) for v in state.occupancy), state.time, spec, pick)
    arr = np.array(new if new else [0], dtype=np.int64)
    return SystemState(time=state.time + 1, occupancy=arr,
                       total_particles=int(arr.sum()),
                       prefix_particle_counts=np.cumsum(arr),
                       rng=rng, clamped=state.clamped + clamped)


# ---------------------------------------------------------------------------
# Exact small-system law


@dataclass(frozen=True)
class ExactLaw:
    """Exact distribution over occupancy (or height) configurations."""

    support: tuple
    total_mass: float

    @classmethod
    def from_dict(cls, dist):
        items = sorted(dist.items())
        total = 0.0
        for cfg, pr in items:
            if pr < -_WEIGHT_NEG_TOL:
                raise InadmissibleWeights(
                    "negative probability %.3e for %r" % (pr, cfg))
            total += pr
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise InadmissibleWeights(
                "exact law has total mass %.15f" % total)
        return cls(support=tuple(items), total_mass=total)

    def prob(self, cfg):
        return dict(self.support).get(tuple(cfg), 0.0)

    def mean(self, fn):
        return sum(pr * fn(cfg) for cfg, pr in self.support)

    def tv_distance(self, other):
        keys = {c for c, _ in self.support} | {c for c, _ in other.support}
        a, b = dict(self.support), dict(other.support)
        return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def exact_law(spec, N, bound=200000):
    """Exact forward distribution after N steps: every step sweeps each
    configuration along all its positive branches.  Configurations are
    occupancy tuples (particle systems) or (heights tuple, left position)
    pairs (corner variants).  For the general model, whose horizontal
    arrows slide past empty sites with geometrically small probability
    (an infinite tail of negligible mass), branches and configurations of
    probability at most 1e-14 are dropped."""
    if spec.is_corner:
        init = initial_state(spec)
        start = (tuple(int(v) for v in init.heights), init.left)
        sweep = _corner_sweep
    else:
        start = ()
        sweep = _row_sweep
    prune = 1e-14 if spec.variant == "general" else 0.0

    def pick(values, w, pr):
        return [(v, pr * p) for v, p in zip(values, w)
                if p > 0.0 and pr * p > prune]

    dist = {start: 1.0}
    for t in range(N):
        nxt = {}
        work = 0
        for cfg, pr in dist.items():
            for ncfg, npr, _ in sweep(cfg, t, spec, pick):
                nxt[ncfg] = nxt.get(ncfg, 0.0) + pr * npr
                work += 1
                if len(nxt) > bound or work > 64 * bound:
                    raise SizeLimit(
                        "exact law exceeds the configuration bound")
        if prune:
            nxt = {c: p for c, p in nxt.items() if p > prune}
        dist = nxt
    return ExactLaw.from_dict(dist)


# ---------------------------------------------------------------------------
# Corner view of the J=1 partial exclusion process


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


# ---------------------------------------------------------------------------
# Ensembles


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate of one observable."""

    mean: float
    stderr: float
    n_samples: int
    base_seed: int


def _trajectory_rng(base_seed, index):
    """Per-trajectory generator: numpy's published SeedSequence mixing of
    (base_seed, index)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(base_seed),
                               spawn_key=(int(index),)))


class _WindowView:
    """Read-only final-state view of one trajectory from a vectorized
    engine, over its height function: sites < lo hold `packed` particles,
    window sites lo, lo+1, ... have the heights in `heights`, and sites
    beyond the window are empty."""

    __slots__ = ("time", "lo", "packed", "total", "_heights")

    def __init__(self, time, lo, packed, total, heights):
        self.time = time
        self.lo = lo
        self.packed = packed
        self.total = total
        self._heights = heights  # heights[i] = h(lo + i)

    def _hcur(self, x):
        if x <= self.lo:
            return self.total - self.packed * (x - 1)
        i = x - self.lo
        if i >= len(self._heights):
            return 0
        return int(self._heights[i])


def _int_dtype(top):
    """Signed integer dtype, int16 or wider, that holds -top..top."""
    return np.promote_types(np.int16, np.min_scalar_type(-int(top)))


def _occupancy(h):
    """Site occupancies eta(x) = h(x) - h(x+1) of a window of heights
    (rows are sites; the site past the window is empty)."""
    eta = np.empty_like(h)
    np.subtract(h[:-1], h[1:], out=eta[:-1])
    eta[-1] = h[-1]
    return eta


_WINDOW_GROW = 64  # sites added when a window's last site is reached


def _advance_window(h, lo, cap, t):
    """Keep the moving-window invariant of a height state at time t: grow
    on the right if the last site is occupied in some sample, check that
    every occupancy lies in [0, cap], and advance lo past the leading sites
    packed in every sample.  Returns (heights, occupancies, lo)."""
    if h[-1].any():
        h = np.concatenate(
            [h, np.zeros((_WINDOW_GROW, h.shape[1]), dtype=h.dtype)])
    eta = _occupancy(h)
    if eta.min() < 0 or eta.max() > cap:
        i, k = np.argwhere((eta < 0) | (eta > cap))[0]
        raise InadmissibleWeights(
            "occupancy %d out of [0, %d] at time %d, site %d"
            % (eta[i, k], cap, t, lo + i))
    k = 0
    while k < len(eta) - 1 and (eta[k] == cap).all():
        k += 1
    return h[k:], eta[k:], lo + k


def _ensemble_pep(spec, N, samples, rng):
    """Vectorized engine for both exclusion processes, capacity J+1, on
    the windowed height function: row i of the state holds h_t(lo + i),
    the number of particles at sites >= lo + i, for every sample (column).
    Sites < lo are packed at J+1 (they deterministically forward J arrows),
    sites past the window are empty.  All X(x) of a step are drawn from
    the time-t state, and the height moves by the bond flux,
    h'(x) = h(x) + X(x-1) = h(x-1) - S(x-1), where S = eta - X is 1 when
    a particle stays at x.

    The stay probability depends on (x, t, h) only through the integer key
    of _pep_key, so each step evaluates the shared formula once on a table
    over the occupancies 0..J+1 and the keys present; at delta = 0 the
    asym_pep table is the J+2 values over the occupancy.  An empty site
    keeps nothing and a full one keeps exactly one particle (every step
    checks that the table's occupancy-0 and occupancy-(J+1) entries are
    exactly 0 and 1), so the table is gathered, and a uniform drawn, only
    for the cells with 0 < eta < J+1, in site-major order (the order of
    np.flatnonzero on the state).  The seeded asym_pep and jgamma_pep
    streams this gives differ from those of a draw for every window cell;
    the law does not.
    """
    J = int(spec.J)
    cap = J + 1
    keyed = spec.variant == "jgamma_pep" or spec.delta != 0.0
    # Sites stay below N + _WINDOW_GROW and |key| <= 2h + (J+1)(x-1) + Jt.
    dtype = _int_dtype((4 * J + 1) * (N + _WINDOW_GROW))
    h = np.zeros((8, samples), dtype=dtype)
    eta = np.zeros_like(h)
    lo = 1
    for t in range(N):
        kept = eta == cap
        # (eta > 0) ^ kept is 0 < eta < J+1; at J = 1 it is eta == 1, and
        # every drawn cell holds one particle.
        drawn = np.flatnonzero(eta == 1 if J == 1 else (eta > 0) ^ kept)
        kmin, nk = 0, 1
        if keyed:
            x = np.arange(lo, lo + len(h), dtype=dtype)[:, None]
            key = _pep_key(spec, x, t, h)
            kmin = int(key.min())
            if kmin < 0 and spec.variant == "jgamma_pep":
                raise _upsilon_error(kmin, t,
                                     lo + int(key.argmin()) // samples)
            nk = int(key.max()) - kmin + 1
        if keyed and (cap + 1) * nk > h.size:
            # a table wider than the window (large J): the pairs present
            pairs, idx = np.unique(eta.astype(np.intp) * nk + (key - kmin),
                                   return_inverse=True)
            idx = idx.ravel()[drawn]
        else:
            pairs = np.arange((cap + 1) * nk)
            idx = np.intp(1) if J == 1 else eta.ravel()[drawn].astype(np.intp)
            if keyed:
                idx = idx * nk + (key.ravel()[drawn] - kmin)
        occs, keys = np.divmod(pairs, nk)
        table = _pep_stay(spec, occs, keys + kmin)
        stay = table.take(idx)
        if ((table < -_WEIGHT_NEG_TOL) | (table > 1 + _WEIGHT_NEG_TOL)).any():
            _check_stay(stay, drawn // samples, t, lo)
        empty, full = table[occs == 0], table[occs == cap]
        if empty.any() or (full != 1.0).any():
            raise InadmissibleWeights(
                "stay probability of an empty or full site is not exactly "
                "0 or 1 at time %d" % t)
        kept.ravel()[drawn] = rng.random(len(drawn)) < stay
        new = np.empty_like(h)
        new[0] = h[0] + J  # from the packed region / step data
        np.subtract(h[:-1], kept[:-1], out=new[1:])
        h, eta, lo = _advance_window(new, lo, cap, t + 1)
    views = np.ascontiguousarray(h.T)
    return [_WindowView(N, lo, cap, J * N, views[i]) for i in range(samples)]


def _check_stay(stay, rows, t, lo):
    """Every stay probability drawn in the step at time t lies in [0, 1]
    (up to rounding); otherwise names the first site that drew one.  rows
    are the window rows of the drawn cells, and a scalar stay is shared by
    all of them."""
    stay = np.broadcast_to(stay, rows.shape)
    bad = np.flatnonzero((stay < -_WEIGHT_NEG_TOL)
                         | (stay > 1 + _WEIGHT_NEG_TOL))
    if len(bad):
        k = bad[0]
        raise InadmissibleWeights(
            "stay probability %.6f out of [0, 1] at time %d, site %d"
            % (stay[k], t, lo + rows[k]))


def _ensemble_qhahn(spec, N, samples, rng):
    """Vectorized q-Hahn engine: per site, trajectories are grouped by
    (occupancy, height) and share one exact inverse-CDF table."""
    dtype = _int_dtype(sum(spec.row_degree(y) for y in range(1, N + 1)))
    occ = np.zeros((samples, N + 2), dtype=dtype)
    total = 0
    for t in range(N):
        y = t + 1
        j_in = np.full(samples, spec.row_degree(y), dtype=dtype)
        pre = occ.copy()
        suf = pre[:, ::-1].cumsum(axis=1)[:, ::-1]
        for x in range(1, t + 3):
            i1 = pre[:, x - 1].astype(np.int64)
            h = suf[:, x - 1].astype(np.int64)
            if not h.any() and not j_in.any():
                break
            key = i1 * (total + 1) + h
            u = rng.random(samples)
            j2 = np.zeros(samples, dtype=dtype)
            for kv in np.unique(key):
                mask = key == kv
                ik = int(i1[mask][0])
                hk = int(h[mask][0])
                if ik == 0:
                    continue
                _, w, _ = _kernel(spec, x, t, ik, 0, hk)
                cdf = np.cumsum(w)
                j2[mask] = np.searchsorted(
                    cdf, u[mask], side="right").clip(0, ik)
            occ[:, x - 1] = i1 + j_in - j2
            j_in = j2
        if j_in.any():
            raise SizeLimit("horizontal propagation past the support")
        total += spec.row_degree(y)
    suf = np.zeros((samples, occ.shape[1] + 1), dtype=np.int64)
    suf[:, :-1] = occ[:, ::-1].cumsum(axis=1)[:, ::-1]
    return [_WindowView(N, 1, 0, int(suf[i, 0]), suf[i])
            for i in range(samples)]


_VECTOR_ENGINES = {
    "jgamma_pep": _ensemble_pep,
    "asym_pep": _ensemble_pep,
    "qhahn": _ensemble_qhahn,
}


def run_ensemble(spec, N, samples, base_seed, observables,
                 vectorized=None):
    """Independent trajectories; one MCEstimate per observable.

    Observables are callables evaluated on the final state (use
    `current(state, x)` for height observables).  The three degenerations
    with vectorized engines advance all trajectories in lockstep from a
    single generator split off (base_seed, 0); the scalar path gives each
    trajectory its own split (base_seed, index).  Both are deterministic
    given base_seed.  The exclusion-process engine draws a uniform only for
    the sites with 0 < eta < J+1, site by site: its asym_pep and jgamma_pep
    results differ from those of earlier versions, which drew one for
    every window cell, in the seeded stream but not in law.  A package
    error raised on the scalar path carries the index of its trajectory as
    `.trajectory` and in its message.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError("need at least one sample")
    if vectorized is None:
        vectorized = spec.variant in _VECTOR_ENGINES
    vals = np.zeros((len(observables), samples))
    if vectorized and spec.variant in _VECTOR_ENGINES:
        rng = _trajectory_rng(base_seed, 0)
        views = _VECTOR_ENGINES[spec.variant](spec, int(N), samples, rng)
        for i, view in enumerate(views):
            for k, obs in enumerate(observables):
                vals[k, i] = obs(view)
    else:
        for i in range(samples):
            state = initial_state(spec, rng=_trajectory_rng(base_seed, i))
            try:
                for _ in range(int(N)):
                    state = step(state, spec)
            except DynVertexError as exc:
                exc.trajectory = i
                exc.args = ("trajectory %d: %s" % (i, exc),)
                raise
            for k, obs in enumerate(observables):
                vals[k, i] = obs(state)
    out = []
    for k in range(len(observables)):
        mean = float(np.mean(vals[k]))
        std = float(np.std(vals[k], ddof=1)) if samples > 1 else 0.0
        out.append(MCEstimate(mean=mean, stderr=std / math.sqrt(samples),
                              n_samples=samples, base_seed=int(base_seed)))
    return out


# ---------------------------------------------------------------------------
# Exponent bookkeeping audit


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
