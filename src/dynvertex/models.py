"""Seeded Monte Carlo samplers for the dynamical particle systems, plus an
exact small-system distribution oracle.

Particle systems live on sites 1, 2, 3, ... with step boundary data: at time
t one packet of J_y arrows enters at the left of row y = t+1.  A scalar
trajectory (`step`) stores its occupancy; every ensemble engine stores the
height function, one row per site and one column per trajectory.

Every particle system follows one local rule.  A time step sweeps its row
left to right, and at each site x one per-vertex kernel per variant,
`_kernel(spec, x, t, i1, j1, h)`, gives the law of the arrows j2 passed on
to x+1 from the occupancy i1, the incoming arrows j1 and the height
h = h_t(x) (particles at sites >= x).  The dynamical parameter is always
its closed form in the height function: kappa = delta * q^(-2h) * prod(b)
* prod(c) for the row-update models, and its exclusion-process
degenerations.  The two exclusion processes fit the same sweep because
their X(x) depends only on (eta(x), h(x)); their probabilities are the
shared formulas of `weights`.

Each spec memoizes its kernel on exactly the inputs the kernel reads (see
`_kernel`): the samplers and the exact law ask the same few questions many
times, and a dynamical weight costs tens of sin calls.  The memo holds at
most _KERNEL_MEMO_CAP entries, stores no input that raises (so every error
names its own calling site) and calls the kernel's helpers only on a miss,
so a test that monkeypatches one of them must build a fresh spec.

The sweep takes a pick rule: `step` makes one inverse-CDF draw per vertex,
and `exact_law` follows every positive branch.  The corner-growth variants
evolve a piecewise-linear height function with slopes in {-2, 0, 2}
directly, through the same pick-driven sweep over its segments: sloped
segments midpoint deterministically and flat segments flip a (possibly
height-dependent) coin.

Ensembles run on one vectorized engine per variant, which advances all
trajectories in lockstep.  The row engine serves both row-update models
(qhahn is the u = s point of general): it sweeps each row as `step` does,
site by site, and draws the trajectories at a site from one inverse-CDF
table per kernel memo key.  One band engine serves both exclusion
processes (asym_pep is its J = 1 case).  It stores the occupied band; the
packed prefix and the empty suffix evolve deterministically and are
tracked in closed form.  A step moves the height in place by the bond
flux, h'(x) = h(x) + X(x-1), and draws every X from one table of the shared
stay probability per step, since the dynamical parameter depends on
(x, t, h) only through an integer key.  asym_pep at delta = 0, whose stay
probability is one constant, runs bit-sliced instead: 64 trajectories per
uint64 word, two bit planes per site.  The corner engine keeps the
lattice of `step` and draws one coin per flat segment.  Engine integer
dtypes are chosen from the largest reachable value (occupancy, height or
key).

Every ensemble ends in one `Ensemble`, the (samples, width) height matrix
and the numbers that locate it, read as int64 arrays over the samples so
that no product of heights wraps in a narrow engine dtype; `run_ensemble`
calls each observable once with it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
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
    psi_row,
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
    # The memo of `_kernel` for this spec; outside equality and hashing.
    _kernel_memo: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

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
        return int(Ensemble(self.time, self.left, self.heights[None],
                            corner=True).height(x)[0])

    def positions(self):
        return [self.left + i for i in range(len(self.heights))]


@dataclass
class Ensemble:
    """The final heights of an ensemble: heights[i, j] is sample i's height
    at left + j, a particle-system site or a corner lattice position.
    Outside the stored columns, a particle system of `total` particles
    holds `packed` on each site before `left` and none after; a corner
    height is the wedge 2|x|.  `height(x)` (or `current`) returns the
    heights at x of every sample as a new int64 array."""

    time: int
    left: float
    heights: np.ndarray
    packed: int = 0
    total: int = 0
    corner: bool = False

    def height(self, x):
        i = x - self.left
        j = int(round(i))
        if abs(i - j) > 1e-9:
            raise ValueError("x=%r is not on the time-%d lattice"
                             % (x, self.time))
        if 0 <= j < self.heights.shape[1]:
            return self.heights[:, j].astype(np.int64)
        if self.corner:
            value = round(2 * abs(x))
        elif j < 0:
            value = self.total - self.packed * (x - 1)
        else:
            value = 0
        return np.full(len(self.heights), value, dtype=np.int64)

    _hcur = height  # what `current` reads


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
    """Height function h_t(x) = number of particles at sites >= x: an int
    for one trajectory, an int64 array over the samples of an Ensemble."""
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


_KERNEL_MEMO_CAP = 1 << 14  # entries per spec; the memo is cleared when full


def _kernel(spec, x, t, i1, j1, h):
    """`_kernel_eval`, memoized per spec on exactly what it reads besides
    the spec: (i1, _pep_key(...)) for the exclusion processes (one entry
    for every i1 = 0), (x, t, i1, j1, h) for general and (x, t, i1, h) for
    qhahn.  `_row_sweep` calls it per vertex, the row engine once per key
    present at a site.  The memo is cleared when it holds _KERNEL_MEMO_CAP
    entries.  A miss evaluates at the calling site and an input that
    raises is never stored, so every error names the site and row of its
    own call.  Calls share the returned weights, which must not be
    modified; a test that monkeypatches a helper of the kernel must build
    a fresh spec."""
    variant = spec.variant
    if variant in _PEP:
        key = (i1, _pep_key(spec, x, t, h)) if i1 else 0
    elif variant == "general":
        key = (x, t, i1, j1, h)
    else:
        key = (x, t, i1, h)
    memo = spec._kernel_memo
    out = memo.get(key)
    if out is None:
        out = _kernel_eval(spec, x, t, i1, j1, h)
        if len(memo) >= _KERNEL_MEMO_CAP:
            memo.clear()
        memo[key] = out
    return out


def _kernel_eval(spec, x, t, i1, j1, h):
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
        raw = psi_row(i1, j1, p)
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


def _int_dtype(top):
    """Signed integer dtype, int16 or wider, that holds -top..top."""
    return np.promote_types(np.int16, np.min_scalar_type(-int(top)))


_WINDOW_GROW = 64  # free rows before a moved band; see _ensemble_pep


def _band_ensemble(N, J, lo, band):
    """The Ensemble of an exclusion-process engine from `band`, the heights
    at sites lo, lo+1, ... (one row per site, one column per sample),
    zero-padded to the window engine's extent, a site 8 + _WINDOW_GROW * k."""
    n = len(band)
    end = 8 + _WINDOW_GROW * -(-max(lo + n - 9, 0) // _WINDOW_GROW)
    heights = np.pad(band, ((0, end - lo + 1 - n), (0, 0)))
    return Ensemble(N, lo, heights.T, packed=J + 1, total=J * N)


_BERNOULLI_DENSE = 8  # digits of p compared on every word; see below


def _bernoulli_words(bitgen, p, lanes):
    """Independent Bernoulli(p) bits, p a float in [0, 1], on the set bits
    of the uint64 array `lanes` (0 elsewhere).  A bit is U < p, where bit l
    of successive bitgen.random_raw words gives the binary digits of lane
    l's U.  They meet the digits of p = num / 2**k lazily: the first
    _BERNOULLI_DENSE on every word (digit-major), later ones only on the
    words with an undecided lane, in order.  A lane still undecided after
    digit k has U >= p and gets 0, so P(bit) = p exactly."""
    num, den = p.as_integer_ratio()
    if num == den:
        return lanes.copy()
    k = den.bit_length() - 1
    dense = min(k, _BERNOULLI_DENSE)
    out = np.zeros_like(lanes).ravel()
    und = lanes.ravel().copy()  # undecided lanes: U's digits equal p's
    raw = bitgen.random_raw(dense * und.size).reshape(dense, und.size)
    for i in range(1, k + 1):
        if i > dense:
            live = np.flatnonzero(und != 0)
            idx = live if i == dense + 1 else idx[live]
            und = und[live]
            if not len(und):
                break
        r = raw[i - 1] if i <= dense else bitgen.random_raw(len(und))
        r &= und  # the undecided lanes whose digit of U is 1
        und ^= r  # ... and those whose digit is 0
        if num >> (k - i) & 1:  # p's digit is 1: a 0 decides U < p
            if i <= dense:
                out |= und
            else:
                out[idx] |= und
            und = r
    return out.reshape(lanes.shape)


def _ensemble_bits(spec, N, samples, rng):
    """Bit-sliced engine for asym_pep at delta = 0 (J = 1, capacity 2),
    where one particle on a site stays with one probability p at every
    site, time and height.  Lane l of word w is sample 64 w + l (padding
    lanes are trajectories too, dropped at the end).  Bit planes, a row
    per site, hold A = (eta >= 1) and F = (eta = 2) on the band lo..r+1 of
    _ensemble_pep.  With B the stay bits of _bernoulli_words on A & ~F, a
    step keeps S = F | B and passes X = (A ^ S) | F on: A'(x) = S(x) |
    X(x-1) and F'(x) = S(x) & X(x-1), with X(lo-1) all ones (the packed
    region or the step data).  The stay table at eta = 0, 1, 2 is checked
    each step as in _ensemble_pep; the occupancy range is structural."""
    ones = ~np.uint64(0)
    # Row x - 1 holds site x; r is the last site non-empty in some lane.
    a_all, f_all, s_all, x_all = (np.zeros((N + 2, -(-samples // 64)),
                                           dtype=np.uint64) for _ in "afsx")
    lo, r = 1, 0
    for t in range(N + 1):
        while lo <= r and (f_all[lo - 1] == ones).all():
            lo += 1
        a, f, n = a_all[lo - 1:r + 1], f_all[lo - 1:r + 1], r + 2 - lo
        if t == N:
            break
        single = np.bitwise_xor(a, f, out=s_all[:n])  # eta = 1
        table = _pep_stay(spec, np.arange(3), 0)
        p = float(table[1])
        if not -_WEIGHT_NEG_TOL <= p <= 1 + _WEIGHT_NEG_TOL:
            at = np.flatnonzero(single.any(axis=1))
            if len(at):
                raise InadmissibleWeights(
                    "stay probability %.6f out of [0, 1] at time %d, site %d"
                    % (p, t, lo + at[0]))
        if table[0] != 0.0 or table[2] != 1.0:
            raise InadmissibleWeights(
                "stay probability of an empty or full site is not exactly "
                "0 or 1 at time %d" % t)
        b = _bernoulli_words(rng.bit_generator, min(max(p, 0.0), 1.0), single)
        s = np.bitwise_or(f, b, out=single)
        x = np.bitwise_xor(a, s, out=x_all[:n])
        x |= f
        np.bitwise_or(s[1:], x[:-1], out=a[1:])
        np.bitwise_and(s[1:], x[:-1], out=f[1:])
        a[0], f[0] = ones, s[0]
        r += bool(a[-1].any())  # site r + 1 took a particle in some lane
    occ = sum(np.unpackbits(plane.view(np.uint8), axis=1, count=samples,
                            bitorder="little") for plane in (a, f))
    return _band_ensemble(N, 1, lo, np.cumsum(occ[::-1], axis=0,
                                              dtype=_int_dtype(N))[::-1])


def _ensemble_pep(spec, N, samples, rng):
    """Vectorized engine for both exclusion processes, capacity J+1, on the
    height function h_t(x) (particles at sites >= x), one column per
    sample; asym_pep at delta = 0 runs on the bit-sliced _ensemble_bits.
    Sites < lo are packed at J+1 (they deterministically forward
    J arrows) and sites past r, the last site non-empty in some sample, are
    empty, so a step works only on the band lo..r+1: rows o, o+1, ... of a
    height buffer and the first rows of per-cell buffers reused across
    steps.  All X(x) are drawn from the time-t state, and the height moves
    by the bond flux, h'(x) = h(x) + X(x-1) = h(x-1) - S(x-1), where S is 1
    when a particle stays at x, in place on a moving origin: after h -= S
    the row of site x holds h'(x+1), and the one new row, h'(lo) =
    h(lo) + J, goes just before the band.  Only when no row is left there
    does the band move, _WINDOW_GROW rows on (into a larger buffer if it
    needs one); r moves right by at most one site per step.

    The stay probability depends on (x, t, h) only through the integer key
    of _pep_key, so each step evaluates the shared formula once, on a table
    over the occupancies 0..J+1 and the band's keys, and checks that its
    occupancy-0 and occupancy-(J+1) entries are exactly 0 and 1.  A uniform
    is drawn only for the cells with 0 < eta < J+1, in site-major order,
    all inside the band: the seeded stream and heights are those of the
    earlier engine that stepped a window grown _WINDOW_GROW sites at a
    time, whose extent the Ensemble keeps."""
    if spec.variant == "asym_pep" and spec.delta == 0.0:
        return _ensemble_bits(spec, N, samples, rng)
    J = int(spec.J)
    cap = J + 1
    # Band sites stay below N + 2 and |key| <= 2h + (J+1)(x-1) + Jt.
    dtype = _int_dtype((4 * J + 1) * (N + 1))
    slope = _pep_key(spec, 1, 0, 1) - _pep_key(spec, 1, 0, 0)
    # Rows [o, o + n) of hbuf hold h at sites lo, ..., lo + n - 1 = r + 1.
    hbuf, o, n, lo = np.zeros((1, samples), dtype=dtype), 0, 1, 1
    for t in range(N + 1):
        if o == 0:  # no row left before the band: move it _WINDOW_GROW on
            band = hbuf[:n]
            if n + _WINDOW_GROW > len(hbuf):
                hbuf = np.empty((n + 2 * _WINDOW_GROW, samples), dtype=dtype)
                eta_buf = np.empty_like(hbuf)
                key_buf = np.empty_like(hbuf)
                kept_buf = np.empty(hbuf.shape, dtype=bool)
                mask_buf = np.empty_like(kept_buf)
            o = _WINDOW_GROW
            hbuf[o:o + n] = band
        h, eta = hbuf[o:o + n], eta_buf[:n]
        np.subtract(h[:-1], h[1:], out=eta[:-1])
        eta[-1] = h[-1]
        if eta.min() < 0 or eta.max() > cap:
            i, k = np.argwhere((eta < 0) | (eta > cap))[0]
            raise InadmissibleWeights(
                "occupancy %d out of [0, %d] at time %d, site %d"
                % (eta[i, k], cap, t, lo + i))
        k = 0
        while k < n - 1 and (eta[k] == cap).all():
            k += 1
        o, n, lo, h, eta = o + k, n - k, lo + k, h[k:], eta[k:]
        if t == N:
            break
        kept = np.equal(eta, cap, out=kept_buf[:n])
        # (eta > 0) ^ kept is 0 < eta < J+1; at J = 1 it is eta == 1, and
        # every drawn cell holds one particle.
        mask = mask_buf[:n]
        if J == 1:
            np.equal(eta, 1, out=mask)
        else:
            np.logical_xor(np.greater(eta, 0, out=mask), kept, out=mask)
        drawn = np.flatnonzero(mask)
        # _pep_key is affine in h: its offset is taken per row
        key = np.multiply(h, slope, out=key_buf[:n])
        key += _pep_key(spec, np.arange(lo, lo + n, dtype=dtype)[:, None],
                        t, 0)
        kmin = int(key.min())
        if kmin < 0 and spec.variant == "jgamma_pep":
            raise _upsilon_error(kmin, t, lo + int(key.argmin()) // samples)
        nk = int(key.max()) - kmin + 1
        if (cap + 1) * nk > h.size:
            # a table wider than the band (large J): the pairs present
            pairs, idx = np.unique(eta.astype(np.intp) * nk + (key - kmin),
                                   return_inverse=True)
            idx = idx.ravel()[drawn]
        else:
            pairs = np.arange((cap + 1) * nk)
            idx = np.intp(1) if J == 1 else eta.ravel()[drawn].astype(np.intp)
            idx = idx * nk - kmin + key.ravel()[drawn]
        occs, keys = np.divmod(pairs, nk)
        table = _pep_stay(spec, occs, keys + kmin)
        stay = table.take(idx)
        if ((table < -_WEIGHT_NEG_TOL) | (table > 1 + _WEIGHT_NEG_TOL)).any():
            stay = np.broadcast_to(stay, drawn.shape)
            bad = np.flatnonzero((stay < -_WEIGHT_NEG_TOL)
                                 | (stay > 1 + _WEIGHT_NEG_TOL))
            if len(bad):
                raise InadmissibleWeights(
                    "stay probability %.6f out of [0, 1] at time %d, site %d"
                    % (stay[bad[0]], t, lo + drawn[bad[0]] // samples))
        empty, full = table[occs == 0], table[occs == cap]
        if empty.any() or (full != 1.0).any():
            raise InadmissibleWeights(
                "stay probability of an empty or full site is not exactly "
                "0 or 1 at time %d" % t)
        kept.ravel()[drawn] = rng.random(len(drawn)) < stay
        np.add(h[0], J, out=hbuf[o - 1])  # from the packed region / step data
        h -= kept
        o -= 1
        if hbuf[o + n - 1].any():  # h'(r + 1) > 0 in some sample
            n += 1
    return _band_ensemble(N, J, lo, h)


def _ensemble_rows(spec, N, samples, rng):
    """Engine for qhahn and general; row x - 1 of h holds h(x).  Row t + 1
    sweeps x = 1, 2, ... as `_row_sweep` does: a sample calls the kernel
    while h(x) > 0 or its incoming arrows j1 > 0, with the memo key (i1, h)
    (qhahn) or (i1, j1, h) (general), i1 = h(x) - h(x+1).  One uniform u
    per sample and site gives j2 = the number of its key's cumulative
    weights, all but the last, that are <= u (the comparisons of
    `_sample_index`); then h(x) += j1 and j1 = j2.  The buffer grows when
    a general arrow slides past it, and a sample more than _SWEEP_CAP sites
    past its support raises SizeLimit."""
    general = spec.variant == "general"
    dtype = _int_dtype(sum(spec.row_degree(y) for y in range(1, N + 1)))
    h = np.zeros((N + 2, samples), dtype=dtype)
    for t in range(N):
        Jy = spec.row_degree(t + 1)
        jw = Jy + 1 if general else 1  # the j1 digit of the key
        reach = np.maximum((h > 0).sum(axis=0), 1) + _SWEEP_CAP
        j1 = np.full(samples, Jy, dtype=dtype)
        x = 0
        while True:
            x += 1
            if x == len(h):  # a slide needs the next row
                h = np.concatenate([h, np.zeros_like(h)])
            hx = h[x - 1]
            active = (hx > 0) | (j1 > 0)
            if not active.any():
                break
            if (active & (x > reach)).any():
                raise SizeLimit("horizontal propagation exceeded the cap")
            lo = int(hx.min())
            span = int(hx.max()) - lo + 1
            key = (hx - h[x]).astype(np.intp) * span + (hx - lo)
            if general:
                key = key * jw + j1
            key = np.where(active, key + 1, 0)  # 0: no kernel call, j2 = 0
            u = rng.random(samples)
            present = np.flatnonzero(np.bincount(key)[1:])
            cdfs = []
            for k in present.tolist():
                (i1, d), j = divmod(k // jw, span), k % jw
                cdfs.append(np.cumsum(_kernel(spec, x, t, i1, j, lo + d)[1]))
            table = np.full((max(map(len, cdfs)) - 1, present[-1] + 2), np.inf)
            for k, cdf in zip(present, cdfs):
                table[:len(cdf) - 1, k + 1] = cdf[:-1]
            j2 = np.zeros(samples, dtype=dtype)
            for row in table:  # the kernel's values are 0, 1, ...
                j2 += row[key] <= u
            hx += j1
            j1 = j2
    return Ensemble(N, 1, h.T)


def _ensemble_corner(spec, N, samples, rng):
    """Vectorized engine for both corner-growth variants, on the lattice of
    `step`: row i of the state holds the height at left + i for
    every sample (column).  Each step extends the window by one wedge
    value on each side and moves left by -1/2, as `_corner_sweep` does;
    sloped segments take the midpoint.  One uniform is drawn per flat
    segment, in site-major order (the order of np.flatnonzero on the
    state), and the segment goes down by one when u < 1 - up, else up by
    one.  At samples = 1 this is the draw order of `step`, so the engine
    reproduces the scalar trajectory from the same generator."""
    init = initial_state(spec, rng=rng)
    left = init.left
    h = np.repeat(init.heights[:, None], samples, axis=1)
    for t in range(N):
        n = len(h)
        ext = np.empty((n + 2, samples), dtype=np.int64)
        ext[0] = round(2 * abs(left - 1))
        ext[1:-1] = h
        ext[-1] = round(2 * abs(left + n))
        h1, h2 = ext[:-1], ext[1:]
        slope = h2 - h1
        bad = (slope != 0) & (slope != 2) & (slope != -2)
        if bad.any():
            raise InadmissibleWeights(
                "segment slope %d not in {-2, 0, 2} at time %d"
                % (slope.ravel()[np.flatnonzero(bad)[0]], t))
        flat = np.flatnonzero(slope == 0)
        up = np.broadcast_to(_corner_up_prob(spec, h1.ravel()[flat]),
                             flat.shape)
        out = np.flatnonzero((up < -_WEIGHT_NEG_TOL)
                             | (up > 1 + _WEIGHT_NEG_TOL))
        if len(out):
            k = out[0]
            raise InadmissibleWeights(
                "up-probability %.6f at x=%.1f, time %d"
                % (up[k], left - 0.5 + flat[k] // samples, t))
        h = h1 + h2
        h //= 2
        h.ravel()[flat] += np.where(rng.random(len(flat)) < 1.0 - up, -1, 1)
        left -= 0.5
    return Ensemble(N, left, h.T, corner=True)


_ENGINES = {
    "general": _ensemble_rows,
    "qhahn": _ensemble_rows,
    "jgamma_pep": _ensemble_pep,
    "asym_pep": _ensemble_pep,
    "corner": _ensemble_corner,
    "corner_dyn": _ensemble_corner,
}


def run_ensemble(spec, N, samples, base_seed, observables):
    """Independent trajectories; one MCEstimate per observable.

    The variant's engine advances all trajectories in lockstep from one
    generator split off (base_seed, 0), so the result is deterministic
    given base_seed: the row engine (qhahn, general) draws one uniform per
    sample and site, the band engine (jgamma_pep, asym_pep) one per site
    with 0 < eta < J+1 or, at asym_pep delta = 0, exact Bernoulli bits 64
    trajectories to a word, and the corner engine (corner, corner_dyn) one
    per flat segment.  Each observable is called once, with the final
    Ensemble, and returns one value per sample or one scalar for all:
    `current(ens, x)` and `ens.height(x)` give int64 arrays.
    """
    N, samples = int(N), int(samples)
    if samples < 1 or N < 0:
        raise ValueError("need at least one sample and N >= 0 steps")
    ens = _ENGINES[spec.variant](spec, N, samples,
                                 _trajectory_rng(base_seed, 0))
    return _estimates(ens, base_seed, observables)


def _estimates(ens, base_seed, observables):
    """One MCEstimate per observable, each called once with `ens`."""
    samples = len(ens.heights)
    out = []
    for obs in observables:
        vals = np.full(samples, obs(ens), dtype=float)
        std = float(np.std(vals, ddof=1)) if samples > 1 else 0.0
        out.append(MCEstimate(mean=float(np.mean(vals)),
                              stderr=std / math.sqrt(samples),
                              n_samples=samples, base_seed=int(base_seed)))
    return out
