"""Fixed-stride random walks on the space of pure states.

A walk starts from a Haar-random state of dimension D = 2**qubits and
takes ``steps`` tangent steps of fixed Fubini-Study length ``delta_s``,
each along a fresh random direction, uniform with respect to the local
metric.  After every step the span

    L_t = fs_distance(walker, start)

is recorded.  The walk has reached the far edge when its final span
comes within ``epsilon`` of the maximal distance pi/2.

Without an explicit ``epsilon`` the margin is the paper's, tied to the
dimension: epsilon = pi/2 - arccos(1/sqrt(D)), i.e. the walker only has
to get as far from the start as a typical independent random state
would already be.

The per-trial critical stride is the smallest delta_s at which a walk
from the trial's initial state reaches the far edge, located by probing
an ascending stride grid with fresh step directions per probe; see
:func:`critical_step_for_trial`.  One cell kernel scans the trials of a
(qubits, steps) cell together: each trial walks the same 64-probe blocks
of the grid from its own start with its own directions, and every block
stacks the probes of all trials still scanning into one lockstep batch.
:func:`critical_step_length` runs it over chunks of trials, and
:func:`critical_step_for_trial` is its one-trial case.

Both :func:`run_walk` (the validated public walk) and the probe scan
run one private kernel on raw arrays, which walks a batch of K walkers
in lockstep.  A walker lives in the chart angles of :mod:`qspan.hilbert`
for its whole walk: the start state is charted once (the kernel behind
``to_coords``), every step adds a tangent displacement to the angles,
and amplitudes (the kernel behind ``state_from_angles``) are formed only
where a distance is measured.  The angles leave the canonical ranges as
they walk.  Each step reads the moduli m and tail norms t, all the
metric depends on, straight off the angles, with a sign that makes the
walker step as its canonical twin in the chart would (see
:func:`_moduli`), so the walk is that of a walker charted afresh at
every step, up to rounding.  The tangent draw uses the block structure
of the metric to sample in O(D), with no eigendecomposition (see
:func:`_tangent`); its tests check the draw against the metric
``metric_tensor`` returns, through the covariance S S^T = g^-1 of its
root S.  The scan draws the directions in the order a probe-by-probe
scan draws them, so its strides equal those of a scan built from
:func:`run_walk` bit for bit.  A draw that vanishes on every active
direction of a walker (probability ~0) is a zero step for that walker.
The angle walk, the draw, the zero step and, with exact steps, the root
find define walk stream :data:`WALK_STREAM`, which a result's metadata
records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.optimize.elementwise import find_root

from ._checks import flag, positive, within
from ._seeds import spawn
from .hilbert import HALF_PI, StateVector, fs_distance, random_state
from .hilbert import _amplitudes, _chart, _dots, _fs_distances, _sine_prefix, _sq_norms

__all__ = [
    "WalkConfig",
    "WalkRecord",
    "UnitaryProbe",
    "TrialCritical",
    "CriticalStepResult",
    "paper_epsilon",
    "run_walk",
    "critical_step_for_trial",
    "critical_step_length",
    "dimension_factor",
    "heuristic_span",
    "heuristic_critical_step",
    "unitary_span",
]

#: Default relative width (in units of pi/2) to which the per-trial
#: critical stride is bracketed.
BRACKET_REL_WIDTH = 1e-3

#: Version of the random stream walks draw their directions from, one
#: number for default and exact-step walks: a change that would give
#: other rows for some (seed, config) pair in either mode bumps it.
#: Result files that do not record it are stream 1; the README lists
#: what each stream changed.
WALK_STREAM = 5

#: Probes each trial walks per lockstep block, with or without exact
#: steps; the cell kernel stacks the blocks of up to ``_CELL_TRIALS``
#: trials of one cell into one batch.  A lockstep step costs about
#: thirty small numpy calls whatever its row count (sixty when every
#: step charted the walkers' amplitudes afresh), and that call overhead
#: outweighs the probes walked past a trial's success.  Measured one
#: trial per batch, with the charting kernel, on the acceptance grid,
#: where trials need from 4 to about 270 probes (median about 80), fixed
#: blocks of 64 ran about 2.2x faster than batches doubling 1, 2, 4, ...
#: up to 32.  Blocks of 96 ran alike, 128 alike or slower and 256 slower,
#: so 64, the smallest of the fast sizes, keeps the block of normals and
#: the memory guard's estimate smallest.  An exact step's bracket scan and
#: root find cost far more per call than per row, so exact scans gain the
#: most: on 48 exact-step trials (qubits 1, 2 x steps 3, 10), blocks of
#: 8, 16, 32 and 64 ran 1.4x, 1.9x, 3.8x and 6.2x faster than the scalar
#: brentq scan they replaced, which walked one probe at a time; 96 and
#: 128 ran within the noise of 64.
_PROBE_BLOCK = 64
#: Ray scales the exact-step bracket scan evaluates per row and call.
_SCAN_CHUNK = 8
#: Trials of one cell the cell kernel stacks into one lockstep batch per
#: block, and so the most trials one worker task of the command line
#: scans.  A batch pays a lockstep step's numpy call overhead once, so
#: stacking gains where rows are cheap.  On the acceptance walk survey
#: (100 trials per cell, one core, the same strides bit for bit) the scan
#: trial by trial took 11.8-12.4 s, and chunks of 4, 8, 16 and 32 trials
#: took 7.0-9.1, 6.4-8.5, 6.4-7.9 and 6.3-8.2 s; one chunk of all 100
#: took 7.7-8.3 s.  16 is the smallest of the fast sizes, which keeps
#: the stacked normals and the memory guard's estimate smallest.  From
#: 5 qubits on arithmetic bounds a step, and 16-trial chunks ran within
#: a few percent of single trials.
_CELL_TRIALS = 16


def paper_epsilon(qubits: int) -> float:
    """Success margin at which a typical random state already counts as far.

    Two independent Haar states of dimension D have root-mean-square
    overlap 1/sqrt(D), i.e. typical separation arccos(1/sqrt(D)); the
    margin is the gap between that and the maximum pi/2.  ``qubits``
    must be an integer >= 1 (a numpy one included); anything else is a
    ``ValueError``.
    """
    qubits = positive(qubits, "qubits")
    return float(HALF_PI - np.arccos(2.0 ** (-qubits / 2.0)))


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of one walk.

    ``epsilon`` None is filled in with :func:`paper_epsilon` of the
    qubit count; an explicit margin must lie in (0, pi/2].  With
    ``exact_step`` the raw tangent displacement is rescaled by a root
    find so each realized step distance equals delta_s to relative 1e-6,
    instead of only to first order.  Counts must be integers >= 1, the
    stride and margin finite numbers in (0, pi/2] and ``exact_step`` a
    bool (numpy scalars included, stored as plain Python ones); anything
    else is a ``ValueError``.
    """

    qubits: int
    steps: int
    delta_s: float
    epsilon: float | None = None
    exact_step: bool = False

    def __post_init__(self) -> None:
        for name in ("qubits", "steps"):
            object.__setattr__(self, name, positive(getattr(self, name), name))
        object.__setattr__(self, "delta_s", within(self.delta_s, "delta_s", HALF_PI))
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", paper_epsilon(self.qubits))
        else:
            object.__setattr__(self, "epsilon", within(self.epsilon, "epsilon", HALF_PI))
        object.__setattr__(self, "exact_step", flag(self.exact_step, "exact_step"))

    @property
    def dim(self) -> int:
        return 2**self.qubits


@dataclass(frozen=True, eq=False)
class WalkRecord:
    """Spans L_0 .. L_M of one walk and its success flag."""

    spans: np.ndarray
    reached: bool

    def __post_init__(self) -> None:
        spans = np.asarray(self.spans, dtype=np.float64).copy()
        spans.flags.writeable = False
        object.__setattr__(self, "spans", spans)

    @property
    def final_span(self) -> float:
        return float(self.spans[-1])


def run_walk(
    initial: StateVector, config: WalkConfig, rng: np.random.Generator
) -> WalkRecord:
    """Walk ``config.steps`` strides from ``initial`` and record spans.

    The walker starts at the chart angles of ``initial`` and keeps its
    angles from step to step.  Each step draws a random tangent
    displacement of metric length delta_s at the walker's angles and adds
    it to them.  spans[0] is 0 and spans[t] the Fubini-Study distance
    back to the start of the amplitudes at the angles after t steps.  The
    steps run on the probe scan's kernel, one walker at a time, drawing
    2(D-1) normals per step from ``rng``; should they vanish on every
    active direction the step is a zero step.  Given the same initial
    state and generator state the record is reproduced bit for bit.
    """
    if initial.dim != config.dim:
        raise ValueError(
            f"initial state dimension {initial.dim} does not match config ({config.dim})"
        )
    a = initial.amplitudes
    theta = _chart(a[None])[0]
    stride = np.array([config.delta_s])
    spans = np.zeros(config.steps + 1)
    for t in range(1, config.steps + 1):
        normals = rng.standard_normal((1, 1, theta.shape[1]))
        theta = _lockstep(theta, stride, normals, config.exact_step)
        spans[t] = _fs_distances(a, _amplitudes(theta))[0]
    reached = (HALF_PI - spans[-1]) <= config.epsilon
    return WalkRecord(spans=spans, reached=bool(reached))


def _exact_stride(
    a: np.ndarray, theta: np.ndarray, d_theta: np.ndarray, strides: np.ndarray
) -> np.ndarray:
    """Rescale each row's displacement so its realized distance equals its stride.

    Row k scans outward along the ray theta_k + c * d_theta_k, c = 0.25,
    0.5, ..., until the realized distance from its own amplitudes a_k
    (those at theta_k) crosses strides_k.  The scan evaluates
    ``_SCAN_CHUNK`` scales per row and call, stacked over the rows that
    have not crossed yet.  One ``find_root`` call then settles the
    crossing of every bracketed row to within 1e-12 + 1e-14 c; a scale
    that lands on the stride exactly is kept as is.  Strides near pi/2
    may not be realizable along a given ray at all; such a row falls
    back, on its own, to the scale that maximizes its realized distance.
    Every operation acts on each row alone, so a row's step does not
    depend on the rows beside it.
    Returns the (K, p) chart angles theta + c * d_theta of the new points;
    amplitudes are formed only for the distances the scan measures.
    """

    def realized(c, rows) -> np.ndarray:
        return _fs_distances(a[rows], _amplitudes(theta[rows] + c[:, None] * d_theta[rows]))

    def excess(c, rows) -> np.ndarray:
        return realized(c, rows) - strides[rows]

    scales = np.arange(0.25, 64.25, 0.25)
    lo, hi = np.zeros(strides.size), np.zeros(strides.size)
    at_hi = np.full(strides.size, np.nan)
    rows = np.arange(strides.size)
    for start in range(0, scales.size, _SCAN_CHUNK):
        if not rows.size:
            break
        chunk = scales[start:start + _SCAN_CHUNK]
        at = excess(np.tile(chunk, rows.size), np.repeat(rows, chunk.size))
        at = at.reshape(rows.size, chunk.size)
        crossed = at >= 0.0
        hit = crossed.any(axis=1)
        i = crossed.argmax(axis=1)[hit]
        done = rows[hit]
        hi[done], at_hi[done] = chunk[i], at[hit, i]
        lo[done] = np.where(i > 0, chunk[i - 1], lo[done])
        rows = rows[~hit]
        lo[rows] = chunk[-1]
    c = hi
    root = np.flatnonzero(at_hi > 0.0)
    if root.size:
        c[root] = find_root(
            excess, (lo[root], hi[root]), args=(root,),
            tolerances=dict(xatol=1e-12, xrtol=1e-14),
        ).x
    for k in rows:
        one = np.array([k])
        c[k] = minimize_scalar(
            lambda x: -realized(np.array([x]), one)[0], bounds=(0.0, 64.0),
            method="bounded", options={"xatol": 1e-9},
        ).x
    return theta + c[:, None] * d_theta


# --- walk kernel -------------------------------------------------------------
#
# Tangent draws and lockstep batches on the chart kernel of qspan.hilbert.
# As there, every operation acts on each row alone.


def _tangent(m, tail, strides, xi):
    """Chart displacements of metric length ``strides`` along the normals ``xi``.

    In the notation of :func:`qspan.hilbert.metric_tensor` the magnitude
    block is diag(P) with P_k = t_k**2, and the phase block is
    A = diag(v) - v v^T with v = m**2 over the first D - 1 moduli.  With
    m_D the last modulus, 1 - sum(v) = m_D**2 and Sherman-Morrison gives
    A^-1 = diag(1/v) + 1 1^T / m_D**2 = S S^T for

        S = diag(1/sqrt(v)) + 1 sqrt(v)^T / (m_D (1 + m_D)),

    so with u = xi / |xi| the displacement

        d_theta = stride * (u_mag / t, S u_ph)

    has d_theta^T g d_theta = stride**2 exactly.  It is stride * R u for
    the root R = diag(1/t) + S of g (block sum), with R R^T = g^-1 where
    g is invertible, so a u uniform on the unit sphere of R^p gives
    d_theta the covariance stride**2 g^-1 / p: steps uniform with
    respect to the metric, at O(D) cost and with no eigendecomposition.
    Directions with P_k = 0 or v_d = 0 carry no metric length and get
    no share of xi.  ``tail`` may carry a sign (see :func:`_moduli`): a
    negative t_k mirrors magnitude angle k's displacement.  Where m_D = 0,
    A is singular along the global phase; u_ph then comes from the
    projection (I - sqrt(v) sqrt(v)^T) xi_ph, for which
    d_ph = stride * u_ph / sqrt(v) has the same metric length.  A row
    whose masked draw vanishes gets a zero displacement.
    """
    n = m.shape[1] - 1
    root_v, last = m[:, :n], m[:, n]
    root = np.concatenate((tail[:, :n], root_v), axis=1)
    active = root != 0.0
    xi = np.where(active, xi, 0.0)
    edge = last == 0.0
    if edge.any():
        ph = xi[:, n:]
        xi[:, n:] = np.where(edge[:, None], ph - root_v * _dots(root_v, ph)[:, None], ph)
        last = np.where(edge, np.inf, last)  # no shift along the global phase
    d = strides[:, None] * _unit_rows(xi)
    shift = _dots(root_v, d[:, n:]) / (last * (1.0 + last))
    d /= np.where(active, root, 1.0)
    d[:, n:] += shift[:, None]
    return d


def _unit_rows(u: np.ndarray) -> np.ndarray:
    """Rows of ``u`` scaled to unit length; an all-zero row stays zero."""
    norm = np.sqrt(_sq_norms(u))
    if not norm.all():
        norm[norm == 0.0] = 1.0
    return u / norm[:, None]


def _moduli(theta):
    """Moduli m and signed tail norms t of the walkers at (K, p) chart angles ``theta``.

    With prefix_k the product of sin(theta_l) over l < k, m_k =
    |prefix_k cos(theta_k)| (m_D = |prefix_D|) and, for each of the D - 1
    magnitude angles, |t_k| = |prefix_k|: the values the chart of the
    walkers' amplitudes gives, whatever ranges the angles are in.  The
    chart folds each magnitude angle into [0, pi/2]: theta_k + pi and
    -theta_k give the same ray, so the folded angle moves with theta_k
    where sin(theta_k) cos(theta_k) > 0 and against it where it is
    negative.  t_k carries that sign, and :func:`_tangent` mirrors the
    displacement of an angle with a negative t_k, so the walker steps as
    its folded twin in the chart does: the walk is the chart's walk up to
    rounding.  The chart puts theta_k = pi/2 where an amplitude vanishes,
    and cos gives 6e-17 there rather than 0, so a modulus below 2**-53 of
    its tail norm counts as 0: that amplitude's directions get no share
    of a draw, as they get none from the chart.
    """
    prefix, moduli = _sine_prefix(theta)
    tail = np.abs(prefix)
    m = np.abs(moduli)
    m[m < 2.0**-53 * tail] = 0.0
    # moduli_k * prefix_{k+1} = prefix_k**2 sin(theta_k) cos(theta_k)
    return m, np.copysign(tail[:, :-1], moduli[:, :-1] * prefix[:, 1:])


def _lockstep(theta, strides, normals, exact_step):
    """Chart angles of walks from ``theta``, one per stride, after their steps.

    ``theta`` holds the (K, p) start angles, one row per walker, and
    ``normals`` is a (K, steps, p) block of standard normals, row k's
    step t drawn from ``normals[k, t]``.  Each step adds
    the tangent displacement at the walkers' moduli to their angles; with
    ``exact_step`` every step of the batch goes through one
    :func:`_exact_stride` call, from the amplitudes at the current angles.
    """
    for t in range(normals.shape[1]):
        m, tail = _moduli(theta)
        d_theta = _tangent(m, tail, strides, normals[:, t])
        if exact_step:
            theta = _exact_stride(_amplitudes(theta), theta, d_theta, strides)
        else:
            theta = theta + d_theta
    return theta


def _probe_batch(a, theta, strides, rngs, steps, exact_step):
    """Final spans of the probes at ``strides`` from each start, as a (starts, K) array.

    Start k, with amplitudes ``a[k]`` and chart angles ``theta[k]``,
    walks every stride.  It draws its normals from ``rngs[k]`` at once
    as a (K, steps, p) block, the same variates K * steps sequential
    draws of p give, so each probe walks the steps :func:`run_walk`
    would walk from the same generator.  The starts' probes are stacked
    in start order into one lockstep batch, each start's blocks drawn
    straight into its slice of the batch's normals.
    """
    k = strides.size
    normals = np.empty((len(rngs) * k, steps, theta.shape[1]))
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=normals[i * k:(i + 1) * k])
    a, theta = np.repeat(a, k, axis=0), np.repeat(theta, k, axis=0)
    theta = _lockstep(theta, np.tile(strides, len(rngs)), normals, exact_step)
    return _fs_distances(a, _amplitudes(theta)).reshape(len(rngs), k)


@dataclass(frozen=True)
class TrialCritical:
    """Critical stride of a single trial."""

    value: float
    censored: bool


def critical_step_for_trial(
    qubits: int,
    steps: int,
    trial_seed,
    *,
    epsilon: float | None = None,
    exact_step: bool = False,
) -> TrialCritical:
    """Smallest stride at which this trial's walk reaches the far edge.

    The trial's substream is split once into an initial-state stream and
    a direction stream.  Candidate strides are scanned upward on an
    additive grid of step ``BRACKET_REL_WIDTH * pi/2`` starting at the
    triangle-inequality floor (pi/2 - epsilon) / steps, below which no
    walk of ``steps`` strides can reach the far edge.  Each probe runs a
    full walk drawing fresh directions from the trial's stream, and the
    first succeeding stride is returned; every returned value is thereby
    bracketed between the last failing probe and itself, a bracket of
    width at most BRACKET_REL_WIDTH * pi/2.  The top candidate is pi/2
    exactly; a trial that still fails there is censored: recorded at
    pi/2 and flagged, to be excluded from averages by the caller.

    This is the one-trial case of the cell kernel, which scans many
    trials of one (qubits, steps) cell in lockstep (see
    :func:`critical_step_length`).  Consecutive probes run in blocks of
    64 walks (``_PROBE_BLOCK``) from the first probe on, with or without
    ``exact_step``; an exact step brackets and root-finds the whole block
    at once.  A block that contains a success ends the scan at its first
    success in grid order, and the probes after it are discarded.  The
    block draws its directions in probe order, so the result equals, bit
    for bit, that of a scan that walks each probe with :func:`run_walk`
    and stops at the first success.

    Results are reproducible bit for bit from (seed, qubit count, steps,
    stride grid): probe order is deterministic, and the direction stream
    is consumed sequentially across probes.  The arguments are checked
    through :class:`WalkConfig` before anything is drawn.
    """
    return _cell_criticals(
        qubits, steps, [trial_seed], epsilon=epsilon, exact_step=exact_step
    )[0]


def _cell_criticals(qubits, steps, trial_seeds, *, epsilon, exact_step) -> list:
    """:func:`critical_step_for_trial` of each of ``trial_seeds``, scanned in lockstep.

    Every trial charts its own start and keeps its own direction
    generator.  At block b every trial still live walks the same grid
    strides ``strides[64b:64b + 64]``, all of them in one
    :func:`_probe_batch` of live x 64 walkers, and a trial retires at its
    first success in grid order; one that fails at pi/2 too is censored.
    Every kernel operation acts on each row alone, so each trial's
    result is bit for bit its lone scan's.
    """
    config = WalkConfig(
        qubits=qubits, steps=steps, delta_s=HALF_PI, epsilon=epsilon, exact_step=exact_step
    )
    floor = within(
        (HALF_PI - config.epsilon) / config.steps, "floor stride (pi/2 - epsilon) / steps", HALF_PI
    )
    grid = BRACKET_REL_WIDTH * HALF_PI
    strides = []
    s = floor
    while s < HALF_PI:
        strides.append(s)
        s += grid
    strides = np.array(strides + [HALF_PI])

    starts, angles, rngs = [], [], []
    for trial_seed in trial_seeds:
        init_ss, dir_ss = spawn(trial_seed, 2)
        a = random_state(config.dim, np.random.default_rng(init_ss)).amplitudes
        starts.append(a)
        angles.append(_chart(a[None])[0][0])
        rngs.append(np.random.default_rng(dir_ss))
    starts, angles = np.array(starts), np.array(angles)
    values = np.full(len(rngs), HALF_PI)
    live = np.arange(len(rngs))
    for done in range(0, strides.size, _PROBE_BLOCK):
        batch = strides[done:done + _PROBE_BLOCK]
        final = _probe_batch(starts, angles, batch, rngs, config.steps, config.exact_step)
        reached = HALF_PI - final <= config.epsilon
        hit = reached.any(axis=1)
        if hit.any():
            values[live[hit]] = batch[reached.argmax(axis=1)[hit]]
            kept = ~hit
            live, starts, angles = live[kept], starts[kept], angles[kept]
            rngs = [rng for rng, keep in zip(rngs, kept) if keep]
            if not rngs:
                break
    return [TrialCritical(value=float(v), censored=k in live) for k, v in enumerate(values)]


@dataclass(frozen=True, eq=False)
class CriticalStepResult:
    """Per-trial critical strides with censoring information.

    ``mean`` and ``std_error`` are computed over uncensored trials only;
    censored trials sit in ``values`` at pi/2 with their flag set.  With
    every trial censored both statistics are NaN.
    """

    values: np.ndarray
    censored: np.ndarray
    mean: float
    std_error: float

    def __post_init__(self) -> None:
        for name in ("values", "censored"):
            a = np.asarray(getattr(self, name)).copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_trials(self) -> int:
        return self.values.shape[0]

    @property
    def censored_count(self) -> int:
        return int(np.count_nonzero(self.censored))


def critical_step_length(
    qubits: int,
    steps: int,
    trials: int,
    seed,
    *,
    epsilon: float | None = None,
    exact_step: bool = False,
) -> CriticalStepResult:
    """Mean critical stride over independent trials.

    ``seed`` may be an integer, an entropy sequence or a SeedSequence;
    per-trial substreams are spawned from it.  The trials are scanned
    by the cell kernel in chunks of up to ``_CELL_TRIALS``, each chunk
    in one lockstep batch per block of probes.  Each trial gives the
    value its lone :func:`critical_step_for_trial` scan gives, bit for
    bit, however the trials are chunked.
    """
    trials = positive(trials, "trials")
    seeds = spawn(seed, trials)
    outcomes = [
        t
        for start in range(0, trials, _CELL_TRIALS)
        for t in _cell_criticals(
            qubits, steps, seeds[start:start + _CELL_TRIALS],
            epsilon=epsilon, exact_step=exact_step,
        )
    ]
    values = np.array([t.value for t in outcomes])
    censored = np.array([t.censored for t in outcomes])
    kept = values[~censored]
    if kept.size > 0:
        mean = float(kept.mean())
        std_error = float(kept.std(ddof=1) / math.sqrt(kept.size)) if kept.size > 1 else 0.0
    else:
        mean = math.nan
        std_error = math.nan
    return CriticalStepResult(values=values, censored=censored, mean=mean, std_error=std_error)


def dimension_factor(qubits: int) -> float:
    """Empirical reachable-fraction factor f = 10.5 * qubits**-1.5.

    ``qubits`` must be an integer >= 1 (a numpy one included); anything
    else is a ``ValueError``.
    """
    return 10.5 * positive(qubits, "qubits") ** -1.5


def heuristic_span(delta_s: float, steps: int, qubits: int) -> float:
    """Diffusive estimate (2/pi) * delta_s * sqrt(steps * f(qubits)).

    Normalized so that a span of 1 means the far edge pi/2; the factor
    f(qubits) shrinks the effective reachable volume as the register
    grows.  Counts must be integers >= 1 and ``delta_s`` a finite
    number > 0 (numpy scalars included); anything else is a
    ``ValueError``.
    """
    delta_s, steps = within(delta_s, "delta_s"), positive(steps, "steps")
    return (2.0 / np.pi) * delta_s * math.sqrt(steps * dimension_factor(qubits))


def heuristic_critical_step(steps: int, qubits: int) -> float:
    """Stride at which the heuristic span reaches the far edge.

    Inverts heuristic_span(...) == 1: delta_s = (pi/2) / sqrt(steps * f).
    Counts must be integers >= 1; anything else is a ``ValueError``.
    """
    return HALF_PI / math.sqrt(positive(steps, "steps") * dimension_factor(qubits))


@dataclass(frozen=True, eq=False)
class UnitaryProbe:
    """A short burst of Hamiltonian evolutions applied in sequence.

    Each Hamiltonian acts for time ``dt`` (hbar = 1).  For small dt the
    Fubini-Study distance travelled from a state psi approaches
    dt * sigma, where sigma is the dispersion of the summed generator in
    psi; :func:`unitary_span` returns both sides of that comparison.
    ``dt`` must be a finite number > 0 (a numpy scalar included, stored
    as a plain float); anything else is a ``ValueError``.
    """

    hamiltonians: tuple
    dt: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "dt", within(self.dt, "dt"))
        hams = tuple(np.asarray(h, dtype=np.complex128) for h in self.hamiltonians)
        if not hams:
            raise ValueError("at least one Hamiltonian is required")
        d = hams[0].shape[0] if hams[0].ndim == 2 else 0
        frozen = []
        for h in hams:
            if h.ndim != 2 or h.shape != (d, d) or d == 0:
                raise ValueError("Hamiltonians must be square matrices of equal size")
            if not np.allclose(h, h.conj().T, atol=1e-12, rtol=0.0):
                raise ValueError("Hamiltonians must be Hermitian to 1e-12")
            h = h.copy()
            h.flags.writeable = False
            frozen.append(h)
        object.__setattr__(self, "hamiltonians", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.hamiltonians[0].shape[0]

    def generator_dispersion(self, psi: StateVector) -> float:
        """Dispersion sqrt(<H^2> - <H>^2) of the summed generator in psi."""
        if psi.dim != self.dim:
            raise ValueError(f"dimension mismatch: {psi.dim} != {self.dim}")
        total = sum(self.hamiltonians)
        hpsi = total @ psi.amplitudes
        e1 = float(np.vdot(psi.amplitudes, hpsi).real)
        e2 = float(np.vdot(hpsi, hpsi).real)
        return math.sqrt(max(e2 - e1 * e1, 0.0))


def _evolve(h: np.ndarray, dt: float, phi: np.ndarray) -> np.ndarray:
    # exp(-i dt H) phi through the eigendecomposition of Hermitian H
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * dt * w) * (v.conj().T @ phi))


def unitary_span(psi: StateVector, probe: UnitaryProbe) -> tuple[float, float]:
    """Span travelled under a probe, and its dispersion-based prediction.

    Applies exp(-i dt H_j) for each Hamiltonian in sequence and returns
    (realized Fubini-Study distance from psi, dt * dispersion of the
    summed generator in psi).  The two agree to first order in dt.
    """
    if psi.dim != probe.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} != {probe.dim}")
    phi = psi.amplitudes
    for h in probe.hamiltonians:
        phi = _evolve(h, probe.dt, phi)
    evolved = StateVector.from_array(phi)
    return fs_distance(psi, evolved), probe.dt * probe.generator_dispersion(psi)
