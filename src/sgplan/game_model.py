"""Stochastic game representation and generative-model access.

A stochastic game couples a bimatrix stage game to every state with a
transition kernel P(s'|s, i, j) driven by both players' actions.  States
carry stable integer identifiers 0..n_states-1; both players keep the same
action counts at every state so backup matrices have uniform shape.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MissingPolicyEntry, SgError
from .matrix_games import MatrixGame, _check_index


@dataclass(frozen=True)
class StochasticGame:
    """Explicit stochastic game: per-state payoffs and transition kernel.

    payoffs1, payoffs2 have shape (n_states, n1, n2); transitions has shape
    (n_states, n1, n2, n_states).  Construction checks shapes only; value
    invariants (probability rows, payoff bounds) are checked by `validate`
    so malformed instances can be constructed and reported on.
    """

    payoffs1: np.ndarray
    payoffs2: np.ndarray
    transitions: np.ndarray
    start_state: int = 0
    r_max: float | None = None
    is_zero_sum: bool = False

    def __post_init__(self):
        p1 = np.array(self.payoffs1, dtype=float)
        p2 = np.array(self.payoffs2, dtype=float)
        tr = np.array(self.transitions, dtype=float)
        if p1.ndim != 3 or p1.size == 0:
            raise DimensionMismatch(f"payoffs must have shape (states, n1, n2), got {p1.shape}")
        if p2.shape != p1.shape:
            raise DimensionMismatch(f"payoff shapes differ: {p1.shape} vs {p2.shape}")
        if tr.shape != p1.shape + (p1.shape[0],):
            raise DimensionMismatch(
                f"transitions must have shape {p1.shape + (p1.shape[0],)}, got {tr.shape}")
        object.__setattr__(self, "start_state",
                           _check_index("start_state", self.start_state, p1.shape[0]))
        r_max = self.r_max
        if r_max is None:
            r_max = float(max(np.abs(p1).max(), np.abs(p2).max()))
        for name, arr in (("payoffs1", p1), ("payoffs2", p2), ("transitions", tr)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "r_max", r_max)

    @property
    def n_states(self) -> int:
        return self.payoffs1.shape[0]

    @property
    def n_row_actions(self) -> int:
        return self.payoffs1.shape[1]

    @property
    def n_col_actions(self) -> int:
        return self.payoffs1.shape[2]

    def state(self, s: int | None = None) -> int:
        """The state a `start`/`state` argument names: `start_state` for None."""
        return self.start_state if s is None else _check_index("state", s, self.n_states)

    def stage_game(self, state: int) -> MatrixGame:
        state = self.state(state)
        return MatrixGame(self.payoffs1[state], self.payoffs2[state],
                          is_zero_sum=self.is_zero_sum)


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    message: str

    def __str__(self):
        return f"[{self.kind} at {self.where}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def validate(game: StochasticGame) -> ValidationReport:
    """Check every value invariant; the report lists each violation with
    its state/action coordinates."""
    out = []
    tr = game.transitions
    for s, i, j, s2 in zip(*np.nonzero((tr < 0.0) | ~np.isfinite(tr))):
        out.append(Violation("transition-entry", (int(s), int(i), int(j), int(s2)),
                             f"probability {float(tr[s, i, j, s2])!r} is negative or non-finite"))
    sums = tr.sum(axis=3)
    bad = np.abs(sums - 1.0) > 1e-12
    for s, i, j in zip(*np.nonzero(bad)):
        out.append(Violation("transition-sum", (int(s), int(i), int(j)),
                             f"probabilities sum to {float(sums[s, i, j])!r}, not 1"))
    if not 0.0 <= game.r_max < np.inf:  # false for NaN
        out.append(Violation("r-max", (), f"r_max={game.r_max} is not a finite number >= 0"))
    for player, pay in ((1, game.payoffs1), (2, game.payoffs2)):
        for s, i, j in zip(*np.nonzero(~np.isfinite(pay))):
            out.append(Violation("payoff-finite", (player, int(s), int(i), int(j)),
                                 f"payoff {float(pay[s, i, j])!r} is not finite"))
        over = np.abs(pay) > game.r_max
        for s, i, j in zip(*np.nonzero(over)):
            out.append(Violation("payoff-bound", (player, int(s), int(i), int(j)),
                                 f"|payoff| {abs(float(pay[s, i, j]))!r} exceeds "
                                 f"r_max={game.r_max}"))
    if game.is_zero_sum and not np.array_equal(game.payoffs2, -game.payoffs1):
        out.append(Violation("zero-sum", (), "is_zero_sum set but payoffs2 != -payoffs1"))
    return ValidationReport(tuple(out))


class GenerativeModel(abc.ABC):
    """Black-box planning access: stage payoffs plus transition sampling.

    A model implements `payoffs` and `sample_from_uniform_many`.  The sparse
    planner calls the batched hooks `payoffs_many`, once per level, and
    `sample_from_uniform_block`, once per block of a level; their defaults
    loop over the distinct states through the two required methods, and a
    model may override them with array code of the same results.  Randomness is
    explicit (uniform draws or a numpy Generator); the model holds no
    mutable state, so concurrent use with independent streams is safe.
    """

    n_row_actions: int
    n_col_actions: int

    @abc.abstractmethod
    def payoffs(self, state: int) -> MatrixGame:
        """Stage game at `state`; must be deterministic in `state`."""

    @abc.abstractmethod
    def sample_from_uniform_many(self, state, i, j, us: np.ndarray) -> np.ndarray:
        """Next state (int64) for each uniform draw in `us`, each in [0, 1)."""

    def payoffs_many(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both players' stage payoffs at each of the (K,) `states`, K >= 1:
        a pair of (K, n1, n2) float arrays.  The default calls `payoffs`
        once per distinct state."""
        uniq, inverse = np.unique(states, return_inverse=True)
        stages = [self.payoffs(s) for s in uniq.tolist()]
        return (np.array([g.payoff1 for g in stages])[inverse],
                np.array([g.payoff2 for g in stages])[inverse])

    def sample_from_uniform_block(self, states: np.ndarray, us: np.ndarray) -> np.ndarray:
        """Next states (int64, shaped as `us`) for a (K, n1, n2, m) block of
        uniform draws, each in [0, 1): us[k, i, j] are draws at (states[k],
        i, j).  The default calls `sample_from_uniform_many` once per
        distinct (state, i, j), states in ascending order."""
        return _by_row(states, us, lambda s, i, j, draws: np.reshape(
            self.sample_from_uniform_many(s, i, j, draws.ravel()), draws.shape))

    def sample_from_uniform(self, state: int, i: int, j: int, u: float) -> int:
        return int(self.sample_from_uniform_many(state, i, j, np.array([u], dtype=float))[0])

    def sample(self, state: int, i: int, j: int, rng: np.random.Generator) -> int:
        return self.sample_from_uniform(state, i, j, float(rng.random()))

    def distribution(self, state: int, i: int, j: int):
        """Exact next-state distribution when available, else None."""
        return None


def _by_row(states: np.ndarray, us: np.ndarray, draw) -> np.ndarray:
    """A block's next states, int64 and shaped as `us`, from one call of
    draw(s, i, j, draws) per distinct state s and action pair (i, j), states
    in ascending order; `draws` holds us[k, i, j] of every node k at s."""
    out = np.empty(us.shape, dtype=np.int64)
    uniq, inverse = np.unique(states, return_inverse=True)
    for k, s in enumerate(uniq.tolist()):
        nodes = np.flatnonzero(inverse == k)
        for i, j in np.ndindex(*us.shape[1:3]):
            out[nodes, i, j] = draw(s, i, j, us[nodes, i, j])
    return out


class ExplicitGenerativeModel(GenerativeModel):
    """Generative wrapper over an explicit StochasticGame.

    Inverse-CDF sampling over the stored distributions.  States resolve
    through `game.state`; an action outside the game, or a draw outside
    [0, 1), is a ValueError.
    """

    def __init__(self, game: StochasticGame):
        self.game = game
        self.n_row_actions = game.n_row_actions
        self.n_col_actions = game.n_col_actions
        self.start_state = game.start_state
        self.n_states = game.n_states
        # a draw past a row's mass (a sum a rounding short of 1) goes to the
        # successor where the running sum reaches the total, of positive probability
        cum = np.cumsum(game.transitions, axis=3)
        self._cum = np.where(cum == cum[..., -1:], np.inf, cum)
        self._stage_cache = [game.stage_game(s) for s in range(game.n_states)]

    def payoffs(self, state: int) -> MatrixGame:
        return self._stage_cache[self.game.state(state)]

    def payoffs_many(self, states):
        states = self._states(states)
        return self.game.payoffs1[states], self.game.payoffs2[states]

    def _at(self, state, i, j) -> tuple[int, int, int]:
        return (self.game.state(state), _check_index("row action", i, self.n_row_actions),
                _check_index("col action", j, self.n_col_actions))

    def _states(self, states) -> np.ndarray:
        """`states` as an integer array, checked by one min and one max; the
        first bad entry raises as `game.state` does."""
        states = np.asarray(states)
        if states.dtype.kind in "iu" and (states.size == 0 or (
                states.min() >= 0 and states.max() < self.n_states)):
            return states
        for s in states.ravel().tolist():
            self.game.state(s)
        return states.astype(np.int64)

    def sample_from_uniform_many(self, state, i, j, us):
        return np.searchsorted(self._cum[self._at(state, i, j)], _draws(us),
                               side="right").astype(np.int64)

    def sample_from_uniform_block(self, states, us):
        """One `searchsorted` per distinct (state, i, j) on its cumulative
        row; the states and the draws are checked once per call."""
        states, us = self._states(states), _draws(us)
        if us.shape[:3] != states.shape + (self.n_row_actions, self.n_col_actions):
            raise DimensionMismatch(f"draw block of shape {us.shape} does not match "
                                    f"{states.shape} states of {self.n_row_actions}x"
                                    f"{self.n_col_actions} actions")
        return _by_row(states, us, lambda s, i, j, draws: np.searchsorted(
            self._cum[s, i, j], draws, side="right"))

    def distribution(self, state, i, j):
        return self.game.transitions[self._at(state, i, j)]


def _draws(us) -> np.ndarray:
    """`us` as a float array of draws in [0, 1), checked by one min and one
    max; the first draw outside, NaN included, raises a ValueError."""
    us = np.asarray(us, dtype=float)
    if us.size and not (us.min() >= 0.0 and us.max() < 1.0):  # false for NaN
        bad = us.ravel()[np.argmin((us >= 0.0) & (us < 1.0))]
        raise ValueError(f"uniform draw {float(bad)!r} not in [0, 1)")
    return us


def as_generative(game: StochasticGame, check: bool = True) -> ExplicitGenerativeModel:
    """Wrap a validated explicit game as a generative model."""
    if check:
        report = validate(game)
        if not report.ok:
            raise SgError(f"game fails validation:\n{report}")
    return ExplicitGenerativeModel(game)


class _DensePolicy:
    """Strategies in one read-only array, indexed by a key (a state, or a
    state and t) and then by action; an all-NaN row marks a missing key."""

    def _store(self, strategies: np.ndarray) -> None:
        bad = ~np.isnan(strategies).all(axis=-1) & (
            ~np.all(strategies >= 0.0, axis=-1)  # also catches NaN
            | (np.abs(strategies.sum(axis=-1) - 1.0) > 1e-12))
        if bad.any():
            where = tuple(int(k) for k in np.argwhere(bad)[0])
            raise ValueError(f"policy entry at {where} is not a probability vector: "
                             f"{strategies[where]}")
        strategies.setflags(write=False)
        self.strategies = strategies

    def probs(self, *key) -> np.ndarray:
        """The strategy stored at `key`; raises MissingPolicyEntry if none,
        and DimensionMismatch for a key of the wrong length."""
        if len(key) != self.strategies.ndim - 1:
            raise DimensionMismatch(f"policy key {key} must be {self._key}")
        key = tuple(_check_index("policy key", k, low=None) for k in key)
        if (all(0 <= k < n for k, n in zip(key, self.strategies.shape))
                and not np.isnan(self.strategies[key]).all()):
            return self.strategies[key]
        raise MissingPolicyEntry(self._missing.format(*key))

    def dense(self, *shape) -> np.ndarray:
        """The strategies of every key below `shape` at once.  `shape` may end
        with the game's action count, which raises DimensionMismatch if it is
        not the policy's; a missing key raises MissingPolicyEntry, the first
        in sorted order."""
        *key_dims, n = self.strategies.shape
        keys, actions = shape[:len(key_dims)], shape[len(key_dims):]
        if actions not in ((), (n,)):
            raise DimensionMismatch(f"policy has {n} actions, the game has {actions[0]}")
        block = self.strategies[tuple(slice(n) for n in keys)]
        if block.shape[:-1] != keys or np.isnan(block).any():
            for key in np.ndindex(*keys):
                self.probs(*key)
        return block


class TimeDependentPolicy(_DensePolicy):
    """One player's map (state, time-remaining) -> mixed strategy, stored
    as an (n_states, horizon, n_actions) array.  `table` is such an array
    or a dict {(s, t): probs}, converted here with one state past the
    largest key and all-NaN rows where no key is given."""

    _key = "(state, t)"
    _missing = "no strategy stored for (state={}, t={})"

    def __init__(self, horizon: int, n_actions: int, table):
        horizon = self.horizon = _check_index("horizon", horizon)
        n_actions = _check_index("n_actions", n_actions)
        if isinstance(table, dict):
            table = {(_check_index("policy key", s, low=None),
                      _check_index("policy key", t, low=None)): probs
                     for (s, t), probs in table.items()}
            rows = np.full((max((s for s, _ in table), default=-1) + 1, horizon, n_actions), np.nan)
            for (s, t), probs in table.items():
                if s < 0 or not 0 <= t < horizon or np.shape(probs) != (n_actions,):
                    raise DimensionMismatch(f"policy entry {(s, t)} of shape {np.shape(probs)} "
                                            f"needs state >= 0, t < {horizon}, {n_actions} actions")
                rows[s, t] = probs
            table = rows
        strategies = np.array(table, dtype=float)
        if strategies.shape[1:] != (horizon, n_actions):
            raise DimensionMismatch(f"policy array has shape {strategies.shape}, "
                                    f"expected (n_states, {horizon}, {n_actions})")
        self._store(strategies)

    def entries(self):
        """Stored (state, t, probs) triples in sorted key order, gaps skipped."""
        for s, t in np.argwhere(~np.isnan(self.strategies).all(axis=-1)).tolist():
            yield s, t, self.strategies[s, t]


class StationaryPolicy(_DensePolicy):
    """One player's map state -> mixed strategy (time-independent), from
    an (n_states, n_actions) array."""

    _key = "(state)"
    _missing = "no strategy stored for state {}"

    def __init__(self, strategies):
        strategies = np.array(strategies, dtype=float)
        if strategies.ndim != 2:
            raise DimensionMismatch(f"policy array has shape {strategies.shape}, "
                                    f"expected (n_states, n_actions)")
        self._store(strategies)


def random_game(n_states: int, n_row_actions: int, n_col_actions: int,
                branching: int, payoff_scale: float, seed: int,
                zero_sum: bool = False) -> StochasticGame:
    """Seed-deterministic random instance.

    Payoffs are uniform in [-payoff_scale, payoff_scale]; each (s, i, j)
    transition is a normalized positive draw over `branching` distinct
    successor states chosen uniformly.

    The draw rule is that of `np.random.default_rng(seed)`: payoffs1, then
    payoffs2 unless `zero_sum`, by `Generator.uniform`; then, cell by cell in
    (s, i, j) order, `choice(n_states, branching, replace=False)` for the
    successors and `1 - uniform(size=branching)`, normalized by its sum, for
    their weights.  `_cell_by_cell` is that rule; `_transitions` draws the
    same bits in blocks of the raw PCG64 stream.  The output bits are
    pinned by the benchmark digests (`sgbench/digests.json`), the CLI byte
    digest and the cell-by-cell oracle of the test suite.
    """
    shape = tuple(_check_index(name, count, low=1) for name, count in (
        ("n_states", n_states), ("n_row_actions", n_row_actions), ("n_col_actions", n_col_actions)))
    branching = _check_index("branching", branching, shape[0] + 1, low=1)
    if not 0.0 <= payoff_scale < np.inf:  # false for NaN
        raise ValueError(f"payoff_scale must be finite and >= 0, got {payoff_scale}")
    if payoff_scale > np.finfo(float).max / 2:
        raise ValueError(f"payoff_scale {payoff_scale} overflows the payoff range 2 * payoff_scale")
    rng = np.random.default_rng(_check_index("seed", seed))
    payoffs1 = rng.uniform(-payoff_scale, payoff_scale, shape)
    if zero_sum:
        payoffs2 = -payoffs1
    else:
        payoffs2 = rng.uniform(-payoff_scale, payoff_scale, shape)
    transitions = _transitions(rng, shape, branching)
    return StochasticGame(payoffs1, payoffs2, transitions, start_state=0,
                          r_max=payoff_scale, is_zero_sum=zero_sum)


def _cell_by_cell(rng, shape, branching) -> np.ndarray:
    """The transition kernel drawn one (s, i, j) cell at a time: the
    definition `_transitions` reproduces, and its exact path."""
    n_states, n_row_actions, n_col_actions = shape
    transitions = np.zeros(shape + (n_states,))
    for s in range(n_states):
        for i in range(n_row_actions):
            for j in range(n_col_actions):
                succ = rng.choice(n_states, size=branching, replace=False)
                weights = 1.0 - rng.uniform(size=branching)  # in (0, 1]
                transitions[s, i, j, succ] = weights / weights.sum()
    return transitions


# successors (cells x branching) per block: keeps a block's arrays at a few tens of MB
_BLOCK = 1 << 18


def _transitions(rng, shape, branching) -> np.ndarray:
    """`_cell_by_cell`'s bits, drawn by `_block_draws` where it can mirror
    numpy, in blocks of an even number of cells: those leave no 32-bit half
    over, so each block starts with an empty buffer.  A Lemire rejection and
    numpy's tail-shuffle regime run `_cell_by_cell` from the first block's
    starting state."""
    n_states = shape[0]
    if n_states > 10000 and branching > n_states // 50:  # numpy's tail shuffle
        return _cell_by_cell(rng, shape, branching)
    cells = math.prod(shape)
    step = 2 * max(1, _BLOCK // (2 * branching))
    saved = rng.bit_generator.state
    transitions = np.zeros((cells, n_states))
    for start in range(0, cells, step):
        drawn = _block_draws(rng, min(step, cells - start), n_states, branching)
        if drawn is None:
            rng.bit_generator.state = saved
            return _cell_by_cell(rng, shape, branching)
        succ, weights = drawn
        rows = np.arange(start, start + len(succ))[:, None]
        transitions[rows, succ] = weights / weights.sum(axis=1, keepdims=True)
    return transitions.reshape(shape + (n_states,))


def _block_draws(rng, cells, n_states, branching):
    """Successors and weights, each (cells, branching), of `cells` rounds of
    `choice(n_states, branching, replace=False)` and `1 - uniform(size=
    branching)`, from one block of `rng`'s raw PCG64 stream; None where a
    bounded draw would be rejected.  `rng`'s 32-bit buffer must be empty,
    as it is after doubles only.

    This mirrors numpy's `Generator.choice` without replacement below its
    tail-shuffle regime: Floyd's algorithm takes a bounded draw in [0, j]
    for j = n - b .. n - 1 (none for j = 0) and keeps j where the value is
    already taken, then the b picks are shuffled by bounded draws in [0, i]
    for i = b - 1 .. 1.  A bounded draw is Lemire's method on a 32-bit draw
    (a rejection has probability below n / 2**32); PCG64 serves those from
    the low, then the high half of one 64-bit output, and a leftover half
    carries over to the next round, past that round's doubles.  A double is
    (output >> 11) * 2**-53 of a fresh output.
    """
    floyd = range(n_states - branching, n_states)
    bounds = np.array([j for j in floyd if j] + list(range(branching - 1, 0, -1)),
                      dtype=np.uint64)
    k = len(bounds)  # 32-bit draws per round
    # round c's doubles follow the ceil((c + 1) k / 2) outputs that the 32-bit draws so far take
    first = (np.arange(1, cells + 1) * k + 1) // 2 + np.arange(cells) * branching
    doubles = first[:, None] + np.arange(branching)
    raw = rng.bit_generator.random_raw(int(first[-1]) + branching)
    split = np.ones(raw.size, dtype=bool)  # the outputs served as two 32-bit draws
    split[doubles] = False
    draws = raw[split].astype("<u8", copy=False).view("<u4")[:cells * k]  # low half first
    # draw t of every round in one row: (k, cells)
    product = np.multiply(draws.reshape(cells, k).T, bounds[:, None] + 1, order="C")
    # Lemire rejects where the low word falls below 2**32 mod (bound + 1)
    if ((product & 0xFFFFFFFF) < ((0xFFFFFFFF - bounds) % (bounds + 1))[:, None]).any():
        return None
    column = iter(product >> 32)
    rows = np.arange(cells)
    taken = np.zeros((cells, n_states), dtype=bool)
    succ = np.empty((branching, cells), dtype=np.intp)  # pick t of every round in one row
    for t, j in enumerate(floyd):
        value = next(column) if j else 0
        succ[t] = np.where(taken[rows, value], j, value)
        taken[rows, succ[t]] = True
    for i in range(branching - 1, 0, -1):
        swap = next(column)
        succ[i], succ[swap, rows] = succ[swap, rows], succ[i].copy()
    return succ.T, 1.0 - (raw[doubles] >> 11) * 2.0 ** -53  # weights in (0, 1]


def single_state_game(stage: MatrixGame) -> StochasticGame:
    """Repeated matrix game: one state, all transitions self-loops."""
    n1, n2 = stage.rows, stage.cols
    transitions = np.ones((1, n1, n2, 1))
    return StochasticGame(stage.payoff1[None], stage.payoff2[None], transitions,
                          start_state=0, r_max=stage.r_max,
                          is_zero_sum=stage.is_zero_sum)
