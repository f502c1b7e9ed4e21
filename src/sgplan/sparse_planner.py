"""On-line sparse-sampling planner for large stochastic games.

`sparse_game` plans one step from a generative model: at (state, t) it
draws m successor states per pure action pair down to depth t, forms
sampled backup matrices

    Qhat_k[s, t](i, j) = M_k[s](i, j) + (1/m) sum_l Qhat_k[s'_l, t-1]

and plays the selection function's equilibrium of the pair.  The per-call
cost is independent of the state-space size but exponential in t.

The tree is backed up by one recursion.  It takes the nodes it is given
in blocks: a block's children are derived in array operations and sampled
by one call of the model's `sample_from_uniform_block`, backed up by the
recursion one time step lower, and averaged -- by numpy's (pairwise) mean
over the m leaves at tt = 1, by a left-to-right sum divided by m above it.
The stage payoffs, one `payoffs_many` call per level, plus these means are
the nodes' backup matrices.  A block has at most about _LEAF_BLOCK = 16384
children at every level, so no level is ever held whole.  The leaves read
a stage cache (`_LeafStages`) that selects each distinct leaf state's
stage game once per planning call and keeps the selections in arrays:
indexed by state when the game has no more states than the call has
leaves, else by the distinct leaf states met so far.  Distinct states are
read off a table when the game is no larger than the block.  The field
mixes of the seed rule's constant fields (tt, i, j, l) are computed once
per value and kept in a bounded cache.

All randomness is derived, never streamed: each branch (i, j, l) of a node
gets its own 64-bit seed from a fixed SplitMix64-style mixing of
(parent seed, state id, time remaining, i, j, l), and the branch's uniform
draw is a second fixed mix of that seed.  Results are therefore a pure
function of (model, state, t, m, seed) and invariant to the evaluation
order of branches; both players' strategies come out of one shared run,
which is what makes the induced policy pair a correlated near-equilibrium.

The sampling-free oracle `exact_sparse_game` is the finite planner's
`backup_sweeps` read at one root.  Each expectation sums p(s') * value(s')
over successors in ascending state order from 0.0 (`_in_state_order`), as
a depth-first recursion would; `T @ v` sums in another order and changes
the last bits of most nodes.  The successors such a recursion never visits
have p(s') = 0.0 and add +-0.0 to a sum from +0.0, so backing up every
state changes no bit at the reachable ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .errors import NodeBudgetExceeded
from .finite_planner import _tabulate, backup_sweeps, nash_certificate, select_level
from .game_model import GenerativeModel, StochasticGame, TimeDependentPolicy, as_generative
from .matrix_games import (MixedStrategy, SelectionFunction, StrategyProfile, _by_player,
                           _check_index, nash_select)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIFORM_SALT = 0xD1B54A32D192ED03
_INDEPENDENT_TAG = 0x494E444550  # retag for the independent-copy probe mode

SEED_RULE = "splitmix64-v1"
#: at every level, the children expanded at once number about this many
#: (at least one node's worth), so no level's seeds are ever all held; no
#: bit depends on it, and 65536 costs about 7% more peak memory
_LEAF_BLOCK = 16384


def _mix64_arr(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array the caller owns."""
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _root_seed(seed) -> int:
    """A seed or `derive_seed` field under SEED_RULE: any integer, taken mod 2**64."""
    return _check_index("seed", seed, low=None) & _MASK64


def derive_seed(parent: int, *fields: int) -> int:
    """Fold integer fields into a parent seed, one mix per field."""
    h = np.array([_root_seed(parent)], dtype=np.uint64)  # 1-element: 0-d would signal on overflow
    for f in fields:
        h = _fold(h, [_root_seed(f)])
    return int(h[0])


def _mixed_field(field) -> np.ndarray:
    """The field half of a fold step: mix64(field + GOLDEN), elementwise."""
    z = np.asarray(field).astype(np.uint64)
    z += np.uint64(_GOLDEN)
    return _mix64_arr(z)


@functools.lru_cache(maxsize=64)
def _constant_fields(start: int, stop: int) -> np.ndarray:
    """`_mixed_field` of the fields start..stop-1 (a tree's tt, i, j or l),
    read-only and computed once per range.  A call at depth t uses t + 3
    ranges, so 64 entries hold those of several calls of differing t and m
    while bounding the cache at 64 arrays."""
    z = _mixed_field(np.arange(start, stop))
    z.setflags(write=False)
    return z


def _fold(h: np.ndarray, field) -> np.ndarray:
    """One fold step of the seed rule, elementwise with broadcasting."""
    return _mix64_arr(h ^ _mixed_field(field))


def _derive_children(branch_seeds, m: int) -> np.ndarray:
    """derive_seed(b, l) for each branch seed b and l < m, on a new last axis."""
    return _mix64_arr(np.asarray(branch_seeds, dtype=np.uint64)[..., None] ^ _constant_fields(0, m))


def _uniforms(seeds: np.ndarray) -> np.ndarray:
    """One uniform in [0, 1) per seed (top 53 bits of a second mix)."""
    z = _mix64_arr(seeds ^ np.uint64(_UNIFORM_SALT))
    z >>= np.uint64(11)
    us = z.astype(np.float64)
    us *= 1.0 / (1 << 53)
    return us


@dataclass(frozen=True)
class SparsePlanResult:
    """Output of one planning call: strategies at the queried state, the
    sampled backup matrices, their values at the profile (payoff-sum
    units), and the number of nodes in the sampling tree."""

    profile: StrategyProfile
    q_hats: tuple[float, float]
    q_matrices: tuple[np.ndarray, np.ndarray]
    nodes_expanded: int

    @classmethod
    def of(cls, level, nodes_expanded: int) -> "SparsePlanResult":
        """The result at the first node of a level tuple (q1, q2, rows, cols,
        values1, values2), its backup matrices frozen."""
        q1, q2, row, col, v1, v2 = (a[0] for a in level)
        q1.setflags(write=False)
        q2.setflags(write=False)
        return cls(StrategyProfile.of(row, col, v1, v2), (float(v1), float(v2)), (q1, q2),
                   nodes_expanded)


def _distinct(states: np.ndarray, game: StochasticGame | None) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(states, return_inverse=True), by a table when the game has no more states."""
    if game is None or game.n_states > states.size:
        return np.unique(states, return_inverse=True)
    present = np.bincount(states, minlength=game.n_states) > 0
    return np.flatnonzero(present), (np.cumsum(present) - 1)[states]


def _expand(model: GenerativeModel, states: np.ndarray, seeds: np.ndarray, tt: int,
            m: int) -> tuple[np.ndarray, np.ndarray]:
    """Children of every node of one level (time remaining tt): their
    states and seeds, shape (nodes, n1, n2, m), from one sampling call."""
    n1, n2 = model.n_row_actions, model.n_col_actions
    h = _mix64_arr(_fold(seeds, states) ^ _constant_fields(tt, tt + 1))
    branch = _mix64_arr(_mix64_arr(h[:, None] ^ _constant_fields(0, n1))[:, :, None]
                        ^ _constant_fields(0, n2))
    child_seeds = _derive_children(branch, m)
    return model.sample_from_uniform_block(states, _uniforms(child_seeds)), child_seeds


class _LeafStages:
    """The stage payoffs and selections of one planning call's leaf states,
    each selected once, as the level tuple's arrays (q1, q2, rows, cols,
    values1, values2) indexed by slot.  A game with no more states than the
    call has leaves gives each state the slot of its id (`done` marks the
    states selected), so a block whose states are all selected costs two
    gathers; otherwise the slots are the distinct leaf states met so far,
    `states`, in ascending order."""

    def __init__(self, model: GenerativeModel, selection: SelectionFunction,
                 game: StochasticGame | None, by_state: bool):
        n1, n2 = model.n_row_actions, model.n_col_actions
        self.model, self.selection, self.game = model, selection, game
        size = game.n_states if by_state else 0
        self.done = np.zeros(size, dtype=bool) if by_state else None
        self.states = np.empty(0, dtype=np.int64)
        self.level = tuple(np.empty((size,) + shape) for shape in
                           ((n1, n2), (n1, n2), (n1,), (n2,), (), ()))

    def _select(self, new: np.ndarray) -> tuple:
        p1, p2 = self.model.payoffs_many(new)
        return (p1, p2) + select_level(self.selection, p1, p2, new, 0)

    def at(self, states: np.ndarray, first: int = 0) -> tuple:
        """The level tuple's arrays from `first` on at the leaf nodes `states`,
        one entry per node, selecting the states not met before."""
        if self.done is not None:
            if not self.done.all():
                uniq = _distinct(states, self.game)[0]
                new = uniq[~self.done[uniq]]
                if new.size:  # every leaf state may already be selected
                    for a, x in zip(self.level, self._select(new)):
                        a[new] = x
                    self.done[new] = True
            return tuple(a[states] for a in self.level[first:])
        uniq, inverse = _distinct(states, self.game)
        new = uniq[~np.isin(uniq, self.states, assume_unique=True)]
        if new.size:
            merged = np.concatenate([self.states, new])
            order = np.argsort(merged, kind="stable")
            self.states = merged[order]
            self.level = tuple(np.concatenate([a, x])[order]
                               for a, x in zip(self.level, self._select(new)))
        slots = np.searchsorted(self.states, uniq)[inverse]
        return tuple(a[slots] for a in self.level[first:])


def sparse_game(model: GenerativeModel, state: int, t: int, m: int, seed,
                selection: SelectionFunction = nash_select,
                node_budget: int | None = None) -> SparsePlanResult:
    """Plan one step at (state, t) from m samples per action pair.

    Deterministic in (model, state, t, m, seed).  Raises ValueError for a
    state outside `model.game` when the model has one, NodeBudgetExceeded
    before any work when the tree has more than node_budget nodes, and
    SelectionFailure if the selection function fails at some node.  The
    accuracy guarantees scale with the payoff bound, such as `game.r_max`.
    """
    m = _check_index("sample count m", m, low=1)
    t = _check_index("time remaining", t)
    explicit_game = getattr(model, "game", None)
    state = (_check_index("state", state, low=None) if explicit_game is None
             else explicit_game.state(state))
    seed = _root_seed(seed)
    n1, n2 = model.n_row_actions, model.n_col_actions
    width = n1 * n2 * m
    budget = math.inf if node_budget is None else _check_index("node_budget", node_budget)
    nodes = level = 1
    for _ in range(t):  # level by level: a deep tree is refused at its first level past budget
        if nodes > budget:
            break
        level *= width
        nodes += level
    if nodes > budget:
        raise NodeBudgetExceeded(
            f"sparse recursion exceeded node budget {node_budget} "
            f"(root state={state}, t={t}, m={m})")
    per_block = max(1, _LEAF_BLOCK // width)
    leaves = _LeafStages(model, selection, explicit_game,
                         explicit_game is not None and explicit_game.n_states <= level)

    def backup(states: np.ndarray, seeds: np.ndarray, tt: int):
        """The level tuple (q1, q2, rows, cols, values1, values2) of the
        nodes (states, seeds) at time remaining tt >= 1, one entry per node."""
        means = np.empty((2, states.size, n1, n2))
        for lo in range(0, states.size, per_block):
            block = slice(lo, lo + per_block)
            children, child_seeds = _expand(model, states[block], seeds[block], tt, m)
            values = (leaves.at(children.ravel(), 4) if tt == 1 else
                      backup(children.ravel(), child_seeds.ravel(), tt - 1)[4:])
            for k, v in enumerate(values):
                v = v.reshape(children.shape)
                if tt == 1:  # numpy's (pairwise) mean over the m leaves
                    means[k, block] = v.mean(axis=-1)
                else:  # the child values summed left to right from 0.0: the running
                    # sum from v[..., 0] differs only by a -0.0 for +0.0, which + 0.0 mends
                    means[k, block] = (np.cumsum(v, axis=-1)[..., -1] + 0.0) / m
        p1, p2 = model.payoffs_many(states)
        q1, q2 = p1 + means[0], p2 + means[1]
        return (q1, q2) + select_level(selection, q1, q2, states, tt)

    root = np.array([state], dtype=np.int64)
    top = backup(root, np.array([seed], dtype=np.uint64), t) if t else leaves.at(root)
    return SparsePlanResult.of(top, nodes)


def _in_state_order(transitions: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_s' P(s'|s, i, j) * v[s'] for every (s, i, j), each sum taken over
    s' in ascending order from 0.0, as a depth-first recursion takes it."""
    zero = np.zeros(transitions.shape[:-1] + (1,))
    return np.cumsum(np.concatenate([zero, transitions * v], axis=-1), axis=-1)[..., -1]


def exact_sparse_game(game: StochasticGame, state: int, t: int,
                      selection: SelectionFunction = nash_select) -> SparsePlanResult:
    """Exact-expectation oracle for `sparse_game` on an explicit game: row
    `state` of sweep t of the exact backup, each expectation summed in state
    order.  It selects at every state of each level up to t, so a selection
    that fails at a state the root cannot reach raises SelectionFailure too;
    nodes_expanded counts only the (state, t) nodes reachable from the root."""
    t = _check_index("time remaining", t)
    state = game.state(state)
    reach, nodes = np.arange(game.n_states) == state, 1
    for _ in range(t):
        reach = game.transitions[reach].any(axis=(0, 1, 2))
        nodes += int(reach.sum())
    level = next(islice(backup_sweeps(game, 1.0, selection, _in_state_order), t, None))
    return SparsePlanResult.of([a[state:state + 1] for a in level], nodes)


def sample_size(t: int, epsilon: float, n: int, c: float = 1.0) -> int:
    """Samples per action pair sufficient for a 2*t*epsilon-Nash guarantee:
    ceil(c * ((t^3/eps^2) ln(t/eps) + t ln(n/eps))) + 1, negative log terms
    clamped to zero.  The constant c is a caller choice (default 1)."""
    for name, value in (("epsilon", epsilon), ("c", c)):
        if not 0.0 < value < math.inf:  # false for NaN
            raise ValueError(f"{name} must be finite and positive, got {value}")
    t, n = _check_index("t", t, low=1), _check_index("n", n, low=1)
    try:  # a zero epsilon ** 2 or a term beyond float64
        horizon_term = (t ** 3 / epsilon ** 2) * max(0.0, math.log(t / epsilon))
        action_term = t * max(0.0, math.log(n / epsilon))
        return math.ceil(c * (horizon_term + action_term)) + 1
    except ArithmeticError:
        raise ValueError(f"sample size overflows float64 at t={t}, epsilon={epsilon}, n={n}, c={c}")


class InducedPolicyPair:
    """The global policy pair defined by replanning at every visit.

    The strategy pair at (s, t) is the profile of
    sparse_game(model, s, t, m, derive_seed(root_seed, s, t)); both halves come
    from that single shared call.  Plans are computed lazily and memoised.
    """

    def __init__(self, model: GenerativeModel, m: int, horizon: int, root_seed,
                 selection: SelectionFunction = nash_select,
                 node_budget: int | None = None):
        self.model = model
        self.horizon = _check_index("horizon", horizon, low=1)
        self.m = _check_index("sample count m", m, low=1)
        self.seed = _root_seed(root_seed)
        self.selection = selection
        self.node_budget = (node_budget if node_budget is None
                            else _check_index("node_budget", node_budget))
        self._plans: dict[tuple[int, int], SparsePlanResult] = {}

    def plan(self, state: int, t: int) -> SparsePlanResult:
        key = (_check_index("state", state, low=None),
               _check_index("time remaining", t, self.horizon))
        if key not in self._plans:
            self._plans[key] = sparse_game(self.model, *key, self.m, derive_seed(self.seed, *key),
                                           self.selection, self.node_budget)
        return self._plans[key]

    def strategy(self, player: int, state: int, t: int) -> MixedStrategy:
        half = _by_player(player, "row", "col")
        return getattr(self.plan(state, t).profile, half)

    def materialize(self, states: Iterable[int]) -> tuple[TimeDependentPolicy, TimeDependentPolicy]:
        """Plan every (state, t) and freeze both halves as explicit policies."""
        keys = [(s, t) for s in states for t in range(self.horizon)]
        return tuple(TimeDependentPolicy(self.horizon, n, {k: self.strategy(player, *k).probs
                                                           for k in keys})
                     for player, n in ((1, self.model.n_row_actions), (2, self.model.n_col_actions)))

    @property
    def nodes_expanded(self) -> int:
        return sum(p.nodes_expanded for p in self._plans.values())


#: lazy policy pair: play each visited (s, t) by a fresh shared plan
induced_policy = InducedPolicyPair


@dataclass(frozen=True)
class GapRow:
    """One gap-experiment observation.  m is a sample count or "exact";
    gaps are certificate gaps (per-stage average units); qerr_k is
    |Qhat_k - V_k| at the root (payoff-sum units); nodes sums the expanded
    nodes over every planning call behind the row."""

    m: int | str
    seed: int
    gap1: float
    gap2: float
    qerr1: float
    qerr2: float
    nodes: int


def gap_experiment(game: StochasticGame, horizon: int,
                   m_list: Sequence[int | str], seeds: Sequence[int],
                   selection: SelectionFunction = nash_select,
                   start: int | None = None,
                   independent_seeds: bool = False,
                   node_budget: int | None = None) -> list[GapRow]:
    """Certificate gaps and root backup errors across sample sizes/seeds.

    Each row materializes the induced policy pair, certifies it against
    the exact best-response DP, and compares the root values to the
    exact-expectation oracle, tabulated once at every (state, t).  m entries
    may be the string "exact" to certify the oracle's own policy pair (its
    gaps reproduce the finite-horizon planner's).
    With independent_seeds each player plans from an unrelated seed
    instead of the shared run -- an exploration mode, no guarantee claimed.
    """
    horizon = _check_index("horizon", horizon, low=1)
    start = game.state(start)
    model = as_generative(game)
    oracle = _tabulate(game, horizon,
                       islice(backup_sweeps(game, 1.0, selection, _in_state_order), horizon))
    exact_root = [oracle.table.value(k, start, horizon - 1) for k in (1, 2)]
    states = range(game.n_states)
    exact_gaps = None
    rows = []
    for m in m_list:
        for seed in seeds:
            seed = _check_index("seed", seed, low=None)
            if m == "exact":
                if exact_gaps is None:  # the oracle ignores the seed: certify it once
                    exact_gaps = nash_certificate(game, oracle.policy1, oracle.policy2,
                                                  horizon, start)
                rows.append(GapRow(m, seed, *exact_gaps, 0.0, 0.0,
                                   horizon * game.n_states))
                continue
            pair = InducedPolicyPair(model, m, horizon, seed, selection, node_budget)
            pol1, pol2 = pair.materialize(states)
            if independent_seeds:
                other = InducedPolicyPair(model, m, horizon, derive_seed(seed, _INDEPENDENT_TAG),
                                          selection, node_budget)
                _, pol2 = other.materialize(states)
                nodes = pair.nodes_expanded + other.nodes_expanded
            else:
                nodes = pair.nodes_expanded
            root = pair.plan(start, horizon - 1)
            qerr1, qerr2 = (abs(q - e) for q, e in zip(root.q_hats, exact_root))
            gap1, gap2 = nash_certificate(game, pol1, pol2, horizon, start)
            rows.append(GapRow(pair.m, seed, gap1, gap2, qerr1, qerr2, nodes))
    return rows
