"""On-line sparse-sampling planner for large stochastic games.

`sparse_game` plans one step from a generative model: at (state, t) it
draws m successor states per pure action pair down to depth t, forms
sampled backup matrices

    Qhat_k[s, t](i, j) = M_k[s](i, j) + (1/m) sum_l Qhat_k[s'_l, t-1]

and plays the selection function's equilibrium of the pair.  The per-call
cost is independent of the state-space size but exponential in t.

The tree is backed up by one recursion.  It takes the nodes it is given
in blocks: a block's children are derived and sampled at once in array
operations, backed up by the recursion one time step lower, and averaged --
by numpy's (pairwise) mean over the m leaves at tt = 1, by a left-to-right
sum divided by m above it.  The stage payoffs plus these means are the
nodes' backup matrices.  A block has at most about _LEAF_BLOCK = 16384
children at every level, so no level is ever held whole, and each distinct
leaf state's stage game is selected once per planning call.  Distinct
states are read off a table when the game is no larger than the block.

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

import math
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .errors import NodeBudgetExceeded
from .finite_planner import (_check_horizon, _tabulate, backup_sweeps, nash_certificate,
                             select_level)
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


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_arr(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def derive_seed(parent: int, *fields: int) -> int:
    """Fold integer fields into a parent seed, one mix per field."""
    h = parent & _MASK64
    for f in fields:
        h = _mix64(h ^ _mix64(f + _GOLDEN))
    return h


def _fold(h: np.ndarray, field) -> np.ndarray:
    """One step of derive_seed's fold, elementwise with broadcasting."""
    return _mix64_arr(h ^ _mix64_arr(np.asarray(field).astype(np.uint64) + np.uint64(_GOLDEN)))


def _derive_children(branch_seeds, m: int) -> np.ndarray:
    """derive_seed(b, l) for each branch seed b and l < m, on a new last axis."""
    return _fold(np.asarray(branch_seeds, dtype=np.uint64)[..., None], np.arange(m))


def _uniforms(seeds: np.ndarray) -> np.ndarray:
    """One uniform in [0, 1) per seed (top 53 bits of a second mix)."""
    mixed = _mix64_arr(seeds ^ np.uint64(_UNIFORM_SALT))
    return (mixed >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus the identifier of the child-derivation rule."""

    root_seed: int
    rule: str = SEED_RULE

    def __post_init__(self):
        object.__setattr__(self, "root_seed", self.root_seed & _MASK64)
        if self.rule != SEED_RULE:
            raise ValueError(f"unknown seed derivation rule {self.rule!r}")

    def derive(self, *fields: int) -> int:
        return derive_seed(self.root_seed, *fields)

    @classmethod
    def of(cls, seed) -> "SeedSpec":
        return seed if isinstance(seed, SeedSpec) else cls(int(seed))


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
    states and seeds, shape (nodes, n1, n2, m).  Draws one sample batch per
    distinct (state, i, j) of the level."""
    n1, n2 = model.n_row_actions, model.n_col_actions
    h = _fold(_fold(seeds, states), [tt])
    branch = _fold(_fold(h[:, None], np.arange(n1))[:, :, None], np.arange(n2))
    child_seeds = _derive_children(branch, m)
    us = _uniforms(child_seeds)
    children = np.empty(child_seeds.shape, dtype=np.int64)
    uniq, inverse = _distinct(states, getattr(model, "game", None))
    for k, s in enumerate(uniq):
        rows = np.flatnonzero(inverse == k)
        for i in range(n1):
            for j in range(n2):
                drawn = model.sample_from_uniform_many(int(s), i, j, us[rows, i, j].ravel())
                children[rows, i, j] = np.reshape(drawn, (rows.size, m))
    return children, child_seeds


def _check_time_remaining(t: int) -> None:
    if t < 0:
        raise ValueError(f"time remaining must be >= 0, got {t}")


def sparse_game(model: GenerativeModel, state: int, t: int, m: int, seed,
                selection: SelectionFunction = nash_select,
                node_budget: int | None = None) -> SparsePlanResult:
    """Plan one step at (state, t) from m samples per action pair.

    Deterministic in (model, state, t, m, seed).  Raises ValueError for a
    state outside `model.game` when the model has one, NodeBudgetExceeded
    before any work when the tree has more than node_budget nodes, and
    SelectionFailure if the selection function fails at some node.
    """
    if m < 1:
        raise ValueError(f"sample count m must be >= 1, got {m}")
    _check_time_remaining(t)
    explicit_game = getattr(model, "game", None)
    if explicit_game is not None:
        state = explicit_game.state(state)
    spec = SeedSpec.of(seed)
    root_stage = model.payoffs(state)
    scale = (explicit_game.r_max if explicit_game is not None
             else max(np.abs(root_stage.payoff1).max(), np.abs(root_stage.payoff2).max()))
    if scale > 1.0:
        warnings.warn(f"payoff bound {scale:g} exceeds 1; accuracy guarantees "
                      "scale with the bound", stacklevel=2)
    n1, n2 = model.n_row_actions, model.n_col_actions
    width = n1 * n2 * m
    nodes = sum(width ** k for k in range(t + 1))
    if node_budget is not None and nodes > node_budget:
        raise NodeBudgetExceeded(
            f"sparse recursion exceeded node budget {node_budget} "
            f"(root state={state}, t={t}, m={m})")
    per_block = max(1, _LEAF_BLOCK // width)
    stage_cache: dict[int, tuple] = {}  # state -> its stage game's (q1, q2, row, col, v1, v2)

    def backup(states: np.ndarray, seeds: np.ndarray, tt: int):
        """The level tuple (q1, q2, rows, cols, values1, values2) of the
        nodes (states, seeds) at time remaining tt, one entry per node; at
        tt = 0 only the values are per node, the rest per distinct state."""
        uniq, inverse = _distinct(states, explicit_game)
        if tt == 0:
            new = [s for s in uniq.tolist() if s not in stage_cache]
            stages = [model.payoffs(s) for s in new]
            q1 = np.reshape([g.payoff1 for g in stages], (-1, n1, n2))
            q2 = np.reshape([g.payoff2 for g in stages], (-1, n1, n2))
            stage_cache.update(zip(new, zip(q1, q2, *select_level(selection, q1, q2, new, 0))))
            q1, q2, rows, cols, v1, v2 = map(np.array, zip(*map(stage_cache.get, uniq.tolist())))
            return q1, q2, rows, cols, v1[inverse], v2[inverse]
        means = np.empty((2, states.size, n1, n2))
        for lo in range(0, states.size, per_block):
            block = slice(lo, lo + per_block)
            children, child_seeds = _expand(model, states[block], seeds[block], tt, m)
            for k, v in enumerate(backup(children.ravel(), child_seeds.ravel(), tt - 1)[4:]):
                v = v.reshape(children.shape)
                if tt == 1:  # numpy's (pairwise) mean over the m leaves
                    means[k, block] = v.mean(axis=-1)
                else:  # the child values summed left to right from 0.0
                    means[k, block] = sum(v[..., ell] for ell in range(m)) / m
        stages = [model.payoffs(s) for s in uniq.tolist()]
        q1 = np.array([g.payoff1 for g in stages])[inverse] + means[0]
        q2 = np.array([g.payoff2 for g in stages])[inverse] + means[1]
        return (q1, q2) + select_level(selection, q1, q2, states, tt)

    return SparsePlanResult.of(backup(np.array([state], dtype=np.int64),
                                      np.array([spec.root_seed], dtype=np.uint64), t), nodes)


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
    _check_time_remaining(t)
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
    if t < 1 or n < 1:
        raise ValueError(f"require t >= 1, n >= 1, got t={t}, n={n}")
    horizon_term = (t ** 3 / epsilon ** 2) * max(0.0, math.log(t / epsilon))
    action_term = t * max(0.0, math.log(n / epsilon))
    return math.ceil(c * (horizon_term + action_term)) + 1


class InducedPolicyPair:
    """The global policy pair defined by replanning at every visit.

    The strategy pair at (s, t) is the profile of
    sparse_game(model, s, t, m, derive(root_seed, s, t)); both halves come
    from that single shared call.  Plans are computed lazily and memoised.
    """

    def __init__(self, model: GenerativeModel, m: int, horizon: int, root_seed,
                 selection: SelectionFunction = nash_select,
                 node_budget: int | None = None):
        _check_horizon(horizon)
        self.model = model
        self.m = m
        self.horizon = horizon
        self.seed = SeedSpec.of(root_seed)
        self.selection = selection
        self.node_budget = node_budget
        self._plans: dict[tuple[int, int], SparsePlanResult] = {}

    def plan(self, state: int, t: int) -> SparsePlanResult:
        _check_index("time remaining", t, self.horizon)
        if (state, t) not in self._plans:
            self._plans[state, t] = sparse_game(self.model, state, t, self.m,
                                                self.seed.derive(state, t),
                                                self.selection, self.node_budget)
        return self._plans[state, t]

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


def induced_policy(model: GenerativeModel, m: int, horizon: int, root_seed,
                   selection: SelectionFunction = nash_select,
                   node_budget: int | None = None) -> InducedPolicyPair:
    """Lazy policy pair: play each visited (s, t) by a fresh shared plan."""
    return InducedPolicyPair(model, m, horizon, root_seed, selection, node_budget)


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
    _check_horizon(horizon)
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
            if m == "exact":
                if exact_gaps is None:  # the oracle ignores the seed: certify it once
                    exact_gaps = nash_certificate(game, oracle.policy1, oracle.policy2,
                                                  horizon, start)
                rows.append(GapRow(m, int(seed), *exact_gaps, 0.0, 0.0,
                                   horizon * game.n_states))
                continue
            pair = InducedPolicyPair(model, int(m), horizon, seed, selection, node_budget)
            pol1, pol2 = pair.materialize(states)
            if independent_seeds:
                other = InducedPolicyPair(model, int(m), horizon,
                                          derive_seed(int(seed), _INDEPENDENT_TAG),
                                          selection, node_budget)
                _, pol2 = other.materialize(states)
                nodes = pair.nodes_expanded + other.nodes_expanded
            else:
                nodes = pair.nodes_expanded
            root = pair.plan(start, horizon - 1)
            qerr1 = abs(root.q_hats[0] - exact_root[0])
            qerr2 = abs(root.q_hats[1] - exact_root[1])
            gap1, gap2 = nash_certificate(game, pol1, pol2, horizon, start)
            rows.append(GapRow(m, int(seed), gap1, gap2, qerr1, qerr2, nodes))
    return rows
