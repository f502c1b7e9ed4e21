"""Finite-horizon undiscounted Nash value iteration and its certificate.

`finite_vi` backs up matrices rather than scalar values: at every (state,
time-remaining) it forms the pair of backup matrices

    Q_k[s, t](i, j) = M_k[s](i, j) + sum_s' P(s'|s, i, j) * v_k[s', t-1]

where v_k is the payoff of the equilibrium a selection function picks in
the child backup games, then plays the selection's equilibrium of
(Q_1[s, t], Q_2[s, t]).  Composing any one-shot Nash selection this way
yields a global Nash pair of the H-step game; `nash_certificate` verifies
that claim against an exact best-response dynamic program.

Conventions: a horizon-H run plays exactly H stages; time-remaining t runs
over 0..H-1 (t counts the stages left after the current one).  Backup
values are undiscounted payoff sums; everything reported externally
(policy values, certificate gaps) is a per-stage average, i.e. sum / H.

`select_level` is the one place a selection function meets backup games and
its profiles become arrays: `backup_sweeps` here, the one kernel of every
exact table, and the sparse sampler hand it one level of pairs at a time.
`nash_select` and `security_select` select a whole level through their array
forms (see `matrix_games`), with the bits the per-game path gives; any other
selection function, a wrapper around one of those two included, takes the
per-game path: one MatrixGame in and one StrategyProfile out per pair.
`finite_vi` runs the first H sweeps, at gamma = 1, of the discounted backup.

Policies are (n_states, horizon, n_actions) strategy arrays with all-NaN
rows where no strategy is stored; the certificate DPs sweep all states at
once and raise `MissingPolicyEntry` on such a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .errors import SgError, SelectionFailure
from .game_model import StochasticGame, TimeDependentPolicy
from .matrix_games import (MatrixGame, SelectionFunction, StrategyProfile, _by_player,
                           _check_index, nash_select)


@dataclass(frozen=True)
class BackupTable:
    """Backup matrices, selected strategies and values for every (state, t)."""

    horizon: int
    q1: np.ndarray  # (n_states, horizon, n1, n2)
    q2: np.ndarray
    rows: np.ndarray  # (n_states, horizon, n1)
    cols: np.ndarray  # (n_states, horizon, n2)
    values1: np.ndarray  # (n_states, horizon)
    values2: np.ndarray

    def _at(self, state: int, t: int) -> tuple[int, int]:
        return (_check_index("state", state, len(self.rows)),
                _check_index("time remaining", t, self.horizon))

    def q(self, player: int, state: int, t: int) -> np.ndarray:
        return _by_player(player, self.q1, self.q2)[self._at(state, t)]

    def profile(self, state: int, t: int) -> StrategyProfile:
        at = self._at(state, t)
        return StrategyProfile.of(self.rows[at], self.cols[at], self.values1[at], self.values2[at])

    @property
    def profiles(self) -> tuple[tuple[StrategyProfile, ...], ...]:  # [state][t]
        return tuple(tuple(self.profile(s, t) for t in range(self.horizon))
                     for s in range(len(self.rows)))

    def value(self, player: int, state: int, t: int) -> float:
        return float(_by_player(player, self.values1, self.values2)[self._at(state, t)])


@dataclass(frozen=True)
class FiniteVIResult:
    policy1: TimeDependentPolicy
    policy2: TimeDependentPolicy
    table: BackupTable


def select_level(selection: SelectionFunction, q1, q2, states, t: int):
    """Select an equilibrium of each backup pair (q1[k], q2[k]) of a level of
    K pairs: (rows (K, n1), cols (K, n2), values1 (K,), values2 (K,)).  A
    selection error at pair k becomes SelectionFailure(states[k], t), for
    the first failing k.

    A selection with an `array_form` (nash_select and security_select have
    one) selects the whole level in array operations and hands back the
    pairs it leaves; those, and every pair of any other selection or of a
    level with a non-finite payoff, take the per-game path: a MatrixGame
    in, a StrategyProfile out."""
    # C order, as MatrixGame's copies have: matrix products take their bits from the layout
    q1, q2 = np.ascontiguousarray(q1, dtype=float), np.ascontiguousarray(q2, dtype=float)
    n, n1, n2 = q1.shape
    rows, cols, values1, values2 = np.empty((n, n1)), np.empty((n, n2)), np.empty(n), np.empty(n)
    array_form = getattr(selection, "array_form", None)
    if array_form is None or not (np.isfinite(q1).all() and np.isfinite(q2).all()):
        rest = range(n)  # MatrixGame raises for a non-finite pair as it always has
    else:
        rest = array_form(q1, q2, rows, cols, values1, values2)
    for k in rest:
        try:
            p = selection(MatrixGame(q1[k], q2[k]))
        except SgError as exc:
            raise SelectionFailure(int(states[k]), t, exc) from exc
        rows[k], cols[k], values1[k], values2[k] = p.row.probs, p.col.probs, p.value1, p.value2
    return rows, cols, values1, values2


def backup_sweeps(game: StochasticGame, gamma: float, selection: SelectionFunction,
                  expect=np.matmul):
    """Yield sweeps t = 0, 1, ... as (q1, q2, rows, cols, values1, values2) in
    state order, each only when asked for: sweep 0 selects in the stage games,
    sweep t in Q_k = M_k + gamma * expect(P, v_k) of sweep t-1's values v_k.
    `expect` sums each expectation; its order of summation sets the last bits."""
    q1, q2 = game.payoffs1, game.payoffs2
    for t in count():
        rows, cols, v1, v2 = select_level(selection, q1, q2, range(game.n_states), t)
        yield q1, q2, rows, cols, v1, v2
        # gamma * expect(P, v), not expect(P, gamma * v): the output bits depend on it
        q1 = game.payoffs1 + gamma * expect(game.transitions, v1)
        q2 = game.payoffs2 + gamma * expect(game.transitions, v2)


def _tabulate(game: StochasticGame, horizon: int, levels) -> FiniteVIResult:
    """Stack one (q1, q2, rows, cols, values1, values2) level per t < horizon,
    t = 0 first, into a BackupTable and its two policy halves."""
    table = BackupTable(horizon, *(np.stack(arrays, axis=1) for arrays in zip(*levels)))
    return FiniteVIResult(TimeDependentPolicy(horizon, game.n_row_actions, table.rows),
                          TimeDependentPolicy(horizon, game.n_col_actions, table.cols), table)


def finite_vi(game: StochasticGame, horizon: int,
              selection: SelectionFunction = nash_select) -> FiniteVIResult:
    """Nash value iteration over backup matrices for an H-stage game: the
    first H sweeps of the backup at gamma = 1."""
    horizon = _check_index("horizon", horizon, low=1)
    return _tabulate(game, horizon, islice(backup_sweeps(game, 1.0, selection), horizon))


def policy_value(game: StochasticGame, policy1: TimeDependentPolicy,
                 policy2: TimeDependentPolicy, horizon: int,
                 start: int | None = None) -> tuple[float, float]:
    """Exact per-stage average returns of a fixed policy pair."""
    horizon = _check_index("horizon", horizon, low=1)
    start = game.state(start)
    n_states = game.n_states
    a = policy1.dense(n_states, horizon, game.n_row_actions)
    b = policy2.dense(n_states, horizon, game.n_col_actions)
    w1 = w2 = np.zeros(n_states)
    for t in range(horizon):
        joint = (a[:, t, :, None] * b[:, t, None, :]).reshape(n_states, -1)
        q1, q2 = game.payoffs1, game.payoffs2
        if t > 0:
            q1 = q1 + game.transitions @ w1
            q2 = q2 + game.transitions @ w2
        w1 = (joint * q1.reshape(n_states, -1)).sum(axis=1)
        w2 = (joint * q2.reshape(n_states, -1)).sum(axis=1)
    return float(w1[start]) / horizon, float(w2[start]) / horizon


def best_response_dp(game: StochasticGame, opponent: TimeDependentPolicy,
                     horizon: int, player: int,
                     start: int | None = None) -> tuple[TimeDependentPolicy, float]:
    """Optimal deterministic reply to a fixed opponent policy.

    With the opponent's mixed strategies fixed the player faces a
    single-agent decision process; exact DP over pure actions, ties broken
    by the lowest action index.  Returns the policy and its per-stage
    average value from `start`.
    """
    horizon = _check_index("horizon", horizon, low=1)
    start = game.state(start)
    n_states = game.n_states
    # reply(q, opp_t): each own action's payoff against opp at t, per state
    n_mine, n_opp, mine, reply = _by_player(
        player,
        (game.n_row_actions, game.n_col_actions, game.payoffs1,
         lambda q, opp_t: (q @ opp_t[:, :, None])[..., 0]),
        (game.n_col_actions, game.n_row_actions, game.payoffs2,
         lambda q, opp_t: (opp_t[:, None, :] @ q)[:, 0]))
    opp = opponent.dense(n_states, horizon, n_opp)
    best = np.zeros(n_states)
    actions = np.zeros((n_states, horizon), dtype=np.int64)
    for t in range(horizon):
        payoff = reply(mine, opp[:, t])
        if t > 0:
            payoff = payoff + reply(game.transitions @ best, opp[:, t])
        actions[:, t] = payoff.argmax(axis=1)
        best = payoff.max(axis=1)
    policy = TimeDependentPolicy(horizon, n_mine, np.eye(n_mine)[actions])
    return policy, float(best[start]) / horizon


def nash_certificate(game: StochasticGame, policy1: TimeDependentPolicy,
                     policy2: TimeDependentPolicy, horizon: int,
                     start: int | None = None) -> tuple[float, float]:
    """Per-player exploitability of a policy pair, per-stage average units.

    gap_k = (best response value for player k) - (value under the pair);
    the pair is eps-Nash from `start` iff max(gap1, gap2) <= eps.  Gaps are
    floored at -1e-10 to absorb rounding.
    """
    v1, v2 = policy_value(game, policy1, policy2, horizon, start)
    _, b1 = best_response_dp(game, policy2, horizon, 1, start)
    _, b2 = best_response_dp(game, policy1, horizon, 2, start)
    return max(b1 - v1, -1e-10), max(b2 - v2, -1e-10)
