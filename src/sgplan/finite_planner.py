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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SgError, SelectionFailure
from .game_model import StochasticGame, TimeDependentPolicy
from .matrix_games import MatrixGame, SelectionFunction, StrategyProfile, nash_select


@dataclass(frozen=True)
class BackupTable:
    """Backup matrices and selected profiles for every (state, t)."""

    horizon: int
    q1: np.ndarray  # (n_states, horizon, n1, n2)
    q2: np.ndarray
    profiles: tuple[tuple[StrategyProfile, ...], ...]  # [state][t]

    def q(self, player: int, state: int, t: int) -> np.ndarray:
        return (self.q1 if player == 1 else self.q2)[state, t]

    def profile(self, state: int, t: int) -> StrategyProfile:
        return self.profiles[state][t]

    def value(self, player: int, state: int, t: int) -> float:
        prof = self.profiles[state][t]
        return prof.value1 if player == 1 else prof.value2


@dataclass(frozen=True)
class FiniteVIResult:
    policy1: TimeDependentPolicy
    policy2: TimeDependentPolicy
    table: BackupTable


def backup_sweep(game: StochasticGame, gamma: float, v1, v2,
                 selection: SelectionFunction, t: int):
    """Back up every state once and select an equilibrium of each backup pair.

    Q_k = M_k + gamma * (P @ v_k) over all states at once, or the stage
    games themselves when v1 is None.  Returns (q1, q2, profiles, values1,
    values2) in state order; a selection error becomes SelectionFailure(s, t).
    """
    if v1 is None:
        q1, q2 = game.payoffs1, game.payoffs2
    else:
        # gamma * (P @ v), not P @ (gamma * v): the output bits depend on it
        q1 = game.payoffs1 + gamma * (game.transitions @ v1)
        q2 = game.payoffs2 + gamma * (game.transitions @ v2)
    profiles = []
    for s in range(game.n_states):
        try:
            profiles.append(selection(MatrixGame(q1[s], q2[s])))
        except SgError as exc:
            raise SelectionFailure(s, t, exc) from exc
    values1 = np.array([p.value1 for p in profiles])
    values2 = np.array([p.value2 for p in profiles])
    return q1, q2, tuple(profiles), values1, values2


def finite_vi(game: StochasticGame, horizon: int,
              selection: SelectionFunction = nash_select) -> FiniteVIResult:
    """Nash value iteration over backup matrices for an H-stage game."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    n_states, n1, n2 = game.n_states, game.n_row_actions, game.n_col_actions
    q1 = np.zeros((n_states, horizon, n1, n2))
    q2 = np.zeros((n_states, horizon, n1, n2))
    levels = []  # [t][state]
    v1 = v2 = None
    for t in range(horizon):
        q1[:, t], q2[:, t], level, v1, v2 = backup_sweep(game, 1.0, v1, v2, selection, t)
        levels.append(level)

    table = BackupTable(horizon, q1, q2, tuple(zip(*levels)))
    pol1 = TimeDependentPolicy(horizon, n1, {
        (s, t): levels[t][s].row.probs for s in range(n_states) for t in range(horizon)})
    pol2 = TimeDependentPolicy(horizon, n2, {
        (s, t): levels[t][s].col.probs for s in range(n_states) for t in range(horizon)})
    return FiniteVIResult(pol1, pol2, table)


def policy_value(game: StochasticGame, policy1: TimeDependentPolicy,
                 policy2: TimeDependentPolicy, horizon: int,
                 start: int | None = None) -> tuple[float, float]:
    """Exact per-stage average returns of a fixed policy pair."""
    if start is None:
        start = game.start_state
    n_states = game.n_states
    w1 = np.zeros(n_states)
    w2 = np.zeros(n_states)
    for t in range(horizon):
        new1 = np.zeros(n_states)
        new2 = np.zeros(n_states)
        for s in range(n_states):
            joint = np.outer(policy1.probs(s, t), policy2.probs(s, t))
            stage1 = game.payoffs1[s]
            stage2 = game.payoffs2[s]
            if t == 0:
                new1[s] = np.sum(joint * stage1)
                new2[s] = np.sum(joint * stage2)
            else:
                cont1 = game.transitions[s] @ w1
                cont2 = game.transitions[s] @ w2
                new1[s] = np.sum(joint * (stage1 + cont1))
                new2[s] = np.sum(joint * (stage2 + cont2))
        w1, w2 = new1, new2
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
    if start is None:
        start = game.start_state
    n_states = game.n_states
    n_mine = game.n_row_actions if player == 1 else game.n_col_actions
    best = np.zeros(n_states)
    table: dict[tuple[int, int], np.ndarray] = {}
    for t in range(horizon):
        new = np.zeros(n_states)
        for s in range(n_states):
            opp = opponent.probs(s, t)
            if player == 1:
                payoff = game.payoffs1[s] @ opp
                if t > 0:
                    payoff = payoff + (game.transitions[s] @ best) @ opp
            else:
                payoff = opp @ game.payoffs2[s]
                if t > 0:
                    payoff = payoff + opp @ (game.transitions[s] @ best)
            action = int(np.argmax(payoff))
            probs = np.zeros(n_mine)
            probs[action] = 1.0
            table[(s, t)] = probs
            new[s] = payoff[action]
        best = new
    policy = TimeDependentPolicy(horizon, n_mine, table)
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
