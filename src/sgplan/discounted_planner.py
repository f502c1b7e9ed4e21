"""Discounted value iteration with a security selection function.

The sweeps are `finite_planner.backup_sweeps` with a discount factor gamma < 1:

    Q_k[s] <- M_k[s] + gamma * sum_s' P(s'|s, i, j) * v_k[s']

where v_k[s] is the security level the selection function extracts from
the backup pair at s.  With a security selection the per-player updates
are sup-norm contractions with modulus gamma, so the iteration converges
to a security pair (for zero-sum games that pair is a Nash pair and the
values are the game values).  Swapping in a Nash selection function gives
no such guarantee; `nash_mode_probe` runs that variant and reports whether
the value tables settle, cycle, or neither.

Values here are discounted payoff sums (not per-stage averages); a sweep is
a `DiscountedIterate` of the state-indexed arrays `backup_sweeps` yields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SgError
from .finite_planner import backup_sweeps
from .game_model import StationaryPolicy, StochasticGame
from .matrix_games import SelectionFunction, _by_player, security_select, nash_select


@dataclass(frozen=True)
class DiscountedIterate:
    """Snapshot of one sweep: backup matrices, selected strategies, values,
    and the sup-norm change from the previous sweep."""

    t: int
    q1: np.ndarray  # (n_states, n1, n2)
    q2: np.ndarray
    rows: np.ndarray  # (n_states, n1)
    cols: np.ndarray  # (n_states, n2)
    values1: np.ndarray
    values2: np.ndarray
    delta: float


@dataclass(frozen=True)
class InfiniteVIResult:
    policy1: StationaryPolicy
    policy2: StationaryPolicy
    values1: np.ndarray
    values2: np.ndarray
    deltas: tuple[float, ...]
    #: (v1, v2) at the game's start state after each sweep, aligned with deltas
    value_trace: tuple[tuple[float, float], ...]
    converged: bool
    iterations: int


def _check_settings(gamma: float, tol: float, max_iter: int = 0) -> None:
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"discount factor must lie in [0, 1), got {gamma}")
    if not tol >= 0.0:
        raise ValueError(f"tolerance tol must be >= 0, got {tol}")
    if max_iter < 0:
        raise ValueError(f"sweep limit max_iter must be >= 0, got {max_iter}")


def _sweeps(game: StochasticGame, gamma: float, selection: SelectionFunction,
            max_iter: int, tol: float):
    """Yield sweeps 0..max_iter of the discounted backup.  Sweep 0 backs up
    the stage games and has delta nan; sweep t backs up sweep t-1's values."""
    _check_settings(gamma, tol, max_iter)
    v1 = v2 = None
    for t, level in zip(range(max_iter + 1), backup_sweeps(game, gamma, selection)):
        delta = (float("nan") if t == 0 else
                 float(max(np.abs(level[4] - v1).max(), np.abs(level[5] - v2).max())))
        v1, v2 = level[4:]
        yield DiscountedIterate(t, *level, delta)


def infinite_vi(game: StochasticGame, gamma: float,
                selection: SelectionFunction = security_select,
                tol: float = 1e-9, max_iter: int = 100_000) -> InfiniteVIResult:
    """Iterate the discounted backup until the values settle.

    Stops when the sup-norm (over states and players) of successive value
    tables is <= tol, or flags non-convergence after max_iter sweeps.
    """
    deltas: list[float] = []
    value_trace: list[tuple[float, float]] = []
    converged = False
    s0 = game.start_state
    for it in _sweeps(game, gamma, selection, max_iter, tol):
        if it.t:
            deltas.append(it.delta)
            value_trace.append((float(it.values1[s0]), float(it.values2[s0])))
            if it.delta <= tol:
                converged = True
                break
    return InfiniteVIResult(StationaryPolicy(it.rows), StationaryPolicy(it.cols),
                            it.values1, it.values2, tuple(deltas), tuple(value_trace),
                            converged, it.t)


@dataclass(frozen=True)
class ContractionViolation:
    t: int
    delta: float
    next_delta: float
    bound: float


@dataclass(frozen=True)
class ContractionReport:
    violations: tuple[ContractionViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def contraction_check(deltas, gamma: float) -> ContractionReport:
    """Verify delta_{t+1} <= gamma * delta_t + 1e-9 along a delta trace.

    Meaningful for zero-sum runs, where the backup operator is a
    gamma-contraction of the value table.
    """
    out = []
    for t in range(len(deltas) - 1):
        bound = gamma * deltas[t] + 1e-9
        if deltas[t + 1] > bound:
            out.append(ContractionViolation(t + 1, float(deltas[t]),
                                            float(deltas[t + 1]), float(bound)))
    return ContractionReport(tuple(out))


# gamma = 0.9999 at tol 1e-9 needs about 3e5 sweeps on unit payoffs; the cap
# stops a tolerance below rounding noise from looping forever
_CERTIFICATE_MAX_SWEEPS = 1_000_000


def _worst_case_value(game: StochasticGame, policy: StationaryPolicy, gamma: float,
                      player: int, tol: float) -> np.ndarray:
    """Discounted value of `policy` for `player` against a minimizing
    opponent: value iteration on the induced single-agent problem."""
    probs = policy.dense(game.n_states, _by_player(player, game.n_row_actions, game.n_col_actions))
    if player == 1:  # opponent picks columns; induced reward/transition per column j
        rewards = (probs[:, None, :] @ game.payoffs1)[:, 0]
        trans = np.einsum("si,sijt->sjt", probs, game.transitions)
    else:
        rewards = (game.payoffs2 @ probs[:, :, None])[..., 0]
        trans = np.einsum("sj,sijt->sit", probs, game.transitions)
    w = np.zeros(game.n_states)
    # stop once the remaining drift gamma*change/(1-gamma) is below tol
    threshold = tol * (1.0 - gamma) / gamma if gamma > 0 else 0.0
    for _ in range(_CERTIFICATE_MAX_SWEEPS):
        new = (rewards + gamma * (trans @ w)).min(axis=1)
        change = np.abs(new - w).max()
        w = new
        if change <= threshold:
            return w
    raise SgError(f"worst-case value iteration did not reach tol={tol} "
                  f"within {_CERTIFICATE_MAX_SWEEPS} sweeps (gamma={gamma})")


def security_certificate(game: StochasticGame, policy1: StationaryPolicy,
                         policy2: StationaryPolicy, gamma: float,
                         claimed1, claimed2, start: int | None = None,
                         tol: float = 1e-9) -> tuple[float, float]:
    """Shortfall of each player's claimed security value at `start`.

    claimed_k holds one value per state, as `infinite_vi` returns them.
    shortfall_k = claimed_k[start] - (worst-case discounted value of player
    k's policy); positive means the claim exceeds what the policy guarantees.
    Converged zero-sum runs should show shortfalls <= ~1e-6.
    """
    _check_settings(gamma, tol)
    start = game.state(start)
    claimed = [np.asarray(c, dtype=float) for c in (claimed1, claimed2)]
    for k, c in enumerate(claimed, 1):
        if c.shape != (game.n_states,):
            raise ValueError(f"claimed{k} must hold one value per state, shape "
                             f"({game.n_states},), got shape {c.shape}")
    return tuple(float(c[start] - _worst_case_value(game, policy, gamma, player, tol)[start])
                 for player, policy, c in ((1, policy1, claimed[0]), (2, policy2, claimed[1])))


@dataclass(frozen=True)
class ProbeReport:
    """Trajectory of the Nash-selection variant.  classification is one of
    "converged", "cyclic", "undetermined"; for cycles, cycle_start/
    cycle_length locate the first repeated value-table fingerprint."""

    classification: str
    iterations: int
    deltas: tuple[float, ...]
    trajectory: tuple[DiscountedIterate, ...]
    cycle_start: int | None = None
    cycle_length: int | None = None


def nash_mode_probe(game: StochasticGame, gamma: float,
                    selection: SelectionFunction = nash_select,
                    max_iter: int = 500, tol: float = 1e-9) -> ProbeReport:
    """Run the discounted sweep with a Nash selection function and watch
    the value tables.  No claim is made about which games oscillate; the
    probe only classifies what this run did within max_iter sweeps."""
    trajectory: list[DiscountedIterate] = []
    deltas: list[float] = []
    fingerprints: dict[bytes, int] = {}
    for it in _sweeps(game, gamma, selection, max_iter, tol):
        trajectory.append(it)
        if it.t:
            deltas.append(it.delta)
            if it.delta <= tol:
                return ProbeReport("converged", it.t, tuple(deltas), tuple(trajectory))
        fp = _fingerprint(it.values1, it.values2)
        if fp in fingerprints:
            first = fingerprints[fp]
            return ProbeReport("cyclic", it.t, tuple(deltas), tuple(trajectory),
                               cycle_start=first, cycle_length=it.t - first)
        fingerprints[fp] = it.t
    return ProbeReport("undetermined", max_iter, tuple(deltas), tuple(trajectory))


def _fingerprint(v1: np.ndarray, v2: np.ndarray) -> bytes:
    # 9-decimal rounding makes repeated tables hash equal despite float noise
    return np.round(np.concatenate([v1, v2]), 9).tobytes()
