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

Values here are discounted payoff sums (not per-stage averages).  Sweeps
stream: no run keeps a sweep's arrays once the next sweep is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SgError
from .finite_planner import backup_sweeps
from .game_model import StationaryPolicy, StochasticGame
from .matrix_games import SelectionFunction, _by_player, _check_index, nash_select, security_select


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


def _check_settings(gamma: float, tol: float = 0.0, max_iter: int = 0) -> None:
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"discount factor must lie in [0, 1), got {gamma}")
    if not tol >= 0.0:
        raise ValueError(f"tolerance tol must be >= 0, got {tol}")
    _check_index("sweep limit max_iter", max_iter)


def _sweeps(game: StochasticGame, gamma: float, selection: SelectionFunction,
            max_iter: int, tol: float):
    """Yield (t, rows, cols, values1, values2, delta) for sweeps 0..max_iter of
    the discounted backup, stopping after the first whose delta is <= tol.
    Sweep 0 backs up the stage games and has delta nan; sweep t backs up
    sweep t-1's values, and delta is the sup-norm change between the two."""
    _check_settings(gamma, tol, max_iter)
    for t, (_, _, rows, cols, values1, values2) in zip(range(max_iter + 1),
                                                       backup_sweeps(game, gamma, selection)):
        delta = (float("nan") if t == 0 else
                 float(max(np.abs(values1 - v1).max(), np.abs(values2 - v2).max())))
        v1, v2 = values1, values2
        yield t, rows, cols, values1, values2, delta
        if delta <= tol:
            return


def infinite_vi(game: StochasticGame, gamma: float,
                selection: SelectionFunction = security_select,
                tol: float = 1e-9, max_iter: int = 100_000) -> InfiniteVIResult:
    """Iterate the discounted backup until the values settle.

    Stops when the sup-norm (over states and players) of successive value
    tables is <= tol, or flags non-convergence after max_iter sweeps.
    """
    deltas: list[float] = []
    value_trace: list[tuple[float, float]] = []
    s0 = game.start_state
    for t, rows, cols, values1, values2, delta in _sweeps(game, gamma, selection, max_iter, tol):
        if t:
            deltas.append(delta)
            value_trace.append((float(values1[s0]), float(values2[s0])))
    return InfiniteVIResult(StationaryPolicy(rows), StationaryPolicy(cols), values1, values2,
                            tuple(deltas), tuple(value_trace), delta <= tol, t)


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
    gamma-contraction of the value table.  A NaN delta counts as a violation.
    """
    _check_settings(gamma)
    out = []
    for t in range(len(deltas) - 1):
        bound = gamma * deltas[t] + 1e-9
        if not deltas[t + 1] <= bound:
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
    """What a run of the Nash-selection variant did.  classification is one
    of "converged", "cyclic", "undetermined"; iterations is the last sweep
    run, deltas the sup-norm change of sweeps 1..iterations, and values1/
    values2 the value tables of the last sweep.  For cycles, cycle_start/
    cycle_length locate the first repeated value-table fingerprint."""

    classification: str
    iterations: int
    deltas: tuple[float, ...]
    values1: np.ndarray
    values2: np.ndarray
    cycle_start: int | None = None
    cycle_length: int | None = None


def nash_mode_probe(game: StochasticGame, gamma: float,
                    selection: SelectionFunction = nash_select,
                    max_iter: int = 500, tol: float = 1e-9) -> ProbeReport:
    """Run the discounted sweep with a Nash selection function and watch
    the value tables.  No claim is made about which games oscillate; the
    probe only classifies what this run did within max_iter sweeps.  It
    keeps one delta and one fingerprint per sweep, and no sweep's arrays."""
    deltas: list[float] = []
    fingerprints: dict[bytes, int] = {}
    for t, _, _, values1, values2, delta in _sweeps(game, gamma, selection, max_iter, tol):
        if t:
            deltas.append(delta)
        # a settled sweep can round to the previous fingerprint: it is "converged"
        fp = _fingerprint(values1, values2)
        if not delta <= tol and fp in fingerprints:
            first = fingerprints[fp]
            return ProbeReport("cyclic", t, tuple(deltas), values1, values2,
                               cycle_start=first, cycle_length=t - first)
        fingerprints[fp] = t
    return ProbeReport("converged" if delta <= tol else "undetermined", t, tuple(deltas),
                       values1, values2)


def _fingerprint(v1: np.ndarray, v2: np.ndarray) -> bytes:
    # 9-decimal rounding makes repeated tables hash equal despite float noise
    return np.round(np.concatenate([v1, v2]), 9).tobytes()
