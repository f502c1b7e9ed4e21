"""Bimatrix games and the one-shot solvers every planner builds on.

A game is a pair of payoff matrices (payoff1 for the row player, payoff2
for the column player).  The module provides expected payoffs, pure best
responses, epsilon-Nash gaps, the zero-sum maximin value, per-player
security levels, support-enumeration of all Nash equilibria, and the two
deterministic selection functions (`nash_select`, `security_select`) the
planners compose state by state.

Support enumeration visits support pairs in a fixed canonical order --
ascending (|support_row| + |support_col|, |support_row|, lexicographic row
support, lexicographic column support) -- so that selection is a pure
function of the matrix entries and golden tests are possible.  A degenerate
game can leave that order empty (its equilibria need supports of unequal
size); selection then falls back to the vertex pairs of the best-response
polytopes, in a fixed order too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DegenerateGame, DimensionMismatch, EnumerationCapExceeded, SgError
from .simplex import maximin

#: probabilities above this count as support membership; feasibility slack.
SUPPORT_TOL = 1e-9
#: accept an enumerated equilibrium only if its Nash gap is below this.
VERIFY_TOL = 1e-8
#: largest per-player action count support enumeration will attempt.
ENUMERATION_CAP = 8
#: a maximin solution with a larger duality gap (times the payoff scale)
#: is replaced by the zero-sum equilibrium from enumeration.
_DUALITY_TOL = 1e-9
#: linear systems with a worse condition estimate are discarded.
_COND_LIMIT = 1e12


def _frozen(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MixedStrategy:
    """Probability distribution over one player's pure strategies."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)  # own copy; callers keep theirs writable
        if probs.ndim != 1 or probs.size == 0:
            raise DimensionMismatch(f"strategy must be a non-empty vector, got shape {probs.shape}")
        if not np.all(probs >= 0.0):  # also rejects NaN
            raise ValueError(f"negative or NaN probability in strategy: {probs}")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"strategy probabilities sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "probs", _frozen(probs))

    def __len__(self):
        return self.probs.size

    def support(self, tol: float = SUPPORT_TOL) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.probs > tol)[0])

    @classmethod
    def pure(cls, n: int, index: int) -> "MixedStrategy":
        probs = np.zeros(n)
        probs[index] = 1.0
        return cls(probs)

    @classmethod
    def uniform(cls, n: int) -> "MixedStrategy":
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class MatrixGame:
    """One-shot two-player game given by a pair of payoff matrices."""

    payoff1: np.ndarray
    payoff2: np.ndarray
    r_max: float | None = None
    is_zero_sum: bool = False

    def __post_init__(self):
        p1 = np.array(self.payoff1, dtype=float)
        p2 = np.array(self.payoff2, dtype=float)
        if p1.ndim != 2 or p1.size == 0:
            raise DimensionMismatch(f"payoff matrices must be 2-D and non-empty, got shape {p1.shape}")
        if p1.shape != p2.shape:
            raise DimensionMismatch(f"payoff shapes differ: {p1.shape} vs {p2.shape}")
        if not (np.all(np.isfinite(p1)) and np.all(np.isfinite(p2))):
            raise ValueError("payoff matrices must be finite")
        if self.r_max is not None:
            bound = max(np.abs(p1).max(), np.abs(p2).max())
            if bound > self.r_max:
                raise ValueError(f"payoff magnitude {bound} exceeds declared r_max={self.r_max}")
        if self.is_zero_sum and not np.array_equal(p2, -p1):
            raise ValueError("is_zero_sum is set but payoff2 != -payoff1")
        object.__setattr__(self, "payoff1", _frozen(p1))
        object.__setattr__(self, "payoff2", _frozen(p2))

    @property
    def rows(self) -> int:
        return self.payoff1.shape[0]

    @property
    def cols(self) -> int:
        return self.payoff1.shape[1]

    def payoff(self, player: int) -> np.ndarray:
        if player == 1:
            return self.payoff1
        if player == 2:
            return self.payoff2
        raise ValueError(f"player must be 1 or 2, got {player}")

    @classmethod
    def zero_sum(cls, matrix, r_max: float | None = None) -> "MatrixGame":
        mat = np.asarray(matrix, dtype=float)
        return cls(mat, -mat, r_max=r_max, is_zero_sum=True)


@dataclass(frozen=True)
class StrategyProfile:
    """A pair of mixed strategies with the payoffs they induce.

    For Nash profiles value_k is the expected payoff of the pair under
    payoff_k; for security profiles value_k is the guarantee level s_k.
    """

    row: MixedStrategy
    col: MixedStrategy
    value1: float
    value2: float


SelectionFunction = Callable[[MatrixGame], StrategyProfile]


def _check_lengths(game: MatrixGame, row: MixedStrategy | None, col: MixedStrategy | None):
    if row is not None and len(row) != game.rows:
        raise DimensionMismatch(f"row strategy has length {len(row)}, game has {game.rows} rows")
    if col is not None and len(col) != game.cols:
        raise DimensionMismatch(f"col strategy has length {len(col)}, game has {game.cols} cols")


def expected_payoff(game: MatrixGame, player: int, row: MixedStrategy, col: MixedStrategy) -> float:
    """E[payoff_player] when the row/column indices are drawn from row/col."""
    _check_lengths(game, row, col)
    return float(row.probs @ game.payoff(player) @ col.probs)


def best_response(game: MatrixGame, player: int, opponent: MixedStrategy) -> tuple[int, float]:
    """Best pure reply (lowest index on ties) and its expected payoff."""
    if player == 1:
        _check_lengths(game, None, opponent)
        payoffs = game.payoff1 @ opponent.probs
    else:
        _check_lengths(game, opponent, None)
        payoffs = opponent.probs @ game.payoff2
    idx = int(np.argmax(payoffs))
    return idx, float(payoffs[idx])


def epsilon_nash_gap(game: MatrixGame, profile: StrategyProfile) -> tuple[float, float]:
    """Per-player unilateral improvement available against the profile.

    The profile is epsilon-Nash iff max(g1, g2) <= epsilon.  Both gaps are
    nonnegative up to rounding (~1e-12).
    """
    _check_lengths(game, profile.row, profile.col)
    row_payoffs = game.payoff1 @ profile.col.probs
    col_payoffs = profile.row.probs @ game.payoff2
    g1 = float(row_payoffs.max() - profile.row.probs @ row_payoffs)
    g2 = float(col_payoffs.max() - col_payoffs @ profile.col.probs)
    return g1, g2


def _maximin(matrix) -> tuple[np.ndarray, np.ndarray, float]:
    """The simplex `maximin`, certified by its duality gap.

    A near-singular basis can leave the simplex short of the optimum (or
    with no strategy at all); the zero-sum equilibrium from `nash_select`,
    whose row strategy is a maximin strategy, then takes its place.
    """
    mat = np.asarray(matrix, dtype=float)
    try:
        alpha, beta, value = maximin(mat)
    except SgError:
        if mat.ndim != 2 or mat.size == 0 or not np.all(np.isfinite(mat)):
            raise  # malformed input, not a numerical failure
    else:
        gap = (mat @ beta).max() - value
        if gap <= _DUALITY_TOL or gap <= _DUALITY_TOL * np.abs(mat).max():
            return alpha, beta, value
    profile = nash_select(MatrixGame.zero_sum(mat))
    return profile.row.probs, profile.col.probs, float((profile.row.probs @ mat).min())


def solve_zero_sum(matrix) -> StrategyProfile:
    """Maximin/minimax solution of the zero-sum game (matrix, -matrix).

    value1 is the game value (the payoff the row strategy guarantees),
    value2 its negation; the returned pair is a Nash pair of the game.
    """
    alpha, beta, value = _maximin(matrix)
    return StrategyProfile(MixedStrategy(alpha), MixedStrategy(beta), value, -value)


def security_level(game: MatrixGame, player: int) -> tuple[MixedStrategy, float]:
    """Security strategy and level: the payoff the player can guarantee.

    Each player maximins their own payoff matrix: payoff1 for the row
    player, transpose(payoff2) for the column player.
    """
    if player == 1:
        alpha, _, value = _maximin(game.payoff1)
    elif player == 2:
        alpha, _, value = _maximin(game.payoff2.T)
    else:
        raise ValueError(f"player must be 1 or 2, got {player}")
    return MixedStrategy(alpha), value


def security_select(game: MatrixGame) -> StrategyProfile:
    """Deterministic security selection: both security strategies, with
    value_k the guarantee level s_k (not the expected payoff of the pair)."""
    row, s1 = security_level(game, 1)
    col, s2 = security_level(game, 2)
    return StrategyProfile(row, col, s1, s2)


def _support_pairs(n1: int, n2: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    # canonical order: ascending (k1+k2, k1, lex sup1, lex sup2)
    for total in range(2, n1 + n2 + 1):
        for k1 in range(max(1, total - n2), min(n1, total - 1) + 1):
            k2 = total - k1
            for sup1 in itertools.combinations(range(n1), k1):
                for sup2 in itertools.combinations(range(n2), k2):
                    yield sup1, sup2


def _solve_linear(a: np.ndarray, b: np.ndarray):
    """Unique solution of the square system a x = b; None when singular or
    ill-conditioned (estimate > 1e12)."""
    n = a.shape[0]
    try:
        aug = np.linalg.solve(a, np.concatenate([b[:, None], np.eye(n)], axis=1))
    except np.linalg.LinAlgError:
        return None
    x = aug[:, 0]
    inv = aug[:, 1:]
    cond = np.abs(a).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        return None
    return x


def _profile_on_supports(game: MatrixGame, sup1, sup2, tol: float) -> StrategyProfile | None:
    """Candidate equilibrium with the exact supports (sup1, sup2), if the
    indifference conditions and best-response checks admit one."""
    m1, m2 = game.payoff1, game.payoff2
    k1, k2 = len(sup1), len(sup2)
    if k1 != k2:
        # one player's indifference system is then underdetermined, so the
        # pair can only carry a solution continuum, never one equilibrium
        return None

    if k1 == 1:
        i, j = sup1[0], sup2[0]
        v1 = m1[i, j]
        v2 = m2[i, j]
        if m1[:, j].max() > v1 + tol or m2[i, :].max() > v2 + tol:
            return None
        alpha = np.zeros(game.rows)
        beta = np.zeros(game.cols)
        alpha[i] = 1.0
        beta[j] = 1.0
        return StrategyProfile(MixedStrategy(alpha), MixedStrategy(beta), float(v1), float(v2))

    r1 = np.asarray(sup1)
    c2 = np.asarray(sup2)
    # player 1 indifferent across sup1: rows are [M1[i, sup2], -1], plus sum(beta)=1
    sys_b = np.zeros((k1 + 1, k2 + 1))
    sys_b[:k1, :k2] = m1[np.ix_(r1, c2)]
    sys_b[:k1, k2] = -1.0
    sys_b[k1, :k2] = 1.0
    rhs_b = np.zeros(k1 + 1)
    rhs_b[k1] = 1.0
    sol_b = _solve_linear(sys_b, rhs_b)
    if sol_b is None:
        return None
    beta_s, v1 = sol_b[:k2], sol_b[k2]

    sys_a = np.zeros((k2 + 1, k1 + 1))
    sys_a[:k2, :k1] = m2[np.ix_(r1, c2)].T
    sys_a[:k2, k1] = -1.0
    sys_a[k2, :k1] = 1.0
    rhs_a = np.zeros(k2 + 1)
    rhs_a[k2] = 1.0
    sol_a = _solve_linear(sys_a, rhs_a)
    if sol_a is None:
        return None
    alpha_s, v2 = sol_a[:k1], sol_a[k1]

    # the solution must live on exactly the declared supports
    if beta_s.min() <= tol or alpha_s.min() <= tol:
        return None
    alpha = np.zeros(game.rows)
    beta = np.zeros(game.cols)
    alpha[r1] = alpha_s / alpha_s.sum()
    beta[c2] = beta_s / beta_s.sum()
    # no profitable pure deviation outside the supports
    if (m1 @ beta).max() > v1 + tol or (alpha @ m2).max() > v2 + tol:
        return None
    row = MixedStrategy(alpha)
    col = MixedStrategy(beta)
    value1 = float(alpha @ m1 @ beta)
    value2 = float(alpha @ m2 @ beta)
    return StrategyProfile(row, col, value1, value2)


def _enumerate(game: MatrixGame, cap: int) -> Iterator[StrategyProfile]:
    if game.rows > cap or game.cols > cap:
        raise EnumerationCapExceeded(
            f"support enumeration capped at {cap} actions per player, "
            f"game is {game.rows}x{game.cols}")
    tol = SUPPORT_TOL * _scale(game)
    candidates = (_profile_on_supports(game, sup1, sup2, tol)
                  for sup1, sup2 in _support_pairs(game.rows, game.cols))
    yield from _verified(game, (p for p in candidates if p is not None))


def _scale(game: MatrixGame) -> float:
    return max(1.0, np.abs(game.payoff1).max(), np.abs(game.payoff2).max())


def _verified(game: MatrixGame, candidates: Iterator[StrategyProfile]) -> Iterator[StrategyProfile]:
    scale = _scale(game)
    for profile in candidates:
        g1, g2 = epsilon_nash_gap(game, profile)
        if max(g1, g2) <= VERIFY_TOL * scale:
            yield profile


def _vertices(g: np.ndarray, h: np.ndarray) -> list[tuple[np.ndarray, frozenset]]:
    """Nonzero vertices of the bounded polytope {z : g z <= h}, each with the
    set of its tight rows, in order of first appearance over the square
    subsystems of rows in combinations order."""
    out = []
    seen = set()
    for rows in itertools.combinations(range(g.shape[0]), g.shape[1]):
        idx = np.asarray(rows)
        z = _solve_linear(g[idx], h[idx])
        if z is None or z.sum() <= SUPPORT_TOL or np.any(g @ z > h + SUPPORT_TOL):
            continue
        labels = frozenset(np.flatnonzero(np.abs(g @ z - h) <= SUPPORT_TOL).tolist())
        if labels not in seen:
            seen.add(labels)
            out.append((np.where(z > SUPPORT_TOL, z, 0.0), labels))
    return out


def _vertex_pairs(game: MatrixGame) -> Iterator[StrategyProfile]:
    """Extreme equilibria as completely labelled vertex pairs of the two
    best-response polytopes (Avis, Rosenberg, Savani & von Stengel, 2010).

    The fallback for degenerate games, where an equilibrium may need
    supports of unequal size. Every game has an extreme equilibrium, so this
    yields at least one; pairs come row vertex first, in vertex order.
    """
    n1, n2 = game.rows, game.cols
    m1, m2 = game.payoff1, game.payoff2

    def positive(m):  # same equilibria, entries in [1, 2]
        return (m - m.min()) / ((m.max() - m.min()) or 1.0) + 1.0

    # labels 0..n1-1 are the rows, n1..n1+n2-1 the columns, in both polytopes
    # P = {x >= 0, B^T x <= 1}: x_i = 0 carries label i, (B^T x)_j = 1 label n1+j
    row_g = np.concatenate([-np.eye(n1), positive(m2).T])
    row_h = np.concatenate([np.zeros(n1), np.ones(n2)])
    # Q = {A y <= 1, y >= 0}: (A y)_i = 1 carries label i, y_j = 0 label n1+j
    col_g = np.concatenate([positive(m1), -np.eye(n2)])
    col_h = np.concatenate([np.ones(n1), np.zeros(n2)])
    everything = frozenset(range(n1 + n2))
    col_vertices = _vertices(col_g, col_h)
    for x, x_labels in _vertices(row_g, row_h):
        for y, y_labels in col_vertices:
            if x_labels | y_labels == everything:
                row = MixedStrategy(x / x.sum())
                col = MixedStrategy(y / y.sum())
                yield StrategyProfile(row, col, float(row.probs @ m1 @ col.probs),
                                      float(row.probs @ m2 @ col.probs))


def enumerate_nash(game: MatrixGame, cap: int = ENUMERATION_CAP) -> list[StrategyProfile]:
    """All Nash equilibria found by support enumeration, canonical order.

    When a degenerate game leaves support enumeration empty, the extreme
    equilibria found by the vertex fallback instead. Raises
    EnumerationCapExceeded above the size cap and DegenerateGame if no
    candidate of either survives verification.
    """
    profiles = list(_enumerate(game, cap)) or list(_verified(game, _vertex_pairs(game)))
    if not profiles:
        raise DegenerateGame(
            f"no equilibrium survived verification at tolerance {VERIFY_TOL} "
            f"(support tolerance {SUPPORT_TOL}); the game is numerically degenerate")
    return profiles


def nash_select(game: MatrixGame, cap: int = ENUMERATION_CAP) -> StrategyProfile:
    """First equilibrium in the canonical support order, else the first
    vertex pair of the degenerate fallback.

    Deterministic: entrywise-identical inputs give bit-identical output.
    """
    for profile in itertools.chain(_enumerate(game, cap), _verified(game, _vertex_pairs(game))):
        return profile
    raise DegenerateGame(
        f"no equilibrium survived verification at tolerance {VERIFY_TOL} "
        f"(support tolerance {SUPPORT_TOL}); the game is numerically degenerate")
