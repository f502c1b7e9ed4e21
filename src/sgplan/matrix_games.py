"""Bimatrix games and the one-shot solvers every planner builds on.

A game is a pair of payoff matrices (payoff1 for the row player, payoff2
for the column player).  The module provides expected payoffs, pure best
responses, epsilon-Nash gaps, the zero-sum maximin value, per-player
security levels, support-enumeration of all Nash equilibria, and the two
deterministic selection functions (`nash_select`, `security_select`) the
planners compose state by state.

Enumeration visits support pairs of equal size (unequal ones carry no
isolated equilibrium) in a fixed canonical order -- ascending (size,
lexicographic row support, lexicographic column support) -- so that
selection is a pure function of the matrix entries.  One walk, `_walk`,
takes that order one support size at a time over a stack of games: size 1
off the payoffs, each larger size in stacked `_candidates` calls over every
(open game, pair), with one solve per player before the support, deviation
and Nash-gap checks.  The scalar core `_equilibria(m1, m2, cap)` walks a
stack of one and yields every accepted (alpha, beta, value1, value2) in
order; a degenerate game that leaves the order empty falls back to the
vertex pairs of the best-response polytopes, in a fixed order too.

`nash_select` and `security_select` carry an array form, `array_form`, that
selects a whole (K, n1, n2) stack with the same output bits, for
`finite_planner.select_level`, and leaves each game it cannot settle to the
per-game selection.  The Nash form, `_nash_stack`, keeps each game's first
accepted pair of the same walk, so a game with none takes the vertex
fallback.  The security form, `_security_stack`, solves a level's maximin
LPs with one lockstep simplex call (`simplex.maximin_stack`), both players
in one call when their matrices have one shape, and checks every duality
gap at once; a game the stack flags or the check rejects goes back to
`select_level`, which selects it with the per-game `security_select`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateGame, DimensionMismatch, EnumerationCapExceeded, SgError
from .simplex import maximin, maximin_stack, onto_one_two

# Enumeration applies SUPPORT_TOL and VERIFY_TOL times the payoff scale
# max(1, max|payoff1|, max|payoff2|) of the game at hand.
#: probabilities above this count as support membership; feasibility slack.
SUPPORT_TOL = 1e-9
#: accept an enumerated equilibrium only if its Nash gap is at most this.
VERIFY_TOL = 1e-8
#: largest per-player action count support enumeration will attempt.
ENUMERATION_CAP = 8
#: a deviation gain (times the payoff scale) or a polytope slack no larger
#: than this is a rounding tie, not a profitable deviation or a loose row.
_TIE_TOL = 1e-12
#: a maximin solution with a larger duality gap (times the payoff scale)
#: is replaced by the zero-sum equilibrium from enumeration.
_DUALITY_TOL = 1e-10
#: linear systems with a worse condition estimate are discarded.
_COND_LIMIT = 1e12
#: most (game, support pair) candidates per stacked call; no bit depends on it.
_PAIR_BLOCK = 4096


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def _by_player(player: int, first, second):
    """first for player 1 (the row player), second for player 2."""
    if _check_index("player", player, low=None) not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player}")
    return first if player == 1 else second


def _check_index(what: str, value, n: int | None = None, low: int | None = 0) -> int:
    """The one integer rule: value as an int in low..n-1, >= low without n, or
    any int.  A float or a string is a TypeError, never truncated or parsed."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None
    if n is not None and not low <= value < n:
        raise ValueError(f"{what} {value} not in {low}..{n - 1}")
    if n is None and low is not None and value < low:
        raise ValueError(f"{what} must be >= {low}, got {value}")
    return value


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
            raise ValueError(f"strategy probabilities sum to {float(probs.sum())!r}, not 1")
        object.__setattr__(self, "probs", _frozen(probs))

    def __len__(self):
        return self.probs.size

    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.probs > SUPPORT_TOL)[0])

    @classmethod
    def pure(cls, n: int, index: int) -> "MixedStrategy":
        probs = np.zeros(n)
        probs[_check_index("action", index, n)] = 1.0
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
            if not 0.0 <= self.r_max < np.inf:  # false for NaN
                raise ValueError(f"r_max must be a finite number >= 0, got {self.r_max}")
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
        return _by_player(player, self.payoff1, self.payoff2)

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

    @staticmethod
    def of(row, col, value1, value2) -> "StrategyProfile":
        """The profile of two probability arrays and their values."""
        return StrategyProfile(MixedStrategy(row), MixedStrategy(col),
                               float(value1), float(value2))


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
    row, col = _by_player(player, (None, opponent), (opponent, None))
    _check_lengths(game, row, col)
    payoffs = game.payoff1 @ col.probs if row is None else row.probs @ game.payoff2
    idx = int(np.argmax(payoffs))
    return idx, float(payoffs[idx])


def epsilon_nash_gap(game: MatrixGame, profile: StrategyProfile) -> tuple[float, float]:
    """Per-player unilateral improvement available against the profile.

    The profile is epsilon-Nash iff max(g1, g2) <= epsilon.  Both gaps are
    nonnegative up to rounding (~1e-12).
    """
    _check_lengths(game, profile.row, profile.col)
    return _gaps(game.payoff1, game.payoff2, profile.row.probs, profile.col.probs)


def _gaps(m1, m2, alpha, beta) -> tuple[float, float]:
    row_payoffs = m1 @ beta
    col_payoffs = alpha @ m2
    return (float(row_payoffs.max() - alpha @ row_payoffs),
            float(col_payoffs.max() - col_payoffs @ beta))


def _scale(*mats) -> float:
    return max(1.0, *(np.abs(m).max() for m in mats))


def _maximin(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The simplex `maximin` of a MatrixGame's payoff matrix, certified by
    its duality gap.

    A near-singular basis can leave the simplex short of the optimum (or
    with no strategy at all); the first zero-sum equilibrium from
    enumeration, whose row strategy is a maximin strategy, then takes its
    place.  If enumeration fails too, its error names both failures.
    """
    try:
        alpha, beta, value = maximin(mat)
        gap, bound = (mat @ beta).max() - value, _DUALITY_TOL * _scale(mat)
        if gap <= bound:
            return alpha, beta, value
        cause = f"duality gap {gap:.3g} above tolerance {bound:.3g}"
    except SgError as exc:  # overflow, unbounded, non-terminating or empty strategy
        cause = str(exc)
    try:
        alpha, beta, _, _ = next(_equilibria(mat, -mat, ENUMERATION_CAP))
    except SgError as exc:
        raise type(exc)(f"{exc}; the simplex failed first: {cause}") from exc
    return alpha, beta, float((alpha @ mat).min())


def solve_zero_sum(matrix) -> StrategyProfile:
    """Maximin/minimax solution of the zero-sum game (matrix, -matrix).

    value1 is the game value (the payoff the row strategy guarantees),
    value2 its negation; the returned pair is a Nash pair of the game.
    The matrix is checked as `MatrixGame.zero_sum` checks it.
    """
    alpha, beta, value = _maximin(MatrixGame.zero_sum(matrix).payoff1)
    return StrategyProfile.of(alpha, beta, value, -value)


def security_level(game: MatrixGame, player: int) -> tuple[MixedStrategy, float]:
    """Security strategy and level: the payoff the player can guarantee.

    Each player maximins their own payoff matrix: payoff1 for the row
    player, transpose(payoff2) for the column player.
    """
    alpha, _, value = _maximin(_by_player(player, game.payoff1, game.payoff2.T))
    return MixedStrategy(alpha), value


def security_select(game: MatrixGame) -> StrategyProfile:
    """Deterministic security selection: both security strategies, with
    value_k the guarantee level s_k (not the expected payoff of the pair)."""
    alpha, _, s1 = _maximin(game.payoff1)
    beta, _, s2 = _maximin(game.payoff2.T)
    return StrategyProfile.of(alpha, beta, s1, s2)


def _security_stack(m1, m2, rows, cols, values1, values2) -> np.ndarray:
    """Array form of `security_select` over a stack of games (K, n1, n2) with
    finite payoffs: the selection of game k goes to rows[k], cols[k],
    values1[k] and values2[k].  Returns, as `_nash_stack` does, the games
    left to `security_select`: those the stack flags or the check rejects.

    One `maximin_stack` call solves a player's whole stack, or both players'
    when payoff1 and transpose(payoff2) have one shape.  The values and
    duality checks are stacked matrix products over m1 and the transposed
    view of m2, so each game's product runs on a matrix of the shape and
    strides `_maximin` is given (m1[k], m2[k].T) and keeps its bits; on a
    contiguous copy of the transpose they would move.
    """
    m2t = m2.transpose(0, 2, 1)
    if m1.shape == m2t.shape:
        alpha, beta, ok = maximin_stack(np.concatenate([m1, m2t]))
        n = len(m1)
        solved = [(alpha[:n], beta[:n], ok[:n]), (alpha[n:], beta[n:], ok[n:])]
    else:
        solved = [maximin_stack(m1), maximin_stack(m2t)]
    good = np.ones(len(m1), dtype=bool)
    for mats, strategies, values, (alpha, beta, ok) in zip(
            (m1, m2t), (rows, cols), (values1, values2), solved):
        value = (alpha[:, None, :] @ mats)[:, 0, :].min(axis=1)
        gap = (mats @ beta[:, :, None])[:, :, 0].max(axis=1) - value
        scale = np.maximum(np.abs(mats).max(axis=(1, 2)), 1.0)  # _scale of each game
        good &= ok & (gap <= _DUALITY_TOL * scale)
        strategies[...], values[...] = alpha, value
    return np.flatnonzero(~good)


security_select.array_form = _security_stack


@functools.lru_cache(maxsize=None)
def _pair_table(n1: int, n2: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column supports (P, size) of the pairs of one size, in order."""
    pairs = itertools.product(*(itertools.combinations(range(n), size) for n in (n1, n2)))
    return tuple(map(_frozen, np.array(list(pairs)).transpose(1, 0, 2)))


def _solve_linear(a: np.ndarray, b: np.ndarray):
    """Solutions x[g] of a stack of square systems a[g] x = b[g], and a mask
    of the systems solved: False where a[g] is singular or ill-conditioned
    (estimate > 1e12), and x[g] then means nothing."""
    n = a.shape[-1]
    rhs = np.empty(b.shape + (n + 1,))  # [b | I]: the solve gives x and the inverse
    rhs[..., 0] = b
    rhs[..., 1:] = np.eye(n)
    try:
        aug = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:  # one exactly singular system fails the whole stack
        # slogdet runs the same LU; sign 0 marks them. Solve the rest apart, or bisect if none
        regular = len(a) > 1 and np.linalg.slogdet(a)[0] != 0
        if not np.any(regular):
            return np.zeros(b.shape), np.zeros(len(a), dtype=bool)
        regular = np.arange(len(a)) < len(a) // 2 if regular.all() else regular
        x, solved = np.zeros(b.shape), np.zeros(len(a), dtype=bool)
        for part in regular, ~regular:
            x[part], solved[part] = _solve_linear(a[part], b[part])
        return x, solved
    with np.errstate(over="ignore"):  # a near-singular block's inverse can overflow the sum
        cond = np.abs(a).sum(axis=-1).max(axis=-1) * np.abs(aug[..., 1:]).sum(axis=-1).max(axis=-1)
    return aug[..., 0], cond <= _COND_LIMIT  # false for an infinite or NaN estimate too


def _indifference(blocks: np.ndarray):
    """For each block of a (B, k1, k2) stack, a player's payoffs on the two
    supports, the opponent support strategy that makes the player
    indifferent across the block's rows: (strategies (B, k2), solved (B,))."""
    n, k1, k2 = blocks.shape
    system = np.zeros((n, k1 + 1, k2 + 1))
    system[:, :k1, :k2] = blocks
    system[:, :k1, k2] = -1.0
    system[:, k1, :k2] = 1.0
    rhs = np.zeros((n, k1 + 1))
    rhs[:, k1] = 1.0
    x, solved = _solve_linear(system, rhs)
    return x[:, :k2], solved


def _pure(m1, m2, scale):
    """Size 1 off a whole stack (K, n1, n2), in game and row-major order: a
    pure profile passes if no deviation gain, so its Nash gap, exceeds _TIE_TOL * scale."""
    tie = _TIE_TOL * scale[:, None, None]
    pure = (m1.max(axis=1)[:, None, :] <= m1 + tie) & (m2.max(axis=2)[:, :, None] <= m2 + tie)
    games, cells = np.nonzero(pure.reshape(len(m1), -1))
    if not games.size:
        return None
    i, j = np.divmod(cells, m1.shape[2])
    return games, np.eye(m1.shape[1])[i], np.eye(m1.shape[2])[j], m1[games, i, j], m2[games, i, j]


def _candidates(m1, m2, games, sup1, sup2, scale):
    """Candidate c is game games[c] of the stack (m1, m2), (K, n1, n2), on
    the exact supports sup1[c], sup2[c] of one size k >= 2.  Returns (games,
    alpha, beta, values1, values2) of the candidates that pass the
    indifference, support, deviation and Nash-gap checks, in order, or None.

    With scale (K,) each game's payoff scale, support probabilities must
    exceed SUPPORT_TOL * scale, the Nash gap stay within VERIFY_TOL * scale,
    and no deviation gain exceed _TIE_TOL * scale, a rounding-level slack (a
    looser one admits near-equilibria ahead of exact ones).  No step
    computes on the output of a failed solve."""
    n1, n2 = m1.shape[1:]
    tol = SUPPORT_TOL * scale[games]
    beta_s, solved = _indifference(m1[games[:, None, None], sup1[:, :, None], sup2[:, None, :]])
    c = np.flatnonzero(solved & (beta_s.min(axis=1) > tol))
    if not c.size:
        return None
    games, r1, c2 = games[c], sup1[c], sup2[c]
    alpha_s, solved = _indifference(
        m2[games[:, None, None], r1[:, :, None], c2[:, None, :]].transpose(0, 2, 1))
    keep = solved & (alpha_s.min(axis=1) > tol[c])
    games, r1, c2, alpha_s, beta_s = games[keep], r1[keep], c2[keep], alpha_s[keep], beta_s[c[keep]]
    if not games.size:
        return None
    at = np.arange(games.size)[:, None]
    alpha, beta = np.zeros((games.size, n1)), np.zeros((games.size, n2))
    alpha[at, r1] = alpha_s / alpha_s.sum(axis=1, keepdims=True)
    beta[at, c2] = beta_s / beta_s.sum(axis=1, keepdims=True)
    m1, m2 = m1[games], m2[games]  # each copy keeps its strides, so its matmul bits
    alpha_row, beta_col = alpha[:, None, :], beta[:, :, None]
    # no profitable pure deviation outside the supports, measured against the
    # support payoffs themselves so that the solve error does not enter
    pay1, pay2 = (m1 @ beta_col)[:, :, 0], (alpha_row @ m2)[:, 0, :]
    tie, verify = _TIE_TOL * scale[games], VERIFY_TOL * scale[games]
    v2 = (pay2[:, None, :] @ beta_col)[:, 0, 0]
    keep = ((pay1.max(axis=1) <= pay1[at, r1].max(axis=1) + tie)
            & (pay2.max(axis=1) <= pay2[at, c2].max(axis=1) + tie)
            & (pay1.max(axis=1) - (alpha_row @ pay1[:, :, None])[:, 0, 0] <= verify)
            & (pay2.max(axis=1) - v2 <= verify))
    if not keep.any():
        return None
    v1 = ((alpha_row @ m1) @ beta_col)[:, 0, 0]
    return games[keep], alpha[keep], beta[keep], v1[keep], v2[keep]


def _walk(m1, m2, scale, first: bool):
    """Yields, one support size at a time, (games, alpha, beta, values1,
    values2) with a row per accepted (game, pair) of a stack (K, n1, n2), in
    game and canonical pair order, from kernel calls of at most _PAIR_BLOCK
    candidates.  With `first`, a game keeps its first pair and leaves."""
    (n1, n2), open_games = m1.shape[1:], np.ones(len(m1), dtype=bool)
    for size in range(1, min(n1, n2) + 1):
        todo, (sup1, sup2) = np.flatnonzero(open_games), _pair_table(n1, n2, size)
        if not todo.size:
            return
        total = todo.size * len(sup1)
        found = [_pure(m1, m2, scale)] if size == 1 else [
            _candidates(m1, m2, todo[c // len(sup1)], sup1[c % len(sup1)], sup2[c % len(sup1)],
                        scale)  # candidates c game-major, pairs in order
            for c in (np.arange(start, min(start + _PAIR_BLOCK, total))
                      for start in range(0, total, _PAIR_BLOCK))]
        found = [part for part in found if part is not None]
        if not found:
            continue
        found = found[0] if len(found) == 1 else [np.concatenate(a) for a in zip(*found)]
        if first:  # rows are game-major: a game's first row is its first pair
            keep = np.concatenate(([True], found[0][1:] != found[0][:-1]))
            if not keep.all():
                found = [a[keep] for a in found]
            open_games[found[0]] = False
        yield tuple(found)


def _vertices(g: np.ndarray, h: np.ndarray) -> list[tuple[np.ndarray, frozenset]]:
    """Nonzero vertices of the bounded polytope {z : g z <= h}, each with the
    set of its tight rows, in order of first appearance over the square
    subsystems of rows in combinations order. g and h are of order 1, so
    the tolerances are absolute."""
    out = []
    seen = set()
    subsystems = np.array(list(itertools.combinations(range(g.shape[0]), g.shape[1])))
    zs, solved = _solve_linear(g[subsystems], h[subsystems])
    for z in zs[solved]:
        if z.sum() <= SUPPORT_TOL or np.any(g @ z > h + _TIE_TOL):
            continue
        # only rounding-level slack counts as tight: a looser one labels
        # near-tight rows and pairs up near-equilibria
        labels = frozenset(np.flatnonzero(np.abs(g @ z - h) <= _TIE_TOL).tolist())
        if labels not in seen:
            seen.add(labels)
            out.append((np.where(z > _TIE_TOL, z, 0.0), labels))
    return out


def _vertex_pairs(m1, m2):
    """Extreme equilibria as completely labelled vertex pairs of the two
    best-response polytopes (Avis, Rosenberg, Savani & von Stengel, 2010).

    The fallback for degenerate games, where an equilibrium may need
    supports of unequal size. Every game has an extreme equilibrium, so this
    yields at least one; pairs come row vertex first, in vertex order, as
    (alpha, beta, value1, value2).
    """
    n1, n2 = m1.shape
    # payoffs mapped onto [1, 2] keep the equilibria and bound both polytopes
    # labels 0..n1-1 are the rows, n1..n1+n2-1 the columns, in both polytopes
    # P = {x >= 0, B^T x <= 1}: x_i = 0 carries label i, (B^T x)_j = 1 label n1+j
    row_g = np.concatenate([-np.eye(n1), onto_one_two(m2).T])
    row_h = np.concatenate([np.zeros(n1), np.ones(n2)])
    # Q = {A y <= 1, y >= 0}: (A y)_i = 1 carries label i, y_j = 0 label n1+j
    col_g = np.concatenate([onto_one_two(m1), -np.eye(n2)])
    col_h = np.concatenate([np.ones(n1), np.zeros(n2)])
    everything = frozenset(range(n1 + n2))
    col_vertices = _vertices(col_g, col_h)
    for x, x_labels in _vertices(row_g, row_h):
        for y, y_labels in col_vertices:
            if x_labels | y_labels == everything:
                alpha, beta = x / x.sum(), y / y.sum()
                yield alpha, beta, float(alpha @ m1 @ beta), float(alpha @ m2 @ beta)


def _equilibria(m1: np.ndarray, m2: np.ndarray, cap: int):
    """Every equilibrium (alpha, beta, value1, value2) of (m1, m2) that passes
    the Nash-gap check: from the canonical support order, or from the vertex
    pairs when that order yields none."""
    n1, n2 = m1.shape
    if n1 > cap or n2 > cap:
        raise EnumerationCapExceeded(
            f"support enumeration capped at {cap} actions per player, game is {n1}x{n2}")
    scale = _scale(m1, m2)
    found = False
    for _, alpha, beta, v1, v2 in _walk(m1[None], m2[None], np.array([scale]), first=False):
        found = True
        yield from zip(alpha, beta, v1.tolist(), v2.tolist())
    if found:
        return
    for eq in _vertex_pairs(m1, m2):
        if max(_gaps(m1, m2, eq[0], eq[1])) <= VERIFY_TOL * scale:
            found = True
            yield eq
    if found:
        return
    raise DegenerateGame(
        f"no equilibrium survived verification at Nash-gap tolerance {VERIFY_TOL * scale:g} "
        f"and support tolerance {SUPPORT_TOL * scale:g} (VERIFY_TOL and SUPPORT_TOL times "
        f"the payoff scale {scale:g}); the game is numerically degenerate")


def enumerate_nash(game: MatrixGame, cap: int = ENUMERATION_CAP) -> list[StrategyProfile]:
    """All Nash equilibria found by support enumeration, canonical order.

    When a degenerate game leaves support enumeration empty, the extreme
    equilibria found by the vertex fallback instead. Raises
    EnumerationCapExceeded above the size cap and DegenerateGame if no
    candidate of either survives verification.
    """
    return [StrategyProfile.of(*eq) for eq in _equilibria(game.payoff1, game.payoff2, cap)]


def nash_select(game: MatrixGame) -> StrategyProfile:
    """First equilibrium in the canonical support order, else the first
    vertex pair of the degenerate fallback.

    Deterministic: entrywise-identical inputs give bit-identical output.
    """
    return StrategyProfile.of(*next(_equilibria(game.payoff1, game.payoff2, ENUMERATION_CAP)))


def _nash_stack(m1, m2, rows, cols, values1, values2) -> np.ndarray:
    """Array form of `nash_select` over a stack of games (K, n1, n2) with
    finite payoffs: the selection of game k goes to rows[k], cols[k],
    values1[k] and values2[k], from each game's first accepted support pair.
    Returns the games left to `nash_select` itself, in ascending order: those
    no pair accepts (the vertex fallback), and all above ENUMERATION_CAP.
    """
    n1, n2 = m1.shape[1:]
    if max(n1, n2) > ENUMERATION_CAP:
        return np.arange(len(m1))
    settled = np.zeros(len(m1), dtype=bool)
    scale = np.maximum(np.abs(m1).max(axis=(1, 2), initial=1.0),
                       np.abs(m2).max(axis=(1, 2), initial=1.0))
    for games, alpha, beta, v1, v2 in _walk(m1, m2, scale, first=True):
        rows[games], cols[games], values1[games], values2[games] = alpha, beta, v1, v2
        settled[games] = True
    return np.flatnonzero(~settled)


nash_select.array_form = _nash_stack
