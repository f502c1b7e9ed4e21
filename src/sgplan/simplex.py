"""Deterministic maximin solver for zero-sum matrix games.

Uses the classical LP reduction: map the payoff matrix M affinely onto
M' = (M - min M) / (max M - min M) + 1, whose entries lie in [1, 2] (value
v' in [1, 2]), then solve the column player's packing LP

    max  sum(y)   s.t.   M' y <= 1,   y >= 0

with a dense one-phase tableau simplex.  The origin is feasible and the
feasible set is bounded (rows of M' are >= 1), so no phase-1 is needed.
At the optimum 1/sum(y) is the value of M', y normalised is the column
player's minimax strategy, and the duals (objective-row entries under the
slack columns) normalise to the row player's maximin strategy.

The affine map leaves the optimal strategies unchanged and puts every
tableau quantity on the order of 1, so the tolerance `_TOL` is relative to
the payoff range: payoff differences well above _TOL * (max M - min M) are
resolved, smaller ones may be treated as ties.

Pivoting follows Bland's rule: the lowest-index column with a negative
reduced cost enters, and ratio ties on the leaving row are broken by the
lowest basis variable index.  This prevents cycling and makes the solver
a pure function of the matrix entries.

There is one pivot loop, `_solve_packing_stack`, and it solves a stack of
K games in lockstep: each step pivots every open tableau of the stack at
once, and the ratio test scans the rows in order, vectorized across games,
so the tie rule holds in each game as if it were alone.  A pivot updates a
row only where its factor is nonzero, through a masked subtract: an
unmasked x - 0.0 * piv would rewrite a -0.0 as +0.0, and a zero times a
non-finite entry as NaN.  Games that finish drop out of the pivots, and a
game whose LP fails (unbounded, or no termination within the pivot cap) is
flagged.

`maximin_stack` takes stacks of any shapes, such as a level's payoff1
(n1 x n2) and transpose(payoff2) (n2 x n1), and runs them through that one
loop: each stack is cast to float64 (an int64 range may wrap), mapped onto
[1, 2] game by game on its own entries and written into a zero LP stack of
the most rows by the most columns.  The zero padding changes no bit:
- a zero column has objective 0 and never enters; a zero row has 0 in the
  entering column, so it is never usable and never updated, and the real
  rows keep their 0 in the padded columns;
- the real slack columns move up together, so Bland's entering column and
  the tie rule on basis indices choose as before, and every real tableau
  entry goes through the same elementwise arithmetic;
- sums are not elementwise (numpy's pairwise sum groups a row's terms by
  the row's length), so the strategies are cleaned on each stack's own rows.
`maximin_stack` returns the strategies only: a caller takes values and
duality checks from matrix products that run on each game's own view,
since those bits depend on memory layout.  `maximin` is the stack of one,
with its value taken on the matrix itself.
"""

import numpy as np

from .errors import SgError

#: relative tolerance for reduced costs, pivot entries, ratio ties and
#: strategy cleaning on the normalized tableau
_TOL = 1e-12


def maximin(matrix):
    """Maximin strategy and value of the row player of a zero-sum game.

    Returns (alpha, beta, value): alpha is the row player's security
    strategy, beta the column player's minimax response, and value the
    payoff alpha guarantees (min over columns of alpha @ matrix).

    Precondition: matrix is 2-D, non-empty and finite, as every payoff
    matrix of a `MatrixGame` is; it is not checked here.  A payoff range
    that overflows float64 raises SgError, and so does a numerical failure
    (unbounded LP, no termination, empty strategy).
    """
    mat = np.asarray(matrix, dtype=float)
    alpha, beta, ok = maximin_stack(mat[None])
    if not ok[0]:
        onto_one_two(mat)  # raises for a range that overflows float64
        raise SgError("maximin LP failed: unbounded, no termination or an empty strategy")
    return alpha[0], beta[0], float((alpha[0] @ mat).min())


def onto_one_two(mat):
    """mat mapped affinely onto [1, 2]; a constant matrix maps to all ones.

    Raises SgError when the range of mat overflows float64.
    """
    mapped, ok = _onto_one_two(np.asarray(mat, dtype=float)[None])
    if not ok[0]:
        raise SgError(f"payoff range {float(mat.min())!r} .. {float(mat.max())!r} overflows float64")
    return mapped[0]


def _onto_one_two(mats):
    """Each game of a float stack (K, n1, n2) mapped affinely onto [1, 2] by
    its own min and span: (mapped, ok), ok False where the range overflows
    float64.  Those games and the constant ones map to all ones."""
    low = mats.min(axis=(1, 2), keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        span = mats.max(axis=(1, 2), keepdims=True) - low
        mapped = (mats - low) / np.where(span == 0.0, 1.0, span) + 1.0
    ok = np.isfinite(span[:, 0, 0])
    mapped[~ok] = 1.0
    return mapped, ok


def maximin_stack(*stacks):
    """Maximin strategies of each game of one or more stacks (K, n1, n2), of
    any shapes, pivoted in one lockstep.

    Returns, for each stack, C-contiguous (alpha (K, n1), beta (K, n2),
    ok (K,)): one stack gives its triple, several a list of triples, as
    `np.atleast_2d` does.  Where ok[k] holds, alpha[k] is the row player's
    security strategy of the stack's game k and beta[k] the column player's
    minimax response, the same bits in any stack, beside any other stacks;
    where it does not (a range that overflows float64, an unbounded LP, no
    termination or an empty strategy), both rows are zeros, so products
    with them stay finite.
    """
    parts, end = [], 0
    for mats in stacks:
        end += len(mats)
        parts.append((slice(end - len(mats), end),) + mats.shape[1:])
    a = np.zeros((end, max(n1 for _, n1, _ in parts), max(n2 for *_, n2 in parts)))
    ok = np.empty(end, dtype=bool)
    for mats, (games, n1, n2) in zip(stacks, parts):
        a[games, :n1, :n2], ok[games] = _onto_one_two(np.asarray(mats, dtype=float))
    y, duals, solved = _solve_packing_stack(a)
    ok &= solved
    solutions = []
    for games, n1, n2 in parts:
        # on the stack's own rows: a sum over padding may group its terms otherwise
        beta, has_beta = _clean_rows(y[games, :n2])
        alpha, has_alpha = _clean_rows(duals[games, :n1])
        good = ok[games] & has_beta & has_alpha
        alpha[~good], beta[~good] = 0.0, 0.0
        solutions.append((alpha, beta, good))
    return solutions[0] if len(stacks) == 1 else solutions


def _solve_packing_stack(a):
    """max sum(y) s.t. a y <= 1, y >= 0 for each matrix of a stack a
    (K, n1, n2), pivoted in lockstep.  Each matrix has its entries in [1, 2],
    except for zero rows and columns, the padding of a smaller game: a zero
    column is no variable (objective 0) and a zero row no constraint.

    Returns (y (K, n2), duals (K, n1), ok (K,)): ok[k] is False where game
    k's LP has no leaving row (unbounded) or does not terminate within the
    stack's pivot cap, and y[k] and duals[k] then mean nothing.
    """
    k, n1, n2 = a.shape
    games = np.arange(k)
    tableau = np.zeros((k, n1 + 1, n2 + n1 + 1))
    tableau[:, :n1, :n2] = a
    tableau[:, np.arange(n1), np.arange(n2, n2 + n1)] = 1.0
    tableau[:, :n1, -1] = 1.0
    tableau[:, n1, :n2] = -np.sign(a[:, 0])  # -1.0 over a real column, -0.0 over padding
    basis = np.tile(np.arange(n2, n2 + n1), (k, 1))
    ok = np.ones(k, dtype=bool)
    pivoting = np.ones(k, dtype=bool)  # not yet optimal, not failed

    for _ in range(50 * (n1 + n2) + 200):  # Bland's rule terminates well before this
        negative = tableau[:, n1, :-1] < -_TOL
        pivoting &= negative.any(axis=1)
        if not pivoting.any():
            break
        entering = negative.argmax(axis=1)
        col = tableau[games, :, entering]  # the objective row last
        usable = pivoting[:, None] & (col[:, :n1] > _TOL)
        ratios = tableau[:, :n1, -1] / np.where(usable, col[:, :n1], 1.0)
        usable &= ratios < np.inf  # an infinite ratio never leaves
        ratios = np.where(usable, ratios, 0.0)  # finite, so no step meets inf - inf
        # the ratio test scans the rows in order, a game's best infinite until
        # its first usable row; ties within _TOL go to the lower basis variable
        best = np.where(usable[:, 0], ratios[:, 0], np.inf)
        best_var, leaving = basis[:, 0], np.zeros(k, dtype=int)
        for r in range(1, n1):
            ratio, var = ratios[:, r], basis[:, r]
            take = usable[:, r] & ((ratio < best - _TOL)
                                   | ((np.abs(ratio - best) <= _TOL) & (var < best_var)))
            best, best_var = np.where(take, ratio, best), np.where(take, var, best_var)
            leaving = np.where(take, r, leaving)
        found = best < np.inf
        ok &= found | ~pivoting  # no leaving row: unbounded
        pivoting &= found

        # rows of games that do not pivot are divided by 1.0 and left alone
        piv = tableau[games, leaving] / np.where(pivoting, col[games, leaving], 1.0)[:, None]
        tableau[games, leaving] = piv
        factors = np.where(pivoting[:, None], col, 0.0)[:, :, None]
        factors[games, leaving] = 0.0
        np.subtract(tableau, factors * piv[:, None, :], out=tableau, where=factors != 0.0)
        basis[games, leaving] = np.where(pivoting, entering, basis[games, leaving])
    else:
        ok &= ~pivoting

    y = np.zeros((k, n2))
    g, r = np.nonzero(basis < n2)
    y[g, basis[g, r]] = tableau[g, r, -1]
    duals = tableau[:, n1, n2:n2 + n1]
    return y, duals, ok


def _clean_rows(x):
    """Each row of x (K, n) normalized after dropping rounding residue, the
    entries below _TOL times the row's mass: (rows, ok), ok False where
    nothing is left (an empty strategy)."""
    x = np.where(x > _TOL * x.sum(axis=1, keepdims=True), x, 0.0)
    total = x.sum(axis=1, keepdims=True)
    ok = ~(total[:, 0] <= 0.0)
    return x / np.where(ok[:, None], total, 1.0), ok
