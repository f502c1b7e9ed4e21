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
    matrix of a `MatrixGame` is; it is not checked here.  A numerical
    failure (unbounded LP, no termination, empty strategy) raises SgError.
    """
    mat = np.asarray(matrix, dtype=float)
    y, duals = _solve_packing(onto_one_two(mat))

    beta = _clean_distribution(y)
    alpha = _clean_distribution(duals)
    value = float((alpha @ mat).min())
    return alpha, beta, value


def onto_one_two(mat):
    """mat mapped affinely onto [1, 2]; a constant matrix maps to all ones."""
    low = mat.min()
    return (mat - low) / ((mat.max() - low) or 1.0) + 1.0


def _solve_packing(a):
    """max sum(y) s.t. a y <= 1, y >= 0 for a with all entries in [1, 2].

    Returns (y, duals).
    """
    n1, n2 = a.shape
    # columns: y_0..y_{n2-1}, slacks s_0..s_{n1-1}, rhs
    tableau = np.zeros((n1 + 1, n2 + n1 + 1))
    tableau[:n1, :n2] = a
    tableau[:n1, n2:n2 + n1] = np.eye(n1)
    tableau[:n1, -1] = 1.0
    tableau[n1, :n2] = -1.0
    basis = list(range(n2, n2 + n1))

    max_pivots = 50 * (n1 + n2) + 200  # Bland's rule terminates well before this
    for _ in range(max_pivots):
        obj = tableau[n1, :-1]
        entering = -1
        for j in range(n2 + n1):
            if obj[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            break
        col = tableau[:n1, entering]
        rhs = tableau[:n1, -1]
        leaving = -1
        best_ratio = np.inf
        for r in range(n1):
            if col[r] > _TOL:
                ratio = rhs[r] / col[r]
                if ratio < best_ratio - _TOL or (
                        abs(ratio - best_ratio) <= _TOL
                        and (leaving < 0 or basis[r] < basis[leaving])):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            raise SgError("maximin LP unbounded; input matrix is malformed")
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    else:
        raise SgError("maximin simplex failed to terminate")

    y = np.zeros(n2)
    for r, var in enumerate(basis):
        if var < n2:
            y[var] = tableau[r, -1]
    duals = tableau[n1, n2:n2 + n1].copy()
    return y, duals


def _pivot(tableau, row, col):
    tableau[row] /= tableau[row, col]
    piv = tableau[row]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * piv


def _clean_distribution(x):
    # drop rounding residue: entries below _TOL relative to the total mass
    x = np.where(x > _TOL * x.sum(), x, 0.0)
    total = x.sum()
    if total <= 0.0:
        raise SgError("maximin LP produced an empty strategy")
    return x / total
