"""Independent oracles used by the test suite.

Everything in this module is deliberately written with different machinery
than the library under test: exact rational arithmetic for equilibrium
enumeration, scipy's LP solver for game values, and plain recursive
evaluation (dicts and Fractions/floats, no shared backup code) for policy
values.  Keep it that way -- these functions are the reference the fast
paths are checked against.

The one exception is `scalar_maximin`: a pure-Python Bland-rule tableau,
one pivot at a time, on the library's own affine map and tolerance.  The
lockstep simplex (`simplex.maximin_stack`) promises its bits exactly, so
the reference must run the same arithmetic, not an independent method.
`scalar_derive_seed` is another: the seed rule is defined by its bits,
so the reference is the rule itself, in Python ints where the library
folds uint64 arrays.  `pairwise_nash_stack` and `pairwise_equilibria` are
the third: the support walk one support pair at a time, each pair tested
on the games no earlier pair settled, kept as the reference for the
library's walk by support size, which promises the same bits.
`cell_by_cell_game` is the fourth: `random_game`'s draws one cell at a
time through `Generator.choice` and `uniform`, the reference for its
block draw from the raw PCG64 stream, which promises the same bits.
"""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
from scipy.optimize import linprog

from sgplan import DegenerateGame, EnumerationCapExceeded, SgError
from sgplan.matrix_games import (_COND_LIMIT, _TIE_TOL, ENUMERATION_CAP, SUPPORT_TOL,
                                 VERIFY_TOL, _gaps, _scale, _vertex_pairs)
from sgplan.simplex import _TOL, onto_one_two

UNDERDETERMINED = "underdetermined"


def _solve_exact(rows, rhs):
    """Gaussian elimination over Fractions.

    Returns the unique solution as a list of Fractions, None if the system
    is inconsistent, or UNDERDETERMINED if solutions form a continuum.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pr = aug[r]
        inv = Fraction(1) / pr[c]
        aug[r] = [x * inv for x in pr]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None  # 0 = nonzero: inconsistent
    if len(pivot_cols) < n:
        return UNDERDETERMINED
    sol = [Fraction(0)] * n
    for i, c in enumerate(pivot_cols):
        sol[c] = aug[i][n]
    return sol


def enumerate_nash_exact(payoff1, payoff2):
    """All Nash equilibria of a small bimatrix game, by brute-force support
    enumeration in exact rational arithmetic.

    Payoff entries must be exactly representable (ints or Fractions).
    Returns a list of (alpha, beta, v1, v2) with Fraction entries, ordered
    by ascending (|support1|+|support2|, |support1|, support1, support2).
    Support pairs whose indifference system is underdetermined are skipped
    (degenerate games may have continua this oracle does not report).
    """
    m1 = [[Fraction(x) for x in row] for row in payoff1]
    m2 = [[Fraction(x) for x in row] for row in payoff2]
    n1, n2 = len(m1), len(m1[0])
    found = []
    pairs = []
    for sup1 in _all_supports(n1):
        for sup2 in _all_supports(n2):
            pairs.append((sup1, sup2))
    pairs.sort(key=lambda p: (len(p[0]) + len(p[1]), len(p[0]), p[0], p[1]))
    for sup1, sup2 in pairs:
        res = _try_support_pair(m1, m2, n1, n2, sup1, sup2)
        if res is not None:
            found.append(res)
    return found


def _all_supports(n):
    out = []
    for k in range(1, n + 1):
        out.extend(combinations(range(n), k))
    return out


def _try_support_pair(m1, m2, n1, n2, sup1, sup2):
    # beta and v1 from player 1's indifference over sup1
    rows = []
    rhs = []
    for i in sup1:
        rows.append([m1[i][j] for j in sup2] + [Fraction(-1)])
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * len(sup2) + [Fraction(0)])
    rhs.append(Fraction(1))
    sol_b = _solve_exact(rows, rhs)
    if sol_b is None or sol_b == UNDERDETERMINED:
        return None
    beta_s, v1 = sol_b[:-1], sol_b[-1]

    # alpha and v2 from player 2's indifference over sup2
    rows = []
    rhs = []
    for j in sup2:
        rows.append([m2[i][j] for i in sup1] + [Fraction(-1)])
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * len(sup1) + [Fraction(0)])
    rhs.append(Fraction(1))
    sol_a = _solve_exact(rows, rhs)
    if sol_a is None or sol_a == UNDERDETERMINED:
        return None
    alpha_s, v2 = sol_a[:-1], sol_a[-1]

    if any(p <= 0 for p in alpha_s) or any(p <= 0 for p in beta_s):
        return None
    alpha = [Fraction(0)] * n1
    beta = [Fraction(0)] * n2
    for i, p in zip(sup1, alpha_s):
        alpha[i] = p
    for j, p in zip(sup2, beta_s):
        beta[j] = p
    # no profitable pure deviation outside the supports
    for i in range(n1):
        if sum(m1[i][j] * beta[j] for j in range(n2)) > v1:
            return None
    for j in range(n2):
        if sum(m2[i][j] * alpha[i] for i in range(n1)) > v2:
            return None
    return alpha, beta, v1, v2


def nash_gap_exact(payoff1, payoff2, alpha, beta):
    """Exact-rational epsilon-Nash gaps of a (float) profile in an integer
    game.  Floats convert to Fractions losslessly, so the only tolerance is
    the caller's."""
    m1 = [[Fraction(x) for x in row] for row in payoff1]
    m2 = [[Fraction(x) for x in row] for row in payoff2]
    a = [Fraction(float(p)) for p in alpha]
    b = [Fraction(float(p)) for p in beta]
    n1, n2 = len(m1), len(m1[0])
    row_payoffs = [sum(m1[i][j] * b[j] for j in range(n2)) for i in range(n1)]
    col_payoffs = [sum(m2[i][j] * a[i] for i in range(n1)) for j in range(n2)]
    v1 = sum(a[i] * row_payoffs[i] for i in range(n1))
    v2 = sum(col_payoffs[j] * b[j] for j in range(n2))
    return max(row_payoffs) - v1, max(col_payoffs) - v2


def lp_zero_sum_value(matrix):
    """Value and maximin row strategy of the zero-sum game with row payoff
    `matrix`, via scipy linprog (independent of the in-repo simplex).

    max v  s.t.  matrix^T alpha >= v,  sum(alpha) = 1,  alpha >= 0.
    """
    mat = np.asarray(matrix, dtype=float)
    n1, n2 = mat.shape
    # variables: alpha_1..alpha_n1, v ; minimize -v
    c = np.zeros(n1 + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-mat.T, np.ones((n2, 1))])
    b_ub = np.zeros(n2)
    a_eq = np.zeros((1, n1 + 1))
    a_eq[0, :n1] = 1.0
    bounds = [(0, None)] * n1 + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    assert res.success, res.message
    return -res.fun, res.x[:n1]


def eval_policy_recursive(game, strat1, strat2, state, t, player):
    """Expected undiscounted payoff sum over t+1 stages, by direct recursion.

    `game` is a plain mapping with keys 'payoffs1', 'payoffs2' (nested
    lists [s][i][j]) and 'transitions' (nested lists [s][i][j][s']).
    strat_k(s, t) -> probability list.  Memoised on (state, t).
    """
    pay = game["payoffs1"] if player == 1 else game["payoffs2"]
    trans = game["transitions"]
    cache = {}

    def rec(s, tt):
        key = (s, tt)
        if key in cache:
            return cache[key]
        a = strat1(s, tt)
        b = strat2(s, tt)
        total = 0.0
        for i, pa in enumerate(a):
            if pa == 0.0:
                continue
            for j, pb in enumerate(b):
                if pb == 0.0:
                    continue
                val = pay[s][i][j]
                if tt > 0:
                    val += sum(p * rec(s2, tt - 1)
                               for s2, p in enumerate(trans[s][i][j]) if p)
                total += pa * pb * val
        cache[key] = total
        return total

    return rec(state, t)


def brute_force_best_response(game, opp_strat, horizon, player, start):
    """Best per-stage-average return for `player` over all deterministic
    time-dependent policies, opponent fixed.  Exponential; tiny games only.
    """
    n_states = len(game["payoffs1"])
    n_act = len(game["payoffs1"][0]) if player == 1 else len(game["payoffs1"][0][0])
    slots = [(s, t) for s in range(n_states) for t in range(horizon)]
    best = -np.inf
    for assignment in product(range(n_act), repeat=len(slots)):
        table = dict(zip(slots, assignment))

        def pure(s, t):
            probs = [0.0] * n_act
            probs[table[(s, t)]] = 1.0
            return probs

        if player == 1:
            val = eval_policy_recursive(game, pure, opp_strat, start, horizon - 1, 1)
        else:
            val = eval_policy_recursive(game, opp_strat, pure, start, horizon - 1, 2)
        best = max(best, val)
    return best / horizon


def scalar_zero_sum_dp(game, horizon):
    """Finite-horizon values of a zero-sum stochastic game by backing up
    scalar game values with the LP oracle.  Returns v[t][s] (payoff sums).
    """
    pay = game["payoffs1"]
    trans = game["transitions"]
    n_states = len(pay)
    values = [[0.0] * n_states for _ in range(horizon)]
    for s in range(n_states):
        values[0][s], _ = lp_zero_sum_value(pay[s])
    for t in range(1, horizon):
        for s in range(n_states):
            backed = [[pay[s][i][j]
                       + sum(p * values[t - 1][s2]
                             for s2, p in enumerate(trans[s][i][j]))
                       for j in range(len(pay[s][i]))]
                      for i in range(len(pay[s]))]
            values[t][s], _ = lp_zero_sum_value(backed)
    return values


def scalar_maximin(mat):
    """(alpha, beta, value) of the row player of mat, one tableau pivoted
    row by row; raises SgError where the LP fails."""
    y, duals = _solve_packing(onto_one_two(mat))
    alpha, beta = _clean_distribution(duals), _clean_distribution(y)
    return alpha, beta, float((alpha @ mat).min())


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


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def scalar_derive_seed(parent, *fields):
    """The splitmix64-v1 seed rule in Python ints: fold each field into
    the parent seed, one mix per field."""
    h = parent & _MASK64
    for f in fields:
        h = _mix64(h ^ _mix64(f + _GOLDEN))
    return h


def support_pairs(n1, n2):
    """Support pairs of equal size k in the canonical order: ascending
    (k, lex row support, lex column support)."""
    for k in range(1, min(n1, n2) + 1):
        for sup1 in combinations(range(n1), k):
            for sup2 in combinations(range(n2), k):
                yield sup1, sup2


def _pairwise_solve(a, b):
    # a singular system fails np.linalg.solve for the whole stack: one at a time
    n = a.shape[-1]
    rhs = np.empty(b.shape + (n + 1,))
    rhs[..., 0] = b
    rhs[..., 1:] = np.eye(n)
    try:
        aug = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros(b.shape), np.zeros(1, dtype=bool)
        parts = [_pairwise_solve(a[g:g + 1], b[g:g + 1]) for g in range(len(a))]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    with np.errstate(over="ignore"):
        cond = np.abs(a).sum(axis=-1).max(axis=-1) * np.abs(aug[..., 1:]).sum(axis=-1).max(axis=-1)
    return aug[..., 0], cond <= _COND_LIMIT


def _pairwise_indifference(blocks):
    n, k1, k2 = blocks.shape
    system = np.zeros((n, k1 + 1, k2 + 1))
    system[:, :k1, :k2] = blocks
    system[:, :k1, k2] = -1.0
    system[:, k1, :k2] = 1.0
    rhs = np.zeros((n, k1 + 1))
    rhs[:, k1] = 1.0
    x, solved = _pairwise_solve(system, rhs)
    return x[:, :k2], solved


def pairwise_candidates(m1, m2, sup1, sup2, scale):
    """(games, alpha, beta, values1, values2) of the games of the stack
    (m1, m2), (B, n1, n2), accepted on the one support pair (sup1, sup2),
    or None if no game is."""
    n1, n2 = m1.shape[1:]
    tie = _TIE_TOL * scale
    if len(sup1) == 1:
        i, j = sup1[0], sup2[0]
        v1, v2 = m1[:, i, j], m2[:, i, j]
        games = np.flatnonzero((m1[:, :, j].max(axis=1) <= v1 + tie)
                               & (m2[:, i, :].max(axis=1) <= v2 + tie))
        if not games.size:
            return None
        alpha, beta = np.zeros((games.size, n1)), np.zeros((games.size, n2))
        alpha[:, i] = beta[:, j] = 1.0
        return games, alpha, beta, v1[games], v2[games]
    tol = SUPPORT_TOL * scale
    r1, c2 = np.array(sup1), np.array(sup2)
    beta_s, solved = _pairwise_indifference(m1[:, r1[:, None], c2])
    games = np.flatnonzero(solved & (beta_s.min(axis=1) > tol))
    if not games.size:
        return None
    alpha_s, solved = _pairwise_indifference(
        m2[games[:, None, None], r1[:, None], c2].transpose(0, 2, 1))
    keep = solved & (alpha_s.min(axis=1) > tol[games])
    games, alpha_s, beta_s = games[keep], alpha_s[keep], beta_s[games[keep]]
    if not games.size:
        return None
    alpha, beta = np.zeros((games.size, n1)), np.zeros((games.size, n2))
    alpha[:, r1] = alpha_s / alpha_s.sum(axis=1, keepdims=True)
    beta[:, c2] = beta_s / beta_s.sum(axis=1, keepdims=True)
    if games.size < len(m1):  # a stack of one keeps its strides and matmul bits
        m1, m2 = m1[games], m2[games]
    alpha_row, beta_col = alpha[:, None, :], beta[:, :, None]
    pay1 = (m1 @ beta_col)[:, :, 0]
    pay2 = (alpha_row @ m2)[:, 0, :]
    tie, verify = tie[games], VERIFY_TOL * scale[games]
    v2 = (pay2[:, None, :] @ beta_col)[:, 0, 0]
    keep = ((pay1.max(axis=1) <= pay1[:, r1].max(axis=1) + tie)
            & (pay2.max(axis=1) <= pay2[:, c2].max(axis=1) + tie)
            & (pay1.max(axis=1) - (alpha_row @ pay1[:, :, None])[:, 0, 0] <= verify)
            & (pay2.max(axis=1) - v2 <= verify))
    if not keep.any():
        return None
    v1 = ((alpha_row @ m1) @ beta_col)[:, 0, 0]
    return games[keep], alpha[keep], beta[keep], v1[keep], v2[keep]


def pairwise_nash_stack(m1, m2, rows, cols, values1, values2):
    """`matrix_games._nash_stack` one support pair at a time: each pair is
    tested on the games no earlier pair settled.  Returns the games left."""
    n1, n2 = m1.shape[1:]
    if max(n1, n2) > ENUMERATION_CAP:
        return np.arange(len(m1))
    settled = np.zeros(len(m1), dtype=bool)
    scale = np.maximum(np.abs(m1).max(axis=(1, 2), initial=1.0),
                       np.abs(m2).max(axis=(1, 2), initial=1.0))
    for sup1, sup2 in support_pairs(n1, n2):
        games = np.flatnonzero(~settled)
        if not games.size:
            break
        found = pairwise_candidates(m1[games], m2[games], sup1, sup2, scale[games])
        if found is None:
            continue
        hit, alpha, beta, v1, v2 = found
        hit = games[hit]
        rows[hit], cols[hit], values1[hit], values2[hit] = alpha, beta, v1, v2
        settled[hit] = True
    return np.flatnonzero(~settled)


def pairwise_equilibria(m1, m2, cap=ENUMERATION_CAP):
    """`matrix_games._equilibria` one support pair at a time on a stack of
    one, then the library's vertex fallback."""
    n1, n2 = m1.shape
    if n1 > cap or n2 > cap:
        raise EnumerationCapExceeded(f"game is {n1}x{n2}")
    scale = _scale(m1, m2)
    found = False
    for sup1, sup2 in support_pairs(n1, n2):
        accepted = pairwise_candidates(m1[None], m2[None], sup1, sup2, np.array([scale]))
        if accepted is not None:
            found = True
            _, alpha, beta, v1, v2 = accepted
            yield alpha[0], beta[0], float(v1[0]), float(v2[0])
    if found:
        return
    for eq in _vertex_pairs(m1, m2):
        if max(_gaps(m1, m2, eq[0], eq[1])) <= VERIFY_TOL * scale:
            found = True
            yield eq
    if not found:
        raise DegenerateGame("no equilibrium survived verification")


def cell_by_cell_game(n_states, n_row_actions, n_col_actions, branching, payoff_scale, seed,
                      zero_sum=False):
    """`random_game`'s (payoffs1, payoffs2, transitions), drawn one
    (s, i, j) cell at a time."""
    rng = np.random.default_rng(seed)
    shape = (n_states, n_row_actions, n_col_actions)
    payoffs1 = rng.uniform(-payoff_scale, payoff_scale, shape)
    if zero_sum:
        payoffs2 = -payoffs1
    else:
        payoffs2 = rng.uniform(-payoff_scale, payoff_scale, shape)
    transitions = np.zeros(shape + (n_states,))
    for s in range(n_states):
        for i in range(n_row_actions):
            for j in range(n_col_actions):
                succ = rng.choice(n_states, size=branching, replace=False)
                weights = 1.0 - rng.uniform(size=branching)  # in (0, 1]
                transitions[s, i, j, succ] = weights / weights.sum()
    return payoffs1, payoffs2, transitions
