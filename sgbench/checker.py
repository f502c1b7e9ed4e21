"""Independent checks of the benchmark's outputs.

Nothing here calls an sgplan solver or certificate.  Policy values and
best replies are recomputed by a vectorised numpy dynamic program, stage
equilibrium gaps by direct matrix products, sparse node counts by their
closed form, and the discounted fixed point by `scipy.optimize.linprog`.
Every function takes plain arrays and returns a list of failure messages;
an empty list means the output passed.

Array conventions: payoffs have shape (n, n1, n2), transitions
(n, n1, n2, n).  A time-dependent strategy table has shape (n, H, k), with
index t the number of stages left after the current one, as in sgplan.
"""

from __future__ import annotations

import numpy as np

#: per-node equilibrium gap allowed, relative to the node's payoff scale
NODE_NASH_TOL = 1e-8
#: backup matrices and stored values must match their recomputation
BACKUP_TOL = 1e-10
#: exploitability allowed for exact policies, per-stage average units
EXPLOIT_TOL = 1e-8
#: exploitability may dip below zero by rounding only
NEGATIVE_GAP_TOL = 1e-10
#: sgplan's certificate must agree with the recomputed exploitability
CERT_AGREE_TOL = 1e-9
#: security-certificate shortfall allowed on converged discounted runs
SHORTFALL_TOL = 1e-6
#: Bellman residual of the security fixed point, as a multiple of 1 - gamma
FIXED_POINT_TOL = 1e-6


def stage_gaps(q1, q2, alpha, beta):
    """Each player's best unilateral gain at (alpha, beta) in the bimatrix
    games (q1, q2); leading axes broadcast."""
    row_pay = np.einsum("...ij,...j->...i", q1, beta)
    col_pay = np.einsum("...i,...ij->...j", alpha, q2)
    g1 = row_pay.max(axis=-1) - np.einsum("...i,...i->...", alpha, row_pay)
    g2 = col_pay.max(axis=-1) - np.einsum("...j,...j->...", col_pay, beta)
    return g1, g2


def exploitability(payoffs1, payoffs2, transitions, alpha, beta):
    """Per-stage exploitability of the pair (alpha, beta) from every state.

    Returns (gap1, gap2), each of shape (n,): the best-reply value minus
    the pair's value, divided by the horizon.
    """
    n, horizon = alpha.shape[:2]
    w1 = np.zeros(n)
    w2 = np.zeros(n)
    b1 = np.zeros(n)
    b2 = np.zeros(n)
    for t in range(horizon):
        a, b = alpha[:, t], beta[:, t]
        c1 = payoffs1 + transitions @ w1
        c2 = payoffs2 + transitions @ w2
        d1 = payoffs1 + transitions @ b1
        d2 = payoffs2 + transitions @ b2
        w1 = np.einsum("si,sij,sj->s", a, c1, b)
        w2 = np.einsum("si,sij,sj->s", a, c2, b)
        b1 = np.einsum("sij,sj->si", d1, b).max(axis=1)
        b2 = np.einsum("si,sij->sj", a, d2).max(axis=1)
    return (b1 - w1) / horizon, (b2 - w2) / horizon


def _certificate_agrees(reported, own, start, label):
    out = []
    for k, (rep, mine) in enumerate(zip(reported, own), start=1):
        expect = max(float(mine[start]), -NEGATIVE_GAP_TOL)
        if abs(rep - expect) > CERT_AGREE_TOL:
            out.append(f"{label}: certificate gap{k}={rep!r} but recomputed {expect!r}")
    return out


def check_finite(payoffs1, payoffs2, transitions, q1, q2, alpha, beta, values,
                 reported_gaps, start=0):
    """Finite-horizon Nash value iteration output.

    q1, q2: (n, H, n1, n2) backup matrices; alpha, beta: the policy pair;
    values: (n, H, 2) values of the selected profiles; reported_gaps:
    sgplan's certificate from `start`.
    """
    out = []
    horizon = q1.shape[1]
    for t in range(horizon):
        cont = 0.0 if t == 0 else transitions @ values[:, t - 1]
        for k, (q, pay) in enumerate(((q1, payoffs1), (q2, payoffs2))):
            expect = pay + (cont if t == 0 else cont[..., k])
            err = np.abs(q[:, t] - expect).max()
            if err > BACKUP_TOL:
                out.append(f"backup Q{k + 1}[:, t={t}] differs from M + P v by {err:.3g}")
    for k, q in enumerate((q1, q2)):
        own = np.einsum("sti,stij,stj->st", alpha, q, beta)
        err = np.abs(own - values[..., k]).max()
        if err > BACKUP_TOL:
            out.append(f"stored value{k + 1} differs from alpha Q beta by {err:.3g}")
    g1, g2 = stage_gaps(q1, q2, alpha, beta)
    scale = np.maximum(1.0, np.maximum(np.abs(q1).max(axis=(2, 3)), np.abs(q2).max(axis=(2, 3))))
    worst = (np.maximum(g1, g2) / scale).max()
    if worst > NODE_NASH_TOL:
        out.append(f"a selected profile has relative Nash gap {worst:.3g} in its backup matrices")
    e1, e2 = exploitability(payoffs1, payoffs2, transitions, alpha, beta)
    worst = max(e1.max(), e2.max())
    if worst > EXPLOIT_TOL:
        out.append(f"policy pair exploitable by {worst:.3g} per stage")
    out += _certificate_agrees(reported_gaps, (e1, e2), start, "finite")
    return out


def sparse_node_count(t, m, n1, n2):
    """Nodes one sparse_game call at depth t expands: sum_k (n1 n2 m)^k."""
    return sum((n1 * n2 * m) ** k for k in range(t + 1))


def check_sparse_call(t, m, nodes, q1, q2, alpha, beta):
    """One sparse_game result: its node count and the equilibrium property
    of its profile in its own sampled backup matrices.  m is None for the
    exact oracle, whose node count has no closed form."""
    out = []
    n1, n2 = q1.shape
    if m is not None and nodes != sparse_node_count(t, m, n1, n2):
        out.append(f"sparse call t={t} m={m} expanded {nodes} nodes, "
                   f"closed form {sparse_node_count(t, m, n1, n2)}")
    g1, g2 = stage_gaps(q1, q2, alpha, beta)
    scale = max(1.0, np.abs(q1).max(), np.abs(q2).max())
    if max(g1, g2) > NODE_NASH_TOL * scale:
        out.append(f"sparse call t={t} m={m}: profile has Nash gap {max(g1, g2):.3g} "
                   "in its q_matrices")
    return out


def check_policy_gaps(payoffs1, payoffs2, transitions, alpha, beta, reported_gaps,
                      start=0, exact=False):
    """Certificate of a policy pair: recomputed exploitability is never
    below -1e-10, sgplan's certificate agrees with it, and for an exact
    (oracle) pair it is at most 1e-8 from every state."""
    out = []
    e1, e2 = exploitability(payoffs1, payoffs2, transitions, alpha, beta)
    low = min(e1.min(), e2.min())
    if low < -NEGATIVE_GAP_TOL:
        out.append(f"recomputed exploitability {low:.3g} is negative")
    if exact and max(e1.max(), e2.max()) > EXPLOIT_TOL:
        out.append(f"exact pair exploitable by {max(e1.max(), e2.max()):.3g} per stage")
    if exact and max(reported_gaps) > EXPLOIT_TOL:
        out.append(f"certificate of the exact pair is {max(reported_gaps)!r}")
    out += _certificate_agrees(reported_gaps, (e1, e2), start, "policy pair")
    return out


def maximin_value(matrix):
    """Value the row player can guarantee in the zero-sum game `matrix`,
    by linear programming: max v s.t. alpha^T A >= v, alpha in the simplex."""
    from scipy.optimize import linprog  # loaded after the peak-memory reading

    n1, n2 = matrix.shape
    c = np.zeros(n1 + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-matrix.T, np.ones((n2, 1))])
    a_eq = np.zeros((1, n1 + 1))
    a_eq[0, :n1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n2), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * n1 + [(None, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return -res.fun


def check_discounted(payoffs1, payoffs2, transitions, gamma, values1, values2,
                     alpha, beta, converged, contraction_ok, shortfalls, zero_sum):
    """Discounted security value iteration output.

    alpha (n, n1), beta (n, n2): the stationary policy pair.  The values
    must be a fixed point of each player's security backup, state by
    state, and each policy must guarantee its value in that backup.
    """
    out = []
    if not converged:
        out.append("infinite_vi did not converge")
    if zero_sum and not contraction_ok:
        out.append("contraction_check failed on a zero-sum game")
    if max(shortfalls) > SHORTFALL_TOL:
        out.append(f"security certificate shortfall {max(shortfalls)!r}")
    tol = FIXED_POINT_TOL * (1.0 - gamma)
    q1 = payoffs1 + gamma * (transitions @ values1)
    q2 = payoffs2 + gamma * (transitions @ values2)
    for s in range(q1.shape[0]):
        for k, (mat, v, pol) in enumerate(((q1[s], values1[s], alpha[s]),
                                           (q2[s].T, values2[s], beta[s])), start=1):
            resid = abs(maximin_value(mat) - v)
            if resid > tol:
                out.append(f"state {s}: value{k} is off the security fixed point by {resid:.3g}")
            short = v - (pol @ mat).min()
            if short > tol:
                out.append(f"state {s}: policy{k} guarantees {short:.3g} less than value{k}")
    return out
