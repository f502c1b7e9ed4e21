"""Tests of the independent checker: real planner outputs pass, and each
check rejects an output with one corruption.

    PYTHONPATH=src python3 -m pytest -q sgbench
"""

import numpy as np
import pytest

from sgplan import (as_generative, contraction_check, exact_sparse_game, finite_vi,
                    infinite_vi, nash_certificate, random_game, security_certificate,
                    sparse_game)

import checker
from workloads import game_arrays, policy_array

H = 4
GAMMA = 0.9


def worst_reply(payoff, opponent):
    """Pure strategy with the lowest payoff against the opponent's mix."""
    probs = np.zeros(payoff.shape[0])
    probs[int(np.argmin(payoff @ opponent))] = 1.0
    return probs


@pytest.fixture(scope="module")
def finite():
    game = random_game(6, 3, 3, 3, 1.0, seed=1)
    res = finite_vi(game, H)
    n = game.n_states
    return {
        "arrays": game_arrays(game),
        "q1": res.table.q1,
        "q2": res.table.q2,
        "alpha": policy_array(res.policy1, n, H),
        "beta": policy_array(res.policy2, n, H),
        "values": np.array([[(p.value1, p.value2) for p in row] for row in res.table.profiles]),
        "gaps": nash_certificate(game, res.policy1, res.policy2, H),
    }


def check_finite(f, **changes):
    f = {**f, **changes}
    return checker.check_finite(*f["arrays"], f["q1"], f["q2"], f["alpha"], f["beta"],
                                f["values"], f["gaps"])


def test_finite_accepts_planner_output(finite):
    assert check_finite(finite) == []


def test_finite_rejects_perturbed_policy(finite):
    alpha = finite["alpha"].copy()
    alpha[0, H - 1] = worst_reply(finite["q1"][0, H - 1], finite["beta"][0, H - 1])
    assert any("exploitable" in msg for msg in check_finite(finite, alpha=alpha))


def test_finite_rejects_shifted_value(finite):
    values = finite["values"].copy()
    values[2, 1, 0] += 1e-6
    assert any("stored value1" in msg for msg in check_finite(finite, values=values))


def test_finite_rejects_shifted_backup_matrix(finite):
    q1 = finite["q1"].copy()
    q1[3, 2] += 1e-6
    assert any("backup Q1" in msg for msg in check_finite(finite, q1=q1))


def test_finite_rejects_wrong_certificate(finite):
    assert any("certificate gap2" in msg
               for msg in check_finite(finite, gaps=(finite["gaps"][0], 1e-3)))


@pytest.fixture(scope="module")
def fixture_game():
    return random_game(3, 2, 2, 2, 1.0, seed=7)


def test_sparse_call_checks(fixture_game):
    res = sparse_game(as_generative(fixture_game), 0, 2, 3, seed=5)
    q1, q2 = res.q_matrices
    row, col = res.profile.row.probs, res.profile.col.probs
    assert res.nodes_expanded == 1 + 12 + 144
    assert checker.check_sparse_call(2, 3, res.nodes_expanded, q1, q2, row, col) == []
    wrong = checker.check_sparse_call(2, 3, res.nodes_expanded + 1, q1, q2, row, col)
    assert any("closed form" in msg for msg in wrong)
    bad_row = worst_reply(q1, col)
    assert not np.array_equal(bad_row, row)
    assert any("Nash gap" in msg for msg in
               checker.check_sparse_call(2, 3, res.nodes_expanded, q1, q2, bad_row, col))


def test_oracle_gap_checks(fixture_game):
    n = fixture_game.n_states
    plans = [[exact_sparse_game(fixture_game, s, t) for t in range(H)] for s in range(n)]
    alpha = np.array([[p.profile.row.probs for p in row] for row in plans])
    beta = np.array([[p.profile.col.probs for p in row] for row in plans])
    arrays = game_arrays(fixture_game)
    gaps = (0.0, 0.0)
    assert checker.check_policy_gaps(*arrays, alpha, beta, gaps, exact=True) == []
    bad = alpha.copy()
    bad[0, H - 1] = worst_reply(plans[0][H - 1].q_matrices[0], beta[0, H - 1])
    assert any("exact pair exploitable" in msg
               for msg in checker.check_policy_gaps(*arrays, bad, beta, gaps, exact=True))
    assert any("certificate gap1" in msg
               for msg in checker.check_policy_gaps(*arrays, alpha, beta, (-1e-3, 0.0)))


@pytest.fixture(scope="module")
def discounted():
    game = random_game(5, 2, 3, 2, 1.0, seed=3, zero_sum=True)
    res = infinite_vi(game, GAMMA)
    n = game.n_states
    return {
        "arrays": game_arrays(game),
        "values1": res.values1,
        "values2": res.values2,
        "alpha": np.array([res.policy1.probs(s) for s in range(n)]),
        "beta": np.array([res.policy2.probs(s) for s in range(n)]),
        "converged": res.converged,
        "contraction_ok": contraction_check(res.deltas, GAMMA).ok,
        "shortfalls": security_certificate(game, res.policy1, res.policy2, GAMMA,
                                           res.values1, res.values2),
    }


def check_discounted(d, **changes):
    d = {**d, **changes}
    return checker.check_discounted(*d["arrays"], GAMMA, d["values1"], d["values2"],
                                    d["alpha"], d["beta"], d["converged"],
                                    d["contraction_ok"], d["shortfalls"], True)


def test_discounted_accepts_planner_output(discounted):
    assert check_discounted(discounted) == []


def test_discounted_rejects_shifted_value(discounted):
    values2 = discounted["values2"].copy()
    values2[1] += 1e-5
    assert any("off the security fixed point" in msg
               for msg in check_discounted(discounted, values2=values2))


def test_discounted_rejects_perturbed_policy(discounted):
    p1 = discounted["arrays"][0]
    q1 = p1[0] + GAMMA * (discounted["arrays"][2][0] @ discounted["values1"])
    alpha = discounted["alpha"].copy()
    alpha[0] = worst_reply(q1, discounted["beta"][0])
    assert any("policy1 guarantees" in msg for msg in check_discounted(discounted, alpha=alpha))


@pytest.mark.parametrize("change, text", [
    ({"converged": False}, "did not converge"),
    ({"contraction_ok": False}, "contraction_check failed"),
    ({"shortfalls": (0.0, 1e-4)}, "shortfall"),
])
def test_discounted_rejects_failed_certificates(discounted, change, text):
    assert any(text in msg for msg in check_discounted(discounted, **change))
