"""The certificate DPs against their former state-by-state loops, bit for bit.

`policy_value`, `best_response_dp` and `discounted_planner._worst_case_value`
sweep every state at once over dense strategy arrays.  The references below
are the loops they replaced, reading one strategy at a time through
`probs`; every comparison is exact (`==` / `array_equal`), no tolerance.
"""

import numpy as np
import pytest

from sgplan import (MissingPolicyEntry, StationaryPolicy, TimeDependentPolicy,
                    best_response_dp, finite_vi, infinite_vi, policy_value,
                    random_game)
from sgplan.discounted_planner import _worst_case_value

HORIZON = 8
# (n_states, n1, n2, branching): many states, many actions, one row action
SIZES = [(100, 3, 3, 3), (2, 8, 8, 2), (30, 1, 3, 3)]
# infinite_vi needs about 170 sweeps at gamma = 0.9; fewer states keep it quick
SECURITY_SIZES = [(12, 3, 3, 3), (2, 8, 8, 2), (10, 1, 3, 3)]


def policy_value_reference(game, policy1, policy2, horizon, start):
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


def best_response_reference(game, opponent, horizon, player, start):
    """Returns ({(s, t): one-hot probs}, per-stage value from start)."""
    n_states = game.n_states
    n_mine = game.n_row_actions if player == 1 else game.n_col_actions
    best = np.zeros(n_states)
    table = {}
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
    return table, float(best[start]) / horizon


def worst_case_reference(game, policy, gamma, player, tol):
    n_states = game.n_states
    if player == 1:
        rewards = np.stack([policy.probs(s) @ game.payoffs1[s] for s in range(n_states)])
        trans = np.stack([np.einsum("i,ijs->js", policy.probs(s), game.transitions[s])
                          for s in range(n_states)])
    else:
        rewards = np.stack([game.payoffs2[s] @ policy.probs(s) for s in range(n_states)])
        trans = np.stack([np.einsum("j,ijs->is", policy.probs(s), game.transitions[s])
                          for s in range(n_states)])
    w = np.zeros(n_states)
    threshold = tol * (1.0 - gamma) / gamma if gamma > 0 else 0.0
    while True:
        new = (rewards + gamma * (trans @ w)).min(axis=1)
        change = np.abs(new - w).max()
        w = new
        if change <= threshold:
            return w


def random_strategies(rng, shape):
    """Random mixed strategies along the last axis, with a few pure rows."""
    probs = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    pure = rng.random(shape[:-1]) < 0.1
    probs[pure] = np.eye(shape[-1])[rng.integers(shape[-1], size=pure.sum())]
    return probs


def finite_pairs(size):
    """(game, policy1, policy2) for the planner's pair and a random pair."""
    game = random_game(*size, 1.0, seed=sum(size))
    planned = finite_vi(game, HORIZON)
    rng = np.random.default_rng(sum(size))
    n_states, n1, n2, _ = size
    mixed = (TimeDependentPolicy(HORIZON, n1, random_strategies(rng, (n_states, HORIZON, n1))),
             TimeDependentPolicy(HORIZON, n2, random_strategies(rng, (n_states, HORIZON, n2))))
    return [(game, planned.policy1, planned.policy2), (game, *mixed)]


@pytest.fixture(scope="module", params=SIZES, ids=lambda size: "x".join(map(str, size[:3])))
def finite_cases(request):
    return finite_pairs(request.param)


class TestFiniteCertificates:
    def test_policy_value_matches_loop(self, finite_cases):
        for game, pol1, pol2 in finite_cases:
            for start in (0, game.n_states - 1):
                want = policy_value_reference(game, pol1, pol2, HORIZON, start)
                assert policy_value(game, pol1, pol2, HORIZON, start) == want

    def test_best_response_matches_loop(self, finite_cases):
        for game, pol1, pol2 in finite_cases:
            for player, opponent in ((1, pol2), (2, pol1)):
                for start in (0, game.n_states - 1):
                    table, want = best_response_reference(game, opponent, HORIZON,
                                                          player, start)
                    policy, got = best_response_dp(game, opponent, HORIZON, player, start)
                    assert got == want
                    assert [(s, t) for s, t, _ in policy.entries()] == sorted(table)
                    for s, t, probs in policy.entries():
                        assert np.array_equal(probs, table[(s, t)])

    def test_shorter_horizon_reads_a_prefix(self, finite_cases):
        game, pol1, pol2 = finite_cases[1]
        want = policy_value_reference(game, pol1, pol2, 3, 0)
        assert policy_value(game, pol1, pol2, 3, 0) == want


@pytest.mark.parametrize("size", SECURITY_SIZES, ids=lambda size: "x".join(map(str, size[:3])))
def test_worst_case_value_matches_loop(size):
    gamma, tol = 0.9, 1e-9
    game = random_game(*size, 1.0, seed=sum(size), zero_sum=size[1] == size[2])
    result = infinite_vi(game, gamma)
    rng = np.random.default_rng(sum(size))
    n_states, n1, n2, _ = size
    policies = [(result.policy1, result.policy2),
                (StationaryPolicy(random_strategies(rng, (n_states, n1))),
                 StationaryPolicy(random_strategies(rng, (n_states, n2))))]
    for pol1, pol2 in policies:
        for player, policy in ((1, pol1), (2, pol2)):
            want = worst_case_reference(game, policy, gamma, player, tol)
            assert np.array_equal(_worst_case_value(game, policy, gamma, player, tol), want)


class TestGaps:
    def test_finite_certificates_raise_on_gap(self):
        game, pol1, pol2 = finite_pairs(SIZES[2])[1]
        strategies = np.array(pol1.strategies)
        strategies[4, 2] = np.nan
        holed = TimeDependentPolicy(HORIZON, game.n_row_actions, strategies)
        with pytest.raises(MissingPolicyEntry, match=r"\(state=4, t=2\)"):
            policy_value(game, holed, pol2, HORIZON)
        with pytest.raises(MissingPolicyEntry, match=r"\(state=4, t=2\)"):
            best_response_dp(game, holed, HORIZON, 2)
        with pytest.raises(MissingPolicyEntry, match=r"\(state=4, t=2\)"):
            policy_value_reference(game, holed, pol2, HORIZON, 0)

    def test_too_few_states_or_steps_is_a_gap(self):
        game, pol1, pol2 = finite_pairs(SIZES[2])[1]
        with pytest.raises(MissingPolicyEntry, match=r"\(state=0, t=8\)"):
            policy_value(game, pol1, pol2, HORIZON + 1)
        short = TimeDependentPolicy(HORIZON, game.n_col_actions, pol2.strategies[:-1])
        with pytest.raises(MissingPolicyEntry, match=r"\(state=29, t=0\)"):
            best_response_dp(game, short, HORIZON, 1)

    def test_worst_case_value_raises_on_gap(self):
        game = random_game(*SECURITY_SIZES[0], 1.0, seed=0, zero_sum=True)
        strategies = np.full((game.n_states, game.n_row_actions), 1.0 / game.n_row_actions)
        strategies[5] = np.nan
        with pytest.raises(MissingPolicyEntry, match="state 5"):
            _worst_case_value(game, StationaryPolicy(strategies), 0.9, 1, 1e-9)
