import itertools

import numpy as np
import pytest

from sgplan import (DegenerateGame, EnumerationCapExceeded, MatrixGame, SelectionFailure,
                    TimeDependentPolicy, best_response_dp, finite_vi, infinite_vi,
                    nash_certificate, nash_select, policy_value, random_game, security_select)
from sgplan import matrix_games, simplex
from sgplan.finite_planner import select_level

from conftest import game_as_dict, policy_as_fn
from test_matrix_games import TestBitContract as BitContract
from oracles import (brute_force_best_response, eval_policy_recursive,
                     scalar_zero_sum_dp)


def constant_policy(horizon, n_states, probs):
    probs = np.asarray(probs, dtype=float)
    return TimeDependentPolicy(horizon, probs.size,
                               {(s, t): probs for s in range(n_states)
                                for t in range(horizon)})


class TestFiniteVI:
    def test_repeated_pd_defects_everywhere(self, repeated_pd):
        result = finite_vi(repeated_pd, 3)
        for t in range(3):
            np.testing.assert_array_equal(result.policy1.probs(0, t), [0, 1])
            np.testing.assert_array_equal(result.policy2.probs(0, t), [0, 1])
        # three stages of mutual defection sum to 3; per-stage average 1
        assert result.table.value(1, 0, 2) == pytest.approx(3.0, abs=1e-12)
        v1, _ = policy_value(repeated_pd, result.policy1, result.policy2, 3, 0)
        assert v1 == pytest.approx(1.0, abs=1e-12)

    def test_repeated_matching_pennies(self, repeated_mp):
        result = finite_vi(repeated_mp, 4)
        for t in range(4):
            np.testing.assert_allclose(result.policy1.probs(0, t), [0.5, 0.5], atol=1e-12)
            np.testing.assert_allclose(result.policy2.probs(0, t), [0.5, 0.5], atol=1e-12)
            assert result.table.value(1, 0, t) == pytest.approx(0.0, abs=1e-9)

    def test_zero_sum_matches_scalar_dp_oracle(self):
        game = random_game(5, 2, 2, 3, 1.0, seed=21, zero_sum=True)
        horizon = 6
        result = finite_vi(game, horizon)
        oracle = scalar_zero_sum_dp(game_as_dict(game), horizon)
        for t in range(horizon):
            for s in range(game.n_states):
                assert result.table.value(1, s, t) == pytest.approx(oracle[t][s], abs=1e-9)

    def test_level_zero_is_stage_game(self):
        game = random_game(4, 3, 2, 2, 1.0, seed=3)
        result = finite_vi(game, 2)
        for s in range(4):
            np.testing.assert_array_equal(result.table.q(1, s, 0), game.payoffs1[s])
            np.testing.assert_array_equal(result.table.q(2, s, 0), game.payoffs2[s])

    def test_horizon_one_reduces_to_stage_selection(self):
        game = random_game(4, 2, 2, 2, 1.0, seed=13)
        result = finite_vi(game, 1)
        for s in range(4):
            prof = nash_select(game.stage_game(s))
            np.testing.assert_array_equal(result.policy1.probs(s, 0), prof.row.probs)
            np.testing.assert_array_equal(result.policy2.probs(s, 0), prof.col.probs)

    def test_backup_telescoping(self):
        # expected payoff sum of the returned pair from (s, t) equals the
        # selected value of the backup pair at (s, t)
        game = random_game(4, 2, 2, 2, 1.0, seed=17)
        horizon = 4
        result = finite_vi(game, horizon)
        gd = game_as_dict(game)
        s1 = policy_as_fn(result.policy1)
        s2 = policy_as_fn(result.policy2)
        for s in range(4):
            for t in range(horizon):
                total = eval_policy_recursive(gd, s1, s2, s, t, 1)
                assert total == pytest.approx(result.table.value(1, s, t), abs=1e-9)

    def test_backup_profiles_are_equilibria_of_backup_pair(self):
        from sgplan import MatrixGame, epsilon_nash_gap
        game = random_game(3, 2, 2, 2, 1.0, seed=47)
        result = finite_vi(game, 3)
        for s in range(3):
            for t in range(3):
                backup = MatrixGame(result.table.q(1, s, t), result.table.q(2, s, t))
                g1, g2 = epsilon_nash_gap(backup, result.table.profile(s, t))
                assert max(g1, g2) <= 1e-8

    def test_selection_failure_names_node(self, repeated_pd):
        def broken(game):
            raise DegenerateGame("boom")

        with pytest.raises(SelectionFailure, match=r"state=0, t=0"):
            finite_vi(repeated_pd, 2, selection=broken)

    def test_bad_horizon_rejected(self, repeated_pd):
        with pytest.raises(ValueError):
            finite_vi(repeated_pd, 0)

    def test_certificates_reject_horizon_zero(self, three_state_game):
        result = finite_vi(three_state_game, 3)
        for call in (lambda: policy_value(three_state_game, result.policy1, result.policy2, 0),
                     lambda: best_response_dp(three_state_game, result.policy2, 0, 1),
                     lambda: nash_certificate(three_state_game, result.policy1,
                                              result.policy2, 0)):
            with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
                call()


class TestPolicyValue:
    def test_always_defect(self, repeated_pd):
        pol = constant_policy(5, 1, [0, 1])
        assert policy_value(repeated_pd, pol, pol, 5, 0) == (1.0, 1.0)

    def test_always_cooperate(self, repeated_pd):
        pol = constant_policy(5, 1, [1, 0])
        assert policy_value(repeated_pd, pol, pol, 5, 0) == (3.0, 3.0)

    def test_matches_backup_value(self):
        game = random_game(5, 2, 2, 2, 1.0, seed=19)
        horizon = 5
        result = finite_vi(game, horizon)
        v1, v2 = policy_value(game, result.policy1, result.policy2, horizon, 0)
        assert v1 == pytest.approx(result.table.value(1, 0, horizon - 1) / horizon, abs=1e-9)
        assert v2 == pytest.approx(result.table.value(2, 0, horizon - 1) / horizon, abs=1e-9)

    def test_agrees_with_recursive_oracle(self):
        game = random_game(3, 2, 2, 2, 1.0, seed=23)
        pol1 = constant_policy(3, 3, [0.3, 0.7])
        pol2 = constant_policy(3, 3, [0.6, 0.4])
        v1, v2 = policy_value(game, pol1, pol2, 3, 1)
        gd = game_as_dict(game)
        want1 = eval_policy_recursive(gd, policy_as_fn(pol1), policy_as_fn(pol2), 1, 2, 1)
        want2 = eval_policy_recursive(gd, policy_as_fn(pol1), policy_as_fn(pol2), 1, 2, 2)
        assert v1 == pytest.approx(want1 / 3, abs=1e-12)
        assert v2 == pytest.approx(want2 / 3, abs=1e-12)


class TestBestResponseDP:
    def test_defect_against_cooperator(self, repeated_pd):
        cooperate = constant_policy(4, 1, [1, 0])
        policy, value = best_response_dp(repeated_pd, cooperate, 4, 1, 0)
        assert value == pytest.approx(5.0, abs=1e-12)
        for t in range(4):
            np.testing.assert_array_equal(policy.probs(0, t), [0, 1])

    def test_matching_pennies_indifference(self, repeated_mp):
        uniform = constant_policy(6, 1, [0.5, 0.5])
        _, value = best_response_dp(repeated_mp, uniform, 6, 1, 0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_cannot_beat_finite_vi_policy(self):
        game = random_game(4, 2, 2, 2, 1.0, seed=31)
        horizon = 5
        result = finite_vi(game, horizon)
        base1, base2 = policy_value(game, result.policy1, result.policy2, horizon, 0)
        _, br1 = best_response_dp(game, result.policy2, horizon, 1, 0)
        _, br2 = best_response_dp(game, result.policy1, horizon, 2, 0)
        assert br1 == pytest.approx(base1, abs=1e-8)
        assert br2 == pytest.approx(base2, abs=1e-8)

    def test_agrees_with_brute_force(self):
        game = random_game(2, 2, 2, 2, 1.0, seed=37)
        horizon = 3
        opp = constant_policy(horizon, 2, [0.25, 0.75])
        _, value = best_response_dp(game, opp, horizon, 1, 0)
        want = brute_force_best_response(game_as_dict(game), policy_as_fn(opp),
                                         horizon, 1, 0)
        assert value == pytest.approx(want, abs=1e-12)

    def test_player_two_side(self):
        game = random_game(2, 2, 2, 2, 1.0, seed=41)
        horizon = 3
        opp = constant_policy(horizon, 2, [0.8, 0.2])
        _, value = best_response_dp(game, opp, horizon, 2, 0)
        want = brute_force_best_response(game_as_dict(game), policy_as_fn(opp),
                                         horizon, 2, 0)
        assert value == pytest.approx(want, abs=1e-12)


class TestNashCertificate:
    def test_finite_vi_output_certifies_from_every_state(self):
        for seed in (1, 2, 3):
            game = random_game(5, 2, 2, 2, 1.0, seed=seed)
            horizon = 5
            result = finite_vi(game, horizon)
            for start in range(game.n_states):
                g1, g2 = nash_certificate(game, result.policy1, result.policy2,
                                          horizon, start)
                assert max(g1, g2) <= 1e-8
                assert min(g1, g2) >= -1e-10

    def test_uniform_play_on_pd_is_exploitable(self, repeated_pd):
        uniform = constant_policy(3, 1, [0.5, 0.5])
        g1, g2 = nash_certificate(repeated_pd, uniform, uniform, 3, 0)
        assert g1 > 0.5
        assert g2 > 0.5

    def test_zero_sum_gaps_nonnegative(self):
        game = random_game(4, 2, 2, 2, 1.0, seed=43, zero_sum=True)
        pol = constant_policy(4, 4, [0.5, 0.5])
        g1, g2 = nash_certificate(game, pol, pol, 4, 0)
        assert g1 >= -1e-10 and g2 >= -1e-10


def per_game(selection):
    """The selection without its array form: select_level takes the per-game path."""
    return lambda game: selection(game)


def same_bits(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


# pinned in test_matrix_games: only the vertex-pair fallback finds an equilibrium
DEGENERATE = ([[0, 1, -1], [2, -3, -2], [-3, 2, -1]], [[0, 3, 2], [0, 2, 1], [2, -1, 1]])
# rock-paper-scissors has no pure equilibrium, and its first size-2 indifference
# system [[0, -1, -1], [1, 0, -1], [1, 1, 0]] is exactly singular
RPS = np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], dtype=float)


class TestSelectLevel:
    @pytest.mark.parametrize("selection", [nash_select, security_select])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (1, 3), (3, 1),
                                       (5, 3)])
    @pytest.mark.parametrize("rounded", [False, True])
    def test_array_form_matches_per_game_path(self, selection, shape, rounded):
        q1, q2 = np.random.default_rng(sum(shape) + rounded).uniform(-2, 2, (2, 60) + shape)
        if rounded:
            q1, q2 = np.round(q1), np.round(q2)
        want = select_level(per_game(selection), q1, q2, range(60), 1)
        assert same_bits(select_level(selection, q1, q2, range(60), 1), want)

    @staticmethod
    def fallback_level():
        """Six 3x3 pairs: the degenerate game at 1, rock-paper-scissors at 4."""
        q1, q2 = np.random.default_rng(3).uniform(-1, 1, (2, 6, 3, 3))
        q1[1], q2[1] = DEGENERATE
        q1[4], q2[4] = RPS, -RPS
        return q1, q2

    @staticmethod
    def near_singular_level():
        """The fallback level with the 3x3 near-singular zero-sum games of the
        bimatrix bit contract, as both players' matrices, in its middle."""
        q1, q2 = TestSelectLevel.fallback_level()
        near = [np.array(m, dtype=float) for m in BitContract.NEAR_SINGULAR]
        near = [m for m in near if m.shape == (3, 3)]
        near += [-m.T for m in near]
        return (np.concatenate([q1[:3], near, q1[3:]]),
                np.concatenate([q2[:3], [-m for m in near], q2[3:]]))

    @pytest.mark.parametrize("selection", [nash_select, security_select])
    def test_array_form_matches_on_fallback_and_singular_games(self, selection, monkeypatch):
        q1, q2 = self.fallback_level() if selection is nash_select else self.near_singular_level()
        n = len(q1)
        want = select_level(per_game(selection), q1, q2, range(n), 0)
        resolved = []
        maximin = matrix_games._maximin
        monkeypatch.setattr(matrix_games, "_maximin",
                            lambda mat: resolved.append(mat.tolist()) or maximin(mat))
        assert same_bits(select_level(selection, q1, q2, range(n), 0), want)
        if selection is security_select:
            # the duality check sends near-singular games, mid-stack, to the re-solve
            assert resolved and all(m in q1[3:n - 3].tolist() for m in resolved)

    def test_security_stack_leaves_the_near_singular_games(self):
        # a near-singular basis leaves them to the per-game path, which re-solves them
        q1, q2 = self.near_singular_level()
        n = len(q1)
        out = np.empty((n, 3)), np.empty((n, 3)), np.empty(n), np.empty(n)
        assert matrix_games._security_stack(q1, q2, *out).tolist() == list(range(3, 11))
        assert same_bits(select_level(security_select, q1, q2, range(n), 0),
                         select_level(per_game(security_select), q1, q2, range(n), 0))

    def test_failed_maximin_runs_once(self, monkeypatch):
        # the level of test_failed_maximin_names_both_causes: the refused game runs
        # _maximin once, in security_select, which raises at its first player
        q1, q2 = np.random.default_rng(5).uniform(-1, 1, (2, 14, 9, 9))
        q1[12, 0, 0], q1[12, 1, 1] = 1e308, -1e308
        resolved = []
        maximin = matrix_games._maximin
        monkeypatch.setattr(matrix_games, "_maximin",
                            lambda mat: resolved.append(mat.tolist()) or maximin(mat))
        with pytest.raises(SelectionFailure, match=r"state=12, t=4"):
            select_level(security_select, q1, q2, range(14), 4)
        assert resolved == [q1[12].tolist()]

    def test_kernel_leaves_only_the_fallback_game(self):
        q1, q2 = self.fallback_level()
        assert np.linalg.det([[0, -1, -1], [1, 0, -1], [1, 1, 0]]) == 0.0
        out = np.empty((6, 3)), np.empty((6, 3)), np.empty(6), np.empty(6)
        assert matrix_games._nash_stack(q1, q2, *out).tolist() == [1]

    @pytest.mark.parametrize("selection", [nash_select, security_select])
    @pytest.mark.parametrize("width", [0, 1])
    def test_array_form_matches_on_narrow_levels(self, selection, width):
        q1, q2 = np.random.default_rng(width).uniform(-1, 1, (2, width, 2, 3))
        got = select_level(selection, q1, q2, range(width), 0)
        assert [a.shape for a in got] == [(width, 2), (width, 3), (width,), (width,)]
        assert same_bits(got, select_level(per_game(selection), q1, q2, range(width), 0))

    def test_finite_vi_array_form_matches_per_game_path(self):
        for seed in range(3):
            game = random_game(6, 3, 3, 3, 1.0, seed=seed)
            got, want = finite_vi(game, 4).table, finite_vi(game, 4, per_game(nash_select)).table
            assert same_bits((got.q1, got.q2, got.rows, got.cols, got.values1, got.values2),
                             (want.q1, want.q2, want.rows, want.cols, want.values1, want.values2))

    def test_infinite_vi_array_form_matches_per_game_path(self):
        # the discounted-security shapes: a 3x3 zero-sum game and a 2x3 general-sum
        # game, whose two players each share one stacked solve
        for game, gamma, tol in ((random_game(5, 3, 2, 2, 1.0, seed=4), 0.8, 1e-6),
                                 (random_game(12, 3, 3, 3, 1.0, seed=8, zero_sum=True), 0.9, 1e-9),
                                 (random_game(12, 2, 3, 3, 1.0, seed=9), 0.9, 1e-9)):
            got = infinite_vi(game, gamma, tol=tol)
            want = infinite_vi(game, gamma, per_game(security_select), tol=tol)
            assert got.converged and want.converged
            assert (got.deltas, got.value_trace, got.iterations) == (
                want.deltas, want.value_trace, want.iterations)
            assert same_bits((got.policy1.strategies, got.policy2.strategies, got.values1,
                              got.values2),
                             (want.policy1.strategies, want.policy2.strategies, want.values1,
                              want.values2))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3)], ids=str)
    def test_security_level_makes_one_lockstep_call(self, shape, monkeypatch):
        # both players of a level pivot in one lockstep, square or not
        calls = []
        solve = simplex._solve_packing_stack
        monkeypatch.setattr(simplex, "_solve_packing_stack",
                            lambda a: calls.append(a.shape) or solve(a))
        q1, q2 = np.random.default_rng(6).uniform(-1, 1, (2, 12) + shape)
        got = select_level(security_select, q1, q2, range(12), 0)
        n = max(shape)
        assert calls == [(24, n, n)]
        assert same_bits(got, select_level(per_game(security_select), q1, q2, range(12), 0))

    @pytest.mark.parametrize("selection", [nash_select, per_game(nash_select)])
    def test_cap_fails_at_the_first_pair(self, selection):
        q = np.zeros((3, 9, 9))
        with pytest.raises(SelectionFailure, match=r"state=4, t=2") as info:
            select_level(selection, q, q, [4, 5, 6], 2)
        assert isinstance(info.value.cause, EnumerationCapExceeded)

    def test_failed_maximin_names_both_causes(self):
        # the simplex refuses the overflowing range of game 12, and the
        # enumeration fallback refuses 9x9: the error keeps the fallback's
        # type and names the simplex failure too
        q1, q2 = np.random.default_rng(5).uniform(-1, 1, (2, 14, 9, 9))
        q1[12, 0, 0], q1[12, 1, 1] = 1e308, -1e308
        with pytest.raises(SelectionFailure, match=r"state=12, t=4: support enumeration capped "
                           r"at 8 .* 9x9; the simplex failed first: payoff range .* overflows "
                           r"float64$") as info:
            select_level(security_select, q1, q2, range(14), 4)
        assert isinstance(info.value.cause, EnumerationCapExceeded)

    @pytest.mark.parametrize("selection", [nash_select, security_select,
                                           per_game(nash_select), per_game(security_select)])
    def test_non_finite_pair_raises_as_matrix_game_does(self, selection):
        q1, q2 = np.zeros((2, 4, 2, 2))
        q1[2, 1, 0] = np.inf
        with pytest.raises(ValueError, match="^payoff matrices must be finite$"):
            select_level(selection, q1, q2, range(4), 0)

    @pytest.mark.parametrize("selection", [nash_select, per_game(nash_select)])
    def test_first_failing_pair_is_named(self, selection, monkeypatch):
        # without the vertex fallback, the degenerate games fail selection
        monkeypatch.setattr(matrix_games, "_vertex_pairs", lambda m1, m2: iter(()))
        q1, q2 = np.random.default_rng(5).uniform(-1, 1, (2, 5, 3, 3))
        for k in (2, 4):
            q1[k], q2[k] = DEGENERATE
        with pytest.raises(SelectionFailure, match=r"state=12, t=3") as info:
            select_level(selection, q1, q2, [10, 11, 12, 13, 14], 3)
        assert isinstance(info.value.cause, DegenerateGame)

    @pytest.mark.parametrize("selection", [nash_select, security_select])
    def test_arrays_are_the_stacked_per_pair_selections(self, selection):
        q1, q2 = np.random.default_rng(11).uniform(-1, 1, (2, 8, 3, 3))
        rows, cols, v1, v2 = select_level(selection, q1, q2, range(8), 0)
        want = [selection(MatrixGame(a, b)) for a, b in zip(q1, q2)]
        assert np.array_equal(rows, np.stack([p.row.probs for p in want]))
        assert np.array_equal(cols, np.stack([p.col.probs for p in want]))
        assert np.array_equal(v1, np.array([p.value1 for p in want]))
        assert np.array_equal(v2, np.array([p.value2 for p in want]))

    def test_failure_names_the_failing_pair(self):
        made = itertools.count()

        def select(game):
            if next(made) == 2:
                raise DegenerateGame("boom")
            return nash_select(game)
        q = np.zeros((4, 2, 2))
        with pytest.raises(SelectionFailure, match=r"state=7, t=5") as info:
            select_level(select, q, q, [3, 5, 7, 9], 5)
        assert (info.value.state, info.value.t) == (7, 5)

    def test_table_profiles_are_the_selected_profiles(self):
        game = random_game(4, 3, 3, 2, 1.0, seed=23)
        table = finite_vi(game, 3).table
        for s, per_state in enumerate(table.profiles):
            for t, prof in enumerate(per_state):
                want = nash_select(MatrixGame(table.q1[s, t], table.q2[s, t]))
                assert np.array_equal(prof.row.probs, want.row.probs)
                assert np.array_equal(prof.col.probs, want.col.probs)
                assert (prof.value1, prof.value2) == (want.value1, want.value2)
