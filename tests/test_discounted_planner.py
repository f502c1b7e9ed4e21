import itertools

import numpy as np
import pytest

from sgplan import (DegenerateGame, MatrixGame, SelectionFailure, SgError,
                    contraction_check, infinite_vi, nash_mode_probe, nash_select,
                    random_game, security_certificate, security_level,
                    security_select, single_state_game, solve_zero_sum)
from sgplan import discounted_planner
from sgplan.game_model import StochasticGame


def discounted_tail(stage_value, gamma, steps):
    return stage_value * (1 - gamma ** steps) / (1 - gamma)


def all_minus_one_game():
    payoffs = np.full((1, 2, 2), -1.0)
    return StochasticGame(payoffs, payoffs.copy(), np.ones((1, 2, 2, 1)))


def failing_after(calls, selection):
    """A selection that delegates for its first `calls` calls, then raises."""
    made = itertools.count(1)

    def select(game):
        if next(made) > calls:
            raise DegenerateGame("boom")
        return selection(game)
    return select


class TestInfiniteVI:
    def test_matching_pennies_fixed_point(self, repeated_mp):
        result = infinite_vi(repeated_mp, 0.5)
        assert result.converged
        assert result.values1[0] == pytest.approx(0.0, abs=1e-8)
        assert result.values2[0] == pytest.approx(0.0, abs=1e-8)
        np.testing.assert_allclose(result.policy1.probs(0), [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(result.policy2.probs(0), [0.5, 0.5], atol=1e-9)

    def test_geometric_series_closed_form(self):
        # stage value 1/5, gamma 0.9: discounted value 2.0
        game = single_state_game(MatrixGame.zero_sum([[2, -1], [-1, 1]]))
        result = infinite_vi(game, 0.9)
        assert result.converged
        assert result.values1[0] == pytest.approx(2.0, abs=1e-8)
        # cross-check with a long finite-horizon discounted accumulation
        stage = solve_zero_sum([[2, -1], [-1, 1]]).value1
        assert result.values1[0] == pytest.approx(discounted_tail(stage, 0.9, 500),
                                                  abs=1e-8)

    def test_gamma_zero_is_stage_security(self):
        game = random_game(4, 2, 2, 2, 1.0, seed=2)
        result = infinite_vi(game, 0.0)
        assert result.converged
        for s in range(4):
            prof = security_select(game.stage_game(s))
            np.testing.assert_allclose(result.policy1.probs(s), prof.row.probs, atol=1e-12)
            np.testing.assert_allclose(result.policy2.probs(s), prof.col.probs, atol=1e-12)
            assert result.values1[s] == pytest.approx(prof.value1, abs=1e-12)

    def test_gamma_validated(self, repeated_mp):
        with pytest.raises(ValueError):
            infinite_vi(repeated_mp, 1.0)
        with pytest.raises(ValueError):
            infinite_vi(repeated_mp, -0.1)

    def test_negative_max_iter_rejected(self, repeated_mp):
        with pytest.raises(ValueError, match="max_iter"):
            infinite_vi(repeated_mp, 0.5, max_iter=-3)
        assert infinite_vi(repeated_mp, 0.5, max_iter=0).iterations == 0

    def test_negative_tol_rejected(self, repeated_mp):
        with pytest.raises(ValueError, match="tol"):
            infinite_vi(repeated_mp, 0.5, tol=-1.0)
        assert infinite_vi(repeated_mp, 0.5, tol=0.0).converged

    def test_non_convergence_flagged_not_raised(self):
        game = random_game(3, 2, 2, 2, 1.0, seed=4, zero_sum=True)
        result = infinite_vi(game, 0.9, max_iter=2)
        assert not result.converged
        assert result.iterations == 2

    def test_fixed_point_residual(self):
        game = random_game(4, 2, 2, 2, 1.0, seed=6, zero_sum=True)
        gamma = 0.8
        result = infinite_vi(game, gamma, tol=1e-10)
        # re-apply one backup by hand; security values barely move
        for s in range(4):
            b1 = game.payoffs1[s] + gamma * (game.transitions[s] @ result.values1)
            _, level = security_level(MatrixGame(b1, -b1), 1)
            assert level == pytest.approx(result.values1[s], abs=1e-8)

    def test_selection_failure_names_sweep(self, three_state_game):
        # the first sweep (t=0) selects once per state; the next call fails
        selection = failing_after(three_state_game.n_states, security_select)
        with pytest.raises(SelectionFailure, match=r"state=0, t=1"):
            infinite_vi(three_state_game, 0.7, selection=selection)


class TestContraction:
    def test_zero_sum_contracts(self):
        for seed in (1, 2):
            game = random_game(5, 2, 2, 3, 1.0, seed=seed, zero_sum=True)
            for gamma in (0.5, 0.8):
                result = infinite_vi(game, gamma)
                report = contraction_check(result.deltas, gamma)
                assert report.ok, report.violations

    def test_gamma_zero_deltas_vanish(self):
        game = random_game(3, 2, 2, 2, 1.0, seed=3)
        result = infinite_vi(game, 0.0)
        assert all(d == 0.0 for d in result.deltas[1:])

    def test_constant_game_immediately_fixed(self):
        payoffs = np.full((2, 2, 2), 0.25)
        transitions = np.zeros((2, 2, 2, 2))
        transitions[..., 1] = 1.0
        game = StochasticGame(payoffs, payoffs.copy(), transitions)
        result = infinite_vi(game, 0.5)
        # all payoffs equal: after the first sweep every delta is gamma^t/4
        report = contraction_check(result.deltas, 0.5)
        assert report.ok

    def test_violations_reported(self):
        for deltas in ([1.0, 0.9, 0.2], [1.0, float("nan"), 5.0]):
            report = contraction_check(deltas, gamma=0.5)
            assert not report.ok
            assert report.violations[0].t == 1
            assert np.array_equal([report.violations[0].next_delta], [deltas[1]],
                                  equal_nan=True)

    def test_gamma_validated(self):
        for gamma in (float("nan"), 1.0, -0.1):
            with pytest.raises(ValueError, match=r"discount factor must lie in \[0, 1\)"):
                contraction_check([1.0, 5.0, 9.0], gamma)

    def test_iterations_within_log_bound(self):
        # runtime grows no faster than log(tol*(1-gamma)/r_max)/log(gamma) + 5
        tol = 1e-9
        for gamma in (0.5, 0.9):
            game = random_game(4, 2, 2, 2, 1.0, seed=11, zero_sum=True)
            result = infinite_vi(game, gamma, tol=tol)
            assert result.converged
            bound = np.log(tol * (1 - gamma) / game.r_max) / np.log(gamma) + 5
            assert result.iterations <= bound


class TestSecurityCertificate:
    def test_converged_zero_sum_shortfalls_tiny(self):
        game = random_game(5, 2, 2, 2, 1.0, seed=13, zero_sum=True)
        for gamma in (0.5, 0.9):
            result = infinite_vi(game, gamma)
            s1, s2 = security_certificate(game, result.policy1, result.policy2,
                                          gamma, result.values1, result.values2)
            assert s1 <= 1e-6 and s2 <= 1e-6

    def test_single_state_pd_guarantee(self, repeated_pd):
        result = infinite_vi(repeated_pd, 0.5)
        # defection guarantees stage payoff 1 forever: 1 / (1 - 0.5) = 2
        assert result.values1[0] == pytest.approx(2.0, abs=1e-8)
        s1, _ = security_certificate(repeated_pd, result.policy1, result.policy2,
                                     0.5, result.values1, result.values2)
        assert abs(s1) <= 1e-6

    def test_truncated_run_reports_positive_shortfall(self):
        # all payoffs -1: two sweeps claim -(1 + g + g^2) but the policy only
        # guarantees -1/(1-g); the claim overshoots by a visible margin
        game = all_minus_one_game()
        result = infinite_vi(game, 0.9, max_iter=2)
        assert not result.converged
        s1, s2 = security_certificate(game, result.policy1, result.policy2,
                                      0.9, result.values1, result.values2)
        assert s1 > 1.0
        assert s2 > 1.0

    def test_gamma_validated(self):
        game = all_minus_one_game()
        result = infinite_vi(game, 0.9)
        for gamma in (1.0, -0.1):
            with pytest.raises(ValueError):
                security_certificate(game, result.policy1, result.policy2,
                                     gamma, result.values1, result.values2)

    def test_negative_tol_rejected(self):
        game = all_minus_one_game()
        result = infinite_vi(game, 0.9)
        with pytest.raises(ValueError, match="tol"):
            security_certificate(game, result.policy1, result.policy2, 0.9,
                                 result.values1, result.values2, tol=-1.0)

    def test_sweep_cap_raises(self, monkeypatch):
        game = all_minus_one_game()
        result = infinite_vi(game, 0.9)
        monkeypatch.setattr(discounted_planner, "_CERTIFICATE_MAX_SWEEPS", 5)
        with pytest.raises(SgError, match="within 5 sweeps"):
            security_certificate(game, result.policy1, result.policy2,
                                 0.9, result.values1, result.values2)


class TestNashModeProbe:
    def test_zero_sum_converges(self):
        game = random_game(4, 2, 2, 2, 1.0, seed=17, zero_sum=True)
        report = nash_mode_probe(game, 0.8, max_iter=400)
        assert report.classification == "converged"

    def test_single_state_general_sum_converges(self, repeated_pd):
        # a single state with a unique stage equilibrium: the backup shifts
        # both payoff matrices by constants, so the same profile is selected
        # every sweep and the values settle geometrically
        report = nash_mode_probe(repeated_pd, 0.5, max_iter=200)
        assert report.classification == "converged"
        assert report.values1[0] == pytest.approx(2.0, abs=1e-6)

    def test_random_batch_classification_total(self):
        for seed in range(6):
            game = random_game(3, 2, 2, 2, 1.0, seed=seed)
            report = nash_mode_probe(game, 0.7, max_iter=60)
            assert report.classification in ("converged", "cyclic", "undetermined")
            if report.classification == "cyclic":
                assert report.cycle_length >= 1

    def test_cyclic_fixture(self, three_state_game):
        report = nash_mode_probe(three_state_game, 0.7, max_iter=200)
        assert report.classification == "cyclic"
        assert report.cycle_start == 58
        assert report.cycle_length == 2
        assert report.iterations == 60
        first = nash_mode_probe(three_state_game, 0.7, max_iter=58)
        assert first.iterations == 58
        np.testing.assert_allclose(report.values1, first.values1, rtol=0, atol=1e-9)
        np.testing.assert_allclose(report.values2, first.values2, rtol=0, atol=1e-9)

    def test_undetermined_within_max_iter(self, three_state_game):
        # the fixture cycles only from sweep 58 on
        report = nash_mode_probe(three_state_game, 0.7, max_iter=10)
        assert report.classification == "undetermined"
        assert report.iterations == 10
        assert len(report.deltas) == 10
        assert report.cycle_start is None and report.cycle_length is None

    def test_selection_failure_names_sweep(self, three_state_game):
        selection = failing_after(three_state_game.n_states, nash_select)
        with pytest.raises(SelectionFailure, match=r"state=0, t=1"):
            nash_mode_probe(three_state_game, 0.7, selection=selection)

    def test_gamma_validated(self, repeated_pd):
        with pytest.raises(ValueError):
            nash_mode_probe(repeated_pd, 1.0)

    def test_negative_max_iter_rejected(self, repeated_pd):
        with pytest.raises(ValueError, match="max_iter"):
            nash_mode_probe(repeated_pd, 0.5, max_iter=-5)

    def test_negative_tol_rejected(self, repeated_pd):
        with pytest.raises(ValueError, match="tol"):
            nash_mode_probe(repeated_pd, 0.5, tol=-1e-9)
