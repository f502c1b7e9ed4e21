import warnings

import numpy as np
import pytest

from sgplan import (DimensionMismatch, EnumerationCapExceeded, MatrixGame,
                    MixedStrategy, SgError, StrategyProfile, best_response,
                    enumerate_nash, epsilon_nash_gap, expected_payoff,
                    nash_select, security_level, security_select,
                    solve_zero_sum)
from sgplan import simplex
from sgplan.finite_planner import select_level
from sgplan.simplex import maximin, maximin_stack, onto_one_two

from oracles import enumerate_nash_exact, lp_zero_sum_value, nash_gap_exact


def profile(row, col, v1=0.0, v2=0.0):
    return StrategyProfile(MixedStrategy(row), MixedStrategy(col), v1, v2)


class TestTypes:
    def test_strategy_must_be_distribution(self):
        with pytest.raises(ValueError):
            MixedStrategy([0.5, 0.4])
        with pytest.raises(ValueError):
            MixedStrategy([1.2, -0.2])

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            MixedStrategy([np.nan, 1.0])

    def test_strategy_support(self):
        assert MixedStrategy([0.5, 0.5, 0.0]).support() == (0, 1)

    def test_payoff_shapes_must_match(self):
        with pytest.raises(DimensionMismatch):
            MatrixGame([[1, 2]], [[1], [2]])

    def test_zero_sum_flag_requires_negation(self):
        with pytest.raises(ValueError):
            MatrixGame([[1, 0]], [[1, 0]], is_zero_sum=True)
        game = MatrixGame.zero_sum([[1, -1], [-1, 1]])
        assert game.is_zero_sum

    def test_r_max_bound_enforced(self):
        with pytest.raises(ValueError):
            MatrixGame([[1.5]], [[0.0]], r_max=1.0)
        for r_max in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="r_max must be a finite number >= 0"):
                MatrixGame([[0.5]], [[0.0]], r_max=r_max)

    def test_rectangular_games_supported(self):
        game = MatrixGame([[1, 2, 3], [0, 1, 0]], [[0, 0, 0], [1, 1, 1]])
        assert (game.rows, game.cols) == (2, 3)
        nash_select(game)


class TestExpectedPayoff:
    def test_pure_profile_selects_entry(self, prisoners_dilemma):
        assert expected_payoff(prisoners_dilemma, 1,
                               MixedStrategy.pure(2, 1), MixedStrategy.pure(2, 1)) == 1.0

    def test_matching_pennies_uniform_is_zero(self, matching_pennies):
        u = MixedStrategy.uniform(2)
        assert expected_payoff(matching_pennies, 1, u, u) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_average(self, prisoners_dilemma):
        u = MixedStrategy.uniform(2)
        assert expected_payoff(prisoners_dilemma, 1, u, u) == pytest.approx(2.25)

    def test_dimension_mismatch_rejected(self, prisoners_dilemma):
        with pytest.raises(DimensionMismatch):
            expected_payoff(prisoners_dilemma, 1, MixedStrategy.uniform(3),
                            MixedStrategy.uniform(2))


class TestBestResponse:
    def test_dominant_row(self, prisoners_dilemma):
        assert best_response(prisoners_dilemma, 1, MixedStrategy.pure(2, 0)) == (1, 5.0)

    def test_tie_broken_by_lowest_index(self, matching_pennies):
        idx, val = best_response(matching_pennies, 1, MixedStrategy.uniform(2))
        assert idx == 0
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_indifference_point(self, battle_of_sexes):
        # at row (2/3, 1/3) both columns pay player 2 exactly 2/3
        idx, val = best_response(battle_of_sexes, 2, MixedStrategy([2 / 3, 1 / 3]))
        assert idx == 0
        assert val == pytest.approx(2 / 3, abs=1e-12)


class TestEpsilonNashGap:
    def test_dominant_equilibrium_has_zero_gap(self, prisoners_dilemma):
        g1, g2 = epsilon_nash_gap(prisoners_dilemma, profile([0, 1], [0, 1]))
        assert g1 == pytest.approx(0.0, abs=1e-12)
        assert g2 == pytest.approx(0.0, abs=1e-12)

    def test_cooperation_gap_is_defection_gain(self, prisoners_dilemma):
        g1, g2 = epsilon_nash_gap(prisoners_dilemma, profile([1, 0], [1, 0]))
        assert (g1, g2) == (2.0, 2.0)

    def test_mixed_equilibrium_gap(self, battle_of_sexes):
        g1, g2 = epsilon_nash_gap(battle_of_sexes,
                                  profile([2 / 3, 1 / 3], [1 / 3, 2 / 3]))
        assert max(g1, g2) <= 1e-12
        assert min(g1, g2) >= -1e-12


class TestSolveZeroSum:
    def test_matching_pennies(self):
        prof = solve_zero_sum([[1, -1], [-1, 1]])
        assert prof.value1 == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(prof.row.probs, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(prof.col.probs, [0.5, 0.5], atol=1e-12)

    def test_known_value_one_fifth(self):
        prof = solve_zero_sum([[2, -1], [-1, 1]])
        assert prof.value1 == pytest.approx(0.2, abs=1e-12)
        np.testing.assert_allclose(prof.row.probs, [0.4, 0.6], atol=1e-12)
        oracle_value, _ = lp_zero_sum_value([[2, -1], [-1, 1]])
        assert prof.value1 == pytest.approx(oracle_value, abs=1e-9)

    def test_single_entry(self):
        prof = solve_zero_sum([[3.5]])
        assert prof.value1 == 3.5
        assert prof.value2 == -3.5
        assert prof.row.probs[0] == 1.0

    def test_against_lp_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n1 = rng.integers(1, 7)
            n2 = rng.integers(1, 7)
            mat = rng.uniform(-5, 5, (n1, n2))
            prof = solve_zero_sum(mat)
            oracle_value, _ = lp_zero_sum_value(mat)
            assert prof.value1 == pytest.approx(oracle_value, abs=1e-9)
            # returned pair must be a Nash pair of (M, -M)
            game = MatrixGame.zero_sum(mat)
            g1, g2 = epsilon_nash_gap(game, prof)
            assert max(g1, g2) <= 1e-9

    @pytest.mark.parametrize("mat", [
        [[0, 0, -1e-10], [0, 1, 0], [1, 0, 1]],  # simplex stopped 2.4e-7 short
        [[0, 0, -1e-10], [0, 0, 0], [1, 1, 1]],  # simplex found no strategy
        [[-9, 8e-8, -2e-8], [8e-8, 2e-8, 4], [1e-7, -6e-8, 4e-8]],  # Nash gap 6e-8
    ])
    def test_near_singular_is_exact_equilibrium(self, mat):
        # the exact-rational gap is the oracle here: linprog's own tolerances
        # are coarser than these 1e-8 entries
        for m in (np.array(mat, dtype=float), -np.array(mat, dtype=float).T):
            prof = solve_zero_sum(m)
            g1, g2 = nash_gap_exact(m.tolist(), (-m).tolist(), prof.row.probs, prof.col.probs)
            assert float(max(g1, g2)) <= 1e-12
            game = MatrixGame.zero_sum(m)
            _, s1 = security_level(game, 1)
            _, s2 = security_level(game, 2)
            assert s1 == pytest.approx(prof.value1, abs=1e-12)
            assert s2 == pytest.approx(-prof.value1, abs=1e-12)

    @pytest.mark.parametrize("mat", [[1.0, 2.0], [[]], [[1.0, np.inf]], [[0.0], [np.nan]]],
                             ids=["1-D", "empty", "inf", "nan"])
    def test_malformed_input_raises_like_matrix_game(self, mat):
        raised = []
        for build in (MatrixGame.zero_sum, solve_zero_sum):
            with pytest.raises((DimensionMismatch, ValueError)) as info:
                build(mat)
            raised.append((type(info.value), str(info.value)))
        assert raised[1] == raised[0]

    def test_deterministic(self):
        mat = np.random.default_rng(3).uniform(-1, 1, (4, 5))
        a = solve_zero_sum(mat)
        b = solve_zero_sum(mat)
        assert np.array_equal(a.row.probs, b.row.probs)
        assert np.array_equal(a.col.probs, b.col.probs)
        assert a.value1 == b.value1


class TestSecurityLevel:
    def test_matching_pennies(self, matching_pennies):
        strat, level = security_level(matching_pennies, 1)
        np.testing.assert_allclose(strat.probs, [0.5, 0.5], atol=1e-12)
        assert level == pytest.approx(0.0, abs=1e-12)

    def test_dominant_row_guarantee(self, prisoners_dilemma):
        strat, level = security_level(prisoners_dilemma, 1)
        np.testing.assert_allclose(strat.probs, [0, 1], atol=1e-12)
        assert level == pytest.approx(1.0, abs=1e-12)

    def test_maximin_mix(self, battle_of_sexes):
        strat, level = security_level(battle_of_sexes, 1)
        np.testing.assert_allclose(strat.probs, [1 / 3, 2 / 3], atol=1e-12)
        assert level == pytest.approx(2 / 3, abs=1e-12)
        oracle_value, _ = lp_zero_sum_value(battle_of_sexes.payoff1)
        assert level == pytest.approx(oracle_value, abs=1e-9)

    def test_guarantee_holds_against_every_column(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            game = MatrixGame(rng.uniform(-2, 2, (n, n)), rng.uniform(-2, 2, (n, n)))
            strat, level = security_level(game, 1)
            guarantees = strat.probs @ game.payoff1
            assert guarantees.min() >= level - 1e-9
            strat2, level2 = security_level(game, 2)
            guarantees2 = game.payoff2 @ strat2.probs
            assert guarantees2.min() >= level2 - 1e-9

    @pytest.mark.parametrize("mat", [[[1e308, -1e308]], [[1e308], [-1e308]],
                                     [[1.7e308, -1.7e308], [0.0, 1.0]]],
                             ids=["row", "column", "2x2"])
    def test_overflowing_payoff_range(self, mat):
        # every entry is finite, but max - min is not: the simplex is skipped
        # for the re-solve by enumeration, with no numpy warning on any path
        mat = np.array(mat)
        game = MatrixGame.zero_sum(mat)
        other = np.random.default_rng(0).uniform(-1, 1, mat.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SgError, match="overflows float64"):
                maximin(mat)
            assert not maximin_stack(np.stack([other, mat]))[2].tolist()[1]
            (strat1, level1), (strat2, level2) = security_level(game, 1), security_level(game, 2)
            prof = solve_zero_sum(mat)
            rows, cols, values1, values2 = select_level(
                security_select, np.stack([other, mat, other]), np.stack([-other, -mat, -other]),
                range(3), 0)
        assert strat1.probs.tobytes() == prof.row.probs.tobytes() == rows[1].tobytes()
        assert level1 == prof.value1 == values1[1]
        assert (strat2.probs.tobytes(), level2) == (cols[1].tobytes(), values2[1])
        assert level1 == max(mat.min(axis=1))  # a pure maximin row exists in these


class TestMaximinStack:
    """The lockstep simplex against the scalar one, bit for bit."""

    SHAPES = [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (5, 3), (8, 8)]

    @staticmethod
    def stacks(shape, seed):
        """Stacks of 24 games: uniform, rounded to 0.1 (ties), and uniform with
        every third game constant (the `or 1.0` branch, one pivot), so games
        of a stack finish after different numbers of pivots."""
        rng = np.random.default_rng(seed)
        for _ in range(3):
            yield rng.uniform(-2, 2, (24,) + shape)
            yield np.round(rng.uniform(-1, 1, (24,) + shape), 1)
            mixed = rng.uniform(-2, 2, (24,) + shape)
            mixed[::3] = rng.uniform(-2, 2, 8)[:, None, None]
            yield mixed

    @staticmethod
    def assert_matches_scalar(mats):
        alpha, beta, ok = maximin_stack(mats)
        y, duals, solved = simplex._solve_packing_stack(np.stack([onto_one_two(m) for m in mats]))
        for k, mat in enumerate(mats):
            try:
                want_y, want_duals = simplex._solve_packing(onto_one_two(mat))
            except SgError:
                assert not solved[k]
            else:
                assert solved[k]
                assert (y[k].tobytes(), duals[k].tobytes()) == (want_y.tobytes(),
                                                                want_duals.tobytes())
            try:
                want_alpha, want_beta, _ = maximin(mat)
            except SgError:
                assert not ok[k]
                continue
            assert ok[k]
            assert (alpha[k].tobytes(), beta[k].tobytes()) == (want_alpha.tobytes(),
                                                               want_beta.tobytes())

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_stack_matches_scalar_solver(self, shape, monkeypatch):
        pivots = []
        pivot = simplex._pivot
        monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(1) or pivot(*args))
        for seed, mats in enumerate(self.stacks(shape, sum(shape))):
            per_game = []
            for mat in mats:
                pivots.clear()
                simplex._solve_packing(onto_one_two(mat))
                per_game.append(len(pivots))
            if min(shape) > 1 and seed % 3 == 2:
                assert len(set(per_game)) > 1
            self.assert_matches_scalar(mats)

    def test_near_singular_games_flagged_or_identical(self):
        # the matrices the scalar path re-solves by enumeration, mid-stack
        rng = np.random.default_rng(7)
        for mat in TestBitContract.NEAR_SINGULAR:
            mat = np.array(mat, dtype=float)
            for m in (mat, -mat.T):
                mats = rng.uniform(-1, 1, (9,) + m.shape)
                mats[4] = m
                self.assert_matches_scalar(mats)


class TestEnumerateNash:
    def test_prisoners_dilemma_unique(self, prisoners_dilemma):
        profiles = enumerate_nash(prisoners_dilemma)
        assert len(profiles) == 1
        np.testing.assert_allclose(profiles[0].row.probs, [0, 1])
        np.testing.assert_allclose(profiles[0].col.probs, [0, 1])
        assert (profiles[0].value1, profiles[0].value2) == (1.0, 1.0)

    def test_battle_of_sexes_three_profiles(self, battle_of_sexes):
        profiles = enumerate_nash(battle_of_sexes)
        assert len(profiles) == 3
        np.testing.assert_allclose(profiles[0].row.probs, [1, 0])
        np.testing.assert_allclose(profiles[0].col.probs, [1, 0])
        np.testing.assert_allclose(profiles[1].row.probs, [0, 1])
        np.testing.assert_allclose(profiles[1].col.probs, [0, 1])
        np.testing.assert_allclose(profiles[2].row.probs, [2 / 3, 1 / 3], atol=1e-9)
        np.testing.assert_allclose(profiles[2].col.probs, [1 / 3, 2 / 3], atol=1e-9)
        assert profiles[2].value1 == pytest.approx(2 / 3, abs=1e-9)
        assert profiles[2].value2 == pytest.approx(2 / 3, abs=1e-9)

    def test_matching_pennies_as_general_sum(self, matching_pennies):
        profiles = enumerate_nash(matching_pennies)
        assert len(profiles) == 1
        np.testing.assert_allclose(profiles[0].row.probs, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(profiles[0].col.probs, [0.5, 0.5], atol=1e-12)

    def test_matches_exact_oracle_on_integer_games(self):
        # two-sided check: every oracle equilibrium must be reproduced, and
        # every reported profile must pass an exact-rational Nash check
        rng = np.random.default_rng(5)
        for _ in range(25):
            n1 = int(rng.integers(2, 4))
            n2 = int(rng.integers(2, 4))
            m1 = rng.integers(-4, 5, (n1, n2))
            m2 = rng.integers(-4, 5, (n1, n2))
            game = MatrixGame(m1, m2)
            got = enumerate_nash(game)
            want = enumerate_nash_exact(m1.tolist(), m2.tolist())
            for prof in got:
                g1, g2 = nash_gap_exact(m1.tolist(), m2.tolist(),
                                        prof.row.probs, prof.col.probs)
                assert float(max(g1, g2)) <= 1e-9
            for alpha, beta, v1, v2 in want:
                matches = [p for p in got
                           if np.allclose(p.row.probs, [float(x) for x in alpha], atol=1e-9)
                           and np.allclose(p.col.probs, [float(x) for x in beta], atol=1e-9)]
                assert matches, f"oracle equilibrium {alpha}, {beta} not reproduced"
                assert matches[0].value1 == pytest.approx(float(v1), abs=1e-9)
                assert matches[0].value2 == pytest.approx(float(v2), abs=1e-9)
            if len(got) == len(want):  # nondegenerate case: order must agree
                for prof, (alpha, beta, _, _) in zip(got, want):
                    np.testing.assert_allclose(prof.row.probs,
                                               [float(x) for x in alpha], atol=1e-9)

    def test_every_enumerated_profile_verifies(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            game = MatrixGame(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3)))
            for prof in enumerate_nash(game):
                g1, g2 = epsilon_nash_gap(game, prof)
                assert max(g1, g2) <= 1e-9

    def test_cap_enforced(self):
        game = MatrixGame(np.zeros((9, 9)), np.zeros((9, 9)))
        with pytest.raises(EnumerationCapExceeded):
            enumerate_nash(game)
        enumerate_nash(game, cap=9)

    # degenerate games where every equilibrium needs supports of unequal size,
    # so only the vertex-pair fallback finds one
    DEGENERATE = [
        ([[-1, -1, 0, 0], [0, 0, 0, -1], [0, -1, -1, 0]],
         [[1, 0, -1, 0], [0, 0, 0, 1], [0, 2, 3, 0]]),
        ([[0, 1, -1], [2, -3, -2], [-3, 2, -1]],
         [[0, 3, 2], [0, 2, 1], [2, -1, 1]]),
        ([[1, 1, 3], [-1, 3, 1], [3, -2, 2]],
         [[-1, -1, -3], [1, -3, -1], [-3, 2, -2]]),
    ]

    @pytest.mark.parametrize("m1,m2", DEGENERATE)
    def test_degenerate_game_falls_back_to_vertex_pairs(self, m1, m2):
        game = MatrixGame(m1, m2)
        profiles = enumerate_nash(game)
        first = nash_select(game)
        assert first.row.probs.tolist() == profiles[0].row.probs.tolist()
        assert first.col.probs.tolist() == profiles[0].col.probs.tolist()
        for prof in profiles:
            g1, g2 = nash_gap_exact(m1, m2, prof.row.probs, prof.col.probs)
            assert float(max(g1, g2)) <= 1e-9
            assert prof.value1 == pytest.approx(expected_payoff(game, 1, prof.row, prof.col))
        if np.array_equal(game.payoff2, -game.payoff1):
            value, _ = lp_zero_sum_value(m1)
            assert profiles[0].value1 == pytest.approx(value, abs=1e-9)

    def test_vertex_fallback_pins_first_equilibrium(self):
        prof = nash_select(MatrixGame(*self.DEGENERATE[1]))
        assert prof.row.probs.tolist() == pytest.approx([1 / 3, 0.0, 2 / 3], abs=1e-12)
        assert prof.col.probs.tolist() == [0.0, 0.0, 1.0]

    def test_integer_games_never_degenerate(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m1 = rng.integers(-2, 3, (3, 3))
            m2 = -m1 if rng.integers(2) else rng.integers(-2, 3, (3, 3))
            prof = nash_select(MatrixGame(m1, m2))
            g1, g2 = nash_gap_exact(m1.tolist(), m2.tolist(), prof.row.probs, prof.col.probs)
            assert float(max(g1, g2)) <= 1e-9


class TestSelection:
    def test_battle_of_sexes_canonical_first(self, battle_of_sexes):
        prof = nash_select(battle_of_sexes)
        np.testing.assert_allclose(prof.row.probs, [1, 0])
        np.testing.assert_allclose(prof.col.probs, [1, 0])

    def test_zero_sum_selection_value_is_game_value(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            mat = rng.uniform(-1, 1, (3, 3))
            game = MatrixGame.zero_sum(mat)
            prof = nash_select(game)
            assert prof.value1 == pytest.approx(solve_zero_sum(mat).value1, abs=1e-9)

    def test_nash_select_bit_identical(self):
        mat1 = np.random.default_rng(9).uniform(-1, 1, (4, 4))
        mat2 = np.random.default_rng(10).uniform(-1, 1, (4, 4))
        game_a = MatrixGame(mat1, mat2)
        game_b = MatrixGame(mat1.copy(), mat2.copy())
        pa, pb = nash_select(game_a), nash_select(game_b)
        assert np.array_equal(pa.row.probs, pb.row.probs)
        assert np.array_equal(pa.col.probs, pb.col.probs)
        assert (pa.value1, pa.value2) == (pb.value1, pb.value2)

    def test_security_select_examples(self, matching_pennies, prisoners_dilemma):
        mp = security_select(matching_pennies)
        np.testing.assert_allclose(mp.row.probs, [0.5, 0.5], atol=1e-12)
        assert (mp.value1, mp.value2) == (pytest.approx(0.0, abs=1e-12),
                                          pytest.approx(0.0, abs=1e-12))
        pd = security_select(prisoners_dilemma)
        np.testing.assert_allclose(pd.row.probs, [0, 1], atol=1e-12)
        np.testing.assert_allclose(pd.col.probs, [0, 1], atol=1e-12)
        assert (pd.value1, pd.value2) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_security_select_is_nash_for_zero_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            game = MatrixGame.zero_sum(rng.uniform(-1, 1, (4, 4)))
            prof = security_select(game)
            g1, g2 = epsilon_nash_gap(game, prof)
            assert max(g1, g2) <= 1e-9


class TestBitContract:
    """Every output bit of the bimatrix layer on a fixed battery.

    The other tests check these paths within tolerances; this one fixes the
    exact bytes, so a refactor of the enumeration core cannot move a single
    strategy or value bit (for example a signed zero) unnoticed.  A few of
    the battery's games reach the vertex-pair fallback, and the near-singular
    matrices reach the maximin re-solve by enumeration.
    """

    # recorded before the array core replaced the profile objects inside
    # matrix_games; a change here means an output bit moved
    DIGEST = "4dcd429acc1d8ea59c43f18afed93a7bdeecb8a699c5b144927dc5cc11c1a089"

    NEAR_SINGULAR = [
        [[0, 0, -1e-10], [0, 1, 0], [1, 0, 1]],
        [[0, 0, -1e-10], [0, 0, 0], [1, 1, 1]],
        [[-9, 8e-8, -2e-8], [8e-8, 2e-8, 4], [1e-7, -6e-8, 4e-8]],
        [[0.0, -10.0], [1e-8, 0.0]],
        [[1.0, 0.0, 0.0, -1.0], [-6.0, 5.96046448e-08, 0.0, 0.0]],
        [[0.0, 1e-8, 0.0], [2.0, -1e-10, 5.0], [2.0, 0.0, 0.0]],
    ]

    @classmethod
    def battery(cls):
        rng = np.random.default_rng(123)
        for n1 in range(1, 6):
            for n2 in range(1, 6):
                for _ in range(10):
                    m1, m2 = rng.uniform(-1, 1, (2, n1, n2))
                    yield MatrixGame(m1, m2)
                    yield MatrixGame.zero_sum(rng.uniform(-1, 1, (n1, n2)))
                    m1, m2 = rng.integers(-3, 4, (2, n1, n2))
                    yield MatrixGame(m1, m2)
                    yield MatrixGame.zero_sum(rng.integers(-3, 4, (n1, n2)))
        for mat in cls.NEAR_SINGULAR:
            mat = np.array(mat, dtype=float)
            yield MatrixGame.zero_sum(mat)
            yield MatrixGame.zero_sum(-mat.T)

    def test_outputs_bit_identical(self):
        import hashlib

        digest = hashlib.sha256()

        def feed(prof):
            for arr in (prof.row.probs, prof.col.probs,
                        np.float64(prof.value1), np.float64(prof.value2)):
                digest.update(np.ascontiguousarray(arr).tobytes())

        games = 0
        for game in self.battery():
            games += 1
            feed(nash_select(game))
            feed(security_select(game))
            profiles = enumerate_nash(game)
            digest.update(len(profiles).to_bytes(4, "little"))
            for prof in profiles:
                feed(prof)
            feed(solve_zero_sum(game.payoff1))
        assert games == 1012
        assert digest.hexdigest() == self.DIGEST
