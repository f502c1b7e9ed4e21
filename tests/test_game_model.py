import numpy as np
import pytest
from scipy import stats

from sgplan import (DimensionMismatch, GameFileError, MatrixGame, MissingPolicyEntry,
                    MixedStrategy, StationaryPolicy, StochasticGame, TimeDependentPolicy,
                    as_generative, load_game, random_game, save_game, single_state_game,
                    validate)
from sgplan import game_model
from sgplan.game_model import _block_draws, _transitions

from oracles import cell_by_cell_game


class TestValidation:
    def test_well_formed_game_passes(self):
        game = random_game(2, 2, 2, 2, 1.0, seed=0)
        report = validate(game)
        assert report.ok
        assert report.violations == ()

    def test_bad_transition_sum_named(self):
        game = random_game(2, 2, 2, 2, 1.0, seed=0)
        transitions = np.array(game.transitions)
        transitions[1, 0, 1] *= 0.9
        bad = StochasticGame(game.payoffs1, game.payoffs2, transitions)
        report = validate(bad)
        assert not report.ok
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.kind == "transition-sum"
        assert v.where == (1, 0, 1)

    def test_payoff_over_r_max_named(self):
        payoffs = np.zeros((1, 2, 2))
        payoffs[0, 1, 0] = 1.5
        trans = np.zeros((1, 2, 2, 1))
        trans[..., 0] = 1.0
        game = StochasticGame(payoffs, np.zeros((1, 2, 2)), trans, r_max=1.0)
        report = validate(game)
        assert [v.kind for v in report.violations] == ["payoff-bound"]
        assert report.violations[0].where == (1, 0, 1, 0)
        for r_max in (float("nan"), float("inf"), -1.0):
            report = validate(StochasticGame(100 * payoffs, np.zeros((1, 2, 2)), trans,
                                             r_max=r_max))
            assert [v.kind for v in report.violations].count("r-max") == 1
            assert report.violations[0].message == f"r_max={r_max} is not a finite number >= 0"

    @pytest.mark.parametrize("site, message", [
        ("transition-entry", "probability -1.0 is negative or non-finite"),
        ("transition-sum", "probabilities sum to 0.5, not 1"),
        ("payoff-finite", "payoff nan is not finite"),
        ("payoff-bound", "|payoff| 0.5 exceeds r_max=0.1"),
        ("load_game", "probabilities at (s=0, i=0, j=0) sum to 0.5, not 1"),
        ("MixedStrategy", "strategy probabilities sum to 1.1, not 1"),
    ])
    def test_messages_show_plain_floats(self, tmp_path, site, message):
        # numpy 2 writes a numpy scalar's repr as np.float64(0.5)
        trans, pay = np.ones((1, 1, 1, 1)), np.full((1, 1, 1), 0.5)
        games = {"transition-entry": StochasticGame(pay, pay, -trans),
                 "transition-sum": StochasticGame(pay, pay, trans / 2),
                 "payoff-finite": StochasticGame(pay * np.nan, pay, trans, r_max=1.0),
                 "payoff-bound": StochasticGame(pay, pay, trans, r_max=np.float64(0.1))}
        if site in games:
            got = next(v.message for v in validate(games[site]).violations if v.kind == site)
        elif site == "load_game":
            save_game(games["transition-sum"], tmp_path / "g.json")
            with pytest.raises(GameFileError) as info:
                load_game(tmp_path / "g.json")
            got = str(info.value)
        else:
            with pytest.raises(ValueError) as info:
                MixedStrategy([0.5, 0.6])
            got = str(info.value)
        assert message in got
        assert "np." not in got

    def test_random_games_always_validate(self):
        for seed in range(10):
            game = random_game(4, 2, 3, 3, 2.0, seed=seed)
            assert validate(game).ok

    def test_start_state_bounds_checked_at_construction(self):
        with pytest.raises(ValueError):
            StochasticGame(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)),
                           np.ones((1, 1, 1, 1)), start_state=3)


class TestGenerativeModel:
    def test_point_mass_always_sampled(self):
        game = single_state_game(MatrixGame([[1, 0], [0, 1]], [[0, 1], [1, 0]]))
        model = as_generative(game)
        rng = np.random.default_rng(0)
        assert all(model.sample(0, 0, 1, rng) == 0 for _ in range(50))

    def test_uniform_frequencies_converge(self):
        # two equally likely successors; 1e5 draws land within 0.01 of 1/2
        transitions = np.zeros((2, 1, 1, 2))
        transitions[:, :, :] = 0.5
        game = StochasticGame(np.zeros((2, 1, 1)), np.zeros((2, 1, 1)), transitions)
        model = as_generative(game)
        rng = np.random.default_rng(42)
        draws = np.array([model.sample(0, 0, 0, rng) for _ in range(100_000)])
        freq = (draws == 0).mean()
        assert abs(freq - 0.5) < 0.01

    def test_identical_seeds_identical_sequences(self):
        game = random_game(5, 2, 2, 3, 1.0, seed=1)
        model = as_generative(game)
        a = [model.sample(2, 1, 0, np.random.default_rng(7)) for _ in range(1)]
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            runs.append([model.sample(s % 5, 0, 1, rng) for s in range(200)])
        assert runs[0] == runs[1]

    def test_empirical_total_variation(self):
        game = random_game(6, 2, 2, 4, 1.0, seed=3)
        model = as_generative(game)
        rng = np.random.default_rng(0)
        n = 100_000
        draws = model.sample_from_uniform_many(0, 1, 1, rng.random(n))
        counts = np.bincount(draws, minlength=6) / n
        tv = 0.5 * np.abs(counts - game.transitions[0, 1, 1]).sum()
        assert tv <= 0.02

    def test_chi_squared_sanity(self):
        game = random_game(4, 2, 2, 3, 1.0, seed=9)
        model = as_generative(game)
        rng = np.random.default_rng(1)
        n = 50_000
        draws = model.sample_from_uniform_many(1, 0, 0, rng.random(n))
        expected = game.transitions[1, 0, 0] * n
        keep = expected > 0
        observed = np.bincount(draws, minlength=4)[keep]
        _, p = stats.chisquare(observed, expected[keep])
        assert p > 1e-4

    def test_exact_distribution_access(self):
        game = random_game(3, 2, 2, 2, 1.0, seed=4)
        model = as_generative(game)
        np.testing.assert_array_equal(model.distribution(1, 0, 1),
                                      game.transitions[1, 0, 1])

    def test_payoffs_deterministic(self):
        game = random_game(3, 2, 2, 2, 1.0, seed=4)
        model = as_generative(game)
        a = model.payoffs(2)
        b = model.payoffs(2)
        assert a is b

    def test_invalid_game_rejected(self):
        transitions = np.zeros((1, 1, 1, 1))  # rows sum to 0
        bad = StochasticGame(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), transitions)
        with pytest.raises(Exception, match="validation"):
            as_generative(bad)


class TestRandomGame:
    def test_same_seed_entrywise_identical(self):
        a = random_game(4, 2, 3, 2, 1.5, seed=77)
        b = random_game(4, 2, 3, 2, 1.5, seed=77)
        assert np.array_equal(a.payoffs1, b.payoffs1)
        assert np.array_equal(a.payoffs2, b.payoffs2)
        assert np.array_equal(a.transitions, b.transitions)

    def test_different_seeds_differ(self):
        a = random_game(4, 2, 2, 2, 1.0, seed=1)
        b = random_game(4, 2, 2, 2, 1.0, seed=2)
        assert not np.array_equal(a.payoffs1, b.payoffs1)

    def test_scale_bounds_and_r_max(self):
        game = random_game(3, 2, 2, 2, 1.0, seed=5)
        assert game.r_max == 1.0
        assert np.abs(game.payoffs1).max() <= 1.0
        assert validate(game).ok

    def test_zero_sum_variant(self):
        game = random_game(3, 2, 2, 2, 1.0, seed=5, zero_sum=True)
        np.testing.assert_array_equal(game.payoffs2, -game.payoffs1)
        assert game.is_zero_sum

    def test_branching_limits_support(self):
        game = random_game(6, 2, 2, 2, 1.0, seed=6)
        support_sizes = (game.transitions > 0).sum(axis=3)
        assert support_sizes.max() <= 2

    def test_branching_validation(self):
        with pytest.raises(ValueError):
            random_game(2, 2, 2, 3, 1.0, seed=0)
        with pytest.raises(ValueError):
            random_game(0, 2, 2, 1, 1.0, seed=0)


# (n_states, n_row_actions, n_col_actions, branching, payoff_scale, zero_sum): the three
# workloads' shapes, branching = n_states, one state, 1x1 actions, a branching past
# numpy's 128-entry pairwise-sum block, zero-sum, and a zero payoff scale
BIT_SHAPES = [(100, 3, 3, 4, 1.0, False), (3, 2, 2, 2, 1.0, False), (12, 3, 3, 3, 1.0, True),
              (12, 2, 3, 3, 1.0, False), (6, 2, 3, 6, 1.0, False), (1, 2, 3, 1, 1.0, False),
              (1, 1, 1, 1, 2.5, True), (9, 1, 1, 4, 1.0, False), (140, 1, 2, 130, 1.0, False),
              (5, 2, 2, 3, 0.0, False)]


class TestRandomGameBits:
    """`random_game` draws its kernel in blocks of the raw PCG64 stream;
    every array must equal the cell-by-cell draw byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2937467307694268567, 2 ** 63 - 1])
    @pytest.mark.parametrize("shape", BIT_SHAPES, ids=str)
    def test_bytes_equal_cell_by_cell(self, shape, seed, monkeypatch):
        monkeypatch.delattr(game_model, "_cell_by_cell")  # no case here takes the exact path
        *dims, scale, zero_sum = shape
        game = random_game(*dims, scale, seed=seed, zero_sum=zero_sum)
        reference = cell_by_cell_game(*dims, scale, seed, zero_sum=zero_sum)
        for got, want in zip((game.payoffs1, game.payoffs2, game.transitions), reference):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 12, 40])
    @pytest.mark.parametrize("shape", BIT_SHAPES[1:7], ids=str)
    def test_blocks_of_a_few_cells(self, shape, block, monkeypatch):
        monkeypatch.setattr(game_model, "_BLOCK", block)
        self.test_bytes_equal_cell_by_cell(shape, 5, monkeypatch)

    @pytest.mark.parametrize("block", [game_model._BLOCK, 200])
    def test_lemire_rejection_runs_the_exact_path(self, block, monkeypatch):
        monkeypatch.setattr(game_model, "_BLOCK", block)  # 200: blocks of 10 cells
        shape, branching, seed = (1000, 1, 1), 20, 102
        rng = np.random.default_rng(seed)
        rng.uniform(size=2000)  # the two payoff arrays
        state = rng.bit_generator.state
        assert _block_draws(rng, 758, 1000, branching) is not None
        rng.bit_generator.state = state
        assert _block_draws(rng, 759, 1000, branching) is None  # a rejection at cell 758
        exact = []
        cell_by_cell = game_model._cell_by_cell
        monkeypatch.setattr(game_model, "_cell_by_cell", lambda *args: (
            exact.append(args[1:]), cell_by_cell(*args))[1])
        game = random_game(*shape, branching, 1.0, seed=seed)
        assert exact == [(shape, branching)]
        want = cell_by_cell_game(*shape, branching, 1.0, seed)[2]
        assert game.transitions.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_floyd_below_the_tail_shuffle_regime(self, seed):
        # population 10001: numpy shuffles a tail once the size exceeds 10001 // 50 = 200
        for size, same in ((200, True), (201, False)):
            succ, weights = _block_draws(np.random.default_rng(seed), 1, 10001, size)
            rng = np.random.default_rng(seed)
            chosen = rng.choice(10001, size=size, replace=False)
            assert np.array_equal(succ[0], chosen) is same
            assert (weights[0].tobytes() == (1.0 - rng.uniform(size=size)).tobytes()) is same

    def test_tail_shuffle_regime_runs_the_exact_path(self, monkeypatch):
        exact = []
        monkeypatch.delattr(game_model, "_block_draws")
        monkeypatch.setattr(game_model, "_cell_by_cell", lambda *args: exact.append(args[1:]))
        _transitions(np.random.default_rng(0), (10001, 1, 1), 201)  # a stub: no kernel drawn
        assert exact == [((10001, 1, 1), 201)]


class TestSingleStateGame:
    def test_prisoners_dilemma_fixture(self, prisoners_dilemma):
        game = single_state_game(prisoners_dilemma)
        assert game.n_states == 1
        assert validate(game).ok

    def test_all_self_loops(self, battle_of_sexes):
        game = single_state_game(battle_of_sexes)
        assert np.all(game.transitions == 1.0)

    def test_zero_sum_flag_preserved(self, matching_pennies):
        game = single_state_game(matching_pennies)
        assert game.is_zero_sum
        assert game.stage_game(0).is_zero_sum


class TestPolicies:
    def test_missing_entry_raises(self):
        pol = TimeDependentPolicy(2, 2, {(0, 0): np.array([1.0, 0.0])})
        pol.probs(0, 0)
        with pytest.raises(MissingPolicyEntry):
            pol.probs(0, 1)

    def test_entries_sorted(self):
        pol = TimeDependentPolicy(2, 2, {(1, 0): np.array([1.0, 0.0]),
                                         (0, 1): np.array([0.5, 0.5]),
                                         (0, 0): np.array([0.0, 1.0])})
        assert [(s, t) for s, t, _ in pol.entries()] == [(0, 0), (0, 1), (1, 0)]

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            TimeDependentPolicy(1, 2, {(0, 0): np.array([0.5, 0.6])})

    @pytest.mark.parametrize("key", [(-1, 0), (0, -1), (0, 2)])
    def test_key_out_of_range_rejected(self, key):
        with pytest.raises(DimensionMismatch, match="needs state >= 0, t < 2, 2 actions"):
            TimeDependentPolicy(2, 2, {key: np.array([1.0, 0.0])})

    def test_wrong_action_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            TimeDependentPolicy(1, 2, {(0, 0): np.array([1.0, 0.0, 0.0])})
        with pytest.raises(DimensionMismatch):
            TimeDependentPolicy(1, 2, np.full((1, 1, 3), 1.0 / 3))
        with pytest.raises(DimensionMismatch):
            StationaryPolicy([1.0, 0.0])

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            TimeDependentPolicy(2, 2, {(0, 0): [1.0, 0.0], (0, 1): [np.nan, 1.0]})
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            TimeDependentPolicy(1, 2, [[[1.0, 0.0]], [[np.nan, 1.0]]])
        with pytest.raises(ValueError, match=r"\(1,\)"):
            StationaryPolicy([[0.5, 0.5], [1.0, np.nan]])

    def test_nan_rows_are_gaps(self):
        strategies = np.array([[[1.0, 0.0], [np.nan, np.nan]],
                               [[0.5, 0.5], [0.0, 1.0]]])
        pol = TimeDependentPolicy(2, 2, strategies)
        assert [(s, t) for s, t, _ in pol.entries()] == [(0, 0), (1, 0), (1, 1)]
        np.testing.assert_array_equal(pol.probs(1, 0), [0.5, 0.5])
        with pytest.raises(MissingPolicyEntry, match=r"\(state=0, t=1\)"):
            pol.probs(0, 1)
        with pytest.raises(MissingPolicyEntry, match=r"\(state=0, t=1\)"):
            pol.dense(2, 2)
        assert pol.dense(2, 1).shape == (2, 1, 2)

    def test_dict_and_array_forms_agree(self):
        table = {(0, 0): [1.0, 0.0], (1, 1): [0.25, 0.75]}
        pol = TimeDependentPolicy(2, 2, table)
        assert pol.strategies.shape == (2, 2, 2)
        again = TimeDependentPolicy(2, 2, pol.strategies)
        np.testing.assert_array_equal(again.strategies, pol.strategies)
        assert not pol.strategies.flags.writeable

    def test_stationary_unknown_state_raises(self):
        pol = StationaryPolicy([[1.0, 0.0], [np.nan, np.nan]])
        np.testing.assert_array_equal(pol.probs(0), [1.0, 0.0])
        for state in (-1, 1, 2):
            with pytest.raises(MissingPolicyEntry, match=f"state {state}"):
                pol.probs(state)
        with pytest.raises(MissingPolicyEntry, match="state 1"):
            pol.dense(2)

    def test_key_of_the_wrong_length_rejected(self):
        timed = TimeDependentPolicy(2, 2, np.full((1, 2, 2), 0.5))
        for key in [(), (0,), (0, 0, 1)]:
            with pytest.raises(DimensionMismatch, match=r"must be \(state, t\)"):
                timed.probs(*key)
        stationary = StationaryPolicy([[0.5, 0.5]])
        for key in [(), (0, 0)]:
            with pytest.raises(DimensionMismatch, match=r"must be \(state\)"):
                stationary.probs(*key)
        np.testing.assert_array_equal(timed.probs(0, 1), [0.5, 0.5])
        np.testing.assert_array_equal(stationary.probs(0), [0.5, 0.5])

    def test_missing_entry_message_is_plain(self):
        pol = TimeDependentPolicy(1, 2, {(0, 0): [1.0, 0.0]})
        with pytest.raises(MissingPolicyEntry) as info:
            pol.probs(0, 1)
        assert str(info.value) == "no strategy stored for (state=0, t=1)"
