"""State, player, time-remaining and action arguments: None names the start
state, and a state, player, time or action outside the game is a ValueError
at every entry point, never an index that numpy wraps around or clips.
Every integer argument is an integer: a float or a string is a TypeError
naming the argument, and a numpy integer acts as the Python int.
Non-finite numeric arguments and policies over another action count than
the game's are input errors too."""

import math
import pickle
import re

import numpy as np
import pytest

from sgplan import (DimensionMismatch, GenerativeModel, MatrixGame, MixedStrategy,
                    StationaryPolicy, StochasticGame, TimeDependentPolicy, as_generative,
                    best_response, best_response_dp, derive_seed, exact_sparse_game, finite_vi,
                    gap_experiment, induced_policy, infinite_vi, nash_certificate,
                    nash_mode_probe, policy_value, random_game, sample_size, save_game,
                    save_policy_pair, security_certificate, security_level, sparse_game)
from sgplan.cli import main

from conftest import STANDARD_FIXTURE_SEED

BAD_STATES = [-1, 3]  # the fixture game has states 0..2
BAD_PLAYERS = [0, 3]


@pytest.fixture
def solved(three_state_game):
    return finite_vi(three_state_game, 2)


@pytest.fixture
def discounted(three_state_game):
    return infinite_vi(three_state_game, 0.5)


class TestStateResolution:
    def test_none_names_the_start_state(self, three_state_game):
        game = three_state_game
        moved = StochasticGame(game.payoffs1, game.payoffs2, game.transitions, start_state=2)
        assert game.state() == game.state(None) == 0
        assert moved.state(None) == 2
        assert [moved.state(s) for s in range(3)] == [0, 1, 2]

    def test_default_start_matches_explicit_start(self, three_state_game):
        game = three_state_game
        moved = StochasticGame(game.payoffs1, game.payoffs2, game.transitions, start_state=2)
        result = finite_vi(moved, 3)
        pol1, pol2 = result.policy1, result.policy2
        assert policy_value(moved, pol1, pol2, 3) == policy_value(moved, pol1, pol2, 3, 2)
        assert (nash_certificate(moved, pol1, pol2, 3)
                == nash_certificate(moved, pol1, pol2, 3, 2))

    @pytest.mark.parametrize("state", BAD_STATES)
    def test_state_method_rejects(self, three_state_game, state):
        with pytest.raises(ValueError, match=rf"state {state} not in 0\.\.2"):
            three_state_game.state(state)

    @pytest.mark.parametrize("state", BAD_STATES)
    def test_policy_value_rejects(self, three_state_game, solved, state):
        with pytest.raises(ValueError, match=rf"state {state} not in 0\.\.2"):
            policy_value(three_state_game, solved.policy1, solved.policy2, 2, start=state)

    @pytest.mark.parametrize("state", BAD_STATES)
    def test_best_response_dp_rejects(self, three_state_game, solved, state):
        with pytest.raises(ValueError, match=rf"state {state} not in 0\.\.2"):
            best_response_dp(three_state_game, solved.policy2, 2, 1, start=state)

    @pytest.mark.parametrize("state", BAD_STATES)
    def test_nash_certificate_rejects(self, three_state_game, solved, state):
        with pytest.raises(ValueError, match=rf"state {state} not in 0\.\.2"):
            nash_certificate(three_state_game, solved.policy1, solved.policy2, 2, state)

    @pytest.mark.parametrize("state", BAD_STATES)
    def test_security_certificate_rejects(self, three_state_game, discounted, state):
        with pytest.raises(ValueError, match=rf"state {state} not in 0\.\.2"):
            security_certificate(three_state_game, discounted.policy1, discounted.policy2,
                                 0.5, discounted.values1, discounted.values2, start=state)

    @pytest.mark.parametrize("state", BAD_STATES)
    def test_exact_sparse_game_rejects(self, three_state_game, state):
        with pytest.raises(ValueError, match=rf"state {state} not in 0\.\.2"):
            exact_sparse_game(three_state_game, state, 1)

    @pytest.mark.parametrize("state", BAD_STATES)
    def test_gap_experiment_rejects(self, three_state_game, state):
        with pytest.raises(ValueError, match=rf"state {state} not in 0\.\.2"):
            gap_experiment(three_state_game, 2, [1], [0], start=state)

    @pytest.mark.parametrize("state", BAD_STATES)
    def test_stage_game_rejects(self, three_state_game, state):
        with pytest.raises(ValueError, match=rf"state {state} not in 0\.\.2"):
            three_state_game.stage_game(state)


class TestClaimedValues:
    @pytest.mark.parametrize("claim", [0.5, [0.5], [0.5, 0.5], np.zeros((3, 1))])
    def test_anything_but_one_value_per_state_rejected(self, three_state_game, discounted,
                                                       claim):
        with pytest.raises(ValueError, match=r"one value per state, shape \(3,\)"):
            security_certificate(three_state_game, discounted.policy1, discounted.policy2,
                                 0.5, claim, discounted.values2)
        with pytest.raises(ValueError, match="claimed2"):
            security_certificate(three_state_game, discounted.policy1, discounted.policy2,
                                 0.5, discounted.values1, claim)

    def test_claim_read_at_the_start_state(self, three_state_game, discounted):
        base = security_certificate(three_state_game, discounted.policy1, discounted.policy2,
                                    0.5, discounted.values1, discounted.values2, start=1)
        bumped = discounted.values1.copy()
        bumped[[0, 2]] += 1.0  # only the start state's claim enters
        assert security_certificate(three_state_game, discounted.policy1, discounted.policy2,
                                    0.5, bumped, discounted.values2, start=1) == base


class TestPlayerResolution:
    @pytest.fixture
    def pd(self):
        return MatrixGame([[3, 0], [5, 1]], [[3, 5], [0, 1]])

    @pytest.mark.parametrize("player", BAD_PLAYERS)
    def test_best_response_rejects(self, pd, player):
        with pytest.raises(ValueError, match=f"player must be 1 or 2, got {player}"):
            best_response(pd, player, MixedStrategy.uniform(2))

    @pytest.mark.parametrize("player", BAD_PLAYERS)
    def test_payoff_and_security_level_reject(self, pd, player):
        with pytest.raises(ValueError, match=f"player must be 1 or 2, got {player}"):
            pd.payoff(player)
        with pytest.raises(ValueError, match=f"player must be 1 or 2, got {player}"):
            security_level(pd, player)

    @pytest.mark.parametrize("player", BAD_PLAYERS)
    def test_best_response_dp_rejects(self, three_state_game, solved, player):
        with pytest.raises(ValueError, match=f"player must be 1 or 2, got {player}"):
            best_response_dp(three_state_game, solved.policy2, 2, player)

    @pytest.mark.parametrize("player", BAD_PLAYERS)
    def test_backup_table_rejects(self, solved, player):
        with pytest.raises(ValueError, match=f"player must be 1 or 2, got {player}"):
            solved.table.q(player, 0, 0)
        with pytest.raises(ValueError, match=f"player must be 1 or 2, got {player}"):
            solved.table.value(player, 0, 0)

    @pytest.mark.parametrize("player", BAD_PLAYERS)
    def test_induced_strategy_rejects_before_planning(self, three_state_game, player):
        pair = induced_policy(as_generative(three_state_game), 1, 2, 0)
        with pytest.raises(ValueError, match=f"player must be 1 or 2, got {player}"):
            pair.strategy(player, 0, 1)
        assert pair.nodes_expanded == 0

    def test_valid_players_unchanged(self, pd, solved):
        alpha = MixedStrategy([0.25, 0.75])
        assert best_response(pd, 1, alpha) == (1, float(np.max(pd.payoff1 @ alpha.probs)))
        assert best_response(pd, 2, alpha) == (1, float(np.max(alpha.probs @ pd.payoff2)))
        assert solved.table.value(1, 2, 1) == float(solved.table.values1[2, 1])
        assert solved.table.value(2, 2, 1) == float(solved.table.values2[2, 1])
        assert np.array_equal(solved.table.q(2, 1, 0), solved.table.q2[1, 0])


class TestCliStates:
    @pytest.fixture
    def files(self, tmp_path, monkeypatch, three_state_game):
        monkeypatch.chdir(tmp_path)
        save_game(three_state_game, "g.json")
        result = finite_vi(three_state_game, 2)
        save_policy_pair(result.policy1, result.policy2, "p.json")

    @pytest.mark.parametrize("argv", [
        ["certify", "--game", "g.json", "--horizon", "2", "--policy", "p.json", "--start", "-1"],
        ["certify", "--game", "g.json", "--horizon", "2", "--policy", "p.json", "--start", "5"],
        ["gap-experiment", "--game", "g.json", "--horizon", "2", "--m-list", "1",
         "--seeds", "1", "--out", "gaps.csv", "--start", "7"],
    ])
    def test_unknown_state_exits_one(self, files, capsys, argv):
        state = argv[argv.index("--start") + 1]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: state {state} not in 0..2\n"


MODEL_CALLS = {
    "payoffs": lambda model, s: model.payoffs(s),
    "sample_from_uniform": lambda model, s: model.sample_from_uniform(s, 0, 0, 0.5),
    "sample_from_uniform_many":
        lambda model, s: model.sample_from_uniform_many(s, 0, 0, np.array([0.25, 0.5])),
    "distribution": lambda model, s: model.distribution(s, 0, 0),
}


class TestModelStates:
    @pytest.mark.parametrize("state", BAD_STATES)
    @pytest.mark.parametrize("method", sorted(MODEL_CALLS))
    def test_model_rejects(self, three_state_game, method, state):
        model = as_generative(three_state_game)
        with pytest.raises(ValueError, match=rf"state {state} not in 0\.\.2"):
            MODEL_CALLS[method](model, state)


# (state, t) outside a horizon-2 table of the three-state fixture
BAD_ENTRIES = [pytest.param(-1, 0, r"state -1 not in 0\.\.2", id="state=-1"),
               pytest.param(3, 0, r"state 3 not in 0\.\.2", id="state=3"),
               pytest.param(0, -1, r"time remaining -1 not in 0\.\.1", id="t=-1"),
               pytest.param(0, 2, r"time remaining 2 not in 0\.\.1", id="t=2")]


class TestTimeResolution:
    @pytest.mark.parametrize("state, t, message", BAD_ENTRIES)
    @pytest.mark.parametrize("lookup", ["q", "value", "profile"])
    def test_backup_table_rejects(self, solved, lookup, state, t, message):
        table = solved.table
        call = {"q": lambda: table.q(1, state, t), "value": lambda: table.value(2, state, t),
                "profile": lambda: table.profile(state, t)}[lookup]
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("t", [-1, 2, 5])
    def test_induced_plan_rejects_before_planning(self, three_state_game, t):
        pair = induced_policy(as_generative(three_state_game), 2, 2, 0)
        with pytest.raises(ValueError, match=rf"time remaining {t} not in 0\.\.1"):
            pair.plan(0, t)
        assert pair.nodes_expanded == 0


# (i, j) calls on state 0 of the three-state fixture, which has actions 0..1
ACTION_CALLS = {
    "sample": lambda model, i, j: model.sample(0, i, j, np.random.default_rng(0)),
    "sample_from_uniform": lambda model, i, j: model.sample_from_uniform(0, i, j, 0.5),
    "sample_from_uniform_many":
        lambda model, i, j: model.sample_from_uniform_many(0, i, j, np.array([0.25, 0.5])),
    "distribution": lambda model, i, j: model.distribution(0, i, j),
}
BAD_ACTIONS = [-1, 2]


class TestActionResolution:
    @pytest.mark.parametrize("action", BAD_ACTIONS)
    @pytest.mark.parametrize("player", ["row", "col"])
    @pytest.mark.parametrize("method", sorted(ACTION_CALLS))
    def test_model_rejects(self, three_state_game, method, player, action):
        model = as_generative(three_state_game)
        i, j = (action, 0) if player == "row" else (0, action)
        with pytest.raises(ValueError, match=rf"{player} action {action} not in 0\.\.1"):
            ACTION_CALLS[method](model, i, j)

    @pytest.mark.parametrize("action", BAD_ACTIONS)
    def test_pure_strategy_rejects(self, action):
        with pytest.raises(ValueError, match=rf"action {action} not in 0\.\.1"):
            MixedStrategy.pure(2, action)


class TestNumericArguments:
    @pytest.mark.parametrize("argv, message", [
        (["generate", "--scale", "nan"], "payoff_scale must be finite and >= 0, got nan"),
        (["generate", "--scale", "inf"], "payoff_scale must be finite and >= 0, got inf"),
        (["generate", "--scale", "-1"], "payoff_scale must be finite and >= 0, got -1.0"),
        (["sample-size", "--c", "inf"], "c must be finite and positive, got inf"),
        (["sample-size", "--c", "nan"], "c must be finite and positive, got nan"),
        (["sample-size", "--epsilon", "nan"], "epsilon must be finite and positive, got nan"),
        (["sample-size", "--epsilon", "inf"], "epsilon must be finite and positive, got inf"),
        (["generate", "--scale", "1e308"],
         "payoff_scale 1e+308 overflows the payoff range 2 * payoff_scale"),
        (["sample-size", "--epsilon", "1e-200"],
         "sample size overflows float64 at t=4, epsilon=1e-200, n=2, c=1.0"),
        (["sample-size", "--c", "1e308"],
         "sample size overflows float64 at t=4, epsilon=0.1, n=2, c=1e+308"),
    ])
    def test_cli_exits_one(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        common = {"generate": ["--states", "2", "--rows", "2", "--cols", "2", "--branching",
                               "1", "--seed", "0", "--out", "g.json"],
                  "sample-size": ["--t", "4", "--epsilon", "0.1", "--n", "2"]}[argv[0]]
        assert main(argv[:1] + common + argv[1:]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")
        assert not (tmp_path / "g.json").exists()


class TestFloatRanges:
    """A float argument that takes a result beyond float64 is a ValueError
    naming the arguments (at the CLI: TestNumericArguments)."""

    @pytest.mark.parametrize("args", [(2, 1e-200, 2), (2, 1e-160, 2), (2, 1e300, 2),
                                      (2, 0.1, 2, 1e308)], ids=repr)
    def test_sample_size_rejects(self, args):
        t, epsilon, n, c = args + (1.0,) * (4 - len(args))
        with pytest.raises(ValueError, match=re.escape(
                f"sample size overflows float64 at t={t}, epsilon={epsilon}, n={n}, c={c}")):
            sample_size(*args)

    @pytest.mark.parametrize("args", [(4, 0.1, 2), (2, 1e-150, 2), (3, 1e150, 5, 0.5),
                                      (1, 0.25, 9, 1e300)], ids=repr)
    def test_sample_size_in_range_unchanged(self, args):
        t, epsilon, n, c = args + (1.0,) * (4 - len(args))
        horizon_term = (t ** 3 / epsilon ** 2) * max(0.0, math.log(t / epsilon))
        action_term = t * max(0.0, math.log(n / epsilon))
        assert sample_size(*args) == math.ceil(c * (horizon_term + action_term)) + 1

    def test_random_game_scale_limit(self):
        top = np.finfo(float).max / 2
        assert random_game(2, 2, 2, 1, top, seed=0).r_max == top
        with pytest.raises(ValueError, match=r"^payoff_scale 8\.98846567431158e\+307 overflows"):
            random_game(2, 2, 2, 1, np.nextafter(top, np.inf), seed=0)


class TestPolicyActionCounts:
    """A policy over another action count than the game's is a
    DimensionMismatch naming both counts, in every certificate DP."""

    @pytest.fixture
    def wide(self):  # the three-state fixture's shape with a third row action
        return finite_vi(random_game(3, 3, 2, 2, 1.0, seed=5), 2)

    def test_finite_certificates_reject(self, three_state_game, wide):
        narrow = finite_vi(three_state_game, 2)
        for call in (lambda: policy_value(three_state_game, wide.policy1, narrow.policy2, 2),
                     lambda: nash_certificate(three_state_game, wide.policy1, narrow.policy2, 2),
                     lambda: best_response_dp(three_state_game, wide.policy1, 2, 2)):
            with pytest.raises(DimensionMismatch, match="policy has 3 actions, the game has 2"):
                call()

    def test_security_certificate_rejects(self, three_state_game, discounted):
        wide = StationaryPolicy(np.full((3, 3), 1.0 / 3))
        with pytest.raises(DimensionMismatch, match="policy has 3 actions, the game has 2"):
            security_certificate(three_state_game, wide, discounted.policy2, 0.5,
                                 discounted.values1, discounted.values2)

    def test_certify_exits_one(self, tmp_path, monkeypatch, capsys, three_state_game, wide):
        monkeypatch.chdir(tmp_path)
        save_game(three_state_game, "g.json")
        save_policy_pair(wide.policy1, wide.policy2, "p.json")
        assert main(["certify", "--game", "g.json", "--horizon", "2", "--policy", "p.json"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: policy has 3 actions, the game has 2\n")


GAME = random_game(3, 2, 2, 2, 1.0, seed=STANDARD_FIXTURE_SEED)
MODEL = as_generative(GAME)
SOLVED = finite_vi(GAME, 2)
POLICY = TimeDependentPolicy(2, 2, {(0, 0): [1.0, 0.0], (1, 1): [0.5, 0.5]})


class Opaque(GenerativeModel):
    """MODEL without its `game`, so no entry point knows its state count."""

    n_row_actions = n_col_actions = 2

    def payoffs(self, state):
        return MODEL.payoffs(state)

    def sample_from_uniform_many(self, state, i, j, us):
        return MODEL.sample_from_uniform_many(state, i, j, us)


# entry point: (the argument's name in messages, a valid value, a call on the value)
INTEGER_ARGUMENTS = {
    "state": ("state", 1, lambda v: GAME.state(v)),
    "start_state": ("start_state", 2, lambda v: StochasticGame(
        GAME.payoffs1, GAME.payoffs2, GAME.transitions, start_state=v)),
    "stage_game": ("state", 1, lambda v: GAME.stage_game(v)),
    "policy_value-start": ("state", 1,
                           lambda v: policy_value(GAME, SOLVED.policy1, SOLVED.policy2, 2, v)),
    "policy_value-horizon": ("horizon", 2,
                             lambda v: policy_value(GAME, SOLVED.policy1, SOLVED.policy2, v)),
    "best_response_dp-horizon": ("horizon", 2,
                                 lambda v: best_response_dp(GAME, SOLVED.policy2, v, 1)),
    "finite_vi-horizon": ("horizon", 2, lambda v: finite_vi(GAME, v)),
    "BackupTable-state": ("state", 1, lambda v: SOLVED.table.value(1, v, 0)),
    "BackupTable-t": ("time remaining", 1, lambda v: SOLVED.table.q(2, 0, v)),
    "pure": ("action", 1, lambda v: MixedStrategy.pure(2, v)),
    "model-state": ("state", 1, lambda v: MODEL.payoffs(v)),
    "model-row-action": ("row action", 1, lambda v: MODEL.distribution(0, v, 0)),
    "model-col-action": ("col action", 1, lambda v: MODEL.sample_from_uniform(0, 0, v, 0.5)),
    "sparse_game-state": ("state", 1, lambda v: sparse_game(MODEL, v, 1, 2, 0)),
    "sparse_game-generic-state": ("state", 1, lambda v: sparse_game(Opaque(), v, 1, 2, 0)),
    "sparse_game-t": ("time remaining", 1, lambda v: sparse_game(MODEL, 0, v, 2, 0)),
    "sparse_game-m": ("sample count m", 2, lambda v: sparse_game(MODEL, 0, 1, v, 0)),
    "sparse_game-seed": ("seed", 1, lambda v: sparse_game(MODEL, 0, 1, 2, v)),
    "sparse_game-node_budget": ("node_budget", 9,
                                lambda v: sparse_game(MODEL, 0, 1, 2, 0, node_budget=v)),
    "exact_sparse_game-t": ("time remaining", 1, lambda v: exact_sparse_game(GAME, 0, v)),
    "induced_policy-m": ("sample count m", 2, lambda v: induced_policy(MODEL, v, 2, 0)),
    "induced_policy-horizon": ("horizon", 2, lambda v: induced_policy(MODEL, 2, v, 0)),
    "induced_policy-seed": ("seed", 1, lambda v: induced_policy(MODEL, 2, 2, v)),
    "induced_policy-node_budget": ("node_budget", 9, lambda v: induced_policy(
        MODEL, 2, 2, 0, node_budget=v).plan(0, 1)),
    "plan-state": ("state", 1, lambda v: induced_policy(MODEL, 2, 2, 0).plan(v, 1)),
    "plan-t": ("time remaining", 1, lambda v: induced_policy(MODEL, 2, 2, 0).plan(0, v)),
    "derive_seed-parent": ("seed", 1, lambda v: derive_seed(v, 2)),
    "derive_seed-field": ("seed", 1, lambda v: derive_seed(2, v)),
    "gap_experiment-horizon": ("horizon", 2, lambda v: gap_experiment(GAME, v, [1], [0])),
    "gap_experiment-m": ("sample count m", 1, lambda v: gap_experiment(GAME, 2, [v], [0])),
    "gap_experiment-seed": ("seed", 1, lambda v: gap_experiment(GAME, 2, [1, "exact"], [v])),
    "infinite_vi-max_iter": ("sweep limit max_iter", 3,
                             lambda v: infinite_vi(GAME, 0.5, max_iter=v)),
    "nash_mode_probe-max_iter": ("sweep limit max_iter", 3,
                                 lambda v: nash_mode_probe(GAME, 0.5, max_iter=v)),
    "random_game-n_states": ("n_states", 3, lambda v: random_game(v, 2, 2, 2, 1.0, seed=7)),
    "random_game-n_row_actions": ("n_row_actions", 2,
                                  lambda v: random_game(3, v, 2, 2, 1.0, seed=7)),
    "random_game-n_col_actions": ("n_col_actions", 2,
                                  lambda v: random_game(3, 2, v, 2, 1.0, seed=7)),
    "random_game-branching": ("branching", 2, lambda v: random_game(3, 2, 2, v, 1.0, seed=7)),
    "random_game-seed": ("seed", 7, lambda v: random_game(3, 2, 2, 2, 1.0, seed=v)),
    "sample_size-t": ("t", 4, lambda v: sample_size(v, 0.1, 2)),
    "sample_size-n": ("n", 2, lambda v: sample_size(4, 0.1, v)),
    "policy-probs-key": ("policy key", 1, lambda v: POLICY.probs(v, 1)),
    "policy-dict-key": ("policy key", 1,
                        lambda v: TimeDependentPolicy(2, 2, {(v, 0): [1.0, 0.0]})),
    "policy-horizon": ("horizon", 2, lambda v: TimeDependentPolicy(v, 2, {(0, 0): [1.0, 0.0]})),
    "policy-n_actions": ("n_actions", 2,
                         lambda v: TimeDependentPolicy(2, v, {(0, 0): [1.0, 0.0]})),
    "best_response-player": ("player", 2, lambda v: best_response(
        GAME.stage_game(0), v, MixedStrategy.uniform(2))),
    "payoff-player": ("player", 1, lambda v: GAME.stage_game(0).payoff(v)),
    "best_response_dp-player": ("player", 1,
                                lambda v: best_response_dp(GAME, SOLVED.policy2, 2, v)),
    "BackupTable-player": ("player", 2, lambda v: SOLVED.table.q(v, 0, 0)),
    "induced_strategy-player": ("player", 1,
                                lambda v: induced_policy(MODEL, 2, 2, 0).strategy(v, 0, 1)),
}


class TestIntegerRule:
    @pytest.mark.parametrize("bad", [1.0, 1.5, "1", np.float64(1)], ids=repr)
    @pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
    def test_non_integer_rejected_by_name(self, entry, bad):
        name, _, call = INTEGER_ARGUMENTS[entry]
        with pytest.raises(TypeError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            call(bad)

    @pytest.mark.parametrize("kind", [np.int64, np.uint8])
    @pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
    def test_numpy_integer_acts_as_int(self, entry, kind):
        _, good, call = INTEGER_ARGUMENTS[entry]
        assert pickle.dumps(call(kind(good))) == pickle.dumps(call(good))
