import hashlib
import json
import os

import numpy as np
import pytest

from sgplan import (DimensionMismatch, GameFileError, MissingPolicyEntry,
                    TimeDependentPolicy, as_generative, induced_policy, load_game,
                    load_policy_pair, random_game, save_game, save_policy_pair,
                    single_state_game)
from sgplan import io as sgio
from sgplan.cli import main
from sgplan.io import write_trace

from conftest import run_cli


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    save_game(random_game(3, 2, 2, 2, 1.0, seed=7), path)
    return path


class TestGameFiles:
    def test_round_trip_exact(self, tmp_path):
        game = random_game(4, 2, 3, 3, 1.5, seed=11)
        path = tmp_path / "g.json"
        save_game(game, path)
        loaded = load_game(path)
        assert np.array_equal(loaded.payoffs1, game.payoffs1)
        assert np.array_equal(loaded.payoffs2, game.payoffs2)
        assert np.array_equal(loaded.transitions, game.transitions)
        assert loaded.start_state == game.start_state
        assert loaded.r_max == game.r_max

    @pytest.mark.parametrize("zero_sum", [True, False])
    def test_zero_sum_flag_survives_round_trip(self, tmp_path, zero_sum):
        game = random_game(3, 2, 3, 2, 1.0, seed=4, zero_sum=zero_sum)
        save_game(game, tmp_path / "g.json")
        assert "is_zero_sum" not in json.loads((tmp_path / "g.json").read_text())
        loaded = load_game(tmp_path / "g.json")
        assert loaded.is_zero_sum is zero_sum
        assert loaded.stage_game(1).is_zero_sum is zero_sum

    def test_zero_probability_entries_omitted(self, tmp_path, prisoners_dilemma):
        path = tmp_path / "g.json"
        save_game(single_state_game(prisoners_dilemma), path)
        doc = json.loads(path.read_text())
        for row in doc["transitions"][0]:
            for cell in row:
                assert cell == [{"to": 0, "p": 1.0}]

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "g.json"
        save_game(random_game(2, 2, 2, 2, 1.0, seed=1), path)
        doc = json.loads(path.read_text())
        del doc["transitions"]
        path.write_text(json.dumps(doc))
        with pytest.raises(GameFileError, match="transitions"):
            load_game(path)

    def test_bad_probability_sum_named(self, tmp_path):
        path = tmp_path / "g.json"
        save_game(random_game(2, 2, 2, 2, 1.0, seed=1), path)
        doc = json.loads(path.read_text())
        doc["transitions"][1][0][1] = [
            {"to": entry["to"], "p": entry["p"] * 0.98}
            for entry in doc["transitions"][1][0][1]]
        path.write_text(json.dumps(doc))
        with pytest.raises(GameFileError, match=r"s=1, i=0, j=1"):
            load_game(path)

    def test_small_drift_renormalized(self, tmp_path):
        path = tmp_path / "g.json"
        save_game(random_game(2, 2, 2, 2, 1.0, seed=1), path)
        doc = json.loads(path.read_text())
        entry = doc["transitions"][0][0][0][0]
        entry["p"] = entry["p"] * (1 + 5e-10)
        path.write_text(json.dumps(doc))
        game = load_game(path)
        sums = game.transitions.sum(axis=3)
        assert np.abs(sums - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("grow, message", [
        (lambda tr: tr.append(tr[0]), "transitions has 3 states, expected 2"),
        (lambda tr: tr[1][0].append(tr[1][0][0]), "transitions has 3 col actions, expected 2"),
    ], ids=["extra-state", "extra-column-list"])
    def test_transitions_larger_than_header_rejected(self, tmp_path, grow, message):
        save_game(random_game(2, 2, 2, 2, 1.0, seed=1), tmp_path / "g.json")
        doc = json.loads((tmp_path / "g.json").read_text())
        grow(doc["transitions"])
        (tmp_path / "g.json").write_text(json.dumps(doc))
        with pytest.raises(GameFileError) as info:
            load_game(tmp_path / "g.json")
        assert str(info.value) == f"{tmp_path / 'g.json'}: {message}"
        half = TimeDependentPolicy(2, 2, np.full((2, 2, 2), 0.5))
        save_policy_pair(half, half, tmp_path / "p.json")
        r = run_cli(["certify", "--game", "g.json", "--horizon", "2", "--policy", "p.json"],
                    tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (1, "", f"error: g.json: {message}\n")

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("{not json")
        with pytest.raises(GameFileError, match="line 1"):
            load_game(path)


class TestPolicyFiles:
    def test_round_trip(self, tmp_path):
        from sgplan import finite_vi
        game = random_game(3, 2, 2, 2, 1.0, seed=5)
        result = finite_vi(game, 3)
        path = tmp_path / "p.json"
        save_policy_pair(result.policy1, result.policy2, path)
        pol1, pol2 = load_policy_pair(path)
        assert pol1.horizon == 3
        for s in range(3):
            for t in range(3):
                np.testing.assert_array_equal(pol1.probs(s, t), result.policy1.probs(s, t))
                np.testing.assert_array_equal(pol2.probs(s, t), result.policy2.probs(s, t))

    @staticmethod
    def write_entries(path, horizon, keys, row_probs=(1.0, 0.0)):
        entries = [{"state": s, "t": t, "row_probs": list(row_probs),
                    "col_probs": [0.5, 0.5]} for s, t in keys]
        path.write_text(json.dumps({"horizon": horizon, "entries": entries}))

    def test_complete_table_loads(self, tmp_path):
        path = tmp_path / "p.json"
        self.write_entries(path, 2, [(1, 1), (0, 0), (1, 0), (0, 1)])
        pol1, pol2 = load_policy_pair(path)
        assert [(s, t) for s, t, _ in pol1.entries()] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert pol2.strategies.shape == (2, 2, 2)

    @pytest.mark.parametrize("keys, message", [
        ([(0, 0), (-1, 0)], r"\(state=-1, t=0\) is repeated or out of range"),
        ([(0, 0), (0, 1), (0, 2)], r"\(state=0, t=2\) is repeated or out of range"),
        ([(0, 0), (0, 1), (0, -1)], r"\(state=0, t=-1\) is repeated or out of range"),
        ([(0, 0), (0, 1), (0, 0)], r"\(state=0, t=0\) is repeated or out of range"),
        ([(0, 0), (0, 1), (1, 1)], r"\(state=1, t=0\) is missing"),
        ([(0, 0), (0, 1), (10 ** 9, 0)], r"\(state=1, t=0\) is missing"),
        ([(0, 0), (0, 2)], r"\(state=0, t=1\) is missing"),
    ])
    def test_malformed_table_rejected(self, tmp_path, keys, message):
        path = tmp_path / "p.json"
        self.write_entries(path, 2, keys)
        with pytest.raises(GameFileError, match=message):
            load_policy_pair(path)

    def test_save_refuses_a_gap(self, tmp_path):
        model = as_generative(random_game(3, 2, 2, 2, 1.0, seed=7))
        cases = [(induced_policy(model, 2, 2, 0).materialize([0, 2]), r"\(state=1, t=0\)")]
        for n_states, horizon in ((0, 2), (3, 0)):  # an empty table: all gap
            half = TimeDependentPolicy(horizon, 2, np.full((n_states, horizon, 2), 0.5))
            cases.append(((half, half), "policy has no entries"))
        path = tmp_path / "p.json"
        for (pol1, pol2), message in cases:
            with pytest.raises(MissingPolicyEntry, match=message):
                save_policy_pair(pol1, pol2, path)
            assert not path.exists()

    @pytest.mark.parametrize("horizons, n_states", [((2, 3), (3, 3)), ((2, 2), (3, 2))])
    def test_save_refuses_mismatched_halves(self, tmp_path, horizons, n_states):
        halves = [TimeDependentPolicy(h, 2, np.full((n, h, 2), 0.5))
                  for h, n in zip(horizons, n_states)]
        path = tmp_path / "p.json"
        with pytest.raises(DimensionMismatch, match="policy halves differ"):
            save_policy_pair(*halves, path)
        assert not path.exists()

    def test_nan_probability_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        self.write_entries(path, 1, [(0, 0)], row_probs=(float("nan"), 1.0))
        with pytest.raises(ValueError, match="not a probability vector") as info:
            load_policy_pair(path)
        assert str(info.value).startswith(f"policy file {path}: 'row_probs': ")

    @pytest.mark.parametrize("load, text, kind, key", [
        (load_policy_pair, '{"entries": []}', "policy", "horizon"),
        (load_policy_pair, '{"horizon": 2}', "policy", "entries"),
        (load_game, "{}", "game", "version"),
    ])
    def test_missing_key_names_the_file(self, tmp_path, load, text, kind, key):
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(GameFileError) as info:
            load(path)
        assert str(info.value) == f"{kind} file {path}: missing required key '{key}'"


class TestTraces:
    def test_non_finite_refused(self, tmp_path):
        with pytest.raises(GameFileError):
            write_trace(tmp_path / "t.csv", ("a",), [(float("nan"),)])
        with pytest.raises(GameFileError):
            write_trace(tmp_path / "t.csv", ("a",), [(float("inf"),)])

    def test_header_and_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(path, ("x", "y"), [(1, 1 / 3)])
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == f"1,{1 / 3!r}"
        assert float(lines[1].split(",")[1]) == 1 / 3


class TestAtomicWrites:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(path, ("x",), [(1,)])
        before = path.read_bytes()
        with pytest.raises(GameFileError):  # the second row fails after the first is written
            write_trace(path, ("x",), [(2,), (float("nan"),)])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_interrupted_save_keeps_the_old_file(self, tmp_path, game_file, monkeypatch):
        before = game_file.read_bytes()
        write_chunk = sgio._write_chunk

        def partial_chunk(fh, text, lo, hi, depth):
            write_chunk(fh, text, lo, (lo + hi) // 2, depth)  # half the chunk reaches the file
            fh.flush()
            assert os.path.getsize(fh.name) > 0
            raise OSError("no space left on device")
        monkeypatch.setattr(sgio, "_write_chunk", partial_chunk)
        with pytest.raises(OSError, match="no space"):
            save_game(random_game(2, 2, 2, 1, 1.0, seed=3), game_file)
        assert game_file.read_bytes() == before
        assert os.listdir(tmp_path) == ["game.json"]

    def test_failed_open_names_the_target(self, tmp_path):
        r = run_cli(["generate", "--states", "2", "--rows", "2", "--cols", "2",
                     "--branching", "1", "--seed", "1", "--out", "nodir/g.json"], tmp_path)
        assert r.returncode == 1
        assert r.stderr == "error: [Errno 2] No such file or directory: 'nodir/g.json'\n"
        assert list(tmp_path.rglob("*")) == []

    def test_new_file_has_the_plain_open_mode(self, tmp_path):
        save_game(random_game(2, 2, 2, 1, 1.0, seed=3), tmp_path / "g.json")
        (tmp_path / "plain").write_text("")
        assert (os.stat(tmp_path / "g.json").st_mode
                == os.stat(tmp_path / "plain").st_mode)


def _game_text(**header):
    """A one-state game file with some of its header fields replaced."""
    doc = {"version": 1, "n_states": 1, "n_row_actions": 1, "n_col_actions": 1,
           "start_state": 0, "r_max": 1.0, "payoffs1": [[[0.5]]], "payoffs2": [[[0.5]]],
           "transitions": [[[[{"to": 0, "p": 1.0}]]]]}
    return json.dumps({**doc, **header})


# header values of the wrong JSON type
BAD_HEADERS = [("version", True), ("n_states", None), ("n_states", [1]), ("n_states", "1"),
               ("n_states", 1.0), ("n_states", True), ("n_row_actions", None),
               ("n_col_actions", [1]), ("start_state", None), ("r_max", None), ("r_max", [1]),
               ("r_max", "x"), ("r_max", True)]


def _transition_text(to=1, p=1.0):
    """A two-state game file whose first transition entry is {"to": to, "p": p}."""
    return _game_text(n_states=2, payoffs1=[[[0.5]]] * 2, payoffs2=[[[0.5]]] * 2,
                      transitions=[[[[{"to": to, "p": p}]]], [[[{"to": 0, "p": 1.0}]]]])


def _policy_text(state=0, t=0, **probs):
    """A complete policy file for 3 states, horizon 2 and 2x2 actions whose
    first entry has the keys state and t in place of (0, 0), and the
    row_probs or col_probs given in probs."""
    keys = [(state, t)] + [(s, k) for s in range(3) for k in range(2)][1:]
    entries = [{"state": s, "t": k, "row_probs": [1.0, 0.0], "col_probs": [0.5, 0.5]}
               for s, k in keys]
    entries[0].update(probs)
    return json.dumps({"horizon": 2, "entries": entries})


# transition and policy entry keys of the wrong JSON type: the first key
# named is the one reported
BAD_TRANSITIONS = [{"to": 1.7}, {"to": "1"}, {"to": True}, {"p": "1.0"}, {"p": True}]
BAD_POLICY_KEYS = [{"state": 0.9, "t": "0"}, {"state": True, "t": False}, {"t": "0"}]
# payoff and probability arrays holding an element that is not a JSON number
BAD_PAYOFFS = [{"payoffs1": [[["0.5"]]]}, {"payoffs2": [[[True]]]}, {"payoffs1": [[[None]]]}]
BAD_POLICY_PROBS = [{"row_probs": ["1.0", 0.0]}, {"col_probs": [True, False]},
                    {"row_probs": [1.0, None]}]


def _entry_id(bad):
    return ",".join(f"{key}={json.dumps(value)}" for key, value in bad.items())


class TestMalformedJson:
    @pytest.mark.parametrize("argv, name, text", [
        (["solve-finite", "--game", "bad.json", "--horizon", "2"], "bad.json", "5"),
        (["certify", "--game", "game.json", "--horizon", "2", "--policy", "p.json"],
         "p.json", "5"),
        (["run-suite", "suite.json"], "suite.json", "[1]"),
        (["run-suite", "suite.json"], "suite.json", '{"experiments": [5]}'),
        (["run-suite", "suite.json"], "suite.json", '{"experiments": 5}'),
        (["run-suite", "suite.json"], "suite.json", '{"experiments": ['),
        *(pytest.param(["solve-finite", "--game", "bad.json", "--horizon", "2"], "bad.json",
                       _game_text(**{key: value}), id=f"{key}={json.dumps(value)}")
          for key, value in BAD_HEADERS + [("start_state", 5)]),
        pytest.param(["certify", "--game", "game.json", "--horizon", "2", "--policy", "p.json"],
                     "p.json", '{"horizon": null, "entries": []}', id="horizon=null"),
        *(pytest.param(["solve-finite", "--game", "bad.json", "--horizon", "2"], "bad.json",
                       _transition_text(**bad), id=_entry_id(bad)) for bad in BAD_TRANSITIONS),
        *(pytest.param(["certify", "--game", "game.json", "--horizon", "2",
                        "--policy", "p.json"], "p.json", _policy_text(**bad), id=_entry_id(bad))
          for bad in BAD_POLICY_KEYS + BAD_POLICY_PROBS),
        *(pytest.param(["solve-finite", "--game", "bad.json", "--horizon", "2"], "bad.json",
                       _game_text(**bad), id=_entry_id(bad)) for bad in BAD_PAYOFFS),
        pytest.param(["certify", "--game", "bad.json", "--horizon", "2", "--policy", "p.json"],
                     "bad.json", "[" * 200_000 + "]" * 200_000, id="nested-too-deep"),
        pytest.param(["solve-finite", "--game", "bad.json", "--horizon", "2"], "bad.json",
                     b"\xff\xfe{}", id="not-utf-8"),
    ])
    def test_exits_one_without_traceback(self, tmp_path, game_file, argv, name, text):
        path = tmp_path / name
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
        r = run_cli(argv, tmp_path)
        assert r.returncode == 1
        assert "error:" in r.stderr
        assert "Traceback" not in r.stderr
        assert name in r.stderr

    @pytest.mark.parametrize("key, value", BAD_HEADERS)
    def test_bad_header_names_the_key(self, tmp_path, key, value):
        path = tmp_path / "g.json"
        path.write_text(_game_text(**{key: value}))
        with pytest.raises(GameFileError) as info:
            load_game(path)
        assert str(info.value).startswith(f"game file {path}: '{key}' must be ")

    @pytest.mark.parametrize("bad", BAD_TRANSITIONS, ids=_entry_id)
    def test_bad_transition_names_the_entry(self, tmp_path, bad):
        path = tmp_path / "g.json"
        path.write_text(_transition_text(**bad))
        with pytest.raises(GameFileError) as info:
            load_game(path)
        assert str(info.value).startswith(f"game file {path} transition (s=0, i=0, j=0) "
                                          f"entry 0: '{next(iter(bad))}' must be ")

    @pytest.mark.parametrize("bad", BAD_POLICY_KEYS, ids=_entry_id)
    def test_bad_policy_key_names_the_entry(self, tmp_path, bad):
        path = tmp_path / "p.json"
        path.write_text(_policy_text(**bad))
        with pytest.raises(GameFileError) as info:
            load_policy_pair(path)
        assert str(info.value).startswith(
            f"policy file {path} entry 0: '{next(iter(bad))}' must be ")

    @pytest.mark.parametrize("bad", BAD_PAYOFFS, ids=_entry_id)
    def test_bad_payoff_names_the_key(self, tmp_path, bad):
        path = tmp_path / "g.json"
        path.write_text(_game_text(**bad))
        with pytest.raises(GameFileError) as info:
            load_game(path)
        assert str(info.value).startswith(
            f"game file {path}: '{next(iter(bad))}' must hold numbers only, got ")

    @pytest.mark.parametrize("bad", BAD_POLICY_PROBS, ids=_entry_id)
    def test_bad_probability_names_the_entry(self, tmp_path, bad):
        path = tmp_path / "p.json"
        path.write_text(_policy_text(**bad))
        with pytest.raises(GameFileError) as info:
            load_policy_pair(path)
        assert str(info.value).startswith(
            f"policy file {path} entry 0: '{next(iter(bad))}' must hold numbers only, got ")


class TestCommands:
    def test_generate_solve_certify_flow(self, tmp_path):
        r = run_cli(["generate", "--states", "2", "--rows", "2", "--cols", "2",
                     "--branching", "2", "--scale", "1.0", "--seed", "3",
                     "--out", "g.json"], tmp_path)
        assert r.returncode == 0
        r = run_cli(["solve-finite", "--game", "g.json", "--horizon", "3",
                     "--out-policy", "p.json", "--trace", "t.csv"], tmp_path)
        assert r.returncode == 0
        assert (tmp_path / "t.csv").read_text().startswith("t,state,value1,value2")
        r = run_cli(["certify", "--game", "g.json", "--horizon", "3",
                     "--policy", "p.json"], tmp_path)
        assert r.returncode == 0
        gaps = [float(tok.split("=")[1]) for tok in r.stdout.split()
                if tok.startswith("gap")]
        assert max(gaps) <= 1e-8

    def test_solve_finite_pd_policy_defects(self, tmp_path, prisoners_dilemma):
        save_game(single_state_game(prisoners_dilemma), tmp_path / "pd.json")
        r = run_cli(["solve-finite", "--game", "pd.json", "--horizon", "3",
                     "--out-policy", "p.json"], tmp_path)
        assert r.returncode == 0
        pol1, pol2 = load_policy_pair(tmp_path / "p.json")
        for t in range(3):
            np.testing.assert_array_equal(pol1.probs(0, t), [0, 1])
            np.testing.assert_array_equal(pol2.probs(0, t), [0, 1])

    def test_sample_size_output(self, tmp_path):
        r = run_cli(["sample-size", "--t", "4", "--epsilon", "0.1", "--n", "2",
                     "--c", "1"], tmp_path)
        assert r.returncode == 0
        assert r.stdout.strip() == "23622"

    def test_sparse_plan_runs(self, game_file, tmp_path):
        r = run_cli(["sparse-plan", "--game", "game.json", "--state", "0",
                     "--t", "2", "--m", "2", "--seed", "5"], tmp_path)
        assert r.returncode == 0
        assert "nodes=73" in r.stdout

    @pytest.mark.parametrize("state", ["-1", "3"])
    def test_sparse_plan_rejects_unknown_state(self, game_file, tmp_path, state):
        r = run_cli(["sparse-plan", "--game", "game.json", "--state", state,
                     "--t", "1", "--m", "2", "--seed", "0"], tmp_path)
        assert r.returncode == 1
        assert "error:" in r.stderr
        assert "Traceback" not in r.stderr

    def test_model_flag_is_generative_route(self, game_file, tmp_path):
        a = run_cli(["sparse-plan", "--game", "game.json", "--t", "1", "--m", "3",
                     "--seed", "2"], tmp_path)
        b = run_cli(["sparse-plan", "--model", "game.json", "--t", "1", "--m", "3",
                     "--seed", "2"], tmp_path)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_solve_discounted_exit_codes(self, game_file, tmp_path):
        r = run_cli(["solve-discounted", "--game", "game.json", "--gamma", "0.5",
                     "--trace", "d.csv"], tmp_path)
        assert r.returncode == 0
        assert (tmp_path / "d.csv").read_text().startswith("iter,delta,v1_s0,v2_s0")
        r = run_cli(["solve-discounted", "--game", "game.json", "--gamma", "0.9",
                     "--max-iter", "1"], tmp_path)
        assert r.returncode == 2
        assert "NOT converged" in r.stdout

    def test_probe_nash_mode_rejects_negative_max_iter(self, game_file, tmp_path):
        r = run_cli(["probe-nash-mode", "--game", "game.json", "--gamma", "0.5",
                     "--max-iter", "-5"], tmp_path)
        assert r.returncode == 1
        assert "error:" in r.stderr and "max_iter" in r.stderr
        assert r.stdout == ""

    def test_solve_discounted_rejects_negative_tol(self, game_file, tmp_path):
        r = run_cli(["solve-discounted", "--game", "game.json", "--gamma", "0.5",
                     "--tol", "-1", "--max-iter", "50"], tmp_path)
        assert r.returncode == 1
        assert "error:" in r.stderr and "tol" in r.stderr
        assert r.stdout == ""

    def test_certify_rejects_nan_policy(self, game_file, tmp_path):
        entries = [{"state": s, "t": 0, "row_probs": [float("nan"), 1.0],
                    "col_probs": [0.5, 0.5]} for s in range(3)]
        (tmp_path / "p.json").write_text(json.dumps({"horizon": 1, "entries": entries}))
        r = run_cli(["certify", "--game", "game.json", "--horizon", "1",
                     "--policy", "p.json"], tmp_path)
        assert r.returncode == 1
        assert "error:" in r.stderr
        assert r.stdout == ""

    def test_certify_past_policy_horizon_names_entry(self, game_file, tmp_path):
        r = run_cli(["solve-finite", "--game", "game.json", "--horizon", "6",
                     "--out-policy", "p.json"], tmp_path)
        assert r.returncode == 0
        r = run_cli(["certify", "--game", "game.json", "--horizon", "7",
                     "--policy", "p.json"], tmp_path)
        assert r.returncode == 1
        assert r.stderr == "error: no strategy stored for (state=0, t=6)\n"

    def test_certify_rejects_horizon_zero(self, game_file, tmp_path):
        r = run_cli(["solve-finite", "--game", "game.json", "--horizon", "3",
                     "--out-policy", "p.json"], tmp_path)
        assert r.returncode == 0
        r = run_cli(["certify", "--game", "game.json", "--horizon", "0",
                     "--policy", "p.json"], tmp_path)
        assert r.returncode == 1
        assert r.stderr == "error: horizon must be >= 1, got 0\n"

    def test_probe_nash_mode_runs(self, game_file, tmp_path):
        r = run_cli(["probe-nash-mode", "--game", "game.json", "--gamma", "0.5"],
                    tmp_path)
        assert r.returncode == 0
        assert "classification=" in r.stdout

    def test_gap_experiment_writes_schema(self, game_file, tmp_path):
        r = run_cli(["gap-experiment", "--game", "game.json", "--horizon", "2",
                     "--m-list", "1,2,exact", "--seeds", "2", "--out", "gaps.csv"],
                    tmp_path)
        assert r.returncode == 0
        lines = (tmp_path / "gaps.csv").read_text().splitlines()
        assert lines[0] == "m,seed,gap1,gap2,qerr1,qerr2,nodes"
        assert len(lines) == 1 + 3 * 2
        assert lines[-1].startswith("exact,")

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_gap_experiment_rejects_seed_count_below_one(self, game_file, tmp_path, count):
        r = run_cli(["gap-experiment", "--game", "game.json", "--horizon", "2",
                     "--m-list", "1", "--seeds", count, "--out", "gaps.csv"], tmp_path)
        assert r.returncode == 1
        assert r.stderr == f"error: seed count must be >= 1, got {count}\n"
        assert r.stdout == ""
        assert not (tmp_path / "gaps.csv").exists()

    def test_unknown_command_exits_one(self, tmp_path):
        r = run_cli(["frobnicate"], tmp_path)
        assert r.returncode == 1
        assert "usage" in r.stderr

    def test_unknown_flag_exits_one(self, tmp_path):
        r = run_cli(["sample-size", "--t", "4", "--epsilon", "0.1", "--n", "2",
                     "--frob", "1"], tmp_path)
        assert r.returncode == 1
        assert "unrecognized arguments" in r.stderr

    def test_missing_file_exits_one(self, tmp_path):
        r = run_cli(["solve-finite", "--game", "nope.json", "--horizon", "2"],
                    tmp_path)
        assert r.returncode == 1
        assert "error" in r.stderr

    def test_invalid_game_file_exits_one(self, tmp_path):
        (tmp_path / "bad.json").write_text("{}")
        r = run_cli(["solve-finite", "--game", "bad.json", "--horizon", "2"],
                    tmp_path)
        assert r.returncode == 1
        assert "error: game file" in r.stderr


class TestRunSuite:
    def test_empty_config(self, tmp_path):
        (tmp_path / "suite.json").write_text('{"experiments": []}')
        r = run_cli(["run-suite", "suite.json"], tmp_path)
        assert r.returncode == 0

    def test_sequential_experiments_and_reproducibility(self, tmp_path):
        config = {"experiments": [
            {"name": "gen", "argv": ["generate", "--states", "2", "--rows", "2",
                                     "--cols", "2", "--branching", "2", "--seed", "9",
                                     "--out", "g.json"]},
            {"name": "solve", "argv": ["solve-finite", "--game", "g.json",
                                       "--horizon", "2", "--trace", "t.csv"]},
        ]}
        (tmp_path / "suite.json").write_text(json.dumps(config))
        assert run_cli(["run-suite", "suite.json"], tmp_path).returncode == 0
        first = (tmp_path / "t.csv").read_bytes()
        assert run_cli(["run-suite", "suite.json"], tmp_path).returncode == 0
        assert (tmp_path / "t.csv").read_bytes() == first

    def test_gap_experiment_suite_medians_nonincreasing(self, tmp_path, three_state_game):
        save_game(three_state_game, tmp_path / "g.json")
        config = {"experiments": [
            {"name": "gaps", "argv": ["gap-experiment", "--game", "g.json",
                                      "--horizon", "3", "--m-list", "1,8",
                                      "--seeds", "20", "--out", "gaps.csv"]},
        ]}
        (tmp_path / "suite.json").write_text(json.dumps(config))
        assert run_cli(["run-suite", "suite.json"], tmp_path).returncode == 0
        lines = (tmp_path / "gaps.csv").read_text().splitlines()
        by_m = {}
        for line in lines[1:]:
            cells = line.split(",")
            by_m.setdefault(cells[0], []).append(float(cells[4]))
        assert np.median(by_m["8"]) <= np.median(by_m["1"])

    def test_failure_names_experiment(self, tmp_path):
        config = {"experiments": [
            {"name": "doomed", "argv": ["solve-finite", "--game", "missing.json",
                                        "--horizon", "2"]},
        ]}
        (tmp_path / "suite.json").write_text(json.dumps(config))
        r = run_cli(["run-suite", "suite.json"], tmp_path)
        assert r.returncode == 1
        assert "doomed" in r.stderr

    def test_usage_error_names_experiment(self, tmp_path):
        config = {"experiments": [
            {"name": "misspelt", "argv": ["solve-finite", "--bogus"]},
        ]}
        (tmp_path / "suite.json").write_text(json.dumps(config))
        r = run_cli(["run-suite", "suite.json"], tmp_path)
        assert r.returncode == 1
        assert "experiment 'misspelt' failed with exit code 1" in r.stderr
        assert "Traceback" not in r.stderr

    def test_nested_suite_refused(self, tmp_path):
        config = {"experiments": [{"name": "inner", "argv": ["run-suite", "suite.json"]}]}
        (tmp_path / "suite.json").write_text(json.dumps(config))
        r = run_cli(["run-suite", "suite.json"], tmp_path)
        assert r.returncode == 1
        assert "error: suite.json: experiment 'inner' runs run-suite" in r.stderr
        assert "Traceback" not in r.stderr


class TestDeterminism:
    def test_outputs_byte_identical_across_reruns(self, tmp_path):
        save_game(random_game(4, 2, 2, 2, 1.0, seed=19), tmp_path / "g.json")
        commands = [
            (["solve-finite", "--game", "g.json", "--horizon", "4",
              "--out-policy", "{}.pol", "--trace", "{}.csv"], (".pol", ".csv")),
            (["solve-discounted", "--game", "g.json", "--gamma", "0.8",
              "--trace", "{}.csv"], (".csv",)),
            (["gap-experiment", "--game", "g.json", "--horizon", "2",
              "--m-list", "1,2", "--seeds", "2", "--out", "{}.csv"], (".csv",)),
        ]
        for base, (argv_tpl, exts) in enumerate(commands):
            outputs = []
            for run in range(3):
                tag = f"out{base}_{run}"
                argv = [a.format(tag) for a in argv_tpl]
                r = run_cli(argv, tmp_path)
                assert r.returncode in (0, 2)
                outputs.append(tuple((tmp_path / (tag + ext)).read_bytes()
                                     for ext in exts))
            assert outputs[0] == outputs[1] == outputs[2]


class TestByteContract:
    """Every CLI byte at fixed seeds: stdout, exit code and written files of a
    fixed command list, run in process, hashed into one constant."""

    GAMES = (["--states", "3", "--rows", "2", "--cols", "2", "--branching", "2",
              "--seed", "7", "--out", "g.json"],
             ["--states", "3", "--rows", "2", "--cols", "3", "--branching", "2",
              "--seed", "5", "--zero-sum", "--out", "z.json"])
    COMMANDS = (
        ["solve-finite", "--game", "g.json", "--horizon", "3", "--out-policy", "p.json",
         "--trace", "t.csv"],
        ["certify", "--game", "g.json", "--horizon", "3", "--policy", "p.json"],
        ["certify", "--game", "g.json", "--horizon", "3", "--policy", "p.json", "--start", "2"],
        ["sparse-plan", "--game", "g.json", "--t", "2", "--m", "2", "--seed", "5"],
        ["sparse-plan", "--model", "z.json", "--state", "1", "--t", "1", "--m", "3",
         "--seed", "4"],
        ["gap-experiment", "--game", "g.json", "--horizon", "2", "--m-list", "1,4,exact",
         "--seeds", "3", "--out", "shared.csv"],
        ["gap-experiment", "--game", "g.json", "--horizon", "2", "--m-list", "1,4,exact",
         "--seeds", "3", "--independent-seeds", "--out", "independent.csv"],
        ["solve-discounted", "--game", "z.json", "--gamma", "0.8", "--trace", "dz.csv"],
        ["solve-discounted", "--game", "g.json", "--gamma", "0.8", "--trace", "dg.csv"],
        ["probe-nash-mode", "--game", "g.json", "--gamma", "0.7"],
    )
    DIGEST = "4b03c03d6445822f87e8d6e70501d52bb75fa2a0b02cd0b6450f09fbe1c485d8"

    def test_outputs_match_recorded_digest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        h = hashlib.sha256()
        for argv in [["generate", *g] for g in self.GAMES] + list(self.COMMANDS):
            code = main(argv)
            h.update(f"{argv}\0{code}\0{capsys.readouterr().out}\0".encode())
        for path in sorted(tmp_path.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        assert h.hexdigest() == self.DIGEST
