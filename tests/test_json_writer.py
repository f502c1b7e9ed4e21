"""The JSON file writers: `save_game` and `save_policy_pair` write the bytes
of `json.dump(doc, fh, indent=2)` plus a newline, `doc` being the document
each built before it wrote its text straight from the arrays."""

import json
import math
import os
import random
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st

from sgplan import (StochasticGame, TimeDependentPolicy, finite_vi, load_policy_pair,
                    random_game, save_game, save_policy_pair)


def indent2(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def written(write, *args) -> bytes:
    """The bytes `write(*args, path)` leaves in a new file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        write(*args, path)
        with open(path, "rb") as fh:
            return fh.read()


FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e300, 1e-08, -1.5]) | st.floats()


def old_game_doc(game):
    """The document `save_game` wrote with its per-(state, i, j) walk."""
    transitions = [[[[{"to": int(s2), "p": float(pvec[s2])} for s2 in np.nonzero(pvec)[0]]
                     for pvec in row] for row in per_state] for per_state in game.transitions]
    return {"version": 1, "n_states": game.n_states, "n_row_actions": game.n_row_actions,
            "n_col_actions": game.n_col_actions, "start_state": game.start_state,
            "r_max": float(game.r_max), "payoffs1": game.payoffs1.tolist(),
            "payoffs2": game.payoffs2.tolist(), "transitions": transitions}


def old_policy_doc(policy1, policy2):
    shape = policy1.strategies.shape[:2]
    rows, cols = policy1.dense(*shape), policy2.dense(*shape)
    return {"horizon": shape[1],
            "entries": [{"state": s, "t": t, "row_probs": rows[s, t].tolist(),
                         "col_probs": cols[s, t].tolist()} for s, t in np.ndindex(*shape)]}


def floats(draw, *shape, elements=FLOATS):
    size = math.prod(shape)
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@st.composite
def games(draw):
    """Unvalidated games of 1-4 states and 1-3 actions per player, every
    float from FLOATS; a transition row may be random, empty or all -0.0."""
    n, n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    transitions = floats(draw, n, n1, n2, n, elements=FLOATS | st.just(0.0))
    fills = draw(st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=n * n1 * n2,
                          max_size=n * n1 * n2))
    for row, fill in zip(transitions.reshape(-1, n), fills):
        if fill is not None:
            row[:] = fill
    return StochasticGame(floats(draw, n, n1, n2), floats(draw, n, n1, n2), transitions,
                          start_state=draw(st.integers(0, n - 1)), r_max=draw(FLOATS))


def unchecked_policy(strategies):
    """A policy over any float array, past the probability-vector check."""
    policy = TimeDependentPolicy.__new__(TimeDependentPolicy)
    policy.horizon, policy.strategies = strategies.shape[1], strategies
    return policy


@st.composite
def policy_pairs(draw):
    """Halves of 1-4 states, horizon 1-3 and 1-3 actions, every probability
    from FLOATS; an all-NaN row, which marks a gap, gets a 0.0."""
    n, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    halves = []
    for _ in range(2):
        strategies = floats(draw, n, horizon, draw(st.integers(1, 3)))
        strategies[np.isnan(strategies).all(axis=-1), 0] = 0.0
        halves.append(unchecked_policy(strategies))
    return halves


@settings(max_examples=300, deadline=None)
@given(games())
@example(StochasticGame(np.full((1, 1, 1), np.inf), np.full((1, 1, 1), -np.inf),
                        np.full((1, 1, 1, 1), np.nan), r_max=np.nan))
def test_game_bytes_equal_indent2(game):
    assert written(save_game, game) == indent2(old_game_doc(game))


@settings(max_examples=300, deadline=None)
@given(policy_pairs())
def test_policy_bytes_equal_indent2(halves):
    assert written(save_policy_pair, *halves) == indent2(old_policy_doc(*halves))


def test_shuffled_policy_entries_load_the_same_bits(tmp_path):
    result = finite_vi(random_game(5, 3, 2, 2, 1.0, seed=3), 3)
    path = tmp_path / "p.json"
    save_policy_pair(result.policy1, result.policy2, path)
    in_order = load_policy_pair(path)
    doc = json.loads(path.read_text())
    random.Random(0).shuffle(doc["entries"])
    path.write_text(json.dumps(doc))
    for policy, want in zip(load_policy_pair(path), in_order):
        assert policy.strategies.shape == want.strategies.shape
        assert policy.strategies.tobytes() == want.strategies.tobytes()


class TestFileDocuments:
    """Both file documents of a 100-state game against the standard
    library's `indent=2` encoder."""

    GAME = random_game(100, 3, 3, 4, 1.0, seed=0)

    def test_game(self):
        assert written(save_game, self.GAME) == indent2(old_game_doc(self.GAME))

    def test_policy_pair(self):
        result = finite_vi(self.GAME, 8)
        doc = old_policy_doc(result.policy1, result.policy2)
        assert written(save_policy_pair, result.policy1, result.policy2) == indent2(doc)

    def test_game_with_empty_rows(self):
        # a game built without validation may have a transition row with no successor
        game = random_game(4, 2, 3, 2, 1.0, seed=5)
        transitions = game.transitions.copy()
        transitions[0, 0, 0] = transitions[3, 1, 2] = 0.0
        transitions[1, :, :, 0] = -0.0
        game = StochasticGame(game.payoffs1, game.payoffs2, transitions)
        assert written(save_game, game) == indent2(old_game_doc(game))
