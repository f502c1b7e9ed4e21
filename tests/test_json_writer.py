"""The JSON file writer: its bytes are those of `json.dump(doc, fh, indent=2)`
plus a newline, at every chunk size and for every document whose strings
hold no bracket, brace or comma."""

import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sgplan import StochasticGame, finite_vi, random_game, save_game, save_policy_pair
from sgplan import io as sgio


def indent2(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def written(write, *args, chunk=sgio._CHUNK) -> bytes:
    """The bytes `write(*args, path)` leaves in a new file, re-indented in
    chunks of `chunk` bytes."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sgio, "_CHUNK", chunk):
        path = os.path.join(tmp, "doc.json")
        write(*args, path)
        with open(path, "rb") as fh:
            return fh.read()


# any character but the structural ones, the quote and the backslash
STRINGS = st.text(st.characters(blacklist_characters='[]{},"\\'), max_size=6)
FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e300, 1e-08, -1.5]) | st.floats()
LEAVES = (FLOATS | st.integers() | st.integers(-10**30, 10**30) | st.booleans()
          | st.none() | STRINGS)


def values(depth):
    if depth == 0:
        return LEAVES
    inner = values(depth - 1)
    return LEAVES | st.lists(inner, max_size=4) | st.dictionaries(STRINGS, inner, max_size=4)


DOCUMENTS = st.dictionaries(STRINGS, values(5), max_size=4)  # containers nest up to 6 deep


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS, st.integers(1, 64))
@example({"a": [], "b": {}, "c": [[], [{}], {"d": [[[]]]}]}, 1)
@example({"x": [-0.0, 5e-324, 1e300, 1e-08, -(2**70), 2**70]}, 3)
def test_bytes_equal_indent2(doc, chunk):
    assert written(sgio._write_json, doc, chunk=chunk) == indent2(doc)


@pytest.mark.parametrize("doc", [
    {"a": [[], {}, [1, [2.5, {}]], {"b": []}], "c": -0.0, "d": [{"e": [3, 4]}, []]},
    {"entries": [{"state": 0, "probs": [[0.25, 0.75], []]}, {"state": 1, "probs": [[]]}],
     "empty": {}},
])
def test_every_chunk_border(doc):
    # every byte boundary of the compact text, so a border falls right after
    # each opener and comma, right before each closer, and inside `[]` and `{}`
    compact = json.dumps(doc, separators=(",", ": "))
    assert all(pattern in compact for pattern in ("[[", ",", "]]", "[]", "{}"))
    for chunk in range(1, len(compact) + 2):
        assert written(sgio._write_json, doc, chunk=chunk) == indent2(doc), chunk


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


class TestFileDocuments:
    """Both file documents of a 100-state game, each larger than one chunk,
    against the standard library's `indent=2` encoder."""

    GAME = random_game(100, 3, 3, 4, 1.0, seed=0)

    def test_game(self):
        doc = old_game_doc(self.GAME)
        assert len(json.dumps(doc, separators=(",", ": "))) > sgio._CHUNK
        assert written(save_game, self.GAME) == indent2(doc)

    def test_policy_pair(self):
        result = finite_vi(self.GAME, 8)
        doc = old_policy_doc(result.policy1, result.policy2)
        assert len(json.dumps(doc, separators=(",", ": "))) > sgio._CHUNK
        assert written(save_policy_pair, result.policy1, result.policy2) == indent2(doc)

    def test_game_with_empty_rows(self):
        # a game built without validation may have a transition row with no successor
        game = random_game(4, 2, 3, 2, 1.0, seed=5)
        transitions = game.transitions.copy()
        transitions[0, 0, 0] = transitions[3, 1, 2] = 0.0
        transitions[1, :, :, 0] = -0.0
        game = StochasticGame(game.payoffs1, game.payoffs2, transitions)
        assert written(save_game, game, chunk=7) == indent2(old_game_doc(game))
