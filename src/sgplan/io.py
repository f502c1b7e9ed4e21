"""File formats: games and policies as JSON, experiment traces as CSV.

Game files are dense on payoffs and sparse on transitions (zero-probability
entries omitted).  Floats are serialized with Python's shortest round-trip
decimal repr, so save -> load reproduces every entry exactly and reruns are
byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .errors import GameFileError
from .game_model import StochasticGame, TimeDependentPolicy, validate

GAME_FILE_VERSION = 1

GAP_TRACE_HEADER = ("m", "seed", "gap1", "gap2", "qerr1", "qerr2", "nodes")
DISCOUNTED_TRACE_HEADER = ("iter", "delta", "v1_s0", "v2_s0")
FINITE_TRACE_HEADER = ("t", "state", "value1", "value2")


def save_game(game: StochasticGame, path) -> None:
    transitions = [[[[{"to": int(s2), "p": float(pvec[s2])} for s2 in np.nonzero(pvec)[0]]
                     for pvec in row] for row in per_state] for per_state in game.transitions]
    doc = {
        "version": GAME_FILE_VERSION,
        "n_states": game.n_states,
        "n_row_actions": game.n_row_actions,
        "n_col_actions": game.n_col_actions,
        "start_state": game.start_state,
        "r_max": float(game.r_max),
        "payoffs1": game.payoffs1.tolist(),
        "payoffs2": game.payoffs2.tolist(),
        "transitions": transitions,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _require(doc: dict, key: str):
    if key not in doc:
        raise GameFileError(f"game file is missing required key '{key}'")
    return doc[key]


def load_game(path) -> StochasticGame:
    """Parse and validate a game file.

    Distributions whose probabilities sum to 1 within 1e-9 are accepted;
    they are renormalized only when the drift exceeds 1e-12, so files
    written by `save_game` round-trip entrywise exactly.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise GameFileError(f"{path}: top level must be a JSON object")
    version = _require(doc, "version")
    if version != GAME_FILE_VERSION:
        raise GameFileError(f"{path}: unsupported version {version!r}")
    n_states = int(_require(doc, "n_states"))
    n1 = int(_require(doc, "n_row_actions"))
    n2 = int(_require(doc, "n_col_actions"))
    start_state = int(_require(doc, "start_state"))
    r_max = float(_require(doc, "r_max"))
    try:
        payoffs1 = np.array(_require(doc, "payoffs1"), dtype=float)
        payoffs2 = np.array(_require(doc, "payoffs2"), dtype=float)
    except (TypeError, ValueError) as exc:
        raise GameFileError(f"{path}: payoff arrays are malformed: {exc}") from exc
    if payoffs1.shape != (n_states, n1, n2):
        raise GameFileError(f"{path}: payoffs1 has shape {payoffs1.shape}, "
                            f"expected {(n_states, n1, n2)}")
    if payoffs2.shape != (n_states, n1, n2):
        raise GameFileError(f"{path}: payoffs2 has shape {payoffs2.shape}, "
                            f"expected {(n_states, n1, n2)}")

    raw_transitions = _require(doc, "transitions")
    transitions = np.zeros((n_states, n1, n2, n_states))
    try:
        for s, i, j in itertools.product(range(n_states), range(n1), range(n2)):
            for entry in raw_transitions[s][i][j]:
                to = int(entry["to"])
                p = float(entry["p"])
                if not 0 <= to < n_states:
                    raise GameFileError(f"{path}: transition at (s={s}, i={i}, j={j}) "
                                        f"points to invalid state {to}")
                transitions[s, i, j, to] += p
    except (KeyError, IndexError, TypeError) as exc:
        raise GameFileError(f"{path}: transitions are malformed: {exc!r}") from exc

    sums = transitions.sum(axis=3)
    bad = np.abs(sums - 1.0) > 1e-9
    if np.any(bad):
        s, i, j = (int(x) for x in next(zip(*np.nonzero(bad))))
        raise GameFileError(f"{path}: probabilities at (s={s}, i={i}, j={j}) "
                            f"sum to {sums[s, i, j]!r}, not 1")
    drift = np.abs(sums - 1.0) > 1e-12
    if np.any(drift):
        transitions = transitions / sums[..., None]

    game = StochasticGame(payoffs1, payoffs2, transitions,
                          start_state=start_state, r_max=r_max)
    report = validate(game)
    if not report.ok:
        raise GameFileError(f"{path}: game fails validation:\n{report}")
    return game


def save_policy_pair(policy1: TimeDependentPolicy, policy2: TimeDependentPolicy,
                     path) -> None:
    entries = []
    for s, t, row_probs in policy1.entries():
        entries.append({
            "state": s,
            "t": t,
            "row_probs": [float(p) for p in row_probs],
            "col_probs": [float(p) for p in policy2.probs(s, t)],
        })
    doc = {"horizon": policy1.horizon, "entries": entries}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_policy_pair(path) -> tuple[TimeDependentPolicy, TimeDependentPolicy]:
    """Parse a policy file whose table is complete: every (state, t) with
    0 <= state <= the largest state and 0 <= t < horizon, exactly once."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    horizon = int(_require(doc, "horizon"))
    entries = _require(doc, "entries")
    if not entries:
        raise GameFileError(f"{path}: policy file has no entries")
    try:
        keys = [(int(entry["state"]), int(entry["t"])) for entry in entries]
        halves = [[np.array(entry[half], dtype=float) for entry in entries]
                  for half in ("row_probs", "col_probs")]
    except (KeyError, TypeError, ValueError) as exc:
        raise GameFileError(f"{path}: policy entries are malformed: {exc!r}") from exc
    n_states = max(s for s, _ in keys) + 1
    # sorted, the keys must step through the grid states x 0..horizon-1
    grid = ((s, t) for s in range(n_states) for t in range(horizon))  # lazy: states may be huge
    for key, want in itertools.zip_longest(sorted(keys), grid):
        if key != want:
            extra = want is None or (key is not None and key < want)
            s, t = key if extra else want
            problem = "is repeated or out of range" if extra else "is missing"
            raise GameFileError(f"{path}: policy entry (state={s}, t={t}) {problem}")
    return tuple(TimeDependentPolicy(horizon, rows[0].size, dict(zip(keys, rows)))
                 for rows in halves)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        raise GameFileError(f"boolean {value!r} has no trace representation")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    out = float(value)
    if not math.isfinite(out):
        raise GameFileError(f"refusing to write non-finite trace value {out!r}")
    return repr(out)


def write_trace(path, header, rows) -> None:
    """CSV with an exact header and shortest round-trip decimals; raises
    rather than ever emitting a NaN or infinity."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
