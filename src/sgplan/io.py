"""File formats: games and policies as JSON, experiment traces as CSV.

Game files are dense on payoffs and sparse on transitions (zero-probability
entries omitted).  Floats are serialized with Python's shortest round-trip
decimal repr, so save -> load reproduces every entry exactly and reruns are
byte-identical.  Every write replaces its file whole or leaves it as it was.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import sys

import numpy as np

from .errors import DimensionMismatch, GameFileError, MissingPolicyEntry
from .game_model import StochasticGame, TimeDependentPolicy, validate

GAME_FILE_VERSION = 1

GAP_TRACE_HEADER = ("m", "seed", "gap1", "gap2", "qerr1", "qerr2", "nodes")
DISCOUNTED_TRACE_HEADER = ("iter", "delta", "v1_s0", "v2_s0")
FINITE_TRACE_HEADER = ("t", "state", "value1", "value2")


@contextlib.contextmanager
def _atomic_open(path, **kwargs):
    """A text file whose contents replace `path` when the block exits normally;
    on an exception it is removed.  Plain `open` keeps the umask's mode."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", **kwargs)
    except OSError as exc:
        exc.filename = os.fspath(path)  # report the file asked for, not the temporary
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_json(doc: dict, path) -> None:
    with _atomic_open(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json_object(path) -> dict:
    """The JSON object in the file at `path`, else GameFileError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise GameFileError(f"{path}: top level must be a JSON object")
    return doc


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
    _write_json(doc, path)


def _require(doc: dict, key: str, path, kind: str = "game"):
    if key not in doc:
        raise GameFileError(f"{kind} file {path}: missing required key '{key}'")
    return doc[key]


def _require_scalar(doc: dict, key: str, path, want: type = int, kind: str = "game"):
    """`_require` for a header field: a JSON integer (want=int) or a finite
    JSON number, as a float (want=float).  JSON true and false are neither,
    though Python's bool is an int."""
    value = _require(doc, key, path, kind)
    if not isinstance(value, bool) and isinstance(value, (int, want)):
        if want is int:
            return value
        if abs(value) <= sys.float_info.max:  # false for NaN, infinities and huge ints
            return float(value)
    what = "an integer" if want is int else "a finite number"
    raise GameFileError(f"{kind} file {path}: '{key}' must be {what}, got {json.dumps(value)}")


def _require_numbers(doc: dict, key: str, path, kind: str = "game") -> np.ndarray:
    """`_require` for an array field: nested lists of JSON numbers, as a float
    array.  Each element must be a JSON integer or number, so strings such
    as "0.5", null, and JSON true or false are refused rather than
    converted; NaN and infinities are left to the game and policy checks,
    which refuse them."""
    value = _require(doc, key, path, kind)
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GameFileError(f"{kind} file {path}: '{key}' is malformed: {exc}") from exc
    leaves = value if arr.ndim else [value]
    for _ in range(arr.ndim - 1):
        leaves = list(itertools.chain.from_iterable(leaves))
    if not set(map(type, leaves)) <= {int, float}:
        bad = next(x for x in leaves if type(x) not in (int, float))
        raise GameFileError(f"{kind} file {path}: '{key}' must hold numbers only, "
                            f"got {json.dumps(bad)}")
    return arr


def load_game(path) -> StochasticGame:
    """Parse and validate a game file.

    Distributions whose probabilities sum to 1 within 1e-9 are accepted;
    they are renormalized only when the drift exceeds 1e-12, so files
    written by `save_game` round-trip entrywise exactly.
    """
    doc = read_json_object(path)
    version = _require_scalar(doc, "version", path)
    if version != GAME_FILE_VERSION:
        raise GameFileError(f"{path}: unsupported version {version!r}")
    n_states, n1, n2, start_state = (_require_scalar(doc, key, path) for key in (
        "n_states", "n_row_actions", "n_col_actions", "start_state"))
    if not 0 <= start_state < n_states:
        raise GameFileError(f"{path}: start_state {start_state} not in 0..{n_states - 1}")
    r_max = _require_scalar(doc, "r_max", path, float)
    payoffs1, payoffs2 = (_require_numbers(doc, key, path) for key in ("payoffs1", "payoffs2"))
    for name, payoffs in (("payoffs1", payoffs1), ("payoffs2", payoffs2)):
        if payoffs.shape != (n_states, n1, n2):
            raise GameFileError(f"{path}: {name} has shape {payoffs.shape}, "
                                f"expected {(n_states, n1, n2)}")

    raw_transitions = _require(doc, "transitions", path)
    transitions = np.zeros((n_states, n1, n2, n_states))
    try:
        for s, i, j in itertools.product(range(n_states), range(n1), range(n2)):
            for n, entry in enumerate(raw_transitions[s][i][j]):
                to, p = entry["to"], entry["p"]
                # save_game's types pass here at no cost; all else takes the header rule
                if type(to) is not int or type(p) is not float or not math.isfinite(p):
                    where = f"{path} transition (s={s}, i={i}, j={j}) entry {n}"
                    to = _require_scalar(entry, "to", where)
                    p = _require_scalar(entry, "p", where, float)
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

    # the format keeps no zero-sum flag: a file with payoffs2 == -payoffs1 is one
    game = StochasticGame(payoffs1, payoffs2, transitions, start_state=start_state,
                          r_max=r_max, is_zero_sum=np.array_equal(payoffs2, -payoffs1))
    report = validate(game)
    if not report.ok:
        raise GameFileError(f"{path}: game fails validation:\n{report}")
    return game


def save_policy_pair(policy1: TimeDependentPolicy, policy2: TimeDependentPolicy,
                     path) -> None:
    """Write a complete table, as `load_policy_pair` requires; before the
    file is opened, halves of different (states, horizon) raise
    DimensionMismatch, and a gap or an empty table (no states or horizon 0)
    raises MissingPolicyEntry."""
    shape = policy1.strategies.shape[:2]
    if policy2.strategies.shape[:2] != shape:
        raise DimensionMismatch(f"policy halves differ in (states, horizon): "
                                f"{shape} vs {policy2.strategies.shape[:2]}")
    if not all(shape):
        raise MissingPolicyEntry("policy has no entries")
    rows, cols = policy1.dense(*shape), policy2.dense(*shape)
    entries = [{"state": s, "t": t, "row_probs": rows[s, t].tolist(),
                "col_probs": cols[s, t].tolist()} for s, t in np.ndindex(*shape)]
    doc = {"horizon": shape[1], "entries": entries}
    _write_json(doc, path)


def load_policy_pair(path) -> tuple[TimeDependentPolicy, TimeDependentPolicy]:
    """Parse a policy file whose table is complete: every (state, t) with
    0 <= state <= the largest state and 0 <= t < horizon, exactly once."""
    doc = read_json_object(path)
    horizon = _require_scalar(doc, "horizon", path, kind="policy")
    entries = _require(doc, "entries", path, "policy")
    if not entries:
        raise GameFileError(f"{path}: policy file has no entries")
    try:
        keys = [(entry["state"], entry["t"]) for entry in entries]
        columns = [[entry[half] for entry in entries] for half in ("row_probs", "col_probs")]
    except (KeyError, TypeError) as exc:
        raise GameFileError(f"{path}: policy entries are malformed: {exc!r}") from exc
    halves = []
    for half, column in zip(("row_probs", "col_probs"), columns):
        try:  # one pass over all of a half's probabilities; entry by entry only to name a fault
            numbers = set(map(type, itertools.chain.from_iterable(column))) <= {int, float}
        except TypeError:  # an entry that is not a list
            numbers = False
        halves.append([np.array(value, dtype=float) if numbers
                       else _require_numbers(entry, half, f"{path} entry {n}", "policy")
                       for n, (entry, value) in enumerate(zip(entries, column))])
    for n, key in enumerate(keys):
        if type(key[0]) is not int or type(key[1]) is not int:  # raise the header rule's error
            for name in ("state", "t"):
                _require_scalar(entries[n], name, f"{path} entry {n}", kind="policy")
    n_states = max(s for s, _ in keys) + 1
    # sorted, the keys must step through the grid states x 0..horizon-1
    grid = ((s, t) for s in range(n_states) for t in range(horizon))  # lazy: states may be huge
    for key, want in itertools.zip_longest(sorted(keys), grid):
        if key != want:
            extra = want is None or (key is not None and key < want)
            s, t = key if extra else want
            problem = "is repeated or out of range" if extra else "is missing"
            raise GameFileError(f"{path}: policy entry (state={s}, t={t}) {problem}")
    policies = []
    for half, rows in zip(("row_probs", "col_probs"), halves):
        try:
            policies.append(TimeDependentPolicy(horizon, rows[0].size, dict(zip(keys, rows))))
        except ValueError as exc:  # not probability vectors, or not all of one length
            raise GameFileError(f"policy file {path}: '{half}': {exc}") from exc
    return tuple(policies)


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
    with _atomic_open(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")
