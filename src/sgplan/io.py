"""File formats: games and policies as JSON, experiment traces as CSV.

Game files are dense on payoffs and sparse on transitions (zero-probability
entries omitted).  Floats are serialized with Python's shortest round-trip
decimal repr, so save -> load reproduces every entry exactly and reruns are
byte-identical.  A JSON file holds exactly the bytes of
`json.dumps(doc, indent=2) + "\n"` for its document, written straight from
the arrays field by field, with no document and no encoder.  That holds
because every string is a fixed key, every float is written by its
shortest repr as the encoder writes it, and NaN and the infinities as the
encoder writes them (`NaN`, `Infinity`, `-Infinity`).  Every write
replaces its file whole or leaves it as it was.
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
def _atomic_open(path, mode="w", **kwargs):
    """A file whose contents replace `path` when the block exits normally;
    on an exception it is removed.  Plain `open` keeps the umask's mode."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, mode, **kwargs)
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


#: the JSON encoder's text for each float whose repr is not JSON
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floats(values) -> list[str]:
    """The JSON texts of the entries of a float array, in C order:
    shortest-repr decimals, NaN and infinities as the JSON encoder writes
    them."""
    texts = list(map(float.__repr__, np.ravel(values).tolist()))
    if not np.isfinite(values).all():
        texts = [_NON_FINITE.get(text, text) for text in texts]
    return texts


def _nest(texts: list[str], depth: int, lengths) -> list[str]:
    """The `indent=2` JSON texts of lists opening at nesting `depth`, the
    k-th holding the next `lengths[k]` of `texts`, item texts at `depth + 1`."""
    inner = "\n" + "  " * (depth + 1)
    head, sep, tail = "[" + inner, "," + inner, inner[:-2] + "]"
    ends = list(itertools.accumulate(lengths))
    return [f"{head}{sep.join(texts[a:b])}{tail}" if a < b else "[]"  # one copy, not two
            for a, b in zip([0] + ends, ends)]


def _grid(texts: list[str], depth: int, shape: tuple) -> str:
    """The `indent=2` JSON text of nested lists of `shape` holding `texts`
    in C order, opening at nesting `depth`."""
    for axis in reversed(range(len(shape))):
        texts = _nest(texts, depth + axis, [shape[axis]] * math.prod(shape[:axis]))
    return texts[0]


def read_json_object(path) -> dict:
    """The JSON object in the file at `path`, else GameFileError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, UnicodeDecodeError) as exc:  # nested too deep, or not UTF-8
        raise GameFileError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GameFileError(f"{path}: top level must be a JSON object")
    return doc


def save_game(game: StochasticGame, path) -> None:
    at = np.flatnonzero(game.transitions)  # in row order, successors ascending
    key, end = "\n" + "  " * 6, "\n" + "  " * 5  # an entry's keys and its closing brace
    entries = [f'{{{key}"to": {t},{key}"p": {p}{end}}}' for t, p in zip(
        (at % game.n_states).tolist(), _floats(game.transitions.reshape(-1)[at]))]
    rows = _nest(entries, 4, np.count_nonzero(game.transitions, axis=3).ravel().tolist())
    with _atomic_open(path, newline="") as fh:
        fh.write(f'{{\n  "version": {GAME_FILE_VERSION},\n  "n_states": {game.n_states},\n'
                 f'  "n_row_actions": {game.n_row_actions},\n'
                 f'  "n_col_actions": {game.n_col_actions},\n'
                 f'  "start_state": {game.start_state},\n'
                 f'  "r_max": {_floats(float(game.r_max))[0]},\n  "payoffs1": ')
        fh.write(_grid(_floats(game.payoffs1), 1, game.payoffs1.shape))
        fh.write(',\n  "payoffs2": ')
        fh.write(_grid(_floats(game.payoffs2), 1, game.payoffs2.shape))
        fh.write(',\n  "transitions": ')
        fh.write(_grid(rows, 1, game.transitions.shape[:3]))
        fh.write("\n}\n")


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
        level = [raw_transitions]
        for axis, n in (("states", n_states), ("row actions", n1), ("col actions", n2)):
            for k in {len(x) for x in level} - {n}:
                raise GameFileError(f"{path}: transitions has {k} {axis}, expected {n}")
            level = [y for x in level for y in x]
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
                            f"sum to {float(sums[s, i, j])!r}, not 1")
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
    rows, cols = (_nest(_floats(half), 3, [half.shape[2]] * math.prod(shape))
                  for half in (policy1.dense(*shape), policy2.dense(*shape)))
    key = "\n" + "  " * 3
    with _atomic_open(path, newline="") as fh:
        fh.write(f'{{\n  "horizon": {shape[1]},\n  "entries": [\n    ')
        fh.write(",\n    ".join(
            f'{{{key}"state": {s},{key}"t": {t},{key}"row_probs": {row},'
            f'{key}"col_probs": {col}\n    }}'
            for (s, t), row, col in zip(itertools.product(*map(range, shape)), rows, cols)))
        fh.write("\n  ]\n}\n")


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
        halves.append(_probability_rows(path, entries, keys, horizon, half, column))
        if not halves[-1].shape[1]:
            raise GameFileError(f"policy file {path}: '{half}' lists no probabilities")
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
    at = tuple(np.array(keys).T)  # a permutation of the grid, so every cell is written
    policies = []
    for half, rows in zip(("row_probs", "col_probs"), halves):
        table = np.empty((n_states, horizon, rows.shape[1]))
        table[at] = rows
        if not np.isfinite(rows).all():  # an all-NaN row would load as a gap
            where = tuple(np.argwhere(~np.isfinite(table).all(axis=-1))[0].tolist())
            raise GameFileError(f"policy file {path}: '{half}': policy entry at {where} "
                                f"is not a probability vector: {table[where]}")
        try:
            policies.append(TimeDependentPolicy(horizon, rows.shape[1], table))
        except ValueError as exc:  # not probability vectors
            raise GameFileError(f"policy file {path}: '{half}': {exc}") from exc
    return tuple(policies)


def _probability_rows(path, entries, keys, horizon, half, column) -> np.ndarray:
    """One half's probability lists as an (entries, actions) array, else a
    GameFileError naming the first entry at fault."""
    try:  # one pass over all of a half's probabilities; entry by entry only to name a fault
        if set(map(type, itertools.chain.from_iterable(column))) <= {int, float}:
            return np.array(column, dtype=float)
    except (TypeError, ValueError, OverflowError):  # a non-list entry, ragged lists, a huge int
        pass
    shapes = [_require_numbers(entry, half, f"{path} entry {n}", "policy").shape
              for n, entry in enumerate(entries)]
    k = math.prod(shapes[0])
    n = next(n for n, shape in enumerate(shapes) if shape != (k,))
    raise GameFileError(f"policy file {path}: '{half}': policy entry {keys[n]} of shape "
                        f"{shapes[n]} needs state >= 0, t < {horizon}, {k} actions")


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
