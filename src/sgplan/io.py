"""File formats: games and policies as JSON, experiment traces as CSV.

Game files are dense on payoffs and sparse on transitions (zero-probability
entries omitted).  Floats are serialized with Python's shortest round-trip
decimal repr, so save -> load reproduces every entry exactly and reruns are
byte-identical.  A JSON file holds exactly the bytes of
`json.dumps(doc, indent=2) + "\n"`; the layout is rebuilt from the C
encoder's compact output, which is valid because no string in these files
holds a bracket, brace or comma.  Every write replaces its file whole or
leaves it as it was.
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


#: compact bytes re-indented per `_write_chunk` call; its index arrays take
#: 8 bytes per byte, so the chunk, not the document, bounds their memory
#: (about 0.5 MB at 16 KiB)
_CHUNK = 1 << 14
_MARK = np.zeros(256, bool)
_MARK[list(b"[]{},")] = True
#: depth step of a structural byte: +1 opens, -1 closes, 0 for a comma
_STEP = np.zeros(256, np.intp)
_STEP[list(b"[{")], _STEP[list(b"]}")] = 1, -1
#: _STEP of an opener or closer; 2, which no -step equals, for every other byte
_BRACKET = np.where(_STEP != 0, _STEP, 2)


def _write_json(doc: dict, path) -> None:
    """Write `json.dumps(doc, indent=2) + "\n"` byte for byte, encoded by the
    C encoder (the standard library encodes in Python whenever `indent` is
    set).  The compact text is re-indented in chunks of `_CHUNK` bytes.

    Precondition: no string in `doc` holds `[`, `]`, `{`, `}` or `,`, so
    every such byte of the compact text is structural.  The files written
    here hold only fixed keys as strings.
    """
    text = np.frombuffer(json.dumps(doc, separators=(",", ": ")).encode(), np.uint8)
    with _atomic_open(path, "wb") as fh:
        depth = 0
        for lo in range(0, text.size, _CHUNK):
            depth = _write_chunk(fh, text, lo, min(lo + _CHUNK, text.size), depth)
        fh.write(b"\n")


def _write_chunk(fh, text: np.ndarray, lo: int, hi: int, depth: int) -> int:
    """Write `text[lo:hi]` in the `indent=2` layout, `depth` being the
    nesting depth at `lo`; returns the depth at `hi`.

    A newline and two spaces per level of the depth after the byte go after
    each opener and comma and before each closer, except inside an empty
    `[]` or `{}`.  Bytes on either side of the chunk are read to find those.
    """
    chunk = text[lo:hi]
    at = np.flatnonzero(_MARK[chunk])
    step = _STEP[chunk[at]]
    levels = np.cumsum(step)
    levels += depth
    close = step < 0
    where = at + ~close  # the newline's place: after an opener or comma, before a closer
    # the byte past an opener, the byte before a closer; side by side they are `[]` or `{}`
    keep = _BRACKET[text[where + (lo - close)]] != -step
    where, sizes = where[keep], 2 * levels[keep] + 1
    ends = np.cumsum(sizes)
    out = np.full(chunk.size + sizes.sum(), ord(" "), np.uint8)
    out[where + ends - sizes] = ord("\n")
    shift = np.zeros(chunk.size + 1, np.intp)
    shift[where] = sizes
    np.cumsum(shift, out=shift)
    out[np.arange(chunk.size) + shift[:-1]] = chunk
    fh.write(out)
    return depth + int(step.sum())


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
    n2, n12 = game.n_col_actions, game.n_row_actions * game.n_col_actions
    n_rows = game.n_states * n12  # one row per (state, i, j)
    s, i, j, to = np.nonzero(game.transitions)  # in row order, successors ascending
    cuts = np.searchsorted(np.ravel_multi_index((s, i, j), game.transitions.shape[:3]),
                           np.arange(n_rows + 1)).tolist()
    entries = [{"to": t, "p": p} for t, p in zip(to.tolist(),
                                                 game.transitions[s, i, j, to].tolist())]
    rows = [entries[a:b] for a, b in zip(cuts, cuts[1:])]
    transitions = [[rows[k:k + n2] for k in range(m, m + n12, n2)]
                   for m in range(0, n_rows, n12)]
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
