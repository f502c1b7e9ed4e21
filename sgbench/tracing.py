"""Traced run: spans and counts recorded from outside sgplan.

Per-layer timings come from five places, none of them inside `src/`:

* the benchmark's own call sites (`TracedEnv.call`/`plan`);
* timing selection functions passed as `selection=`;
* a delegating generative model that keeps `game`/`n_states`, so
  `sparse_game` takes the same code path as with the plain model;
* module-level public names replaced for the length of a traced round:
  `matrix_games.maximin` (called by `security_select`),
  `finite_planner.policy_value`/`best_response_dp` (called by
  `nash_certificate`) and `sparse_planner.sparse_game` (called by
  `InducedPolicyPair.plan`);
* after a traced round, the backup games the selection functions saw are
  replayed through `nash_select`, `security_select` and `simplex.maximin`
  with nothing wrapped, which gives their cost per call.

A span is [name, start, end, parent index]; a layer's self time is its
spans' durations minus the parts their child spans cover.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import sgplan.finite_planner as finite_planner
import sgplan.matrix_games as matrix_games
import sgplan.sparse_planner as sparse_planner
from sgplan import GenerativeModel, nash_select, security_select
from sgplan.simplex import maximin

from workloads import Env

NASH = "matrix_games.nash_select"
SECURITY = "matrix_games.security_select"
MAXIMIN = "simplex.maximin"
SPARSE = "sparse_planner.sparse_game"
EXACT = "sparse_planner.exact_sparse_game"
SAMPLE = "game_model.sample"
FINITE_VI = "finite_planner.finite_vi"
INFINITE_VI = "discounted_planner.infinite_vi"
IO_NAMES = ("io.save_game", "io.load_game", "io.save_policy_pair", "io.load_policy_pair")
SETUP_NAMES = ("game_model.random_game", "game_model.validate")

# (module, attribute, span name) replaced during traced rounds
_PATCHED = ((matrix_games, "maximin", MAXIMIN),
            (finite_planner, "policy_value", "finite_planner.policy_value"),
            (finite_planner, "best_response_dp", "finite_planner.best_response_dp"),
            (sparse_planner, "sparse_game", SPARSE))


class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._current = -1

    def span(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._current]
        self._current = len(self.spans)
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._current = rec[3]

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def take(self):
        """Spans and counts recorded since the last take, then clear them."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def support_ranks(n1, n2):
    """Canonical-order rank of every support pair, as documented in
    matrix_games: ascending (|sup1| + |sup2|, |sup1|, lex sup1, lex sup2)."""
    order = []
    for total in range(2, n1 + n2 + 1):
        for k1 in range(max(1, total - n2), min(n1, total - 1) + 1):
            for sup1 in itertools.combinations(range(n1), k1):
                for sup2 in itertools.combinations(range(n2), total - k1):
                    order.append((sup1, sup2))
    return {pair: rank for rank, pair in enumerate(order)}


class TracedModel(GenerativeModel):
    """Delegates to an explicit generative model and times its sampling."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer
        self.game = inner.game
        self.n_states = inner.n_states
        self.start_state = inner.start_state
        self.n_row_actions = inner.n_row_actions
        self.n_col_actions = inner.n_col_actions

    def payoffs(self, state):
        return self.inner.payoffs(state)

    def sample_from_uniform(self, state, i, j, u):
        return self.inner.sample_from_uniform(state, i, j, u)

    def sample_from_uniform_many(self, state, i, j, us):
        self.tracer.counts["game_model.sample.draws"] += len(us)
        return self.tracer.span(SAMPLE, self.inner.sample_from_uniform_many, state, i, j, us)

    def distribution(self, state, i, j):
        return self.inner.distribution(state, i, j)


class TracedEnv(Env):
    """Env that also records a span for every call and for every layer
    reachable from outside."""

    def __init__(self):
        super().__init__()
        self.tracer = Tracer()
        self._ranks = {}
        self._recorded = {NASH: [], SECURITY: []}

    def call(self, phase, name, fn, *args, **kwargs):
        return super().call(phase, name, self.tracer.span, name, fn, *args, **kwargs)

    def plan(self, name, fn, *args, **kwargs):
        return super().plan(name, self.tracer.span, name, fn, *args, **kwargs)

    def nash(self, game):
        self._recorded[NASH].append(game)
        prof = self.tracer.span(NASH, nash_select, game)
        shape = (game.rows, game.cols)
        ranks = self._ranks.get(shape)
        if ranks is None:
            ranks = self._ranks[shape] = support_ranks(*shape)
        self.tracer.counts["support_pairs"] += ranks[(prof.row.support(), prof.col.support())] + 1
        return prof

    def security(self, game):
        self._recorded[SECURITY].append(game)
        return self.tracer.span(SECURITY, security_select, game)

    def replay(self):
        """Microseconds per call of the selection layer, unwrapped: the
        backup games recorded since the last replay, run again through
        nash_select, security_select and simplex.maximin."""
        nash_games, security_games = self._recorded[NASH], self._recorded[SECURITY]
        self._recorded = {NASH: [], SECURITY: []}
        matrices = [m for g in security_games for m in (g.payoff1, g.payoff2.T)]
        out = {}
        for name, fn, inputs in ((NASH, nash_select, nash_games),
                                 (SECURITY, security_select, security_games),
                                 (MAXIMIN, maximin, matrices)):
            t0 = perf_counter()
            for x in inputs:
                fn(x)
            out[f"{name}.us_per_call"] = ((perf_counter() - t0) / len(inputs) * 1e6
                                          if inputs else 0.0)
        return out

    def model(self, model):
        return TracedModel(model, self.tracer)

    def count(self, name, k):
        self.tracer.counts[name] += k

    @contextmanager
    def patched(self):
        """Replace the module-level names in _PATCHED for one traced round."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _PATCHED]
        for mod, attr, name in _PATCHED:
            setattr(mod, attr, self.tracer.wrap(name, getattr(mod, attr)))
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def _aggregate(spans):
    busy = defaultdict(float)
    self_s = defaultdict(float)
    calls = Counter()
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for (name, t0, t1, parent), inner in zip(spans, child):
        busy[name] += t1 - t0
        self_s[name] += t1 - t0 - inner
        calls[name] += 1
    return busy, self_s, calls


def round_metrics(spans, counts):
    """Per-layer metrics of one traced round, keyed by metric name."""
    busy, self_s, calls = _aggregate(spans)
    nodes = counts["sparse_planner.nodes_expanded"]
    out = {
        f"{NASH}.calls": calls[NASH],
        f"{NASH}.busy_s": busy[NASH],
        "matrix_games.support_pairs_per_select":
            counts["support_pairs"] / calls[NASH] if calls[NASH] else 0.0,
        f"{SECURITY}.calls": calls[SECURITY],
        f"{SECURITY}.busy_s": busy[SECURITY],
        f"{MAXIMIN}.calls": calls[MAXIMIN],
        f"{SPARSE}.calls": calls[SPARSE],
        "sparse_planner.nodes_expanded": nodes,
        "sparse_planner.self_s": self_s[SPARSE],
        "sparse_planner.us_per_node": busy[SPARSE] / nodes * 1e6 if nodes else 0.0,
        f"{EXACT}.s": busy[EXACT],
        f"{SAMPLE}.calls": calls[SAMPLE],
        f"{SAMPLE}.draws": counts["game_model.sample.draws"],
        f"{SAMPLE}.busy_s": busy[SAMPLE],
        f"{FINITE_VI}.self_s": self_s[FINITE_VI],
        "finite_planner.nodes": counts["finite_planner.nodes"],
        "finite_planner.policy_value.s": busy["finite_planner.policy_value"],
        "finite_planner.best_response_dp.s": busy["finite_planner.best_response_dp"],
        "discounted_planner.sweeps": counts["discounted_planner.sweeps"],
        f"{INFINITE_VI}.self_s": self_s[INFINITE_VI],
        "discounted_planner.security_certificate.s":
            busy["discounted_planner.security_certificate"],
        "discounted_planner.contraction_check.s": busy["discounted_planner.contraction_check"],
        "io.bytes": counts["io.bytes"],
    }
    for name in IO_NAMES:
        out[f"{name}.s"] = busy[name]
    return out


def setup_metrics(spans, repeats, speed):
    """Per-layer set-up time, averaged over the set-up repeats and
    calibrated by the set-up's speed."""
    busy, _, _ = _aggregate(spans)
    return {f"{name}.s": busy[name] * speed / repeats for name in SETUP_NAMES}
