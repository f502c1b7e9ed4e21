"""The three benchmark workloads and the untraced environment they run in.

A workload makes its inputs from the benchmark seed in `setup`, and runs
one round of whole pipelines in `run_round`.  Every call into sgplan goes
through `env.call`/`env.plan`, which time it under one end-to-end phase
(setup, solve, certify or io).  Outputs are kept as plain arrays so that the
digest and the independent checker never touch sgplan's solvers.
"""

from __future__ import annotations

import functools
import hashlib
import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from sgplan import (SgError, TimeDependentPolicy, as_generative, contraction_check,
                    exact_sparse_game, finite_vi, induced_policy, infinite_vi,
                    load_game, load_policy_pair, nash_certificate, nash_select,
                    random_game, save_game, save_policy_pair, security_certificate,
                    security_select, validate)

import checker


_CAL_MATRIX = np.array([[2.0, 1.0, 0.5], [0.3, 1.7, 0.2], [0.1, 0.4, 1.9]])
_CAL_RHS = np.ones(3)
#: time one calibration sample takes at the reference speed
CAL_REF_S = 1e-3


def calibration_sample():
    """Wall time of a fixed mix of interpreter loop and small numpy calls,
    the kind of work sgplan does; it tracks the machine's current speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i
    for _ in range(40):
        np.linalg.solve(_CAL_MATRIX, _CAL_RHS)
    return perf_counter() - t0


class Env:
    """Untraced run: times each call into sgplan by phase and wraps nothing.

    A call's wall time dt is also reported calibrated: dt * CAL_REF_S / c,
    with c the mean of the calibration samples taken just before and just
    after the call.  Calibrated times are what the benchmark reports; they
    cancel the swings in machine speed that a shared host shows over
    seconds to minutes.
    """

    nash = staticmethod(nash_select)
    security = staticmethod(security_select)

    def __init__(self):
        self.reset()
        self._cal = calibration_sample()

    def reset(self):
        self.phases = defaultdict(float)  # calibrated seconds
        self.raw = defaultdict(float)  # wall seconds
        self.plan_s = []  # calibrated seconds of each planning call
        self.plan_raw = []  # wall seconds of each planning call

    def _timed(self, phase, fn, args, kwargs):
        before = self._cal
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        self._cal = calibration_sample()
        scaled = dt * 2.0 * CAL_REF_S / (before + self._cal)
        self.phases[phase] += scaled
        self.raw[phase] += dt
        return out, scaled, dt

    def call(self, phase, name, fn, *args, **kwargs):
        return self._timed(phase, fn, args, kwargs)[0]

    def plan(self, name, fn, *args, **kwargs):
        """A planning call whose latency is reported as plan_ms."""
        out, scaled, dt = self._timed("solve", fn, args, kwargs)
        self.plan_s.append(scaled)
        self.plan_raw.append(dt)
        return out

    def model(self, model):
        return model

    def count(self, name, k):
        pass


class Untimed(Env):
    """Calls sgplan directly: the runner times a whole set-up instead."""

    def call(self, phase, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def policy_array(policy, n_states, horizon):
    """(n, H, k) strategy table of a time-dependent policy."""
    return np.array([[policy.probs(s, t) for t in range(horizon)] for s in range(n_states)])


def game_arrays(game):
    return game.payoffs1, game.payoffs2, game.transitions


def same_game(a, b):
    return all(np.array_equal(x, y) for x, y in zip(game_arrays(a), game_arrays(b)))


def _seeds(seed, k):
    return [int(x) for x in np.random.default_rng(seed).integers(0, 2 ** 62, size=k)]


def _round_trip_policy(env, pol1, pol2, path):
    env.call("io", "io.save_policy_pair", save_policy_pair, pol1, pol2, path)
    env.count("io.bytes", os.path.getsize(path))
    return env.call("io", "io.load_policy_pair", load_policy_pair, path)


def _round_trip_game(env, game, path):
    env.call("io", "io.save_game", save_game, game, path)
    env.count("io.bytes", os.path.getsize(path))
    return env.call("io", "io.load_game", load_game, path)


def _make_game(env, *args, **kwargs):
    game = env.call("setup", "game_model.random_game", random_game, *args, **kwargs)
    report = env.call("setup", "game_model.validate", validate, game)
    if not report.ok:
        raise SgError(f"generated game fails validation:\n{report}")
    return game


def attempt(pipeline, *args):
    """Run one pipeline; None when sgplan raises, a failed operation."""
    try:
        return pipeline(*args)
    except SgError:
        return None


def digest(outputs):
    """Short hash of every array and count in a round's outputs."""
    h = hashlib.sha256()
    for out in outputs:
        if out is None:
            h.update(b"failed")
            continue
        for part in out.digest_parts():
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


# --- finite-exact ---------------------------------------------------------

@dataclass
class FinitePipeline:
    game: object
    loaded_game: object
    q1: np.ndarray
    q2: np.ndarray
    values: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    loaded_alpha: np.ndarray
    loaded_beta: np.ndarray
    gaps: tuple

    def digest_parts(self):
        return (self.alpha, self.beta, self.values, np.array(self.values.shape[:2]))


class FiniteExact:
    """Random general-sum games through save -> load -> finite_vi -> save
    policies -> load policies -> nash_certificate."""

    name = "finite-exact"
    # four games of 100 states, not two of 200: calls half as long let the
    # calibration samples around them track the host's speed
    games = 4
    states = 100
    actions = 3
    branching = 4
    horizon = 8

    def setup(self, env, seed):
        return [_make_game(env, self.states, self.actions, self.actions, self.branching,
                           1.0, seed=s) for s in _seeds(seed, self.games)]

    def pipelines(self, inputs):
        return len(inputs)

    def run_round(self, env, inputs, tmp):
        return [attempt(self._pipeline, env, game, os.path.join(tmp, f"finite{k}"))
                for k, game in enumerate(inputs)]

    def _pipeline(self, env, game, stem):
        h = self.horizon
        loaded = _round_trip_game(env, game, stem + "-game.json")
        res = env.plan("finite_planner.finite_vi", finite_vi, loaded, h, selection=env.nash)
        env.count("finite_planner.nodes", loaded.n_states * h)
        pol1, pol2 = _round_trip_policy(env, res.policy1, res.policy2, stem + "-policy.json")
        gaps = env.call("certify", "finite_planner.nash_certificate", nash_certificate,
                        loaded, pol1, pol2, h)
        table = res.table
        n = loaded.n_states
        values = np.array([[(p.value1, p.value2) for p in row] for row in table.profiles])
        return FinitePipeline(game, loaded, table.q1, table.q2, values,
                              policy_array(res.policy1, n, h), policy_array(res.policy2, n, h),
                              policy_array(pol1, n, h), policy_array(pol2, n, h), gaps)

    def check(self, inputs, outputs):
        out = []
        for k, p in enumerate(outputs):
            if p is None:
                continue
            if not same_game(p.game, p.loaded_game):
                out.append(f"game {k}: load_game does not reproduce save_game's input")
            if not (np.array_equal(p.alpha, p.loaded_alpha)
                    and np.array_equal(p.beta, p.loaded_beta)):
                out.append(f"game {k}: policy file round trip changed the policies")
            out += [f"game {k}: {msg}" for msg in checker.check_finite(
                *game_arrays(p.game), p.q1, p.q2, p.loaded_alpha, p.loaded_beta,
                p.values, p.gaps, p.game.start_state)]
        return out


# --- sparse-sampling ------------------------------------------------------

@dataclass
class SparsePipeline:
    m: object  # sample count, or "exact" for the oracle
    calls: list  # (t, m, nodes, q1, q2, alpha, beta) per planned (state, t)
    alpha: np.ndarray
    beta: np.ndarray
    loaded_alpha: np.ndarray
    loaded_beta: np.ndarray
    gaps: tuple
    loaded_game: object = None

    def digest_parts(self):
        nodes = np.array([c[2] for c in self.calls])
        return (self.alpha, self.beta, nodes,
                np.array([c[3] for c in self.calls]), np.array([c[4] for c in self.calls]))


class SparseSampling:
    """The standard 3-state 2x2 fixture at horizon 3: induced policy pairs
    for every m and root seed, each certified and round-tripped through a
    policy file, plus the exact-expectation oracle on the game file."""

    name = "sparse-sampling"
    fixture = (3, 2, 2, 2, 1.0)
    fixture_seed = 7
    horizon = 3
    m_list = (1, 4, 16, 64)
    root_seeds = 2

    def setup(self, env, seed):
        game = _make_game(env, *self.fixture, seed=self.fixture_seed)
        model = env.call("setup", "game_model.as_generative", as_generative, game, check=False)
        return game, model, _seeds(seed, self.root_seeds)

    def pipelines(self, inputs):
        return len(self.m_list) * len(inputs[2]) + 1

    def run_round(self, env, inputs, tmp):
        game, model, seeds = inputs
        model = env.model(model)
        outputs = [attempt(self._induced, env, game, model, m, root,
                           os.path.join(tmp, f"sparse-m{m}-{k}.json"))
                   for m in self.m_list for k, root in enumerate(seeds)]
        outputs.append(attempt(self._oracle, env, game, os.path.join(tmp, "sparse-game.json")))
        return outputs

    def _induced(self, env, game, model, m, root, path):
        h, n = self.horizon, game.n_states
        pair = env.call("solve", "sparse_planner.induced_policy", induced_policy,
                        model, m, h, root, selection=env.nash)
        # root-depth calls at the largest m are the ones plan_ms reports
        root_call = env.plan if m == self.m_list[-1] else functools.partial(env.call, "solve")
        for s in range(n):
            root_call("sparse_planner.InducedPolicyPair.plan", pair.plan, s, h - 1)
        pol1, pol2 = env.call("solve", "sparse_planner.InducedPolicyPair.materialize",
                              pair.materialize, range(n))
        env.count("sparse_planner.nodes_expanded", pair.nodes_expanded)
        gaps = env.call("certify", "finite_planner.nash_certificate", nash_certificate,
                        game, pol1, pol2, h)
        l1, l2 = _round_trip_policy(env, pol1, pol2, path)
        calls = []
        for s in range(n):
            for t in range(h):
                r = pair.plan(s, t)  # memoised: the result materialize used
                calls.append((t, m, r.nodes_expanded, *r.q_matrices,
                              r.profile.row.probs, r.profile.col.probs))
        return SparsePipeline(m, calls, policy_array(pol1, n, h), policy_array(pol2, n, h),
                              policy_array(l1, n, h), policy_array(l2, n, h), gaps)

    def _oracle(self, env, game, path):
        h, n = self.horizon, game.n_states
        loaded = _round_trip_game(env, game, path)
        calls = []
        t1, t2 = {}, {}
        for s in range(n):
            for t in range(h):
                r = env.call("solve", "sparse_planner.exact_sparse_game", exact_sparse_game,
                             loaded, s, t, selection=env.nash)
                t1[(s, t)], t2[(s, t)] = r.profile.row.probs, r.profile.col.probs
                calls.append((t, "exact", r.nodes_expanded, *r.q_matrices, t1[(s, t)], t2[(s, t)]))
        pol1 = TimeDependentPolicy(h, game.n_row_actions, t1)
        pol2 = TimeDependentPolicy(h, game.n_col_actions, t2)
        gaps = env.call("certify", "finite_planner.nash_certificate", nash_certificate,
                        loaded, pol1, pol2, h)
        alpha, beta = policy_array(pol1, n, h), policy_array(pol2, n, h)
        return SparsePipeline("exact", calls, alpha, beta, alpha, beta, gaps, loaded)

    def check(self, inputs, outputs):
        game = inputs[0]
        arrays = game_arrays(game)
        out = []
        for p in outputs:
            if p is None:
                continue
            label = f"m={p.m}"
            if p.loaded_game is not None and not same_game(game, p.loaded_game):
                out.append(f"{label}: load_game does not reproduce save_game's input")
            if not (np.array_equal(p.alpha, p.loaded_alpha)
                    and np.array_equal(p.beta, p.loaded_beta)):
                out.append(f"{label}: policy file round trip changed the policies")
            for t, m, nodes, q1, q2, a, b in p.calls:
                out += [f"{label}: {msg}" for msg in checker.check_sparse_call(
                    t, None if m == "exact" else m, nodes, q1, q2, a, b)]
            out += [f"{label}: {msg}" for msg in checker.check_policy_gaps(
                *arrays, p.loaded_alpha, p.loaded_beta, p.gaps, game.start_state,
                exact=p.m == "exact")]
        return out


# --- discounted-security --------------------------------------------------

@dataclass
class DiscountedPipeline:
    game: object
    loaded_game: object
    values1: np.ndarray
    values2: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    converged: bool
    iterations: int
    contraction_ok: bool
    shortfalls: tuple

    def digest_parts(self):
        return (self.alpha, self.beta, self.values1, self.values2, np.array([self.iterations]))


class DiscountedSecurity:
    """infinite_vi with security_select on one zero-sum and one
    general-sum game, then contraction_check and security_certificate."""

    name = "discounted-security"
    gamma = 0.9
    branching = 3
    # (states, row actions, col actions, zero_sum)
    shapes = ((12, 3, 3, True), (12, 2, 3, False))

    def setup(self, env, seed):
        return [_make_game(env, n, n1, n2, self.branching, 1.0, seed=s, zero_sum=zs)
                for (n, n1, n2, zs), s in zip(self.shapes, _seeds(seed, len(self.shapes)))]

    def pipelines(self, inputs):
        return len(inputs)

    def run_round(self, env, inputs, tmp):
        return [attempt(self._pipeline, env, game, os.path.join(tmp, f"disc{k}.json"))
                for k, game in enumerate(inputs)]

    def _pipeline(self, env, game, path):
        g = self.gamma
        loaded = _round_trip_game(env, game, path)
        res = env.plan("discounted_planner.infinite_vi", infinite_vi, loaded, g,
                       selection=env.security)
        env.count("discounted_planner.sweeps", res.iterations + 1)
        report = env.call("certify", "discounted_planner.contraction_check",
                          contraction_check, res.deltas, g)
        shortfalls = env.call("certify", "discounted_planner.security_certificate",
                              security_certificate, loaded, res.policy1, res.policy2, g,
                              res.values1, res.values2)
        n = loaded.n_states
        alpha = np.array([res.policy1.probs(s) for s in range(n)])
        beta = np.array([res.policy2.probs(s) for s in range(n)])
        return DiscountedPipeline(game, loaded, res.values1, res.values2, alpha, beta,
                                  res.converged, res.iterations, report.ok, shortfalls)

    def check(self, inputs, outputs):
        out = []
        for k, p in enumerate(outputs):
            if p is None:
                continue
            if not same_game(p.game, p.loaded_game):
                out.append(f"game {k}: load_game does not reproduce save_game's input")
            out += [f"game {k}: {msg}" for msg in checker.check_discounted(
                *game_arrays(p.game), self.gamma, p.values1, p.values2, p.alpha, p.beta,
                p.converged, p.contraction_ok, p.shortfalls, p.game.is_zero_sum)]
        return out


WORKLOADS = {w.name: w for w in (FiniteExact, SparseSampling, DiscountedSecurity)}
