import dataclasses
import re
import time

import numpy as np
import pytest

from sgplan import (DegenerateGame, MatrixGame, NodeBudgetExceeded,
                    SelectionFailure, StochasticGame, TimeDependentPolicy, derive_seed,
                    exact_sparse_game, finite_vi, gap_experiment, induced_policy,
                    nash_certificate, nash_select, random_game, sample_size,
                    sparse_game, as_generative)
from sgplan import sparse_planner
from sgplan.game_model import GenerativeModel
from sgplan.finite_planner import backup_sweeps
from sgplan.sparse_planner import (GapRow, SparsePlanResult, _derive_children, _distinct,
                                  _in_state_order, _uniforms)

from conftest import STANDARD_FIXTURE_SEED
from oracles import scalar_derive_seed


def recursive_reference(model, state, t, m, seed, selection=nash_select):
    """Depth-first sparse sampling, branches in forward order: at tt = 1
    the m leaf values are averaged by numpy's mean, above it they are
    summed left to right and divided by m."""
    base_cache = {}
    count = [0]

    def base(s):
        if s not in base_cache:
            base_cache[s] = selection(model.payoffs(s))
        return base_cache[s]

    def expand(s, tt, node_seed):
        count[0] += 1
        stage = model.payoffs(s)
        if tt == 0:
            return base(s), stage.payoff1, stage.payoff2
        q1 = np.array(stage.payoff1)
        q2 = np.array(stage.payoff2)
        for i in range(model.n_row_actions):
            for j in range(model.n_col_actions):
                branch = derive_seed(node_seed, s, tt, i, j)
                child_seeds = _derive_children(branch, m)
                children = model.sample_from_uniform_many(s, i, j, _uniforms(child_seeds))
                if tt == 1:
                    count[0] += m
                    mean1 = float(np.array([base(int(c)).value1 for c in children]).mean())
                    mean2 = float(np.array([base(int(c)).value2 for c in children]).mean())
                else:
                    tot1 = tot2 = 0.0
                    for ell in range(m):
                        prof, _, _ = expand(int(children[ell]), tt - 1, int(child_seeds[ell]))
                        tot1 += prof.value1
                        tot2 += prof.value2
                    mean1, mean2 = tot1 / m, tot2 / m
                q1[i, j] += mean1
                q2[i, j] += mean2
        return selection(MatrixGame(q1, q2)), q1, q2

    prof, q1, q2 = expand(state, t, sparse_planner._root_seed(seed))
    return SparsePlanResult(prof, (prof.value1, prof.value2), (q1, q2), count[0])


class ExactReference:
    """Depth-first, memoised exact recursion: at (state, t) each backup
    entry adds p(s') * value(s', t - 1) over the successors s' with p > 0,
    in ascending order, to an accumulator that starts from 0.0."""

    def __init__(self, game, selection=nash_select):
        self.game = game
        self.selection = selection
        self.memo = {}

    def node(self, state, t):
        if (state, t) not in self.memo:
            game = self.game
            q1 = np.array(game.payoffs1[state])
            q2 = np.array(game.payoffs2[state])
            if t > 0:
                for i, j in np.ndindex(q1.shape):
                    pvec = game.transitions[state, i, j]
                    acc1 = acc2 = 0.0
                    for s2 in np.nonzero(pvec)[0]:
                        child, _, _ = self.node(int(s2), t - 1)
                        acc1 += pvec[s2] * child.value1
                        acc2 += pvec[s2] * child.value2
                    q1[i, j] += acc1
                    q2[i, j] += acc2
            self.memo[state, t] = self.selection(MatrixGame(q1, q2)), q1, q2
        return self.memo[state, t]

    def plan(self, state, t):
        before = len(self.memo)
        prof, q1, q2 = self.node(state, t)
        return SparsePlanResult(prof, (prof.value1, prof.value2), (q1, q2),
                                len(self.memo) - before)


def unreached_state_game():
    """A 4-state game in which no transition enters state 0."""
    game = random_game(4, 2, 2, 3, 1.0, seed=12)
    transitions = game.transitions.copy()
    transitions[..., 1] += transitions[..., 0]
    transitions[..., 0] = 0.0
    return StochasticGame(game.payoffs1, game.payoffs2, transitions, r_max=game.r_max)


class PayoffsAndSamplerOnly(GenerativeModel):
    """Generic model: no game, no n_states, only the two required methods,
    the sampler delegating the whole batch."""

    def __init__(self, game):
        self._inner = as_generative(game)
        self.n_row_actions = game.n_row_actions
        self.n_col_actions = game.n_col_actions

    def payoffs(self, state):
        return self._inner.payoffs(state)

    def sample_from_uniform_many(self, state, i, j, us):
        return self._inner.sample_from_uniform_many(state, i, j, us)


class SparseIds(PayoffsAndSamplerOnly):
    """Generic model whose state ids are large and sparse: 10**12 + 7 s."""

    @staticmethod
    def id(state):
        return 10 ** 12 + 7 * state

    def payoffs(self, state):
        return super().payoffs((state - self.id(0)) // 7)

    def sample_from_uniform_many(self, state, i, j, us):
        return self.id(super().sample_from_uniform_many((state - self.id(0)) // 7, i, j, us))


def counting(selection):
    calls = []

    def select(game):
        calls.append(game)
        return selection(game)
    return select, calls


def assert_same_bits(got, want):
    assert np.array_equal(got.profile.row.probs, want.profile.row.probs)
    assert np.array_equal(got.profile.col.probs, want.profile.col.probs)
    assert got.q_hats == want.q_hats
    assert np.array_equal(got.q_matrices[0], want.q_matrices[0])
    assert np.array_equal(got.q_matrices[1], want.q_matrices[1])
    assert got.nodes_expanded == want.nodes_expanded


class TestSeedDerivation:
    def test_vectorized_matches_scalar(self):
        branch = derive_seed(123456789, 2, 3, 0, 1)
        assert branch == scalar_derive_seed(123456789, 2, 3, 0, 1)
        for parent, fields in ((0, ()), (-1, (5, -1)), ((1 << 64) - 1, (1 << 63, 7)),
                               (1 << 63, (-(1 << 63), 0)), (3, (1 << 64,)),
                               (1 << 64, (3 << 70, -(1 << 63) - 1)),
                               (-(1 << 65), (-(1 << 64), np.int64(-5), np.uint64(1 << 63)))):
            assert derive_seed(parent, *fields) == scalar_derive_seed(parent, *map(int, fields))
        assert derive_seed(3, 1 << 64) == 8349077792257542819
        for field in (1.5, 1.0, np.float64(2.0)):
            with pytest.raises(TypeError, match=re.escape(f"got {field!r}")):
                derive_seed(0, field)
        children = _derive_children(branch, 16)
        for ell in range(16):
            assert int(children[ell]) == scalar_derive_seed(branch, ell)

    def test_distinct_fields_distinct_seeds(self):
        seen = {derive_seed(7, s, t, i, j, ell)
                for s in range(3) for t in range(3)
                for i in range(2) for j in range(2) for ell in range(4)}
        assert len(seen) == 3 * 3 * 2 * 2 * 4

    def test_uniforms_in_unit_interval(self):
        us = _uniforms(_derive_children(99, 10_000))
        assert us.min() >= 0.0
        assert us.max() < 1.0
        assert abs(us.mean() - 0.5) < 0.02

    def test_seed_spec_wraps_and_validates(self, three_state_game):
        root_seed = sparse_planner._root_seed
        assert root_seed(5) == root_seed(np.int64(5)) == root_seed(np.uint8(5)) == 5
        assert root_seed(-1) == root_seed(np.int64(-1)) == (1 << 64) - 1
        # a float or a string is never truncated or parsed
        for seed in (1.2, 1.9, 2.5, "7", np.float64(1.0)):
            message = f"seed must be an integer, got {seed!r}"
            with pytest.raises(TypeError, match=re.escape(message)):
                root_seed(seed)
        model = as_generative(three_state_game)
        for seed in (1.2, 1.9):
            with pytest.raises(TypeError, match=f"got {seed}"):
                sparse_game(model, 0, 1, 4, seed)
        with pytest.raises(TypeError, match="got 2.5"):
            induced_policy(model, 2, 2, 2.5)


class TestSparseGame:
    def test_base_case_is_stage_selection(self, three_state_game):
        model = as_generative(three_state_game)
        result = sparse_game(model, 1, 0, 5, seed=42)
        want = nash_select(three_state_game.stage_game(1))
        np.testing.assert_array_equal(result.profile.row.probs, want.row.probs)
        np.testing.assert_array_equal(result.profile.col.probs, want.col.probs)
        assert result.q_hats == (want.value1, want.value2)
        assert result.nodes_expanded == 1

    def test_deterministic_transitions_match_exact_oracle(self, repeated_pd):
        model = as_generative(repeated_pd)
        exact = exact_sparse_game(repeated_pd, 0, 2)
        for m in (1, 2, 3, 5):
            got = sparse_game(model, 0, 2, m, seed=9 + m)
            assert got.q_hats[0] == pytest.approx(exact.q_hats[0], abs=1e-10)
            assert got.q_hats[1] == pytest.approx(exact.q_hats[1], abs=1e-10)
            np.testing.assert_allclose(got.q_matrices[0], exact.q_matrices[0], atol=1e-10)
        # the PD tower of defections: three stages, payoff 1 each
        assert exact.q_hats[0] == pytest.approx(3.0, abs=1e-12)

    def test_node_count_formula(self, three_state_game):
        model = as_generative(three_state_game)
        result = sparse_game(model, 0, 2, 2, seed=0)
        assert result.nodes_expanded == 1 + 4 * 2 + 4 * 2 * 4 * 2  # 73

    def test_node_count_bound(self, three_state_game):
        model = as_generative(three_state_game)
        for t, m in ((1, 3), (2, 2), (3, 1)):
            result = sparse_game(model, 0, t, m, seed=5)
            bound = sum((4 * m) ** d for d in range(t + 1))
            assert result.nodes_expanded <= bound

    def test_budget_enforced(self, three_state_game):
        model = as_generative(three_state_game)
        with pytest.raises(NodeBudgetExceeded):
            sparse_game(model, 0, 2, 4, seed=1, node_budget=20)

    def test_budget_boundary_checked_before_selection(self, three_state_game):
        model = as_generative(three_state_game)
        select, calls = counting(nash_select)
        assert sparse_game(model, 0, 2, 2, seed=0, selection=select,
                           node_budget=73).nodes_expanded == 73
        calls.clear()
        with pytest.raises(NodeBudgetExceeded, match="node budget 72"):
            sparse_game(model, 0, 2, 2, seed=0, selection=select, node_budget=72)
        assert calls == []

    def test_deep_tree_refused_at_once(self, three_state_game):
        # the node count stops at the first level past the budget, so a
        # horizon of 10**7 is refused without summing 10**7 powers
        model = as_generative(three_state_game)
        start = time.perf_counter()
        with pytest.raises(NodeBudgetExceeded, match="node budget 1000 "):
            sparse_game(model, 0, 10**7, 1, 0, node_budget=1000)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("state", [-1, 3])
    def test_unknown_state_rejected(self, three_state_game, state):
        model = as_generative(three_state_game)
        with pytest.raises(ValueError, match=f"state {state} not in 0..2"):
            sparse_game(model, state, 1, 2, seed=0)

    def test_float_sample_count_rejected(self, three_state_game):
        # a float m is never truncated, on any route into the planner
        model = as_generative(three_state_game)
        message = "sample count m must be an integer, got 2.5"
        with pytest.raises(TypeError, match=re.escape(message)):
            sparse_game(model, 0, 1, 2.5, seed=0)
        with pytest.raises(TypeError, match=re.escape(message)):
            induced_policy(model, 2.5, 2, 0).plan(0, 1)
        with pytest.raises(TypeError, match=re.escape(message)):
            gap_experiment(three_state_game, 2, [2.5], [0])

    def test_selection_failure_names_node(self, three_state_game):
        def refuse(game):
            raise DegenerateGame("boom")
        model = as_generative(three_state_game)
        with pytest.raises(SelectionFailure, match=r"t=0: boom"):
            sparse_game(model, 0, 2, 2, seed=0, selection=refuse)

    def test_no_empty_leaf_selection(self, three_state_game, monkeypatch):
        # at m = 64 every leaf state of a later block is already selected
        sizes = []

        def select_level(selection, q1, q2, states, t):
            sizes.append(len(q1))
            return real(selection, q1, q2, states, t)
        real = sparse_planner.select_level
        monkeypatch.setattr(sparse_planner, "select_level", select_level)
        model = as_generative(three_state_game)
        for state in range(3):
            sparse_game(model, state, 2, 64, seed=0)
        assert sizes and 0 not in sizes

    def test_bit_identical_reruns(self, three_state_game):
        model = as_generative(three_state_game)
        a = sparse_game(model, 0, 2, 3, seed=77)
        b = sparse_game(model, 0, 2, 3, seed=77)
        assert np.array_equal(a.q_matrices[0], b.q_matrices[0])
        assert np.array_equal(a.profile.row.probs, b.profile.row.probs)
        assert a.q_hats == b.q_hats

    def test_different_seeds_differ(self, three_state_game):
        model = as_generative(three_state_game)
        a = sparse_game(model, 0, 2, 3, seed=1)
        b = sparse_game(model, 0, 2, 3, seed=2)
        assert not np.array_equal(a.q_matrices[0], b.q_matrices[0])

    def test_profile_is_nash_of_backup_matrices(self, three_state_game):
        from sgplan import epsilon_nash_gap
        model = as_generative(three_state_game)
        result = sparse_game(model, 0, 3, 2, seed=4)
        backup = MatrixGame(result.q_matrices[0], result.q_matrices[1])
        g1, g2 = epsilon_nash_gap(backup, result.profile)
        assert max(g1, g2) <= 1e-8
        # q_hats are the matrices evaluated at the profile
        a, b = result.profile.row.probs, result.profile.col.probs
        assert result.q_hats[0] == pytest.approx(a @ result.q_matrices[0] @ b, abs=1e-10)

    def test_branch_order_independence(self, three_state_game):
        # reference recursion evaluating (i, j, l) branches in reversed
        # order; per-branch seed derivation must make the order irrelevant
        model = as_generative(three_state_game)

        def reference(s, t, node_seed):
            stage = model.payoffs(s)
            if t == 0:
                return nash_select(stage)
            q1 = np.array(stage.payoff1)
            q2 = np.array(stage.payoff2)
            for i in reversed(range(2)):
                for j in reversed(range(2)):
                    branch = derive_seed(node_seed, s, t, i, j)
                    seeds = _derive_children(branch, 3)
                    childs = model.sample_from_uniform_many(s, i, j, _uniforms(seeds))
                    tot1 = tot2 = 0.0
                    for ell in reversed(range(3)):
                        prof = reference(int(childs[ell]), t - 1, int(seeds[ell]))
                        tot1 += prof.value1
                        tot2 += prof.value2
                    q1[i, j] += tot1 / 3
                    q2[i, j] += tot2 / 3
            return nash_select(MatrixGame(q1, q2))

        got = sparse_game(model, 0, 2, 3, seed=31)
        want = reference(0, 2, sparse_planner._root_seed(31))
        np.testing.assert_allclose(got.profile.row.probs, want.row.probs, atol=1e-12)
        assert got.q_hats[0] == pytest.approx(want.value1, abs=1e-12)


class TestBitContract:
    """The blocked recursion reproduces the depth-first
    recursion bit for bit."""

    @pytest.mark.parametrize("shape", [(3, 2, 2, 2, 1.0, 7), (4, 3, 2, 3, 1.0, 11)])
    def test_matches_recursive_reference(self, shape):
        *dims, seed = shape
        game = random_game(*dims, seed=seed)
        model = as_generative(game)
        width = game.n_row_actions * game.n_col_actions
        for t in range(4):
            for m in (1, 3, 8, 9, 16):
                if (width * m) ** t > 40_000:  # keeps the reference recursion quick
                    continue
                for root_seed in (0, 2 ** 63 + 5):
                    assert_same_bits(sparse_game(model, 1, t, m, root_seed),
                                     recursive_reference(model, 1, t, m, root_seed))

    def test_generic_model_matches_explicit(self, three_state_game):
        explicit = as_generative(three_state_game)
        generic = PayoffsAndSamplerOnly(three_state_game)
        for t, m in ((0, 3), (1, 9), (2, 3), (3, 2)):
            assert_same_bits(sparse_game(generic, 2, t, m, seed=13),
                             sparse_game(explicit, 2, t, m, seed=13))

    def test_leaf_blocks_do_not_change_bits(self, three_state_game, monkeypatch):
        models = [as_generative(g) for g in (three_state_game,
                                               random_game(4, 3, 2, 3, 1.0, seed=11))]
        want = [sparse_game(model, 0, 3, 5, seed=3) for model in models]
        monkeypatch.setattr(sparse_planner, "_LEAF_BLOCK", 1)
        for model, result in zip(models, want):
            assert_same_bits(sparse_game(model, 0, 3, 5, seed=3), result)

    def test_blocks_that_split_a_level_do_not_change_bits(self, three_state_game, monkeypatch):
        model = as_generative(three_state_game)
        want = recursive_reference(model, 0, 2, 64, 3)
        expand = sparse_planner._expand
        for leaf_block, nodes in ((1, 1), (4096, 16), (16384, 64)):
            sizes = []

            def recording(model, states, *rest):
                sizes.append(states.size)
                return expand(model, states, *rest)
            monkeypatch.setattr(sparse_planner, "_expand", recording)
            monkeypatch.setattr(sparse_planner, "_LEAF_BLOCK", leaf_block)
            assert_same_bits(sparse_game(model, 0, 2, 64, seed=3), want)
            assert sizes == [1] + [nodes] * (256 // nodes)  # the root, then tt = 1 in blocks

    def test_every_level_expands_in_blocks(self, three_state_game, monkeypatch):
        model = as_generative(three_state_game)
        want = sparse_game(model, 0, 3, 2, seed=3)
        sizes = []
        expand = sparse_planner._expand

        def recording(model, states, *rest):
            sizes.append(states.size)
            return expand(model, states, *rest)
        monkeypatch.setattr(sparse_planner, "_expand", recording)
        monkeypatch.setattr(sparse_planner, "_LEAF_BLOCK", 32)  # 32 // (2 * 2 * 2) = 4 nodes
        assert_same_bits(sparse_game(model, 0, 3, 2, seed=3), want)
        assert max(sizes) == 4
        assert sum(sizes) == 1 + 8 + 64  # every node above the leaves, once


class TestDistinctStates:
    """A block's distinct states by table (a game no larger than the block)
    or by np.unique (a generic model, or a larger game) give the same bits."""

    def test_matches_unique_on_both_branches(self, monkeypatch):
        rng = np.random.default_rng(0)
        game = random_game(50, 2, 2, 3, 1.0, seed=3)
        dense = [rng.integers(low, 50, size=size) for size in (1, 20, 49, 50, 51, 700)
                 for low in (0, 30)]
        cases = [(states, g) for states in dense for g in (None, game)]
        cases += [(SparseIds.id(states), None) for states in dense]
        unique, sorts = np.unique, []

        def recording(*args, **kwargs):
            sorts.append(args)
            return unique(*args, **kwargs)
        monkeypatch.setattr(np, "unique", recording)
        for states, g in cases:
            sorts.clear()
            uniq, inverse = unique(states, return_inverse=True)
            got_uniq, got_inverse = _distinct(states, g)
            assert np.array_equal(got_uniq, uniq) and got_uniq.dtype == uniq.dtype
            assert np.array_equal(got_inverse, inverse) and got_inverse.dtype == inverse.dtype
            assert bool(sorts) == (g is None or states.size < 50)  # else the table answers

    def test_table_skips_unreached_states(self):
        game = unreached_state_game()
        model = as_generative(game)
        select, calls = counting(nash_select)
        for t, m in ((1, 16), (2, 4), (3, 2)):
            calls.clear()
            assert_same_bits(sparse_game(model, 1, t, m, seed=5, selection=select),
                             recursive_reference(model, 1, t, m, 5))
            stages = [s for g in calls for s in range(game.n_states)
                      if np.array_equal(g.payoff1, game.payoffs1[s])
                      and np.array_equal(g.payoff2, game.payoffs2[s])]
            inner = sum((game.n_row_actions * game.n_col_actions * m) ** k for k in range(t))
            assert len(calls) == len(stages) + inner  # every other call backs up a node
            assert len(set(stages)) == len(stages) and 0 not in stages

    def test_generic_model_with_large_sparse_ids(self, three_state_game):
        model = SparseIds(three_state_game)
        for t, m in ((0, 3), (1, 9), (2, 3), (3, 2)):
            assert_same_bits(sparse_game(model, SparseIds.id(2), t, m, seed=13),
                             recursive_reference(model, SparseIds.id(2), t, m, 13))


class TestExactOracle:
    def test_matches_finite_vi_backups_entrywise(self):
        for seed, n_states, horizon in ((3, 3, 3), (4, 5, 4), (5, 4, 2)):
            game = random_game(n_states, 2, 2, 2, 1.0, seed=seed)
            result = finite_vi(game, horizon)
            for s in range(n_states):
                for t in range(horizon):
                    exact = exact_sparse_game(game, s, t)
                    assert np.abs(exact.q_matrices[0] - result.table.q(1, s, t)).max() <= 1e-10
                    assert np.abs(exact.q_matrices[1] - result.table.q(2, s, t)).max() <= 1e-10

    def test_base_case_matches_sparse(self, three_state_game):
        model = as_generative(three_state_game)
        exact = exact_sparse_game(three_state_game, 2, 0)
        sparse = sparse_game(model, 2, 0, 7, seed=0)
        assert exact.q_hats == sparse.q_hats

    def test_error_decreases_with_m(self, three_state_game):
        model = as_generative(three_state_game)
        exact = exact_sparse_game(three_state_game, 0, 2)
        means = []
        for m in (1, 4, 16, 64):
            errs = [abs(sparse_game(model, 0, 2, m, seed=seed).q_hats[0] - exact.q_hats[0])
                    for seed in range(50)]
            means.append(np.mean(errs))
        assert all(means[k + 1] <= means[k] for k in range(len(means) - 1))


class TestExactBitContract:
    """The level-synchronous exact oracle reproduces the depth-first
    recursion bit for bit: profile, values, backup matrices, node count."""

    GAMES = {
        "fixture": lambda: random_game(3, 2, 2, 2, 1.0, seed=STANDARD_FIXTURE_SEED),
        "sparse branching": lambda: random_game(7, 3, 2, 2, 1.0, seed=21),
        "unreached state": unreached_state_game,
    }

    @pytest.mark.parametrize("name", GAMES)
    def test_matches_exact_reference(self, name):
        game = self.GAMES[name]()
        for s in range(game.n_states):
            for t in range(4):
                assert_same_bits(exact_sparse_game(game, s, t), ExactReference(game).plan(s, t))

    @pytest.mark.parametrize("name", GAMES)
    def test_full_table_matches_exact_reference(self, name):
        # gap_experiment reads its root errors from the table over every state
        game = self.GAMES[name]()
        ref = ExactReference(game)
        levels = backup_sweeps(game, 1.0, nash_select, _in_state_order)
        for t, (q1, q2, rows, cols, v1, v2) in zip(range(4), levels):
            for s in range(game.n_states):
                want = ref.plan(s, t)
                assert np.array_equal(q1[s], want.q_matrices[0])
                assert np.array_equal(q2[s], want.q_matrices[1])
                assert np.array_equal(rows[s], want.profile.row.probs)
                assert np.array_equal(cols[s], want.profile.col.probs)
                assert (v1[s], v2[s]) == want.q_hats

    def test_fixtures_cover_their_cases(self):
        assert (self.GAMES["sparse branching"]().transitions > 0).sum(axis=-1).max() < 7
        assert not self.GAMES["unreached state"]().transitions[..., 0].any()

    @pytest.mark.parametrize("name", GAMES)
    def test_gap_experiment_rows_match_reference(self, name):
        game = self.GAMES[name]()
        horizon, seeds, start = 3, [0, 5], game.start_state
        ref = ExactReference(game)
        profiles = {(s, t): ref.node(s, t)[0]
                    for s in range(game.n_states) for t in range(horizon)}
        exact = (TimeDependentPolicy(horizon, game.n_row_actions,
                                     {key: p.row.probs for key, p in profiles.items()}),
                 TimeDependentPolicy(horizon, game.n_col_actions,
                                     {key: p.col.probs for key, p in profiles.items()}))
        gaps = nash_certificate(game, *exact, horizon)
        want = [GapRow("exact", seed, *gaps, 0.0, 0.0, len(ref.memo)) for seed in seeds]
        root = ExactReference(game).plan(start, horizon - 1)
        for seed in seeds:
            pair = induced_policy(as_generative(game), 2, horizon, seed)
            pols = pair.materialize(range(game.n_states))
            q_hats = pair.plan(start, horizon - 1).q_hats
            want.append(GapRow(2, seed, *nash_certificate(game, *pols, horizon),
                               abs(q_hats[0] - root.q_hats[0]), abs(q_hats[1] - root.q_hats[1]),
                               pair.nodes_expanded))
        assert gap_experiment(game, horizon, ["exact", 2], seeds) == want

    def test_selection_failure_names_a_leaf(self, three_state_game):
        def refuse(game):
            raise DegenerateGame("boom")
        with pytest.raises(SelectionFailure, match=r"t=0: boom"):
            exact_sparse_game(three_state_game, 2, 2, selection=refuse)

    def test_selection_failure_at_unreached_state(self):
        # the oracle backs up every state, so the one no transition enters fails too
        game = unreached_state_game()

        def refuse_state_0(stage):
            if np.array_equal(stage.payoff1, game.payoffs1[0]):
                raise DegenerateGame("boom")
            return nash_select(stage)
        ExactReference(game, refuse_state_0).plan(1, 1)  # the recursion never meets state 0
        with pytest.raises(SelectionFailure, match=r"state=0, t=0: boom"):
            exact_sparse_game(game, 1, 1, selection=refuse_state_0)


class TestSampleSize:
    def test_frozen_example(self):
        # ceil((4^3/0.1^2) ln(40) + 4 ln(20)) + 1 = ceil(23620.81...) + 1
        assert sample_size(4, 0.1, 2, 1.0) == 23622

    def test_clamped_logs_edge(self):
        assert sample_size(1, 1.0, 1, 1.0) == 1

    def test_doubling_constant(self):
        base = sample_size(4, 0.1, 2, 1.0)
        assert sample_size(4, 0.1, 2, 2.0) >= 2 * base - 1

    def test_monotone_in_accuracy(self):
        assert sample_size(4, 0.05, 2) > sample_size(4, 0.1, 2)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            sample_size(4, 0.0, 2)
        with pytest.raises(ValueError):
            sample_size(4, -0.5, 2)


class TestInducedPolicy:
    def test_same_query_same_strategy(self, three_state_game):
        model = as_generative(three_state_game)
        pair = induced_policy(model, 4, 3, root_seed=11)
        a = pair.strategy(1, 2, 1)
        b = pair.strategy(1, 2, 1)
        assert np.array_equal(a.probs, b.probs)
        assert pair.plan(2, 1) is pair.plan(2, 1)

    def test_deterministic_game_recovers_finite_vi(self, repeated_pd):
        model = as_generative(repeated_pd)
        want = finite_vi(repeated_pd, 3)
        pair = induced_policy(model, 2, 3, root_seed=5)
        pol1, pol2 = pair.materialize(range(1))
        for t in range(3):
            np.testing.assert_allclose(pol1.probs(0, t), want.policy1.probs(0, t),
                                       atol=1e-9)
            np.testing.assert_allclose(pol2.probs(0, t), want.policy2.probs(0, t),
                                       atol=1e-9)

    def test_certificate_gap_shrinks_with_m(self, three_state_game):
        gaps = []
        for m in (1, 16, 128):
            pair = induced_policy(as_generative(three_state_game), m, 3, root_seed=3)
            pol1, pol2 = pair.materialize(range(3))
            g1, g2 = nash_certificate(three_state_game, pol1, pol2, 3)
            gaps.append(max(g1, g2))
        assert gaps[-1] <= gaps[0] + 1e-12
        assert gaps[-1] < 0.05


class TestGapExperiment:
    def test_deterministic_game_all_gaps_tiny(self, repeated_pd):
        rows = gap_experiment(repeated_pd, 3, [1, 2, 4], seeds=range(3))
        assert len(rows) == 9
        for row in rows:
            assert max(row.gap1, row.gap2) <= 1e-8
            assert row.qerr1 <= 1e-10 and row.qerr2 <= 1e-10

    def test_exact_mode_reproduces_finite_vi_gaps(self, three_state_game):
        result = finite_vi(three_state_game, 3)
        want = nash_certificate(three_state_game, result.policy1, result.policy2, 3)
        rows = gap_experiment(three_state_game, 3, ["exact"], seeds=[0])
        assert rows[0].m == "exact"
        assert rows[0].gap1 == pytest.approx(want[0], abs=1e-9)
        assert rows[0].gap2 == pytest.approx(want[1], abs=1e-9)
        assert rows[0].qerr1 == 0.0

    def test_exact_row_computed_once_per_call(self, three_state_game):
        select, calls = counting(nash_select)
        once = gap_experiment(three_state_game, 3, ["exact"], seeds=[0], selection=select)
        one_seed = len(calls)
        calls.clear()
        rows = gap_experiment(three_state_game, 3, ["exact"], seeds=range(3), selection=select)
        assert len(calls) == one_seed
        assert [r.seed for r in rows] == [0, 1, 2]
        assert all(dataclasses.replace(r, seed=0) == once[0] for r in rows)

    def test_horizon_zero_rejected(self, three_state_game):
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            gap_experiment(three_state_game, 0, ["exact", 2], seeds=[0])

    def test_rows_are_per_m_per_seed(self, three_state_game):
        rows = gap_experiment(three_state_game, 2, [1, 2], seeds=[5, 6, 7])
        assert [(r.m, r.seed) for r in rows] == [(1, 5), (1, 6), (1, 7),
                                                 (2, 5), (2, 6), (2, 7)]

    def test_root_error_rate_tracks_inverse_sqrt_m(self, three_state_game):
        # medians across seeds should shrink roughly 2x per 4x samples
        rows = gap_experiment(three_state_game, 3, [1, 4, 16], seeds=range(60))
        medians = []
        for m in (1, 4, 16):
            sub = [r.qerr1 for r in rows if r.m == m]
            medians.append(float(np.median(sub)))
        for small, large in zip(medians[1:], medians):
            ratio = large / small
            assert 2 / 3 <= ratio <= 6, medians

    def test_independent_seed_mode_runs(self, three_state_game):
        shared = gap_experiment(three_state_game, 2, [2], seeds=[1])
        indep = gap_experiment(three_state_game, 2, [2], seeds=[1],
                               independent_seeds=True)
        assert indep[0].nodes == 2 * shared[0].nodes
        for row in indep:
            assert np.isfinite(row.gap1) and np.isfinite(row.gap2)
