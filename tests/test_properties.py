"""Property-based tests for the bimatrix layer."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sgplan import (DegenerateGame, MatrixGame, MixedStrategy, StrategyProfile,
                    best_response, enumerate_nash, epsilon_nash_gap,
                    expected_payoff, nash_select, security_level, solve_zero_sum)
from sgplan.matrix_games import ENUMERATION_CAP, _equilibria, _nash_stack, _scale, _walk

import oracles


def _matrix(draw, n1, n2):
    entries = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=64)
    rows = draw(st.lists(st.lists(entries, min_size=n2, max_size=n2),
                         min_size=n1, max_size=n1))
    return np.array(rows)


@st.composite
def payoff_matrix(draw, max_n=4):
    n1 = draw(st.integers(1, max_n))
    n2 = draw(st.integers(1, max_n))
    return _matrix(draw, n1, n2)


@st.composite
def bimatrix_game(draw, max_n=4):
    n1 = draw(st.integers(1, max_n))
    n2 = draw(st.integers(1, max_n))
    return MatrixGame(_matrix(draw, n1, n2), _matrix(draw, n1, n2))


@st.composite
def integer_game(draw, max_n=4, zero_sum=False):
    n1 = draw(st.integers(1, max_n))
    n2 = draw(st.integers(1, max_n))
    entries = st.integers(-5, 5)
    m1 = np.array(draw(st.lists(st.lists(entries, min_size=n2, max_size=n2),
                                min_size=n1, max_size=n1)), dtype=float)
    if zero_sum:
        return MatrixGame.zero_sum(m1)
    m2 = np.array(draw(st.lists(st.lists(entries, min_size=n2, max_size=n2),
                                min_size=n1, max_size=n1)), dtype=float)
    return MatrixGame(m1, m2)


def try_enumerate(game):
    try:
        return enumerate_nash(game)
    except DegenerateGame:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(bimatrix_game())
def test_best_response_beats_every_mixture(game):
    col = MixedStrategy.uniform(game.cols)
    idx, value = best_response(game, 1, col)
    for i in range(game.rows):
        row = MixedStrategy.pure(game.rows, i)
        assert expected_payoff(game, 1, row, col) <= value + 1e-9


@settings(max_examples=100, deadline=None)
@given(bimatrix_game())
def test_gap_nonnegative_for_arbitrary_profiles(game):
    profile = StrategyProfile(MixedStrategy.uniform(game.rows),
                              MixedStrategy.uniform(game.cols), 0.0, 0.0)
    g1, g2 = epsilon_nash_gap(game, profile)
    assert g1 >= -1e-12
    assert g2 >= -1e-12


@settings(max_examples=80, deadline=None)
@given(payoff_matrix(max_n=6))
def test_security_strategy_guarantees_level(matrix):
    game = MatrixGame(matrix, np.zeros_like(matrix))
    strat, level = security_level(game, 1)
    payoffs = strat.probs @ matrix
    assert payoffs.min() >= level - 1e-9


@settings(max_examples=80, deadline=None)
@given(payoff_matrix(max_n=5))
@example(np.array([[3.0, 1e-8, 0.0]]))
@example(np.array([[0.0], [1.34095896e-09], [-2.0]]))
@example(np.array([[1.0, 0.0], [-3.0, 1e-8], [0.0, 0.0]]))
@example(np.array([[0.0, 1e-8, 0.0], [2.0, -1e-10, 5.0], [2.0, 0.0, 0.0]]))
@example(np.array([[0.0, -7.0, 0.0, 0.0], [1.0, 3.0, 1e-9, 0.0]]))
@example(np.array([[0.0, 0.0], [0.0, 1.11253693e-308]]))
def test_zero_sum_value_equals_security_level(matrix):
    # two routes to the value: support enumeration vs the maximin LP
    game = MatrixGame.zero_sum(matrix)
    _, s1 = security_level(game, 1)
    _, s2 = security_level(game, 2)
    assert s2 == pytest.approx(-s1, abs=1e-9)
    profiles = try_enumerate(game)
    assert profiles[0].value1 == pytest.approx(s1, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(integer_game(max_n=3, zero_sum=True))
def test_zero_sum_interchangeability(game):
    profiles = try_enumerate(game)
    for a in profiles:
        for b in profiles:
            crossed = StrategyProfile(a.row, b.col, 0.0, 0.0)
            g1, g2 = epsilon_nash_gap(game, crossed)
            assert max(g1, g2) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(integer_game(max_n=3), st.floats(-5, 5, allow_nan=False))
def test_constant_shift_invariance(game, shift):
    shifted = MatrixGame(game.payoff1 + shift, game.payoff2)
    base = try_enumerate(game)
    moved = try_enumerate(shifted)
    base_supports = sorted((p.row.support(), p.col.support()) for p in base)
    moved_supports = sorted((p.row.support(), p.col.support()) for p in moved)
    assert base_supports == moved_supports
    # pair in canonical order: a degenerate game can have several extreme
    # equilibria on one support pair, so supports alone do not match them up
    for p, q in zip(base, moved):
        assert (q.row.support(), q.col.support()) == (p.row.support(), p.col.support())
        assert q.value1 == pytest.approx(p.value1 + shift, abs=1e-8)
        assert q.value2 == pytest.approx(p.value2, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(bimatrix_game(max_n=3), st.floats(0.001, 0.1), st.integers(0, 2 ** 31))
def test_perturbed_equilibrium_is_near_equilibrium(game, delta, seed):
    rng = np.random.default_rng(seed)
    hat = MatrixGame(game.payoff1 + rng.uniform(-delta, delta, game.payoff1.shape),
                     game.payoff2 + rng.uniform(-delta, delta, game.payoff2.shape))
    try:
        profile = nash_select(hat)
    except DegenerateGame:
        assume(False)
    g1, g2 = epsilon_nash_gap(game, profile)
    assert max(g1, g2) <= 2 * delta + 1e-9


@settings(max_examples=50, deadline=None)
@given(payoff_matrix(max_n=4))
@example(np.array([[0.0, -10.0], [1e-8, 0.0]]))
@example(np.array([[1.0, 0.0, 0.0, -1.0], [-6.0, 5.96046448e-08, 0.0, 0.0]]))
def test_solve_zero_sum_returns_equilibrium(matrix):
    prof = solve_zero_sum(matrix)
    game = MatrixGame.zero_sum(matrix)
    g1, g2 = epsilon_nash_gap(game, prof)
    assert max(g1, g2) <= 1e-9
    assert prof.value2 == -prof.value1


@settings(max_examples=50, deadline=None)
@given(integer_game(max_n=4))
def test_every_game_yields_at_least_one_equilibrium(game):
    profiles = enumerate_nash(game)
    assert profiles
    for p in profiles:
        g1, g2 = epsilon_nash_gap(game, p)
        assert max(g1, g2) <= 1e-8 * max(1.0, np.abs(game.payoff1).max(),
                                         np.abs(game.payoff2).max())


@st.composite
def game_stack(draw, max_n=4, max_games=6):
    """(m1, m2) stacks of up to max_games games of one shape, integer-valued
    (often degenerate) or not."""
    n1 = draw(st.integers(1, max_n))
    n2 = draw(st.integers(1, max_n))
    games = draw(st.integers(1, max_games))
    entries = draw(st.sampled_from([st.integers(-3, 3).map(float),
                                    st.floats(-10, 10, allow_nan=False, width=64)]))
    flat = draw(st.lists(entries, min_size=2 * games * n1 * n2, max_size=2 * games * n1 * n2))
    m1, m2 = np.array(flat).reshape(2, games, n1, n2)
    return m1, m2


@settings(max_examples=150, deadline=None)
@given(game_stack())
def test_batched_kernel_selects_what_enumeration_yields_first(stack):
    m1, m2 = stack
    k, n1, n2 = m1.shape
    out = np.empty((k, n1)), np.empty((k, n2)), np.empty(k), np.empty(k)
    left = _nash_stack(m1, m2, *out).tolist()
    for g in range(k):
        try:
            want = next(_equilibria(m1[g], m2[g], ENUMERATION_CAP))
        except DegenerateGame:
            assert g in left
            continue
        if g in left:  # no support pair accepts it: the first one is a vertex pair
            assert not list(_walk(m1[g:g + 1], m2[g:g + 1],
                                  np.array([_scale(m1[g], m2[g])]), first=False))
            continue
        got = out[0][g], out[1][g], out[2][g], out[3][g]
        assert [np.asarray(x, float).tobytes() for x in got] == \
            [np.asarray(x, float).tobytes() for x in want]


@st.composite
def reference_stack(draw):
    """(m1, m2) stacks of 0 to 40 games of one shape from 1x1 to 5x5:
    integer-valued (often degenerate, with exactly singular indifference
    systems) or uniform, general-sum or zero-sum, scaled by 2**-30, 1 or
    2**30."""
    n1, n2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    games = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m1, m2 = rng.integers(-2, 3, (2, games, n1, n2)).astype(float)
    else:
        m1, m2 = rng.uniform(-1, 1, (2, games, n1, n2))
    if draw(st.booleans()):
        m2 = -m1
    scale = 2.0 ** draw(st.sampled_from([-30, 0, 30]))
    return m1 * scale, m2 * scale


def _reference_example(n1, n2, games, seed):
    m1, m2 = np.random.default_rng(seed).integers(-2, 3, (2, games, n1, n2)).astype(float)
    return m1, m2


@settings(max_examples=60, deadline=None)
@given(reference_stack())
@example(_reference_example(1, 5, 40, 0))
@example(_reference_example(5, 1, 40, 1))
@example(_reference_example(3, 3, 0, 2))
@example(_reference_example(5, 5, 40, 3))
def test_walk_by_size_matches_pairwise_walk(stack):
    """`_nash_stack` and `enumerate_nash` give, bit for bit, what the walk one
    support pair at a time in `oracles` gives, and leave the same games."""
    m1, m2 = stack
    k, n1, n2 = m1.shape
    got, want = ([np.full((k, n1), np.nan), np.full((k, n2), np.nan), np.full(k, np.nan),
                  np.full(k, np.nan)] for _ in range(2))
    assert _nash_stack(m1, m2, *got).tolist() == oracles.pairwise_nash_stack(m1, m2, *want).tolist()
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def sequence(equilibria, a, b):
        try:
            return [[np.asarray(x, float).tobytes() for x in eq] for eq in equilibria(a, b)]
        except DegenerateGame:
            return "degenerate"

    for g in range(min(k, 3)):
        # a transposed view, as the maximin re-solve passes payoff2.T, keeps its strides
        for a, b in ((m1[g].T, m2[g].T), (m1[g], m2[g])):
            want = sequence(oracles.pairwise_equilibria, a, b)
            assert sequence(lambda a, b: _equilibria(a, b, ENUMERATION_CAP), a, b) == want
        if want != "degenerate":
            profiles = enumerate_nash(MatrixGame(m1[g], m2[g]))
            assert [[p.row.probs.tobytes(), p.col.probs.tobytes(), np.float64(p.value1).tobytes(),
                     np.float64(p.value2).tobytes()] for p in profiles] == want
