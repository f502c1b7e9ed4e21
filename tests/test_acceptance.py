"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sgplan import (MatrixGame, StrategyProfile, as_generative,
                    contraction_check, enumerate_nash, epsilon_nash_gap,
                    exact_sparse_game, finite_vi, gap_experiment, infinite_vi,
                    nash_certificate, nash_select, random_game,
                    security_certificate, security_level, single_state_game,
                    solve_zero_sum, sparse_game)
from sgplan.io import save_game

from conftest import STANDARD_FIXTURE_SEED, run_cli
from oracles import enumerate_nash_exact


@contextmanager
def criterion(name, budget_seconds):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
    assert elapsed <= budget_seconds, f"{name} exceeded {budget_seconds}s budget"


def test_criterion_1_theorem_1_certificate():
    # 50 seed-fixed random games, |S| <= 8, n <= 4, H <= 8: the value
    # iteration output is Nash to 1e-8 from every start state
    with criterion("1 theorem-1-certificate", 120):
        rng = np.random.default_rng(1)
        for k in range(50):
            n_states = int(rng.integers(2, 9))
            n = int(rng.integers(2, 5))
            horizon = int(rng.integers(2, 9))
            branching = int(rng.integers(1, min(4, n_states) + 1))
            seed = int(rng.integers(0, 2 ** 31))
            game = random_game(n_states, n, n, branching, 1.0, seed=seed,
                               zero_sum=(k % 5 == 4))
            result = finite_vi(game, horizon)
            for start in range(n_states):
                g1, g2 = nash_certificate(game, result.policy1, result.policy2,
                                          horizon, start)
                assert max(g1, g2) <= 1e-8, (k, start, g1, g2)


def test_criterion_2_bimatrix_solver_correctness():
    # battle of sexes and prisoner's dilemma against the exact-rational
    # support-pair oracle written before the main build
    with criterion("2 bimatrix-solver", 30):
        bos1 = [[2, 0], [0, 1]]
        bos2 = [[1, 0], [0, 2]]
        profiles = enumerate_nash(MatrixGame(bos1, bos2))
        oracle = enumerate_nash_exact(bos1, bos2)
        assert len(profiles) == len(oracle) == 3
        for prof, (alpha, beta, v1, v2) in zip(profiles, oracle):
            np.testing.assert_allclose(prof.row.probs, [float(x) for x in alpha],
                                       atol=1e-9)
            np.testing.assert_allclose(prof.col.probs, [float(x) for x in beta],
                                       atol=1e-9)
            assert prof.value1 == pytest.approx(float(v1), abs=1e-9)
            assert prof.value2 == pytest.approx(float(v2), abs=1e-9)
        np.testing.assert_allclose(profiles[2].row.probs, [2 / 3, 1 / 3], atol=1e-9)
        np.testing.assert_allclose(profiles[2].col.probs, [1 / 3, 2 / 3], atol=1e-9)

        pd1 = [[3, 0], [5, 1]]
        pd2 = [[3, 5], [0, 1]]
        profiles = enumerate_nash(MatrixGame(pd1, pd2))
        oracle = enumerate_nash_exact(pd1, pd2)
        assert len(profiles) == len(oracle) == 1
        np.testing.assert_allclose(profiles[0].row.probs, [0, 1])
        np.testing.assert_allclose(profiles[0].col.probs, [0, 1])


def test_criterion_3_zero_sum_consistency():
    # 100 random zero-sum matrices, n <= 6: enumeration value vs maximin
    # level, plus interchangeability of crossed Nash pairs
    with criterion("3 zero-sum-consistency", 60):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            game = MatrixGame.zero_sum(rng.uniform(-1, 1, (n, n)))
            profiles = enumerate_nash(game)
            _, s1 = security_level(game, 1)
            _, s2 = security_level(game, 2)
            assert abs(profiles[0].value1 - s1) <= 1e-9
            assert abs(s2 + s1) <= 1e-9
            for a in profiles:
                for b in profiles:
                    crossed = StrategyProfile(a.row, b.col, 0.0, 0.0)
                    g1, g2 = epsilon_nash_gap(game, crossed)
                    assert max(g1, g2) <= 1e-8


def test_criterion_4_perturbation_regret():
    # equilibria of entrywise-perturbed games are 2*delta-Nash in the truth
    with criterion("4 perturbation-regret", 60):
        rng = np.random.default_rng(4)
        violations = 0
        for _ in range(100):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            m1 = rng.uniform(-1, 1, (n1, n2))
            m2 = rng.uniform(-1, 1, (n1, n2))
            game = MatrixGame(m1, m2)
            for delta in (0.01, 0.05, 0.1):
                hat = MatrixGame(m1 + rng.uniform(-delta, delta, (n1, n2)),
                                 m2 + rng.uniform(-delta, delta, (n1, n2)))
                prof = nash_select(hat)
                g1, g2 = epsilon_nash_gap(game, prof)
                if max(g1, g2) > 2 * delta + 1e-9:
                    violations += 1
        assert violations == 0


def _oracle_fixture_battery():
    fixtures = [
        single_state_game(MatrixGame([[3, 0], [5, 1]], [[3, 5], [0, 1]])),
        single_state_game(MatrixGame.zero_sum([[1, -1], [-1, 1]])),
        single_state_game(MatrixGame([[2, 0], [0, 1]], [[1, 0], [0, 2]])),
        random_game(3, 2, 2, 2, 1.0, seed=51),
        random_game(4, 2, 3, 3, 1.0, seed=52),
        random_game(5, 2, 2, 4, 1.0, seed=53, zero_sum=True),
        random_game(5, 3, 2, 1, 1.0, seed=54),  # deterministic transitions
        random_game(2, 2, 2, 1, 1.0, seed=55),  # deterministic transitions
    ]
    return fixtures


# the point-mass fixtures with payoffs above 1 plan with the payoff-bound warning
@pytest.mark.filterwarnings("ignore:payoff bound [0-9]+ exceeds 1; accuracy guarantees:UserWarning")
def test_criterion_5_sparse_oracle_equivalence():
    # exact-expectation recursion == value-iteration backups entrywise;
    # sampling a point mass == the exact oracle for every m
    with criterion("5 sparse-oracle-equivalence", 60):
        horizon = 4
        for game in _oracle_fixture_battery():
            result = finite_vi(game, horizon)
            for s in range(game.n_states):
                for t in range(horizon):
                    exact = exact_sparse_game(game, s, t)
                    for player in (1, 2):
                        diff = np.abs(exact.q_matrices[player - 1]
                                      - result.table.q(player, s, t)).max()
                        assert diff <= 1e-10, (s, t, player, diff)
        for game in _oracle_fixture_battery():
            deterministic = np.all(np.isin(game.transitions, (0.0, 1.0)))
            if not deterministic:
                continue
            model = as_generative(game)
            for t in (1, 2, 3):
                exact = exact_sparse_game(game, game.start_state, t)
                for m in (1, 2, 3, 5, 8):
                    got = sparse_game(model, game.start_state, t, m, seed=1000 + m)
                    for player in (0, 1):
                        assert abs(got.q_hats[player] - exact.q_hats[player]) <= 1e-10
                        diff = np.abs(got.q_matrices[player]
                                      - exact.q_matrices[player]).max()
                        assert diff <= 1e-10


def test_criterion_6_theorem_2_trend():
    # desk-scale stand-in for the sample-size theorem: on the standard
    # 3-state fixture, medians over 200 seeds of the root backup error and
    # of the induced-policy certificate gap are nonincreasing in m, and at
    # m=256 the median gap is within 0.05 * r_max * H (payoff-sum units).
    # The theorem's own m (~2e4 at depth 3, ~1e13 nodes) is explicitly not
    # reproducible; this trend property substitutes.
    with criterion("6 theorem-2-trend", 600):
        game = random_game(3, 2, 2, 2, 1.0, seed=STANDARD_FIXTURE_SEED)
        horizon = 3
        m_values = [1, 4, 16, 64, 256]
        rows = gap_experiment(game, horizon, m_values, seeds=range(200))
        med_gap = {}
        med_qerr = {}
        for m in m_values:
            sub = [r for r in rows if r.m == m]
            assert len(sub) == 200
            med_gap[m] = float(np.median([max(r.gap1, r.gap2) for r in sub]))
            med_qerr[m] = float(np.median([max(r.qerr1, r.qerr2) for r in sub]))
        for a, b in zip(m_values, m_values[1:]):
            assert med_qerr[b] <= med_qerr[a], (med_qerr, a, b)
            assert med_gap[b] <= med_gap[a], (med_gap, a, b)
        # certificate gaps are per-stage averages; the bound is on sums
        assert med_gap[256] * horizon <= 0.05 * game.r_max * horizon


def test_criterion_7_shapley_contraction():
    # 20 random zero-sum games at gamma in {0.5, 0.9}: geometric
    # contraction of the sweep, a sound worst-case certificate, and the
    # single-state geometric-series closed form
    with criterion("7 shapley-contraction", 120):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_states = int(rng.integers(2, 7))
            seed = int(rng.integers(0, 2 ** 31))
            game = random_game(n_states, 2, 2, 2, 1.0, seed=seed, zero_sum=True)
            for gamma in (0.5, 0.9):
                result = infinite_vi(game, gamma)
                assert result.converged
                report = contraction_check(result.deltas, gamma)
                assert report.ok, report.violations
                s1, s2 = security_certificate(game, result.policy1, result.policy2,
                                              gamma, result.values1, result.values2)
                assert s1 <= 1e-6 and s2 <= 1e-6
        stage = solve_zero_sum([[2, -1], [-1, 1]]).value1
        single = single_state_game(MatrixGame.zero_sum([[2, -1], [-1, 1]]))
        for gamma in (0.5, 0.9):
            result = infinite_vi(single, gamma)
            assert result.values1[0] == pytest.approx(stage / (1 - gamma), abs=1e-8)


def test_criterion_8_cli_determinism(tmp_path):
    # identical flags and seeds give byte-identical files and stdout, with
    # SG_THREADS varied across reruns; each rerun executes in a fresh
    # directory so the command lines are literally identical
    with criterion("8 cli-determinism", 120):
        base_game = random_game(4, 2, 2, 2, 1.0, seed=19)
        plans = [
            (["generate", "--states", "3", "--rows", "2", "--cols", "2",
              "--branching", "2", "--seed", "11", "--out", "gen.json"],
             ["gen.json"]),
            (["solve-finite", "--game", "g.json", "--horizon", "4",
              "--out-policy", "out.pol", "--trace", "fin.csv"],
             ["out.pol", "fin.csv"]),
            (["solve-discounted", "--game", "g.json", "--gamma", "0.9",
              "--trace", "disc.csv"], ["disc.csv"]),
            (["gap-experiment", "--game", "g.json", "--horizon", "3",
              "--m-list", "1,4,exact", "--seeds", "5", "--out", "gap.csv"],
             ["gap.csv"]),
            (["sample-size", "--t", "4", "--epsilon", "0.1", "--n", "2"], []),
        ]
        for idx, (argv, outputs) in enumerate(plans):
            captures = []
            for run, threads in ((0, None), (1, 1), (2, 4)):
                workdir = tmp_path / f"c{idx}r{run}"
                workdir.mkdir()
                save_game(base_game, workdir / "g.json")
                proc = run_cli(argv, workdir, threads=threads)
                assert proc.returncode == 0, proc.stderr
                files = tuple((workdir / name).read_bytes() for name in outputs)
                captures.append((proc.stdout, files))
            assert captures[0] == captures[1] == captures[2], argv[0]
