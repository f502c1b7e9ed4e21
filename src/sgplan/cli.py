"""Command-line interface.

Subcommands: generate, solve-finite, certify, sparse-plan, gap-experiment,
solve-discounted, probe-nash-mode, sample-size, run-suite.  Exit codes:
0 success, 1 input/validation error, 2 non-convergence (solve-discounted
only).  Every command is deterministic given identical flags and seeds.
"""

from __future__ import annotations

import argparse
import sys

from .discounted_planner import infinite_vi, nash_mode_probe
from .errors import GameFileError, SgError
from .finite_planner import finite_vi, nash_certificate
from .game_model import as_generative, random_game
from .io import (DISCOUNTED_TRACE_HEADER, FINITE_TRACE_HEADER, GAP_TRACE_HEADER, load_game,
                 load_policy_pair, read_json_object, save_game, save_policy_pair, write_trace)
from .matrix_games import _check_index
from .sparse_planner import gap_experiment, sample_size, sparse_game


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt_probs(probs) -> str:
    return "[" + ", ".join(repr(float(p)) for p in probs) + "]"


def _parse_m_list(text: str):
    """Sample counts, or the word "exact", separated by commas."""
    tokens = [tok.strip() for tok in text.split(",")]
    return [tok if tok == "exact" else int(tok) for tok in tokens]


def _parse_seeds(text: str):
    if "," in text:
        return [int(tok) for tok in text.split(",")]
    return list(range(_check_index("seed count", int(text), low=1)))


def _cmd_generate(args) -> int:
    game = random_game(args.states, args.rows, args.cols, args.branching,
                       args.scale, args.seed, zero_sum=args.zero_sum)
    save_game(game, args.out)
    print(f"wrote {args.states}-state game to {args.out}")
    return 0


def _cmd_solve_finite(args) -> int:
    game = load_game(args.game)
    result = finite_vi(game, args.horizon)
    if args.out_policy:
        save_policy_pair(result.policy1, result.policy2, args.out_policy)
    if args.trace:
        rows = [(t, s, result.table.value(1, s, t), result.table.value(2, s, t))
                for t in range(args.horizon) for s in range(game.n_states)]
        write_trace(args.trace, FINITE_TRACE_HEADER, rows)
    s0 = game.start_state
    v1 = result.table.value(1, s0, args.horizon - 1) / args.horizon
    v2 = result.table.value(2, s0, args.horizon - 1) / args.horizon
    print(f"solved horizon={args.horizon}; per-stage values at start state: "
          f"v1={v1!r} v2={v2!r}")
    return 0


def _cmd_certify(args) -> int:
    game = load_game(args.game)
    policy1, policy2 = load_policy_pair(args.policy)
    start = game.state(args.start)
    g1, g2 = nash_certificate(game, policy1, policy2, args.horizon, start)
    print(f"gap1={g1!r} gap2={g2!r} (per-stage average units, start state {start})")
    return 0


def _cmd_sparse_plan(args) -> int:
    game = load_game(args.model if args.model else args.game)
    model = as_generative(game)
    state = game.state(args.state)
    result = sparse_game(model, state, args.t, args.m, args.seed,
                         node_budget=args.budget)
    print(f"state={state} t={args.t} m={args.m} seed={args.seed}")
    print(f"alpha={_fmt_probs(result.profile.row.probs)}")
    print(f"beta={_fmt_probs(result.profile.col.probs)}")
    print(f"qhat1={result.q_hats[0]!r} qhat2={result.q_hats[1]!r}")
    print(f"nodes={result.nodes_expanded}")
    return 0


def _cmd_gap_experiment(args) -> int:
    game = load_game(args.game)
    m_list = _parse_m_list(args.m_list)
    seeds = _parse_seeds(args.seeds)
    rows = gap_experiment(game, args.horizon, m_list, seeds,
                          start=args.start, independent_seeds=args.independent_seeds,
                          node_budget=args.budget)
    write_trace(args.out, GAP_TRACE_HEADER,
                [(r.m, r.seed, r.gap1, r.gap2, r.qerr1, r.qerr2, r.nodes) for r in rows])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_solve_discounted(args) -> int:
    game = load_game(args.game)
    result = infinite_vi(game, args.gamma, tol=args.tol, max_iter=args.max_iter)
    if args.trace:
        rows = [(t + 1, delta, v1, v2)
                for t, (delta, (v1, v2)) in enumerate(zip(result.deltas,
                                                          result.value_trace))]
        write_trace(args.trace, DISCOUNTED_TRACE_HEADER, rows)
    s0 = game.start_state
    status = "converged" if result.converged else "NOT converged"
    print(f"{status} after {result.iterations} sweeps; values at start state: "
          f"v1={float(result.values1[s0])!r} v2={float(result.values2[s0])!r}")
    return 0 if result.converged else 2


def _cmd_probe_nash_mode(args) -> int:
    game = load_game(args.game)
    report = nash_mode_probe(game, args.gamma, max_iter=args.max_iter, tol=args.tol)
    print(f"classification={report.classification} iterations={report.iterations}")
    if report.classification == "cyclic":
        print(f"cycle_start={report.cycle_start} cycle_length={report.cycle_length}")
    if report.deltas:
        print(f"last_delta={report.deltas[-1]!r}")
    return 0


def _cmd_sample_size(args) -> int:
    print(sample_size(args.t, args.epsilon, args.n, args.c))
    return 0


def _cmd_run_suite(args) -> int:
    doc = read_json_object(args.config)
    experiments = doc.get("experiments", [])
    if not isinstance(experiments, list) or not all(isinstance(e, dict) for e in experiments):
        raise GameFileError(f"{args.config}: 'experiments' must be a list of JSON objects")
    for idx, exp in enumerate(experiments):
        name = exp.get("name", f"experiment-{idx}")
        argv = exp.get("argv")
        if not isinstance(argv, list) or not argv:
            raise GameFileError(f"{args.config}: experiment '{name}' has no argv list")
        if str(argv[0]) == "run-suite":
            raise GameFileError(f"{args.config}: experiment '{name}' runs run-suite; "
                                "suites do not nest")
        code = main([str(a) for a in argv])
        if code != 0:
            print(f"experiment '{name}' failed with exit code {code}", file=sys.stderr)
            return code
    print(f"ran {len(experiments)} experiments")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sgplan",
                     description="Two-player stochastic game planning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random game file")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--branching", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--zero-sum", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve-finite", help="finite-horizon Nash value iteration")
    p.add_argument("--game", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--out-policy")
    p.add_argument("--trace")
    p.set_defaults(func=_cmd_solve_finite)

    p = sub.add_parser("certify", help="exploitability gaps of a policy pair")
    p.add_argument("--game", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--start", type=int)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sparse-plan", help="one sparse-sampling planning call")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--game")
    group.add_argument("--model", help="game file to use through the generative interface")
    p.add_argument("--state", type=int)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_sparse_plan)

    p = sub.add_parser("gap-experiment", help="gap/qerr trace across sample sizes")
    p.add_argument("--game", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--m-list", required=True,
                   help="comma list of sample sizes; the token 'exact' runs the oracle")
    p.add_argument("--seeds", required=True,
                   help="seed count N (seeds 0..N-1) or comma list of seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--start", type=int)
    p.add_argument("--independent-seeds", action="store_true",
                   help="give each player an unrelated planning seed (probe mode)")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_gap_experiment)

    p = sub.add_parser("solve-discounted", help="discounted security value iteration")
    p.add_argument("--game", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--trace")
    p.set_defaults(func=_cmd_solve_discounted)

    p = sub.add_parser("probe-nash-mode", help="discounted sweep with Nash selection")
    p.add_argument("--game", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_probe_nash_mode)

    p = sub.add_parser("sample-size", help="samples per action pair for a target accuracy")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.set_defaults(func=_cmd_sample_size)

    p = sub.add_parser("run-suite", help="run experiments listed in a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
