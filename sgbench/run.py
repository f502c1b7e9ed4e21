"""sgplan benchmark: one workload per process, BLAS pinned to one thread.

    python3 sgbench/run.py --workload finite-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; sgplan is imported from its `src/`.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones, measured with nothing wrapped; with --trace 1 they
are the per-layer ones from a traced run.  The result, and a traced
run's spans, are also written under sgbench/out/.

    python3 sgbench/run.py --write-digests

regenerates sgbench/digests.json, the reference output digests at fixed
seeds.
"""

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"
DIGEST_SEEDS = range(5)
#: set-up is timed in blocks of back-to-back set-ups lasting about
#: SETUP_BLOCK_S, at least SETUP_REPEATS blocks and for at least
#: SETUP_SECONDS, and the median reported, so that set-up time is steady
SETUP_BLOCK_S = 0.05
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def layer_unit(name):
    if name == "io.bytes":
        return "B"
    if name.endswith(("us_per_call", "us_per_node")):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def repeated_setup(workload, seed):
    """Inputs, and the calibrated and the wall seconds of one set-up, from
    blocks of back-to-back set-ups each bracketed by calibration samples."""
    from workloads import CAL_REF_S, Untimed, calibration_sample

    env = Untimed()
    inputs = workload.setup(env, seed)
    t0 = perf_counter()
    workload.setup(env, seed)
    block = max(1, math.ceil(SETUP_BLOCK_S / (perf_counter() - t0)))
    scaled, raw = [], []
    start = perf_counter()
    while len(raw) < SETUP_REPEATS or perf_counter() - start < SETUP_SECONDS:
        before = calibration_sample()
        t0 = perf_counter()
        for _ in range(block):
            workload.setup(env, seed)
        dt = (perf_counter() - t0) / block
        raw.append(dt)
        scaled.append(dt * 2.0 * CAL_REF_S / (before + calibration_sample()))
    return inputs, scaled, raw


def traced_setup(workload, env, seed):
    """Inputs, and the per-layer set-up metrics of SETUP_REPEATS set-ups."""
    from tracing import setup_metrics

    env.reset()
    for _ in range(SETUP_REPEATS):
        inputs = workload.setup(env, seed)
    speed = env.phases["setup"] / env.raw["setup"]
    return inputs, setup_metrics(env.tracer.take()[0], SETUP_REPEATS, speed)


def run_round(workload, env, inputs, tmp):
    """One round, writing its files into a new directory.  Rewriting an
    existing file in place lets ext4 start writeback when the file is
    closed, which made small-file io slower and far noisier; new files keep
    io_s to encoding, parsing and the page cache."""
    where = tempfile.mkdtemp(dir=tmp)
    try:
        return workload.run_round(env, inputs, where)
    finally:
        shutil.rmtree(where)


@dataclass
class Round:
    traced: bool
    wall: float  # seconds, whole round
    phases: dict  # calibrated seconds per phase
    raw: dict  # wall seconds per phase
    plan_s: list  # calibrated seconds of each planning call
    plan_raw: list  # wall seconds of each planning call
    layers: dict | None = None  # per-layer metrics of a traced round

    @property
    def speed(self):
        """Calibrated over wall seconds for the calls of this round."""
        return sum(self.phases.values()) / sum(self.raw.values())


def end_to_end(setup, rounds, rss, raw=False):
    """End-to-end metrics, each a median over rounds; plan_ms is the
    median of each round's mean planning latency."""
    def phase(name):
        return median([(r.raw if raw else r.phases).get(name, 0.0) for r in rounds])
    plans = [fmean(r.plan_raw if raw else r.plan_s) for r in rounds]
    return {
        "setup_s": (median(setup), "s"),
        "solve_s": (phase("solve"), "s"),
        "certify_s": (phase("certify"), "s"),
        "io_s": (phase("io"), "s"),
        "plan_ms": (1e3 * median(plans), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(rounds, setup_layers):
    """Per-layer metrics, each a median over the traced rounds; times are
    calibrated by their round's speed, like the end-to-end ones."""
    def calibrated(name, value, speed):
        return value * speed if layer_unit(name) in ("s", "us") else value
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    out = {name: median([calibrated(name, r.layers[name], r.speed) for r in traced])
           for name in traced[0].layers}
    out.update(setup_layers)
    out["trace.overhead_s"] = (median([r.wall * r.speed for r in traced])
                               - median([r.wall * r.speed for r in plain]))
    return {name: (value, layer_unit(name)) for name, value in out.items()}


def measure(workload, seed, seconds, trace):
    """One run: set-up, a checked warm-up round, then measured rounds for
    `seconds`; a traced run alternates untraced and traced rounds."""
    from workloads import Env, digest

    plain = Env()
    if trace:
        from tracing import TracedEnv, round_metrics
        traced = TracedEnv()
        inputs, setup_layers = traced_setup(workload, traced, seed)
    else:
        inputs, setup_scaled, setup_raw = repeated_setup(workload, seed)

    rounds = []
    first_spans = None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        checked = run_round(workload, plain, inputs, tmp)  # warm-up, checked below
        reference = digest(checked)
        failed = sum(out is None for out in checked)
        repeats = True
        start = perf_counter()
        while perf_counter() - start < seconds or len(rounds) < 2:
            env = traced if trace and len(rounds) % 2 == 1 else plain
            env.reset()
            t0 = perf_counter()
            if env is plain:
                outputs = run_round(workload, env, inputs, tmp)
            else:
                with traced.patched():
                    outputs = run_round(workload, env, inputs, tmp)
            rnd = Round(env is not plain, perf_counter() - t0, dict(env.phases),
                        dict(env.raw), list(env.plan_s), list(env.plan_raw))
            if rnd.traced:
                spans, counts = traced.tracer.take()
                rnd.layers = round_metrics(spans, counts) | traced.replay()
                first_spans = first_spans or spans
            repeats &= digest(outputs) == reference
            failed += sum(out is None for out in outputs)
            rounds.append(rnd)
    rss = peak_rss_mb()

    failures = workload.check(inputs, checked)
    if not repeats:
        failures.append("outputs differ between rounds of one run")
    attempted = workload.pipelines(inputs) * (len(rounds) + 1)

    if trace:
        metrics = per_layer(rounds, setup_layers)
        raw = None
    else:
        metrics = end_to_end(setup_scaled, rounds, rss)
        raw = end_to_end(setup_raw, rounds, rss, raw=True)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, failures, reference, len(rounds), first_spans, raw


def write_digests():
    from workloads import WORKLOADS, Env, digest

    refs = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for name, cls in WORKLOADS.items():
            workload = cls()
            refs[name] = {}
            for seed in DIGEST_SEEDS:
                env = Env()
                refs[name][str(seed)] = digest(run_round(
                    workload, env, workload.setup(env, seed), tmp))
                print(f"{name} seed={seed} digest={refs[name][str(seed)]}")
    DIGESTS.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="regenerate sgbench/digests.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "sgplan" / "__init__.py").is_file():
        sys.exit(f"sgbench: no sgplan source tree at {SRC}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    if args.write_digests:
        write_digests()
        return 0

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    result, failures, got, n_rounds, spans, raw = measure(workload, args.seed,
                                                          args.seconds, args.trace)
    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    refs = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = refs.get(args.workload, {}).get(str(args.seed))
    status = ("no reference" if expected is None
              else "matches reference" if got == expected else f"MISMATCH, reference {expected}")
    print(f"digest {args.workload} seed={args.seed}: {got} ({status})")
    print(f"{n_rounds} measured rounds after one warm-up round")
    if raw is not None:
        wall = {name: value for name, (value, _) in raw.items()}
        print(f"uncalibrated wall-clock medians: {json.dumps(wall)}")
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=2) + "\n")
    if spans is not None:
        t0 = spans[0][1]
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(
            [[name, a - t0, b - t0, parent] for name, a, b, parent in spans]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
