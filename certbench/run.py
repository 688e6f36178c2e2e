"""Certify benchmark: seeded graphs taken through the pursuit toolkit's
pipeline, every output checked by an independent oracle.

Usage (from the repository root):

  python3 certbench/run.py --workload long_capture --seed 1 --seconds 26 --trace 0

Each workload runs in fresh processes started from here: several set-up
only processes for ``setup_s``, then one process that runs certify jobs
in whole rounds over the seeded instance mix. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object; details (the tail
percentile used, sample counts, every layer, failures, the environment)
go to ``.certbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".certbench")

sys.path.insert(0, HERE)
from tracing import DETERMINISTIC_COUNTS, LAYER_METRICS, MAX_COUNTS  # noqa: E402

WORKLOADS = ("long_capture", "dense_random", "many_small", "cli_pipeline")
# Every child is stopped in time for the run to end within 170 s of start.
DEADLINE = time.monotonic() + 170
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
# Seed kept out of tuning, for checking later performance claims.
HELD_OUT_SEED = 20261017

# Per-layer metrics in the final JSON line: those that every workload
# exercises. The others are zero on some workload by design and appear
# only in the detail file and the printed table.
JSON_LAYER_METRICS = (
    "generators.build_s", "graphs.parse_s", "graphs.neighbors_calls",
    "orders.peel_s", "orders.peel_calls", "orders.verify_s", "orders.io_s",
    "kernels.tables_s", "kernels.tables_states", "kernels.tables_plies_max",
    "kernels.survive_s", "kernels.survive_cells", "solver.decide_self_s",
    "solver.search_self_s", "strategies.cop_move_s", "strategies.robber_move_s",
    "strategies.moves", "engine.play_self_s", "engine.rounds",
    "engine.evaluate_s", "engine.serialize_s", "cli.import_s",
    "bench.self_s", "trace.overhead_s",
)

END_TO_END = {
    "certify_per_s": "jobs/s",
    "certify_s_p50": "s",
    "certify_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "passed_ratio": "ratio",
}


class BenchError(Exception):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # Fixed glibc thresholds far above the largest numpy temporary: freed
    # blocks stay in the heap and are reused, so a repeated job makes no
    # page faults (whose kernel time varies much from run to run), and
    # peak RSS is the heap's high-water mark, reached in the first round
    # rather than growing with the number of rounds run.
    env["MALLOC_MMAP_THRESHOLD_"] = env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    # One BLAS/OpenMP thread, within the nproc cap: pursuit makes no BLAS
    # calls, and an idle pool's spinning threads would count on the CPU
    # clock the jobs are timed on.
    threads = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = threads
    return env


def _launch(argv, env, timeout):
    """Run a child to completion; return its last stdout line. No child
    may run past the whole run's deadline."""
    timeout = min(timeout, DEADLINE - time.monotonic())
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as err:  # subprocess.run has killed and reaped it
        raise BenchError(f"{argv[1:4]} timed out after {timeout} s") from err
    if done.returncode != 0:
        raise BenchError(f"{argv[1:4]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{argv[1:4]} printed nothing")
    return lines[-1]


def _workload_argv(args, mode):
    return [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
            "--outdir", OUTDIR, "--code-digest", args.code_digest]


def _setup_seconds(args, env):
    samples = []
    for _ in range(SETUP_SAMPLES):
        line = _launch(_workload_argv(args, "setup"), env, timeout=20)
        samples.append(json.loads(line)["setup_scaled"])
    return samples


def _import_seconds(env):
    """CPU seconds of a fresh interpreter up to having imported pursuit.cli."""
    code = "import time, pursuit.cli; print(time.process_time())"
    return [float(_launch([sys.executable, "-c", code], env, timeout=20))
            for _ in range(IMPORT_SAMPLES)]


def _tail(times, per_round):
    """Tail time and the percentile it stands for. The percentile is fixed
    by the round size, not by how many rounds ran: the highest of the
    ladder with at least ten jobs of one round above it. With fewer than
    20 jobs per round there is none; the tail is then the slowest
    instance's median over rounds (reported as percentile 100)."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if per_round - math.ceil(pct / 100 * per_round) >= 10:
            ordered = sorted(times)
            return pct, ordered[math.ceil(pct / 100 * len(ordered)) - 1]
    return 100.0, max(statistics.median(times[i::per_round]) for i in range(per_round))


def _git_commit():
    """Commit from ``.git`` when the checkout has one (read, not run)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _code_digest():
    """Digest of the program and benchmark sources; counts are compared
    only between traced runs of the same code."""
    digest = hashlib.sha256()
    for sub in (os.path.join("src", "pursuit"), "certbench"):
        folder = os.path.join(ROOT, sub)
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(f"{sub}/{name}".encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _stamp(args, child_env):
    return {
        "python": sys.version.split()[0],
        **child_env,
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "code_sha256_16": args.code_digest,
        "held_out_seed": HELD_OUT_SEED,
    }


def _end_to_end(args, env):
    setups = _setup_seconds(args, env)
    line = _launch(_workload_argv(args, "run"), env, timeout=150)
    raw = json.loads(line)
    times = raw["times"]
    per_round = raw["jobs_per_round"]
    pct, tail = _tail(times, per_round)
    attempted = len(times)
    failed = len(raw["failures"])
    metrics = {
        "certify_per_s": attempted / sum(times),
        "certify_s_p50": statistics.median(times),
        "certify_s_tail": tail,
        "peak_rss_mb": raw["maxrss_kb"] / 1024,
        "setup_s": statistics.median(setups),
        "passed_ratio": (attempted - failed) / attempted,
    }
    details = {
        "tail_percentile": pct,
        "jobs": attempted,
        "rounds": raw["rounds"],
        "jobs_per_round": raw["jobs_per_round"],
        "instances": raw["instances"],
        "instance_median_s": [statistics.median(times[i::per_round]) for i in range(per_round)],
        "instance_median_cpu_s": [statistics.median(raw["cpu_times"][i::per_round])
                                  for i in range(per_round)],
        "cpu_s": sum(raw["cpu_times"]),
        "calibration_samples": len(raw["kernel_s"]),
        "calibration_median_s": statistics.median(raw["kernel_s"]),
        "calibration_range_s": [min(raw["kernel_s"]), max(raw["kernel_s"])],
        "setup_samples_s": setups,
        "peak_rss_of": "children (CLI processes)" if args.workload == "cli_pipeline" else "self",
    }
    return raw, attempted, failed, failed == 0, metrics, details


def _per_layer(args, env):
    imports = _import_seconds(env)
    line = _launch(_workload_argv(args, "trace"), env, timeout=150)
    raw = json.loads(line)
    rounds = raw["rounds"]
    values = {}
    for name, unit, _ in LAYER_METRICS:
        layer = name.rsplit("_", 1)[0]
        if unit == "count":
            total = raw["counts"].get(name, 0)
            values[name] = total if name in MAX_COUNTS else total // rounds
        else:
            values[name] = raw["layer_s"].get(layer, 0.0) / rounds
    values["generators.build_s"] = raw["build_s"]
    values["cli.import_s"] = statistics.median(imports)
    values["bench.self_s"] = (raw["jobs_wall_s"] - raw["top_spans_s"]) / rounds
    values["trace.overhead_s"] = (raw["traced_s"] - raw["untraced_s"]) / rounds
    attempted = len(raw["times"])
    failed = len(raw["failures"])
    details = {
        "rounds": rounds,
        "jobs_per_round": raw["jobs_per_round"],
        "untraced_s": raw["untraced_s"],
        "traced_s": raw["traced_s"],
        "overhead_share": raw["traced_s"] / raw["untraced_s"] - 1,
        "layer_calls_per_round": {k: v // rounds for k, v in raw["layer_calls"].items()},
        "count_problems": raw["count_problems"],
        "deterministic_counts": list(DETERMINISTIC_COUNTS),
        "import_samples_s": imports,
    }
    correct = failed == 0 and not raw["count_problems"]
    return raw, attempted, failed, correct, values, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pursuit", "__init__.py")):
        print(f"error: no pursuit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUTDIR, exist_ok=True)
    args.code_digest = _code_digest()
    env = _child_env()
    try:
        if args.trace:
            raw, attempted, failed, correct, values, details = _per_layer(args, env)
            units = {name: unit for name, unit, _ in LAYER_METRICS}
            reported = JSON_LAYER_METRICS
        else:
            raw, attempted, failed, correct, values, details = _end_to_end(args, env)
            units = END_TO_END
            reported = tuple(END_TO_END)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    stamp = _stamp(args, raw["env"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": stamp, "correct": correct,
        "attempted": attempted, "failed": failed, "failures": raw["failures"][:20],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
        "details": details,
    }
    path = os.path.join(OUTDIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print("environment: " + json.dumps(stamp, sort_keys=True))
    for failure in raw["failures"][:5]:
        print(f"FAILED job {failure['job']} ({failure['instance']}): {failure['why']}")
    if args.trace:
        moves = {name: why for name, _, why in LAYER_METRICS}
        print(f"{'layer metric (per round)':<28}{'value':>14}  moves")
        for name, value in values.items():
            print(f"{name:<28}{value:>14.6g}  {moves[name]}")
        print(f"tracing overhead: {details['overhead_share']:+.1%} over the untraced pass")
    else:
        for name, value in values.items():
            print(f"{name:<16}{value:>14.6g} {units[name]}")
        print(f"tail = p{details['tail_percentile']:g} of {details['jobs']} jobs "
              f"({details['rounds']} rounds of {details['jobs_per_round']})")
    print(f"details: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
