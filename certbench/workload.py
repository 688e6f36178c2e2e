"""One workload in a fresh process: build the seeded instances, then run
certify jobs in whole rounds over them and print one JSON line of raw
results for ``run.py``.

Modes:
  setup  build the instances and report when that finished;
  run    untraced jobs, for the end-to-end metrics;
  trace  an untraced reference pass, then the same jobs traced, for the
         per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pursuit  # noqa: E402  (imported before the set-up clock stops)

import calibration  # noqa: E402
import certify  # noqa: E402
import instances  # noqa: E402
import tracing  # noqa: E402

CLI_TIMEOUT_S = 120
# CPU seconds of jobs between two calibration runs; a longer job is
# bracketed by its own pair.
CALIBRATE_EVERY_S = 0.2


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its reaped children
    (the CLI processes). Jobs are timed on this clock, not the wall clock:
    on a shared host the wall clock also counts time spent waiting for a
    CPU, and with steal-time accounting a guest's CPU clock does not."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _subprocess_cli(root):
    env = dict(os.environ)

    def run(argv):
        done = subprocess.run(
            [sys.executable, "-m", "pursuit.cli", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        return done.returncode, done.stdout

    return run


def _inprocess_cli(argv):
    from pursuit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class Runner:
    """Runs one certify job per call and records its CPU time, wall time
    and outcome, with calibration runs between jobs."""

    def __init__(self, workload, insts, workdir, run_cli):
        self.workload = workload
        self.insts = insts
        self.plan = instances.PLANS.get(workload)  # None for the CLI pipeline
        self.workdir = workdir
        self.run_cli = run_cli
        self.cpu = []
        self.walls = []
        self.failures = []
        self.block = []        # calibration block of each job
        self.kernel_s = []     # block b lies between samples b and b + 1
        self._since = None     # job CPU seconds since the last sample
        if self.plan is None:  # CLI jobs: interpreter start-up dominates
            self._measure = calibration.measure_process
            self._reference = calibration.PROCESS_REFERENCE_S
        else:
            self._measure = calibration.measure
            self._reference = calibration.REFERENCE_S

    def calibrate(self):
        self.kernel_s.append(self._measure())
        self._since = 0.0

    def scaled_times(self):
        """Job CPU times at the reference speed, each scaled by the mean
        of the calibration samples around its block."""
        out = []
        for cpu, b in zip(self.cpu, self.block):
            kernel = statistics.fmean(self.kernel_s[b:b + 2])
            out.append(cpu * self._reference / kernel)
        return out

    def reset(self):
        self.__init__(self.workload, self.insts, self.workdir, self.run_cli)

    def job(self, idx):
        if self._since is None or self._since >= CALIBRATE_EVERY_S:
            self.calibrate()
        inst = self.insts[idx]
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            if self.plan is None:
                certify.certify_cli(inst, self.workdir, self.run_cli)
            else:
                certify.certify(inst, self.plan)
            ok = True
        except certify.CheckFailed as err:
            ok, why = False, str(err)
        except Exception:  # a crash is a failed job, not a failed run
            ok, why = False, traceback.format_exc(limit=3).strip().splitlines()[-1]
        self.walls.append(time.perf_counter() - t0)
        self.cpu.append(cpu_seconds() - c0)
        self.block.append(len(self.kernel_s) - 1)
        self._since += self.cpu[-1]
        if not ok:
            self.failures.append({"job": len(self.cpu) - 1, "instance": inst.name, "why": why})
        return ok

    def rounds(self, *, seconds=None, count=None, tracer=None):
        """Whole rounds over the instance mix: ``count`` of them, or as
        long as the next round is predicted to fit in ``seconds`` of wall
        time (always at least one). Returns the rounds done, the CPU
        seconds they took and per-job counts."""
        start, cpu_start = time.perf_counter(), cpu_seconds()
        done = 0
        per_job_counts = []
        while True:
            for idx in range(len(self.insts)):
                if tracer is not None:
                    tracer.current_job = len(self.cpu)
                    tracer.counts.clear()
                self.job(idx)
                if tracer is not None:
                    tracer.current_job = -1
                    per_job_counts.append((idx, dict(tracer.counts)))
            done += 1
            elapsed = time.perf_counter() - start
            if done == count or (count is None and elapsed + elapsed / done > seconds):
                break
        self.calibrate()  # closes the last block
        return done, cpu_seconds() - cpu_start, per_job_counts


def _warm_up(runner):
    """One untimed job on the smallest instance, so that lazy imports and
    first-call costs are not charged to the first timed job."""
    smallest = min(range(len(runner.insts)), key=lambda i: runner.insts[i].graph.order)
    runner.job(smallest)
    runner.reset()


def _environment():
    import numpy

    from pursuit import _kernels

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "numpy": numpy.__version__,
        "backend": _kernels.backend(),
        "numba": has_numba,
        "pursuit": pursuit.__version__,
    }


def _check_counts(per_job_counts, store_path):
    """Counts of the same instance must repeat exactly: across rounds of
    this run, and against an earlier traced run of the same code and seed."""
    problems = []
    first = {}
    for idx, counts in per_job_counts:
        if idx in first and first[idx] != counts:
            problems.append(f"instance {idx}: counts differ between rounds")
        first.setdefault(idx, counts)
    if os.path.exists(store_path):
        with open(store_path, encoding="utf-8") as fh:
            earlier = {int(k): v for k, v in json.load(fh).items()}
        for idx, counts in first.items():
            if idx in earlier and earlier[idx] != counts:
                problems.append(f"instance {idx}: counts differ from an earlier run with this seed")
    else:
        with open(store_path, "w", encoding="utf-8") as fh:
            json.dump({str(k): v for k, v in first.items()}, fh, sort_keys=True)
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--code-digest", default="", help="keys the stored counts")
    args = parser.parse_args()

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    insts = instances.build(args.workload, args.seed)
    setup_cpu = time.process_time()  # interpreter start, imports and the build
    if args.mode == "setup":
        calibration.measure()  # first run pays for allocation
        kernel = statistics.median(calibration.measure() for _ in range(3))
        print(json.dumps({"setup_cpu": setup_cpu,
                          "setup_scaled": setup_cpu * calibration.REFERENCE_S / kernel}))
        return 0

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workdir = os.path.join(args.outdir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cli_mode = args.workload == "cli_pipeline"
    run_cli = _subprocess_cli(root) if cli_mode and args.mode == "run" else _inprocess_cli
    result = {"setup_cpu": setup_cpu, "env": _environment(), "jobs_per_round": len(insts),
              "instances": [inst.name for inst in insts]}
    try:
        if args.mode == "run":
            runner = Runner(args.workload, insts, workdir, run_cli)
            _warm_up(runner)
            rounds, _, _ = runner.rounds(seconds=args.seconds)
            usage = resource.RUSAGE_CHILDREN if cli_mode else resource.RUSAGE_SELF
            result.update(
                rounds=rounds, times=runner.scaled_times(),
                cpu_times=runner.cpu, kernel_s=runner.kernel_s,
                failures=runner.failures,
                maxrss_kb=resource.getrusage(usage).ru_maxrss,
            )
        else:
            result.update(_traced(args, insts, workdir, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _traced(args, insts, workdir, tracer):
    build_s, _, _ = tracer.self_times(jobs=False)
    tracer.uninstall()
    reference = Runner(args.workload, insts, workdir, _inprocess_cli)
    _warm_up(reference)
    rounds, untraced_s, _ = reference.rounds(seconds=args.seconds / 2)

    traced = Runner(args.workload, insts, workdir, _inprocess_cli)
    tracing.install(tracer)
    rounds, traced_s, per_job_counts = traced.rounds(count=rounds, tracer=tracer)
    tracer.uninstall()

    layer_s, calls, top_s = tracer.self_times(jobs=True)
    counts = tracing.merge_counts(job_counts for _, job_counts in per_job_counts)
    stem = os.path.join(args.outdir, f"{args.workload}-seed{args.seed}")
    tracer.save(f"{stem}-spans.npz")
    problems = _check_counts(per_job_counts, f"{stem}-{args.code_digest}-counts.json")
    return {
        "rounds": rounds,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "jobs_wall_s": sum(traced.walls),
        "top_spans_s": top_s,
        "layer_s": layer_s,
        "layer_calls": calls,
        "build_s": build_s.get("generators.build", 0.0),
        "counts": counts,
        "count_problems": problems,
        "times": traced.cpu,
        "failures": traced.failures,
    }


if __name__ == "__main__":
    sys.exit(main())
