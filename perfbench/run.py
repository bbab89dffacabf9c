"""Run one workload of the gtoric benchmark and print its metrics.

    python3 perfbench/run.py --workload gsd-ladder --seed 1 --seconds 25 --trace 0

Run it from the repository root: gtoric is imported from ``./src`` and from
nowhere else.  A run has one caller.  It imports and sets the workload up
once itself and once in each of ``SETUP_REPEATS - 1`` fresh interpreters,
then runs rounds of the workload's fixed task list until ``--seconds`` have
passed, and at least ``MIN_ROUNDS`` rounds.  Each round runs in a child
forked after set-up, and the run waits for it before the next starts, so
nothing one round leaves in memory (a cache keyed on the inputs, say) can
serve a later round with the same inputs: every round is as cold as the
first.

Every task's time is calibrated against a fixed reference kernel timed
just before and just after it (see ``REF_S``).  Each task's time is the
median of its calibrated times over the rounds, and ``wall_s`` is the sum
of those medians.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` every round runs
twice, untraced and then traced, and the metrics are the per-layer ones of
``spans.py``; the spans are written to ``perfbench/out/``.  A task that
raises or returns a wrong answer counts as failed and the run goes on.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# BLAS / OpenMP threads: one caller on one core keeps runs steady
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
SETUP_REPEATS = 7  # import-plus-set-up samples; setup_s is their median
TAIL_SAMPLES = 10  # samples a tail percentile must leave beyond it

# The host this was defined on slows a CPU down in phases that last from
# milliseconds to minutes, by up to 2x, and a slow phase can cover a whole
# run: over five runs of gsd-ladder, the sum of raw median task times still
# spread 0.20 (Q3 - Q1 over the median).  So every time is calibrated: multiplied by REF_S over the time of the reference
# kernel below, timed next to it in the same process.  The result reads as
# seconds on a machine where the kernel takes REF_S.  Over four minutes of
# m1 4x4 reports, the 10-second medians of the raw time varied by 12%
# (coefficient of variation), those of the calibrated time by 2%.  The
# kernel's work is fixed, and is like gtoric's own: interpreter arithmetic,
# dict lookups and numpy calls on small arrays.
REF_S = 0.003

WORKLOAD_NAMES = ("gsd-ladder", "query-mix", "dense-oracle", "validate-algebra")

END_TO_END = {
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def use_checkout_sources():
    """Pin the numeric thread pools and the amplitude budget, then make
    ``import gtoric`` load ``./src/gtoric``.  Exits with an error when the
    sources are missing."""
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    os.environ.pop("GTORIC_BUDGET", None)
    if not os.path.isfile(os.path.join(SRC, "gtoric", "__init__.py")):
        sys.exit(f"perfbench: no gtoric sources under {SRC}")
    sys.path.insert(0, SRC)


def make_reference():
    """The reference kernel: a function that does fixed work and returns its
    seconds.  No change to gtoric can alter the work it does."""
    import numpy as np

    small = np.arange(64, dtype=np.int64)
    table = {i: 3 * i + 1 for i in range(256)}

    def kernel():
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        acc = 0
        for i in range(6000):
            acc = (acc + table[i & 255] * i) % 7919
        x = small
        for _ in range(300):
            x = (x * 3 + acc) % 7
        seconds = perf_counter() - start
        if collecting:
            gc.enable()
        return seconds

    kernel()
    return kernel


def calibrated(sample):
    """A (raw seconds, reference seconds) sample, in calibrated seconds."""
    seconds, ref = sample
    return seconds * REF_S / ref


def raw(sample):
    """A (raw seconds, reference seconds) sample, in raw seconds."""
    return sample[0]


def tail_percentile(samples):
    """Highest whole percentile that leaves TAIL_SAMPLES samples beyond it."""
    p = math.floor(100 * (samples - TAIL_SAMPLES) / samples)
    while samples - math.ceil(p * samples / 100) < TAIL_SAMPLES:
        p -= 1
    return p


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def median_times(rounds, value):
    """Each task's median ``value`` over rounds of the same task list."""
    return [statistics.median(map(value, samples)) for samples in zip(*rounds)]


def round_wall(samples):
    return sum(map(raw, samples))


def in_child(fn):
    """Return ``fn()`` computed in a forked child, after the child has ended.
    Whatever ``fn`` leaves in memory ends with the child."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 0
        try:
            data = pickle.dumps(fn())
        except BaseException:
            traceback.print_exc()
            data, status = b"", 1
        with os.fdopen(write_end, "wb") as fh:
            fh.write(data)
        sys.stderr.flush()
        os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        sys.exit("perfbench: a round's process failed")
    return pickle.loads(data)


_RAISED = object()


def run_round(tasks, reference, tracer=None, label=""):
    """Run the tasks in order.  Returns, per task, its raw seconds and the
    mean seconds of the reference kernel timed just before and just after
    it, and the failed count."""
    times, failed = [], 0
    before = reference()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = f"{label}/{i}"
        start = perf_counter()
        try:
            answer = task.call()
        except Exception:  # a failing task is counted, not fatal
            answer = _RAISED
            traceback.print_exc()
        seconds = perf_counter() - start
        after = reference()
        times.append((seconds, (before + after) / 2))
        before = after
        ok = False
        if answer is not _RAISED:
            try:
                ok = bool(task.check(answer))
            except Exception:
                traceback.print_exc()
        if not ok:
            failed += 1
            print(f"perfbench: wrong answer {task.kind} {json.dumps(task.inputs)}", file=sys.stderr)
    if tracer is not None:
        tracer.task = None
    return times, failed


def isolated_round(workload, ctx, seed, reference, tracer, label):
    """One round in a forked child.  Returns the task samples, the failed
    count and, with a tracer, the spans and counts the round recorded."""

    def round_():
        tasks = workload.tasks(ctx, seed)
        gc.collect()
        if tracer is None:
            return run_round(tasks, reference) + (None,)
        first = len(tracer.spans)
        tracer.reset_counts()
        tracer.install()
        try:
            times, failed = run_round(tasks, reference, tracer, label)
        finally:
            tracer.uninstall()
        return times, failed, (tracer.spans[first:], tracer.calls, tracer.amounts)

    times, failed, recorded = in_child(round_)
    if recorded:
        # span parents index the list as it stood at the fork, which the
        # parent still holds, so appending keeps them valid
        new_spans, calls, amounts = recorded
        tracer.spans.extend(new_spans)
        tracer.calls.update(calls)
        tracer.amounts.update(amounts)
    return times, failed


def measure(workload, ctx, seed, seconds, reference, tracer=None):
    """Rounds of the task list until the time is up.  With a tracer, every
    round runs untraced and then traced.  Returns the per-round task samples
    of the untraced and of the traced rounds, and the failed count."""
    plain, traced, failed = [], [], 0
    passes = [(plain, None)] + ([(traced, tracer)] if tracer else [])
    least = MIN_TRACED_ROUNDS if tracer else MIN_ROUNDS
    start = perf_counter()
    while True:
        for rounds, active in passes:
            times, round_failed = isolated_round(workload, ctx, seed, reference, active,
                                                 f"r{len(rounds)}")
            rounds.append(times)
            failed += round_failed
        per_round = sum(statistics.median(map(round_wall, rounds)) for rounds, _ in passes)
        if len(plain) >= least and perf_counter() - start + per_round > seconds:
            return plain, traced, failed


def fresh_setup_times(args):
    """Import and set-up seconds of a fresh interpreter, one sample."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up in a fresh interpreter failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up once, print the times as JSON, and exit")
    args = parser.parse_args(argv)

    use_checkout_sources()
    import_start = perf_counter()
    import numpy
    import scipy

    import gtoric
    import spans
    import workloads

    import_s = perf_counter() - import_start
    if not os.path.abspath(gtoric.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: gtoric was imported from {gtoric.__file__}, not {SRC}")

    reference = make_reference()
    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    gc.collect()
    if tracer:
        tracer.task = "setup"
        tracer.install()
    start = perf_counter()
    try:
        ctx = workload.setup(args.seed)
        tasks = workload.tasks(ctx, args.seed)
    finally:
        setup_s = perf_counter() - start
        if tracer:
            tracer.uninstall()
            tracer.task = None
            tracer.reset_counts()
    sample = {"import_s": import_s, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(sample))
        return 0

    plain, traced, failed = measure(workload, ctx, args.seed, args.seconds, reference, tracer)
    task_s = median_times(plain, calibrated)
    wall_s = sum(task_s)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": hashlib.sha256(
            json.dumps([t.inputs for t in tasks], sort_keys=True).encode()
        ).hexdigest(),
        "tasks": len(tasks),
        "rounds": len(plain),
        "round_walls_s": list(map(round_wall, plain)),
        "raw_wall_s": sum(median_times(plain, raw)),
        "ref_ms": 1000 * statistics.median(ref for r in plain for _, ref in r),
        "threads": THREADS,
        "gtoric_budget": gtoric.oracle.budget(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer:
        traced_wall = sum(median_times(traced, calibrated))
        raw_rounds = [list(map(raw, samples)) for samples in traced]
        metrics = spans.layer_metrics(tracer, raw_rounds, traced_wall, wall_s)
        units = spans.PER_LAYER
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(spans_path)
        info.update(traced_round_walls_s=list(map(round_wall, traced)),
                    spans=len(tracer.spans), spans_file=os.path.relpath(spans_path, ROOT))
    else:
        samples = [sample] + [fresh_setup_times(args) for _ in range(SETUP_REPEATS - 1)]
        percentile = tail_percentile(len(task_s))
        rss_kb = max(resource.getrusage(who).ru_maxrss
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        metrics = {
            "wall_s": wall_s,
            "task_p50_ms": 1000 * statistics.median(task_s),
            "task_tail_ms": 1000 * nearest_rank(task_s, percentile),
            "setup_s": statistics.median(s["import_s"] + s["setup_s"] for s in samples),
            "peak_rss_mb": rss_kb / 1024,
        }
        units = END_TO_END
        kinds = {}
        for task, seconds in zip(tasks, task_s):
            kinds.setdefault(task.kind, []).append(1000 * seconds)
        info.update(
            tail_percentile=percentile,
            beyond_tail=len(task_s) - math.ceil(percentile * len(task_s) / 100),
            setup_samples_s=samples,
            kind_p50_ms={kind: statistics.median(ms) for kind, ms in sorted(kinds.items())},
        )
    print("perfbench info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": sum(map(len, plain + traced)),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
