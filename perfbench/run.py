"""attrcap benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the workload's inputs from
``--seed`` with perfbench/gen.py (several times, in child processes, to
time set-up), then repeats the workload's operations in this process
until ``--seconds`` are spent, checks every output, and prints one JSON
object as the last line of stdout. With ``--trace 0`` that object holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics from spans around calls into each attrcap module: after a
warm-up repeat, traced and untraced repeats alternate, which gives the
tracing overhead.
Working files go to .perfbench_work/ and are removed at the end, except
each run's report.json and, when traced, spans.jsonl.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import common

common.limit_blas_threads()
common.import_attrcap()

import numpy as np  # noqa: E402

import gen  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Ledger, working_directory  # noqa: E402

DEFAULT_SEED = 0
SET_UPS = 5
SET_UP_TIMEOUT_S = 60
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# (metric, unit) printed with --trace 0, in BENCHMARK.json order.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def blas_threads():
    """Threads of the OpenBLAS bundled with NumPy, asked of the library itself."""
    bundled = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(bundled.glob("*openblas*")):
        library = ctypes.CDLL(str(path))  # already loaded: the same handle
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, symbol):
                return int(getattr(library, symbol)())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": common.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def detail_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "fraction" if name == "error_rate" else "count"


def generate(name, seed, out):
    """Run the generator in a child process; returns ``(seconds, problems)``."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(gen.__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True, timeout=SET_UP_TIMEOUT_S, check=False)
    seconds = perf_counter() - start
    if done.returncode != 0:
        return seconds, [f"generator exit code {done.returncode}: "
                         f"{done.stderr.strip()[-300:]}"]
    return seconds, []


def set_up(name, seed, run_dir, ledger, count):
    """Generate the inputs ``count`` times; the first copy is kept.

    Returns the set-up times. Copies that differ fail the set-up, since
    one seed must always give the same inputs.
    """
    times, digests = [], []
    for k in range(count):
        out = run_dir / ("inputs" if k == 0 else f"setup{k}")
        seconds, problems = generate(name, seed, out)
        ledger.record("setup", problems)
        if problems:
            break
        times.append(seconds)
        digests.append(common.tree_digests(out))
        if k:
            shutil.rmtree(out)
    if any(d != digests[0] for d in digests[1:]):
        ledger.fail("setup", "one seed gave different input files")
    return times


def compare_repeat(workload, reference, directory, ledger):
    """Every artifact of a repeat must match repeat 0 byte for byte."""
    digests = common.tree_digests(directory)
    for artifact in sorted(set(reference) | set(digests)):
        if reference.get(artifact) != digests.get(artifact):
            ledger.fail(workload.ARTIFACTS.get(artifact, "artifacts"),
                        f"{artifact} differs from repeat 0")


def measure(workload, run_dir, seconds, ledger, tracer=None):
    """Repeat the workload until ``seconds`` are spent.

    Repeat 0 warms caches and the allocator; it is checked and is the
    reference for byte identity, but its time is not reported. Returns
    ``(untraced walls, traced walls, {step: [seconds]})``. With a tracer,
    even repeats after the warm-up are traced and odd ones are not.
    """
    walls, traced_walls, every_wall = [], [], []
    steps = defaultdict(list)
    reference = None
    start = perf_counter()
    repeat = 0
    while True:
        traced = tracer is not None and repeat > 0 and repeat % 2 == 0
        directory = run_dir / f"r{repeat}"
        directory.mkdir()
        with working_directory(directory):
            with tracer.phase(repeat) if traced else nullcontext():
                began = perf_counter()
                step_seconds = workload.run_ops(ledger)
                wall = perf_counter() - began
        every_wall.append(wall)
        if traced:
            traced_walls.append(wall)
        elif repeat > 0:
            walls.append(wall)
            for step, value in step_seconds.items():
                steps[step].append(value)
        workload.check(ledger, directory)
        if reference is None:
            reference = common.tree_digests(directory)
        else:
            compare_repeat(workload, reference, directory, ledger)
            shutil.rmtree(directory)
        repeat += 1
        if ledger.failed:
            return walls, traced_walls, steps
        if not walls or (tracer is not None and not traced_walls):
            continue  # at least one measured repeat of each kind
        if perf_counter() - start + statistics.median(every_wall) > seconds:
            return walls, traced_walls, steps


def check_pinned(workload, seed, run_dir, ledger):
    """Compare the pinned artifacts of the default seed with digests.json.

    With another seed, the pinned steps run once more, untimed, on the
    default seed's inputs, so the comparison holds on every run.
    """
    if not workload.PINNED:
        return
    with open(DIGESTS, encoding="utf-8") as handle:
        pinned = json.load(handle)[workload.name]
    directory = run_dir / "r0"
    if seed != DEFAULT_SEED:
        pin_dir = run_dir / "pinned"
        _, problems = generate(workload.name, DEFAULT_SEED, pin_dir / "inputs")
        ledger.record("setup", problems)
        if problems:
            return
        directory = pin_dir / "r0"
        directory.mkdir()
        pin_workload = type(workload)(pin_dir / "inputs")
        with working_directory(directory):
            pin_workload.run_ops(ledger, steps=workload.PINNED_STEPS)
        pin_workload.check(ledger, directory, steps=workload.PINNED_STEPS)
    for artifact in workload.PINNED:
        path = directory / artifact
        digest = common.file_digest(path) if path.is_file() else None
        if digest != pinned[artifact]:
            ledger.fail(workload.ARTIFACTS[artifact],
                        f"{artifact} differs from its pinned digest for seed {DEFAULT_SEED}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="attrcap benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    run_dir = common.WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ledger = Ledger()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "sizes": gen.SIZES[args.workload]}

    set_up_times = set_up(args.workload, args.seed, run_dir, ledger,
                          1 if args.trace else SET_UPS)
    tracer = tracing.Tracer() if args.trace else None
    dgemm = tracing.dgemm_gflop_s() if args.trace else None
    walls = traced_walls = []
    steps = {}
    workload = None
    if not ledger.failed:
        workload = workloads.WORKLOADS[args.workload](run_dir / "inputs")
        walls, traced_walls, steps = measure(workload, run_dir, args.seconds, ledger, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload is not None and not ledger.failed:
        workload.check_checkpoints(ledger, run_dir / "r0")
        report["artifact_digests"] = common.tree_digests(run_dir / "r0")
        check_pinned(workload, args.seed, run_dir, ledger)

    step_medians = {f"{step}_s": statistics.median(v) for step, v in steps.items()}
    detail = dict(step_medians)
    if workload is not None and len(step_medians) == len(workload.steps):
        detail.update(workload.detail({s: step_medians[f"{s}_s"] for s in workload.steps}))
    detail["error_rate"] = ledger.failed / max(ledger.attempted, 1)
    report.update({"set_up_times": set_up_times, "walls": walls,
                   "traced_walls": traced_walls, "steps": dict(steps), "detail": detail,
                   "failures": ledger.failures})

    if args.trace:
        if tracer.spans and walls and traced_walls:
            metrics, notes = tracing.per_layer_metrics(tracer, walls, traced_walls, dgemm)
            report["trace_notes"] = notes
            tracer.write(run_dir / "spans.jsonl")
        else:
            metrics = None
    elif set_up_times and walls:
        values = {"setup_s": statistics.median(set_up_times),
                  "wall_s": statistics.median(walls), "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = None
    report["metrics"] = metrics

    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in detail.items():
        print(f"detail {name} {value!r} {detail_unit(name)}")
    if "trace_notes" in report:
        print("detail trace " + json.dumps(report["trace_notes"], sort_keys=True))
    with open(run_dir / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    for path in run_dir.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    if metrics is None:
        print("perfbench: no measurement completed; see the failures above",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
