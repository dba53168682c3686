"""Paired benchmark runs: a base revision against this checkout.

    python3 tools/bench_pair.py --base REV --pairs N --out BENCH_<pr>.json \
        [--workload W ...]

Checks ``REV`` out as a git worktree under ``.perfbench_work/`` and runs
each checkout's own, unchanged ``perfbench/run.py --trace 0`` in pairs,
one process at a time. Pair ``k`` gives both sides seed ``k + 1``, and
the side that runs first alternates from pair to pair, so a drift of
the machine's speed falls on both sides alike. The head side is this
checkout's working tree, uncommitted changes included.

The output file holds, per workload and per end-to-end metric of
``BENCHMARK.json``: each side's median and quartiles
(``statistics.quantiles``), the head's change against the base median,
the metric's bound, the pairs the head won, and the benchmark's two
verdicts, ``gain`` and ``unresolved`` (see :func:`summarize`). Every run
is listed with its seed, its order in the pair, its ``correct`` flag,
its ``attempted`` and ``failed`` counts, its metrics and the load
average when it started; each side's ``env`` line gives ``nproc`` and
the BLAS threads. Without ``--workload``, every workload of ``BENCHMARK.json``
runs. Every run lasts the benchmark's ``run_seconds``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def parse_run(stdout, returncode):
    """The ``env`` line and the result of one ``run.py`` output; a run
    that printed no result, or exited non-zero, is not correct."""
    env, result = None, None
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[len("env "):])
    if returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return {"env": env, "correct": False, "attempted": None, "failed": None,
                "metrics": None, "exit_code": returncode}
    return {"env": env, "correct": bool(result.get("correct")),
            "attempted": result.get("attempted"), "failed": result.get("failed"),
            "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
            "exit_code": returncode}


def pair_order(pair):
    """The sides of pair ``pair`` in the order they run."""
    return ("base", "head") if pair % 2 == 0 else ("head", "base")


def spread(values):
    """``{"median", "q1", "q3"}`` of ``values``; a lone value is all three."""
    if len(values) < 2:
        value = values[0] if values else None
        return {"median": value, "q1": value, "q3": value}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, end_to_end):
    """Per-metric summary of one workload's ``runs`` (each with ``pair``,
    ``side``, ``correct`` and ``metrics``). Only pairs whose two runs both
    finished correct count; ``head_wins`` counts those in which the head
    is strictly better, ``change`` is the head median's relative change
    against the base median (positive is larger). The benchmark's two
    verdicts: ``gain``, the head wins at least 9/10 of all pairs run
    (an incomplete pair is not won) and its median is better than the
    base median by more than the base's q3 - q1; ``unresolved``, the
    base's (q3 - q1) / median exceeds the bound and not every head run
    is better than every base run."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    complete = [sides for _, sides in sorted(by_pair.items())
                if all(side in sides and sides[side]["correct"] for side in ("base", "head"))]
    summary = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        pairs = [(sides["base"]["metrics"][name], sides["head"]["metrics"][name])
                 for sides in complete if name in sides["base"]["metrics"]
                 and name in sides["head"]["metrics"]]
        base = spread([b for b, _ in pairs])
        head = spread([h for _, h in pairs])
        change = (head["median"] / base["median"] - 1.0
                  if pairs and base["median"] else None)
        wins = sum(sign * (b - h) > 0 for b, h in pairs)
        iqr = base["q3"] - base["q1"] if pairs else None
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "pairs": len(pairs), "base": base, "head": head, "change": change,
            "head_wins": wins,
            "within_bound": None if change is None else sign * change <= metric["bound"],
            "gain": bool(pairs) and 10 * wins >= 9 * len(by_pair)
            and sign * (base["median"] - head["median"]) > iqr,
            "unresolved": None if change is None else (
                iqr / base["median"] > metric["bound"]
                and max(sign * h for _, h in pairs) >= min(sign * b for b, _ in pairs)),
        }
    return summary


def run_once(checkout, workload, seed, seconds):
    """One ``perfbench/run.py`` run in ``checkout``; its parsed output."""
    load = os.getloadavg()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    run = parse_run(done.stdout, done.returncode)
    run["load_avg"] = [round(value, 2) for value in load]
    if not run["correct"]:
        run["stderr_tail"] = done.stderr.strip()[-500:]
    return run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON output, e.g. BENCH_<pr>.json")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    base_dir = WORK / f"base-{commit[:12]}"
    WORK.mkdir(exist_ok=True)
    if base_dir.exists():
        git("worktree", "remove", "--force", str(base_dir))
    git("worktree", "add", "--detach", str(base_dir), commit)
    checkouts = {"base": base_dir, "head": ROOT}
    report = {
        "base": {"rev": args.base, "commit": commit},
        "head": {"commit": git("rev-parse", "HEAD"),
                 "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "pairs": args.pairs, "seconds": seconds, "nproc": len(os.sched_getaffinity(0)),
        "workloads": {},
    }
    try:
        for workload in workloads:
            runs = []
            for pair in range(args.pairs):
                for first, side in enumerate(pair_order(pair)):
                    run = run_once(checkouts[side], workload, pair + 1, seconds)
                    run.update(pair=pair, side=side, seed=pair + 1, first=first == 0)
                    runs.append(run)
                    print(f"{workload} pair {pair} {side}: correct={run['correct']} "
                          f"{run['metrics']}", flush=True)
            envs = {side: next((r["env"] for r in runs if r["side"] == side and r["env"]), None)
                    for side in ("base", "head")}
            report["workloads"][workload] = {
                "env": envs, "metrics": summarize(runs, bench["end_to_end"]), "runs": runs}
    finally:
        git("worktree", "remove", "--force", str(base_dir))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload, entry in report["workloads"].items():
        for name, metric in entry["metrics"].items():
            print(f"{workload} {name}: base {metric['base']['median']} head "
                  f"{metric['head']['median']} change {metric['change']} "
                  f"wins {metric['head_wins']}/{metric['pairs']} gain {metric['gain']} "
                  f"unresolved {metric['unresolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
