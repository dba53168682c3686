"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Each run lasts BENCHMARK.json's ``run_seconds``, as the bounds assume.
The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure each end-to-end metric's ``bound`` in BENCHMARK.json must exceed.
The medians of the runs' numeric ``detail`` figures (per-step times,
throughputs) follow, with each step's share of the median ``wall_s``.
Runs are sequential, one process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    values, details = {}, {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            fields = line.split()
            if fields[0] == "detail" and len(fields) == 4:
                details.setdefault(fields[1], []).append(float(fields[2]))
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{name}={m['value']:.4f}" for name, m in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        print(f"{name}: median {median:.4f} spread {(q3 - q1) / median:.4f} "
              f"bound {bounds.get(name)}")
    wall = statistics.median(values["wall_s"])
    for name, series in details.items():
        median = statistics.median(series)
        share = ""
        if name.endswith("_s") and not name.endswith("_per_s"):
            share = f" ({median / wall:.1%} of wall_s)"
        print(f"detail {name}: median {median:.4f}{share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
