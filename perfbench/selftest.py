"""Self-test of the input generator.

    python3 perfbench/selftest.py

For every workload, seed 1 generated twice must give byte-identical
files, and seed 2 must change every file. Exits 0 when both hold.
"""

import shutil
import subprocess
import sys

import common
import gen


def main():
    base = common.WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    failures = []
    try:
        for workload in sorted(gen.GENERATORS):
            digests = {}
            for label, seed in (("first", 1), ("again", 1), ("other", 2)):
                out = base / workload / label
                subprocess.run(
                    [sys.executable, gen.__file__, "--workload", workload,
                     "--seed", str(seed), "--out", str(out)], check=True, timeout=170)
                digests[label] = common.tree_digests(out)
            if digests["first"] != digests["again"]:
                failures.append(f"{workload}: seed 1 gave different files on a rerun")
            same = sorted(name for name, digest in digests["first"].items()
                          if digests["other"].get(name) == digest)
            if same or set(digests["first"]) != set(digests["other"]):
                failures.append(f"{workload}: seeds 1 and 2 agree on {same or 'file names'}")
            print(f"{workload}: {len(digests['first'])} files checked", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
