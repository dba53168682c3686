"""Paths, BLAS thread limits and small helpers shared by the benchmark files.

Call :func:`limit_blas_threads` before NumPy is imported: it only takes
effect before the BLAS library is loaded.
"""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """Run BLAS on one thread, which is at most ``nproc`` on any machine.

    On a shared 2-core machine a second BLAS thread doubled the
    run-to-run spread of ``caption_train`` (quartile spread over ten
    seeds 12.7% of the median, against 6.1% with one thread).
    """
    for var in _BLAS_VARS:
        os.environ[var] = "1"


def import_attrcap():
    """Import the package from this checkout's ``src/`` and nowhere else.

    Exits with status 2, printing nothing on stdout, when the checkout
    holds no sources; an installed copy elsewhere must not be measured.
    """
    if not (SRC / "attrcap" / "__init__.py").is_file():
        print(f"perfbench: no attrcap sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import attrcap

    if Path(attrcap.__file__).resolve().parent != SRC / "attrcap":
        print(f"perfbench: attrcap imported from {attrcap.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return attrcap


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digests(directory):
    """SHA-256 of every regular file below ``directory``, by relative path."""
    directory = Path(directory)
    return {
        str(path.relative_to(directory)): file_digest(path)
        for path in sorted(directory.rglob("*")) if path.is_file()
    }
