"""Environment stamp recorded with every result, and the BLAS thread pin.

Results are comparable only when their stamps agree; ``compare.py`` flags
every field that differs.
"""

from __future__ import annotations

import os
import platform

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The workloads are single-process; BLAS gets at most two threads so that
# figures from machines with more cores stay comparable with two-core ones.
BLAS_THREADS = 2


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pin_blas_threads():
    """Set the BLAS thread count to min(BLAS_THREADS, nproc); call before numpy loads."""
    threads = max(1, min(BLAS_THREADS, nproc()))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _git_commit(root):
    """HEAD of a git checkout read from its files; 'unknown' outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root):
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get(BLAS_THREAD_VARS[0], "unset"),
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "commit": _git_commit(root),
    }
