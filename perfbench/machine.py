"""Run record: the machine, the BLAS and the code a result was measured on."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info():
    """BLAS name, version and thread count as numpy reports them."""
    import numpy

    info = {"blas_name": None, "blas_version": None, "blas_threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas_name"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                info["blas_threads"] = int(func())
                break
    info["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over all CPUs.

    Read from /proc/stat; 0 where the file or its steal column is missing.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def git_commit(root):
    """HEAD of the checkout, or None where the checkout is not a git tree."""
    if not (Path(root) / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(root):
    """sha256 over the package sources and study configs, in path order."""
    root = Path(root)
    digest = hashlib.sha256()
    files = sorted(root.glob("src/fracadi/*.py")) + sorted(root.glob("configs/*.ini"))
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(root):
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }
