"""Child processes under each OpenBLAS core type, for checks that must hold
whatever kernel BLAS picks.  An environment variable of a child process
changes nothing outside it."""

import os
import platform
import subprocess
import sys

# Each OPENBLAS_CORETYPE checked, with the CPU flag its kernels need.
CORES = [("Prescott", None), ("Haswell", "avx2"), ("SkylakeX", "avx512f")]

_TESTS = os.path.dirname(os.path.abspath(__file__))


def _cpu_flags():
    try:
        with open("/proc/cpuinfo") as fh:
            return {flag for line in fh if line.startswith("flags")
                    for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


def unavailable(flag):
    """Why a core that needs the CPU flag ``flag`` cannot run here, or None."""
    if platform.machine() != "x86_64":
        return "OpenBLAS core types are x86-64 kernels"
    if flag and flag not in _cpu_flags():
        return f"this CPU lacks {flag}"
    return None


def start(core, source, *args):
    """The Python ``source`` started with ``args`` in a child process under
    the OpenBLAS ``core`` on one thread, with src/ and tests/ on its path;
    read its (stdout, stderr) with ``communicate``."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(_TESTS), "src"), _TESTS]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.Popen([sys.executable, "-c", source, *args], text=True, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
