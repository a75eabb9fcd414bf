"""Span tracing of the unruhsim modules, applied from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds every
name that refers to it: module globals of every loaded ``unruhsim``
module (so ``channels.validate_density`` and ``state.validate_density``
both record), the values of module-level dicts (dispatch tables such as
``analytic._LAMBDAS``) and ``numpy.linalg.eigvalsh``.  ``uninstall``
restores every rebound name.  A target that no longer exists is listed
in ``absent`` and reported as zero, so the benchmark keeps working while
the internals are renamed or deleted.

Spans (name, start, end, parent, run id) are kept in memory as flat
arrays, because a figure-3 pass records close to a million of them.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import array
import functools
import importlib
import math
import os
import sys
import time

import numpy as np

PACKAGE = "unruhsim"

# (module, function, metric group).  Modules are package-relative unless
# they are absolute (numpy.*).
TARGETS = (
    ("state", "unruh_state", "state.unruh_state"),
    ("state", "validate_density", "state.validate_density"),
    ("channels", "qubit_channel", "channels.kraus_build"),
    ("channels", "qutrit_channel", "channels.kraus_build"),
    ("channels", "lift_qubit", "channels.kraus_build"),
    ("channels", "lift_qutrit", "channels.kraus_build"),
    ("channels", "collective_set", "channels.kraus_build"),
    ("channels", "completeness_defect", "channels.completeness_defect"),
    ("channels", "apply", "channels.apply"),
    ("channels", "apply_unchecked", "channels.apply"),
    ("channels", "evolve", "channels.evolve"),
    ("channels", "multilocal_evolve", "channels.evolve"),
    ("channels", "global_evolve", "channels.evolve"),
    ("entanglement", "negativity", "entanglement.negativity"),
    ("entanglement", "partial_transpose_qubit", "entanglement.partial_transpose_qubit"),
    ("linalg", "hermitian_eigenvalues", "linalg.hermitian_eigenvalues"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("analytic", "verify_against_numeric", "analytic.verify_against_numeric"),
    ("analytic", "phase_flip_lambda", "analytic.lambda"),
    ("analytic", "dephasing_lambda", "analytic.lambda"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("sweep", "esd_threshold", "sweep.esd_threshold"),
    ("sweep", "write_csv", "sweep.write"),
    ("sweep", "write_plot_data", "sweep.write"),
    ("cli", "main", "cli.main"),
)

GROUPS = tuple(dict.fromkeys(group for _, _, group in TARGETS))
LAYERS = tuple(dict.fromkeys(group.split(".")[0] for group in GROUPS))

EVOLVE = "channels.evolve"  # span name whose calls define spec reuse
ESD = "sweep.esd_threshold"


def span_name(module: str, function: str) -> str:
    return f"{module}.{function}"


def _module(name: str):
    full = name if name.startswith("numpy") else f"{PACKAGE}.{name}"
    try:
        return importlib.import_module(full)
    except ImportError:
        return None


def self_times(parent, start, end) -> np.ndarray:
    """Self time of every span: its duration minus its direct children's.

    ``parent`` holds the index of each span's parent, or -1 for a root.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested],
                           minlength=len(duration))
    return duration - children


class Tracer:
    """Records spans around the target functions while installed."""

    def __init__(self, run_id: int = 0, targets=TARGETS):
        self.run_id = run_id
        self.targets = targets
        self.names: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.absent: list[str] = []
        self.specs: set = set()
        self.eigvalsh_matrices = 0
        self.write_bytes = 0
        self._stack = [-1]
        self._patched: list[tuple[dict, object, object]] = []

    # -- hooks run after a call returns ------------------------------------

    def _record_spec(self, args, kwargs):
        spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
        try:
            self.specs.add(spec)
        except TypeError:  # an unhashable spec is counted by its repr
            self.specs.add(repr(spec))

    def _count_matrices(self, args, kwargs):
        shape = np.shape(args[0] if args else kwargs.get("a"))
        self.eigvalsh_matrices += math.prod(shape[:-2])

    def _count_bytes(self, args, kwargs):
        destination = args[1] if len(args) > 1 else kwargs.get("destination")
        try:
            self.write_bytes += os.path.getsize(destination)
        except (OSError, TypeError):
            pass

    def _hook(self, name: str):
        return {
            span_name("channels", "evolve"): self._record_spec,
            span_name("numpy.linalg", "eigvalsh"): self._count_matrices,
            span_name("sweep", "write_csv"): self._count_bytes,
            span_name("sweep", "write_plot_data"): self._count_bytes,
        }.get(name)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        hook = self._hook(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs)
            return result

        return traced

    # -- install / uninstall ------------------------------------------------

    def install(self) -> "Tracer":
        wrappers = {}  # id(original) -> (original, wrapper)
        modules = {}
        for module, function, _ in self.targets:
            mod = _module(module)
            fn = getattr(mod, function, None) if mod is not None else None
            if not callable(fn):
                self.absent.append(span_name(module, function))
                continue
            modules[module] = mod
            wrappers[id(fn)] = (fn, self._wrap(fn, span_name(module, function)))
        namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        namespaces += [vars(m) for n, m in modules.items() if n.startswith("numpy")]
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                self._rebind(namespace, key, value, wrappers)
                if type(value) is dict and key != "__builtins__":
                    for k, v in list(value.items()):
                        self._rebind(value, k, v, wrappers)
        return self

    def _rebind(self, table: dict, key, value, wrappers) -> None:
        entry = wrappers.get(id(value))
        if entry is not None and entry[0] is value:
            self._patched.append((table, key, value))
            table[key] = entry[1]

    def uninstall(self) -> None:
        while self._patched:
            table, key, original = self._patched.pop()
            table[key] = original

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------------

    def spans(self):
        """Every recorded span as (name, start, end, parent, run id)."""
        for i in range(len(self.name)):
            yield (self.names[self.name[i]], self.start[i], self.end[i],
                   self.parent[i], self.run_id)

    def summary(self) -> dict:
        """Per span name: calls and self time; plus the pass-level counts."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        selfs = self_times(parent, self.start, self.end)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_ns = np.bincount(name, weights=selfs, minlength=n)
        return {
            "calls": {self.names[i]: int(calls[i]) for i in range(n)},
            "self_ns": {self.names[i]: float(self_ns[i]) for i in range(n)},
            "esd_evals": self._count_under(name, parent, EVOLVE, ESD),
            "distinct_specs": len(self.specs),
            "eigvalsh_matrices": self.eigvalsh_matrices,
            "write_bytes": self.write_bytes,
            "absent": list(self.absent),
        }

    def _count_under(self, name, parent, child: str, ancestor: str) -> int:
        """Spans named ``child`` that have an ancestor named ``ancestor``."""
        if child not in self.names or ancestor not in self.names:
            return 0
        child_id, ancestor_id = self.names.index(child), self.names.index(ancestor)
        if not np.any(name == ancestor_id):
            return 0
        names = name.tolist()
        inside = [n == ancestor_id for n in names]
        count = 0
        # Parents precede their children, so one pass in index order
        # carries the flag down every chain.
        for i, p in enumerate(parent.tolist()):
            if p >= 0 and inside[p]:
                inside[i] = True
                count += names[i] == child_id
        return count
