"""Per-layer tracing of memchan from outside the program.

``Tracer.install`` wraps the public functions of each module in
``LAYERS`` wherever callers look them up: every memchan module attribute
bound to the function, and module-level tuples that hold it (such as
``cli.VERIFY_CHECKS``).  Classes are timed through ``__init__``.  A module
or function that no longer exists is recorded as absent, so tracing keeps
working after a refactor renames or deletes it.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it called, and is charged to the span's module;
``cli.main`` is the root span of every op, so module self times add up to
the traced op time.  Each function's own self time is kept as well: the
root's share is the op time that no wrapped function below ``cli.main``
covers.  The timed runs never install the tracer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = {
    "linalg": ("hermitian_eigen", "solve_linear"),
    "channels": ("DensityMatrix", "apply", "build_memory_channel", "check_cptp"),
    "lindblad": (
        "dual_basis",
        "evolve",
        "evolve_superoperator",
        "kraus_equivalence",
        "verify_eigen",
        "duality_residual",
    ),
    "capacity": (
        "mutual_information_numeric",
        "von_neumann_entropy",
        "theta_ensemble",
        "i2_ad_closed",
        "i2_depolarizing_closed",
        "threshold_numeric",
        "product_memory_inequality",
    ),
    "cli": (
        "main",
        "compute_sweep",
        "sweep_csv",
        "check_cptp_constructors",
        "check_eigenoperators",
        "check_duality",
        "check_kraus_lindblad",
        "check_uncorrelated_dephasing",
        "check_closed_forms",
    ),
}

FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)
APPLY = "channels.apply"
BUILD = "channels.build_memory_channel"
THRESHOLD = "capacity.threshold_numeric"


class Tracer:
    """Call counts, inclusive seconds and per-module self seconds."""

    def __init__(self):
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.seconds = dict.fromkeys(FUNCTIONS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.fn_self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.kraus_ops = 0  # Kraus operators applied by channels.apply
        self.gap_evals = 0  # channels built inside threshold_numeric
        self.absent = []
        self._stack = []  # child seconds of each open span
        self._in_threshold = 0

    def install(self, package: str = "memchan") -> "Tracer":
        for module_name, names in LAYERS.items():
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.absent.extend(f"{module_name}.{name}" for name in names)
                continue
            for name in names:
                key = f"{module_name}.{name}"
                target = getattr(module, name, None)
                if target is None:
                    self.absent.append(key)
                elif isinstance(target, type):
                    target.__init__ = self._wrap(key, module_name, target.__init__)
                else:
                    self._rebind(package, target, self._wrap(key, module_name, target))
        return self

    @staticmethod
    def _rebind(package: str, original, wrapper) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                elif isinstance(value, tuple) and any(v is original for v in value):
                    setattr(module, attr, tuple(wrapper if v is original else v for v in value))

    def _wrap(self, key: str, module: str, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, seconds, self_s, fn_self_s = self.calls, self.seconds, self.self_s, self.fn_self_s
        is_apply, is_build, is_threshold = key == APPLY, key == BUILD, key == THRESHOLD

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            if is_apply and args:
                self.kraus_ops += len(getattr(args[0], "ops", ()))
            elif is_build and self._in_threshold:
                self.gap_evals += 1
            elif is_threshold:
                self._in_threshold += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                seconds[key] += elapsed
                self_s[module] += elapsed - child
                fn_self_s[key] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if is_threshold:
                    self._in_threshold -= 1

        return traced

    def snapshot(self) -> dict:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "self_s": self.self_s,
            "fn_self_s": self.fn_self_s,
            "kraus_ops": self.kraus_ops,
            "gap_evals": self.gap_evals,
            "absent": self.absent,
        }
