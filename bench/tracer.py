"""Outside-in span tracer for the spectrace layers.

The tracer wraps public functions of the six spectrace modules from
outside; no library file changes. Because each module binds the names it
imports (``from .linalg import sym_eigvalues``), a wrapper is installed
on every spectrace module whose attribute *is* the original function, so
calls through any import site are seen. ``TestFunction.deriv`` is
wrapped at class level.

Spans (name, parent, start, end) are kept in memory in flat arrays and
written out once, when the run ends. A span's self time is its duration
minus the durations of its direct children; calls run on one thread, so
siblings never overlap and the children's durations are exactly the time
they cover.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute path) of every wrapped name; the span label is
# "<module>.<attribute path>".
TARGETS = (
    ("linalg", "sym_eigvalues"),
    ("linalg", "rng_from"),
    ("linalg", "sample_gaussian"),
    ("linalg", "derive_seed"),
    ("functions", "tau_f"),
    ("functions", "TestFunction.deriv"),
    ("estimators", "jackknife_estimate"),
    ("estimators", "aggregate_estimate"),
    ("estimators", "make_scheme"),
    ("theory", "gaussian_limit_std"),
    ("montecarlo", "run"),
    ("montecarlo", "normality_check"),
    ("montecarlo", "write_result_csvs"),
    ("montecarlo", "write_qq_csv"),
    ("cli", "main"),
)

# Relative threshold under which a returned eigenvalue counts as null,
# i.e. work a dual Gram would not have done.
NULL_REL = 1e-10


# Per-label hooks that keep a small value per call for counters computed
# after the traced call ends, so the hook adds no work inside the span.
_KEEP = {
    "linalg.sym_eigvalues": lambda args, kwargs, out: out,
}


class Tracer:
    """Installs wrappers on entry, restores the originals on exit."""

    def __init__(self) -> None:
        self.labels = [f"{mod}.{attr}" for mod, attr in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.kept: dict[str, list] = {label: [] for label in _KEEP}
        self.sites: dict[str, list[str]] = {}
        self._stack = [-1]
        self._thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    # --- install / uninstall ------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "spectrace" or name.startswith("spectrace."))
        }
        for label_id, (mod_name, attr) in enumerate(TARGETS):
            label = self.labels[label_id]
            home = modules[f"spectrace.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._bind(cls, meth, self._wrap(label_id, label, original))
                self.sites[label] = [f"spectrace.{mod_name}.{cls_name}"]
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(label_id, label, original)
            self.sites[label] = []
            for mod_name_full, mod in sorted(modules.items()):
                if getattr(mod, attr, None) is original:
                    self._bind(mod, attr, wrapper)
                    self.sites[label].append(mod_name_full)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, label_id: int, label: str, fn):
        start, end, name, parent = self.start, self.end, self.name, self.parent
        stack = self._stack
        keep = _KEEP.get(label)
        kept = self.kept.get(label)
        owner_thread = self._thread

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != owner_thread:
                raise RuntimeError(
                    f"{label} called from another thread; the tracer needs workers=1"
                )
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name.append(label_id)
            parent.append(stack[-1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if keep is not None:
                kept.append(keep(args, kwargs, out))
            return out

        return wrapper

    # --- summaries ------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; pass it to :meth:`layer_stats` later."""
        return len(self.start)

    def layer_stats(self, since: int = 0) -> dict[str, float]:
        """Per-label calls and self time over spans recorded since ``since``.

        Also folds in the kept per-call values (eigensolve work, null
        eigenvalues) and clears them.
        """
        n_labels = len(self.labels)
        # copies, so the arrays can keep growing afterwards
        start = np.array(self.start[since:], dtype=float)
        end = np.array(self.end[since:], dtype=float)
        name = np.array(self.name[since:], dtype=np.int64)
        parent = np.array(self.parent[since:], dtype=np.int64)
        dur = end - start
        local_parent = parent - since
        inner = local_parent >= 0
        child_time = np.bincount(
            local_parent[inner], weights=dur[inner], minlength=dur.size
        )
        self_time = dur - child_time
        calls = np.bincount(name, minlength=n_labels)
        self_s = np.bincount(name, weights=self_time, minlength=n_labels)
        stats: dict[str, float] = {}
        for i, label in enumerate(self.labels):
            stats[f"{label}.calls"] = int(calls[i])
            stats[f"{label}.self_s"] = float(self_s[i])
        eigs = self.kept["linalg.sym_eigvalues"]
        dims = np.array([lam.size for lam in eigs], dtype=float)
        nulls = sum(
            int(np.count_nonzero(np.abs(lam) <= NULL_REL * np.max(np.abs(lam))))
            for lam in eigs
        )
        stats["linalg.sym_eigvalues.dim3_sum"] = float(np.sum(dims ** 3))
        stats["linalg.sym_eigvalues.null_frac"] = (
            nulls / float(dims.sum()) if dims.size else 0.0
        )
        for values in self.kept.values():
            values.clear()
        return stats

    def write(self, path: Path) -> None:
        """Write every span recorded so far as a compressed npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )
