"""Span tracing of epsteinzeta's public functions, installed from outside the package.

Each traced function is replaced, at the name its caller module looks up,
by a wrapper that records one span: name, start, end, parent span and an
optional work count (array elements for the scipy kernel, pairs for the
convexity certificate).  Spans live in flat in-memory arrays and are written
once, when the run ends.  A binding that a later version of the package no
longer has is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array

import numpy as np


def _array_size(args, kwargs, result) -> int:
    return int(np.size(args[1]))


def _pairs_checked(args, kwargs, result) -> int:
    return int(result.pairs_checked)


def bindings(ez):
    """(module, attribute, span name, work counter) for every traced call site.

    A function is wrapped where its caller binds it, so a call made through
    one module's name is traced once, and the package namespace covers the
    calls the benchmark itself makes.
    """
    from epsteinzeta import analysis, chowla, convexity, epstein, regions

    return [
        (epstein, "theta", "specfun.theta", None),
        (epstein, "gammaincc", "kernel", _array_size),
        (epstein, "expn", "kernel", _array_size),
        (epstein, "gamma_kernel_sum_multi", "epstein.gamma_kernel_sum_multi", None),
        (ez, "xi", "epstein.xi", None),
        (analysis, "xi", "epstein.xi", None),
        (convexity, "xi", "epstein.xi", None),
        (regions, "xi", "epstein.xi", None),
        (analysis, "decide_sign", "analysis.decide_sign", None),
        (regions, "decide_sign", "analysis.decide_sign", None),
        (ez, "verify_negative_range", "analysis.verify_negative_range", None),
        (analysis, "verify_negative_range", "analysis.verify_negative_range", None),
        (ez, "critical_sign_certificates", "analysis.critical_sign_certificates", None),
        (ez, "find_positive_interval", "analysis.find_positive_interval", None),
        (ez, "verify_minimum_at_equal_scales", "convexity.verify_minimum_at_equal_scales", None),
        (ez, "midpoint_convexity_xi", "convexity.midpoint_convexity_xi", None),
        (ez, "scan", "regions.scan", None),
        (ez, "certify_connected", "regions.certify_connected", None),
        (ez, "certify_discrete_convex", "regions.certify_discrete_convex", _pairs_checked),
        (ez, "xi_chowla_selberg", "chowla.xi_chowla_selberg", None),
        (chowla, "bessel_k", "specfun.bessel_k", None),
        (chowla, "riemann_zeta", "specfun.riemann_zeta", None),
    ]


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.missing: list[str] = []
        self._restore: list = []
        self._stack = [-1]
        self.clear()

    def clear(self) -> None:
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.work.append(0)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                self.work[idx] = counter(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def install(self, ez) -> None:
        for module, attr, name, counter in bindings(ez):
            self.wrap(module, attr, name, counter)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def summary(self) -> dict:
        """Per-layer figures of the spans recorded since the last clear()."""
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = (np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)) * 1e-9
        work = np.array(self.work, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out = {}
        for i, label in enumerate(self.names):
            mine = name == i
            out[label] = {
                "calls": int(mine.sum()),
                "s": float(dur[mine].sum()),
                "self_s": float(self_time[mine].sum()),
                "work": int(work[mine].sum()),
            }
        # xi calls under a decide_sign span beyond its first one
        if "analysis.decide_sign" in self.names and "epstein.xi" in self.names:
            sign_id = self.names.index("analysis.decide_sign")
            under = has_parent & (name == self.names.index("epstein.xi"))
            under &= name[np.where(has_parent, parent, 0)] == sign_id
            per_decision = np.bincount(parent[under], minlength=len(dur))
            refinements = int(np.maximum(per_decision - 1, 0).sum())
        else:
            refinements = 0
        out["analysis.decide_sign"] = dict(
            out.get("analysis.decide_sign", {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}),
            refinements=refinements,
        )
        return out

    def write(self, path, label: str) -> None:
        """All recorded spans as gzip CSV: id,parent,name,start_ns,end_ns,work."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write(f"# {label}\nid,parent,name,start_ns,end_ns,work\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]},{self.work[i]}\n"
                )
