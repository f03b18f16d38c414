"""In-memory spans around the program's public functions.

Each traced function is replaced, under the name its calling module uses for
it (``pdckit.pipeline.compute_pdc`` is the ``compute_pdc`` that
``pdckit.pipeline`` calls), by a wrapper that records one span: name, start,
end, parent span and op id. Spans stay in memory until the run ends. The
program's own code is not changed; uninstalling restores every attribute.
"""

from __future__ import annotations

import importlib
import threading
import time

import numpy as np

# (module, attribute) pairs, outermost first. The module is the caller.
TRACED = [
    ("pdckit.cli", "main"),
    ("pdckit.cli", "read_config_json"),
    ("pdckit.cli", "read_markers_csv"),
    ("pdckit.cli", "read_recording_csv"),
    ("pdckit.cli", "run_pipeline"),
    ("pdckit.cli", "write_report"),
    ("pdckit.pipeline", "extract_segments"),
    ("pdckit.pipeline", "screen_stationarity"),
    ("pdckit.pipeline", "select_order"),
    ("pdckit.pipeline", "fit_var"),
    ("pdckit.pipeline", "check_stability"),
    ("pdckit.pipeline", "compute_pdc"),
    ("pdckit.pipeline", "average_over_segments"),
    ("pdckit.pipeline", "band_average"),
    ("pdckit.pipeline", "compare_conditions"),
    ("pdckit.var", "fit_var"),
    ("pdckit.pdc", "evaluate_transfer"),
    ("pdckit.stats", "compare_conditions"),
    ("pdckit.stats", "wilcoxon_signed_rank"),
    ("pdckit.stats", "holm_bonferroni"),
]

# Outcomes counted at the boundary, from the return value: name -> result -> (tag, n).
_OUTCOMES = {
    "pdckit.pipeline.screen_stationarity": lambda r: ("passed" if r.passed else "rejected", 1),
    "pdckit.pipeline.check_stability": lambda r: ("stable" if r else "unstable", 1),
    "pdckit.pipeline.extract_segments": lambda r: ("segments", len(r)),
}


class Tracer:
    """Span recorder. One instance per run; not shared between runs."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []        # (name index, start, end, parent index, op id)
        self.tags: dict = {}         # (name, tag) -> count, this op
        self.orders: list = []       # chosen orders of this op, in call order
        self.op_id = -1
        self._root_stack = None      # open spans of the thread that began the op
        self._stack = threading.local()
        self._lock = threading.Lock()
        self._saved: list = []
        self._first = 0

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        outcome = _OUTCOMES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(self._stack, "spans", None)
            if stack is None:
                stack = self._stack.spans = []
            if stack:
                parent = stack[-1]
            elif self._root_stack:
                # a pool thread: its caller is the span the op's thread is in
                parent = self._root_stack[-1]
            else:
                parent = -1
                self._root_stack = stack
            with self._lock:
                span = len(self.spans)
                self.spans.append(None)
            stack.append(span)
            start = clock()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                self.spans[span] = (index, start, end, parent, self.op_id)
                if raised:
                    self._count(name, "raised", 1)
                elif outcome is not None:
                    self._count(name, *outcome(result))
                elif name == "pdckit.pipeline.select_order":
                    self.orders.append(result.chosen_p)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _count(self, name: str, tag: str, n: int):
        with self._lock:
            self.tags[(name, tag)] = self.tags.get((name, tag), 0) + n

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._root_stack = None
        self._first = len(self.spans)
        self.tags = {}
        self.orders = []

    def op_summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over the spans of the last op.

        Self time is a span's duration minus the union of its children's
        intervals, so children that overlap (pool threads) count once.
        """
        arr = np.array(self.spans[self._first:], dtype=float).reshape(-1, 5)
        name_idx = arr[:, 0].astype(int)
        start, end = arr[:, 1], arr[:, 2]
        parent = arr[:, 3].astype(int) - self._first
        children: dict = {}
        for i in np.nonzero(parent >= 0)[0]:
            children.setdefault(int(parent[i]), []).append(i)
        covered = np.zeros(len(arr))
        for p, kids in children.items():
            intervals = sorted(zip(start[kids], end[kids]))
            total, lo, hi = 0.0, intervals[0][0], intervals[0][1]
            for s, e in intervals[1:]:
                if s > hi:
                    total += hi - lo
                    lo, hi = s, e
                else:
                    hi = max(hi, e)
            covered[p] = total + hi - lo
        duration = end - start
        out = {}
        for i, name in enumerate(self.names):
            mask = name_idx == i
            out[name] = {"calls": int(mask.sum()),
                         "total_s": float(duration[mask].sum()),
                         "self_s": float((duration[mask] - covered[mask]).sum())}
        return out

    def tag(self, name: str, tag: str) -> int:
        return self.tags.get((name, tag), 0)

    def save(self, path: str):
        """Write every span as arrays (names, start, end, parent, op)."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez_compressed(path, names=np.array(self.names), name=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2], parent=arr[:, 3].astype(np.int64),
                            op=arr[:, 4].astype(np.int32))
