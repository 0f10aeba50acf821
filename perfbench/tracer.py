"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each traced public function of ``sicheck`` by a
wrapper in every ``sicheck`` module that holds a reference to it, so a call
is seen whichever module makes it.  A span is one row of ``COLUMNS``:
``parent`` is the row of the enclosing span on the same thread (-1 for
none) and ``op`` the benchmark operation that was running.  Each thread
appends rows to its own flat float array, which needs no lock and keeps a
Monte Carlo run's hundreds of thousands of spans small; ``dump`` writes
them once, at the end.  A traced
function that no longer exists is listed as absent instead of failing the
run.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from array import array

import numpy as np

#: (span name, module, attribute) for every traced public function.
TRACED = (
    ("cli.main", "sicheck.cli", "main"),
    ("dataset.load_dataset", "sicheck.dataset", "load_dataset"),
    ("index.fit_index_ols", "sicheck.index", "fit_index_ols"),
    ("bandwidth.select_bandwidth", "sicheck.bandwidth", "select_bandwidth"),
    ("bandwidth.mise", "sicheck.bandwidth", "mise"),
    ("smoother.loo_matrix", "sicheck.smoother", "loo_matrix"),
    ("kernels.quartic_kernel", "sicheck.kernels", "quartic_kernel"),
    ("score_test.standardized_test", "sicheck.score_test", "standardized_test"),
    ("score_test.maximin_test", "sicheck.score_test", "maximin_test"),
    ("omnibus.omnibus_test", "sicheck.omnibus", "omnibus_test"),
    ("special.normal_two_sided_p", "sicheck.special", "normal_two_sided_p"),
    ("special.chisq_sf", "sicheck.special", "chisq_sf"),
    ("special.chisq_quantile", "sicheck.special", "chisq_quantile"),
    ("special.chisq_cdf", "sicheck.special", "chisq_cdf"),
    ("simulate.generate", "sicheck.simulate", "generate"),
    ("simulate.monte_carlo", "sicheck.simulate", "monte_carlo"),
)
NAMES = tuple(name for name, _, _ in TRACED)

#: ``x1``/``x2`` hold per-span facts, NaN when unknown: n of the dense
#: matrix a ``loo_matrix`` call built; h1 and the lowest grid candidate of
#: a ``select_bandwidth`` call.
COLUMNS = ("name", "start", "end", "parent", "op", "x1", "x2")
_WIDTH = len(COLUMNS)
_BLANK = array("d", [math.nan] * _WIDTH)


def _loo_facts(args, kwargs, result):
    ranks = args[0] if args else kwargs["u_ranks"]
    return float(np.size(ranks)), math.nan


@functools.lru_cache(maxsize=64)
def _default_floor(n: int) -> float:
    from sicheck.bandwidth import default_bandwidth_grid

    return float(np.min(default_bandwidth_grid(n)))


def _select_facts(args, kwargs, result):
    grid = args[3] if len(args) > 3 else kwargs.get("grid")
    floor = _default_floor(args[0].n) if grid is None else float(np.min(grid))
    return float(result[0]), floor


_FACTS = {"smoother.loo_matrix": _loo_facts, "bandwidth.select_bandwidth": _select_facts}


class Tracer:
    def __init__(self):
        self.op = -1
        self.recording = True
        self.absent: list[str] = []
        self._buffers: list[array] = []  # one flat row array per recording thread
        self._lock = threading.Lock()
        self._local = threading.local()

    def install(self) -> None:
        for code, (name, module_name, attr) in enumerate(TRACED):
            target = getattr(sys.modules.get(module_name), attr, None)
            if target is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(code, target, _FACTS.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "sicheck":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapper)

    def _thread_state(self):
        buf, stack = array("d"), []
        with self._lock:
            self._buffers.append(buf)
        self._local.buf, self._local.stack = buf, stack
        return buf, stack

    def _wrap(self, code, fn, facts):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            try:
                buf, stack = local.buf, local.stack
            except AttributeError:
                buf, stack = self._thread_state()
            row = len(buf) // _WIDTH
            base = row * _WIDTH
            buf.extend(_BLANK)
            buf[base] = code
            buf[base + 3] = stack[-1] if stack else -1
            buf[base + 4] = self.op
            stack.append(row)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                buf[base + 1] = start
                buf[base + 2] = end
                if facts is not None and result is not None:
                    try:
                        buf[base + 5], buf[base + 6] = facts(args, kwargs, result)
                    except (LookupError, TypeError, AttributeError, ImportError, ValueError):
                        pass  # a changed signature leaves the facts NaN: reported absent

        return wrapper

    def dump(self, path) -> None:
        """Write all threads' rows as one array; parents are re-indexed."""
        parts, offset = [], 0
        for buf in self._buffers:
            rows = np.frombuffer(buf, dtype=float).reshape(-1, _WIDTH).copy()
            rows[rows[:, 3] >= 0, 3] += offset
            parts.append(rows)
            offset += len(rows)
        rows = np.concatenate(parts) if parts else np.empty((0, _WIDTH))
        np.savez(path, rows=rows, names=np.array(NAMES), absent=np.array(self.absent, dtype=str))


def self_times(rows: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = rows[:, 2] - rows[:, 1]
    own = duration.copy()
    parent = rows[:, 3].astype(int)
    has_parent = parent >= 0
    np.add.at(own, parent[has_parent], -duration[has_parent])
    return own
