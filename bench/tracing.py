"""Span tracing of the program's layers, installed from outside the package.

The tracer replaces each listed public function with a wrapper in every
``semistab`` module namespace that bound it, so calls made through
``from .arith import valuation`` are seen as well as calls through
``semistab.arith.valuation``. A span records its name, start, end, parent
span and thread; spans stay in memory until the run ends. A few very hot
functions only get a call counter, because a span per call would cost more
than the call itself.
"""

from __future__ import annotations

import array
import functools
import gzip
import threading
from time import perf_counter

# (module, function) pairs timed with spans. The metric prefix is
# "<module>.<function>".
SPANNED = (
    ("arith", "factorize"),
    ("arith", "valuation"),
    ("arith", "is_prime"),
    ("curves", "compute_invariants"),
    ("curves", "minimalize_at_p"),
    ("monodromy", "semistability_degree"),
    ("monodromy", "bad_primes"),
    ("monodromy", "phi_general_curve"),
    ("monodromy", "phi_family_at_2"),
    ("monodromy", "phi_family_at_3"),
    ("cover", "enumerate_cover"),
    ("cover", "locate"),
    ("galois", "galois_closure"),
    ("galois", "enumerate_subgroups"),
    ("galois", "isomorphic"),
    ("galois", "fixed_point_check"),
    ("galois", "classify_point"),
    ("cli", "degree_report_data"),
    ("cli", "general_report_data"),
    ("cli", "sweep_record"),
    ("cli", "main"),
)

# (module, function) pairs that only count calls.
COUNTED = (("galois", "compose"),)


class Tracer:
    """In-memory span store plus call counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("H")
        self.begin = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.thread = array.array("H")
        self.counts: dict[str, list[int]] = {}
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the listed functions in every namespace of ``modules``.

        ``modules`` maps short names ("arith", "cli", ...) and the package
        itself to freshly imported module objects.
        """
        wrappers = {}
        for short, fn_name in SPANNED:
            original = getattr(modules[short], fn_name)
            wrappers[id(original)] = (original, self._spanned(f"{short}.{fn_name}", original))
        for short, fn_name in COUNTED:
            original = getattr(modules[short], fn_name)
            wrappers[id(original)] = (original, self._counted(f"{short}.{fn_name}", original))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _spanned(self, name: str, fn):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._main_thread and tracer._main_stack:
                # A worker thread's outermost span was caused by whatever the
                # client thread has open while it waits (e.g. cli.main).
                parent = tracer._main_stack[-1]
            else:
                parent = -1
            with tracer._lock:
                index = len(tracer.begin)
                tracer.name_id.append(name_id)
                tracer.parent.append(parent)
                tracer.thread.append(tracer._thread_no())
                tracer.end.append(0.0)
                tracer.begin.append(perf_counter())
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter()
                stack.pop()

        return span

    def _counted(self, name: str, fn):
        # Only the single client thread calls counted functions, so the
        # unlocked increment loses no updates.
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counting(*args):
            cell[0] += 1
            return fn(*args)

        return counting

    def _thread_no(self) -> int:
        ident = threading.get_ident()
        number = self._threads.get(ident)
        if number is None:
            number = self._threads[ident] = len(self._threads)
        return number

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)} for every name seen.

        Self time is a span's duration minus the union of its children's
        intervals; children from worker threads may overlap each other.
        """
        children: dict[int, list[int]] = {}
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        begin, end = self.begin, self.end
        for index, name_id in enumerate(self.name_id):
            own = end[index] - begin[index]
            kids = children.get(index)
            if kids:
                covered = 0.0
                reach = begin[index]
                for b, e in sorted((begin[k], end[k]) for k in kids):
                    b = max(b, reach)
                    if e > b:
                        covered += e - b
                        reach = e
                own -= covered
            calls[name_id] += 1
            self_s[name_id] += own
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def count(self, name: str) -> int:
        cell = self.counts.get(name)
        return cell[0] if cell else 0

    def write(self, path) -> None:
        """Write every span as gzip CSV: name,start,end,parent,thread.

        Times are seconds from the first span; parent is a row number
        (0-based, header excluded) or -1.
        """
        t0 = self.begin[0] if self.begin else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,thread\n")
            names = self.names
            for i in range(len(self.begin)):
                fh.write(
                    f"{names[self.name_id[i]]},{self.begin[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.thread[i]}\n"
                )
