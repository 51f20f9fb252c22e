"""An in-memory span tracer that wraps functions from outside the program.

A span is one call of a wrapped function: its id, the id of the innermost
enclosing span (-1 at the top), the op it belongs to, its name, and its start
and end in perf_counter nanoseconds.  Self time is the span's duration minus
the time its child spans cover; calls run on one thread and nest, so the
children's durations add up without overlap.  Spans stay in memory until
`write` at the end of the run.
"""

import gzip
from array import array
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.amounts: Counter = Counter()
        self.errors: Counter = Counter()  # (name, exception class name)
        self._names: dict[str, int] = {}
        # id, parent id, op id, name index, start ns, end ns per span
        self._spans = array("q")
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name, fn, split=None):
        """A wrapper of fn that records a span per call while active; `split`
        maps the call's arguments to a suffix of the span name."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            key = name if split is None else f"{name}.{split(*args, **kwargs)}"
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[key, type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.calls[key] += 1
                tracer.self_ns[key] += duration - frame[1]
                tracer._spans.extend(
                    (sid, -1 if parent is None else parent[0], tracer.op_id,
                     tracer._name_index(key), start, end)
                )

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn, amount=None):
        """A wrapper of fn that counts calls, exceptions and, if given,
        `amount(*args)` per call while active, without recording a span."""
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
                if amount is not None:
                    tracer.amounts[name] += amount(*args, **kwargs)
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    tracer.errors[name, type(exc).__name__] += 1
                    raise
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _name_index(self, key):
        index = self._names.get(key)
        if index is None:
            index = self._names[key] = len(self._names)
        return index

    def patch(self, namespaces, original, replacement):
        """Rebind every name that holds `original` in the given modules or
        classes, because modules bind imported functions under their own names."""
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)
                    self._patches.append((ns, attr, original))

    def unpatch(self):
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    @property
    def span_count(self):
        return len(self._spans) // 6

    def write(self, path):
        """Write the spans as gzip'd CSV: id,parent,op,name,start_ns,end_ns."""
        names = {index: key for key, index in self._names.items()}
        spans = self._spans
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for i in range(0, len(spans), 6):
                fh.write(
                    f"{spans[i]},{spans[i + 1]},{spans[i + 2]},{names[spans[i + 3]]},"
                    f"{spans[i + 4]},{spans[i + 5]}\n"
                )
