"""Spans and counters recorded around calls into sectorflow's layers.

The traced run replaces module attributes of sectorflow with wrappers from
this file, so the program itself is not edited. A span is (name, start,
end, parent span, operation id, raised); a counter counts calls per
operation. Both are kept in memory and written out when the run ends.
Nothing is recorded outside an operation, so the benchmark's own checks,
which also call evaluate, do not inflate the counts.
"""

import functools
import gzip
import json
from collections import defaultdict
from statistics import median
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op_kind = {}
        self._stack = []
        self._op = None

    def begin_op(self, op_id, kind):
        self._op = op_id
        self.op_kind[op_id] = kind

    def end_op(self):
        self._op = None

    def add_span(self, name, start, end, parent=-1, raised=False):
        """Record a span measured elsewhere, such as inside a child process."""
        self.spans.append((name, start, end, parent, self._op, raised))
        return len(self.spans) - 1

    def span(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, op, raised)

        return wrapper

    def counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is not None:
                counts[(self._op, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, module, attr, name, count_only=False):
        """Replace module.attr by a span (or counter) wrapper named name."""
        fn = getattr(module, attr)
        wrap = self.counter if count_only else self.span
        setattr(module, attr, wrap(fn, name))

    # ------------------------------------------------------------ reduction

    def per_op(self, self_time=False):
        """{(op, name): seconds}: total (or self) time of each span per op."""
        child = defaultdict(float)
        if self_time:
            for name, start, end, parent, op, _ in self.spans:
                if parent >= 0:
                    child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, op, _) in enumerate(self.spans):
            out[(op, name)] += end - start - child.get(i, 0.0)
        return out

    def span_metric(self, totals, name, kind, scale):
        """Median over operations of one kind of a span's time per op.

        totals is a per_op() result, computed once for many metrics.
        """
        values = [
            v * scale
            for (op, n), v in totals.items()
            if n == name and self.op_kind.get(op) == kind
        ]
        return median(values) if values else None

    def span_count_metric(self, name, kind):
        """Median over operations of one kind of the number of spans."""
        calls = defaultdict(int)
        for span in self.spans:
            if span[0] == name:
                calls[span[4]] += 1
        values = [calls[op] for op, k in self.op_kind.items() if k == kind]
        return float(median(values)) if values else None

    def count_metric(self, name, kind):
        values = [
            n
            for (op, key), n in self.counts.items()
            if key == name and self.op_kind.get(op) == kind
        ]
        return float(median(values)) if values else None

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op, raised in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, raised]) + "\n")
            for (op, name), n in sorted(self.counts.items()):
                fh.write(json.dumps(["count", name, op, n]) + "\n")
