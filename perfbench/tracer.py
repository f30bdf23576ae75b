"""Outside-in tracing of diagsemi, installed from the benchmark's files.

``Tracer.install()`` replaces the public functions and methods of
``engine``, ``census`` and ``kernels`` with wrappers that record one span
each (name, start, end, parent span, run id, counters), and the element
products of ``elements`` with a wrapper that only aggregates a call count
and a time on the innermost open span: a span per product would cost
more than the product.  ``uninstall()`` puts the originals back, so
untraced passes in the same process run the program unchanged.  One
tracer records one pass.

Self time of a span is its duration minus its child spans minus the
products attributed to it; products are the ``elements`` layer.
"""

import os
from collections import defaultdict
from functools import wraps
from time import perf_counter

# span record fields
NAME, START, END, PARENT, RUN, ATTRS = range(6)


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = -1
        self.mul_calls = defaultdict(int)  # innermost span index -> products
        self.mul_s = defaultdict(float)
        self.runs = []  # run id -> label of its root call
        self._patches = []
        self._tables = {}

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, measure=None):
        """Wrap ``fn`` so that every call records a span named ``name``;
        ``measure(args, result)`` returns counters stored on the span."""
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if measure is not None:
                rec[ATTRS] = measure(args, result)
            return result
        return traced

    def product(self, fn):
        stack, calls, secs = self.stack, self.mul_calls, self.mul_s

        @wraps(fn)
        def traced(a, b):
            t0 = perf_counter()
            result = fn(a, b)
            dt = perf_counter() - t0
            top = stack[-1] if stack else -1
            calls[top] += 1
            secs[top] += dt
            return result
        return traced

    def run(self, label, fn, *args):
        """Call ``fn(*args)`` as the root span ``cli`` of a new run id."""
        self.run_id += 1
        self.runs.append(label)
        return self.span("cli", fn)(*args)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        from diagsemi import census, elements, engine, kernels

        for cls in (elements.PBR, elements.Bipartition, elements.MapElement):
            self._patch(cls, "__mul__", self.product(cls.__mul__))

        self._patch(engine, "enumerate_semigroup", self.span(
            "engine.enumerate", engine.enumerate_semigroup,
            lambda args, S: {"elements": len(S)}))
        self._patch(engine, "green_structure",
                    self.span("engine.green", engine.green_structure))
        self._patch(engine, "eggbox", self.span("engine.eggbox", engine.eggbox))
        for fn in ("write_green_json", "write_pgm"):
            self._patch(engine, fn, self.span("engine.write",
                                              getattr(engine, fn), _file_bytes))

        def table_bytes(args, table):
            # the table is cached on the semigroup: count each array once
            if id(table) in self._tables:
                return None
            self._tables[id(table)] = table
            return {"bytes": table.nbytes}
        self._patch(engine.EnumeratedSemigroup, "multiplication_table", self.span(
            "engine.table", engine.EnumeratedSemigroup.multiplication_table,
            table_bytes))

        self._patch(census, "symmetry_group", self.span(
            "census.symmetry_group", census.symmetry_group,
            lambda args, G: {"group_order": len(G)}))
        self._patch(census, "all_subsemigroup_masks", self.span(
            "census.search", census.all_subsemigroup_masks,
            lambda args, masks: {"raw_sets": len(masks)}))
        self._patch(census, "census_up_to_conjugacy", self.span(
            "census.census", census.census_up_to_conjugacy,
            lambda args, res: {"classes": len(res[0]), "raw_sets": res[1]}))
        for fn in ("write_records_jsonl", "write_histogram_csv", "write_joint_csv"):
            self._patch(census, fn, self.span("census.write",
                                              getattr(census, fn), _file_bytes))

        backend = kernels.Backend
        self._patch(backend, "extend_window", self.span(
            "kernels.extend_window", backend.extend_window,
            lambda args, out: {"closures": len(out)}))
        for fn in ("min_image", "count_dclasses", "count_idempotents"):
            self._patch(backend, fn, self.span(f"kernels.{fn}", getattr(backend, fn)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - child[i] - self.mul_s.get(i, 0.0)
                for i, rec in enumerate(self.spans)]

    def check_nesting(self):
        """Problems with span nesting and self times; empty when sound."""
        problems = []
        selfs = self.self_times()
        for i, rec in enumerate(self.spans):
            if rec[END] < rec[START]:
                problems.append(f"span {i} {rec[NAME]} ends before it starts")
            p = rec[PARENT]
            if p >= 0:
                outer = self.spans[p]
                if not (outer[START] <= rec[START] and rec[END] <= outer[END]):
                    problems.append(f"span {i} {rec[NAME]} leaves parent {p}")
                if outer[RUN] != rec[RUN]:
                    problems.append(f"span {i} {rec[NAME]} changes run id")
            if selfs[i] < -1e-9:
                problems.append(f"span {i} {rec[NAME]} self time {selfs[i]:.3g} < 0")
        return problems

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds, products,
        product seconds and summed counters."""
        out = {}
        for i, (rec, self_s) in enumerate(zip(self.spans, self.self_times())):
            t = out.setdefault(rec[NAME], defaultdict(float))
            t["calls"] += 1
            t["s"] += rec[END] - rec[START]
            t["self_s"] += self_s
            t["mul_calls"] += self.mul_calls.get(i, 0)
            t["mul_s"] += self.mul_s.get(i, 0.0)
            for key, value in (rec[ATTRS] or {}).items():
                t[key] += value
        return out
