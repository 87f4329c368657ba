"""Tracing from outside the package: spans at coarse boundaries, aggregated
counters at hot ones.

``Tracer.install`` replaces public functions and methods of the package with
timing wrappers, at the names where the package looks them up (for example
``chromaconn.solve.restricted_growth_strings``, which ``solve`` imported by
name), and ``uninstall`` puts the originals back.  No file under ``src/``
changes.

Spans (one record each, with a parent id) are opened around every solved
cell, checker build, witness extraction and ``verify_certificate`` call.
Per-call spans at the hot boundaries (path search, connectivity and cut
checks, proper-coloring checks, enumeration ``next()``) would number in the
millions, so those only add to per-boundary counters: calls, seconds and,
where a call can be wasted, accepted calls.  A hot call's time is charged to
the enclosing span's child time only when no other hot call encloses it, so
``duration - child time`` is a span's self time.
"""

from __future__ import annotations

import time

_perf = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "attrs", "start", "end", "child_s")

    def __init__(self, sid, parent, name, attrs, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.start = start
        self.end = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "attrs": self.attrs, "start": self.start, "end": self.end,
                "self_s": self.self_s}


class Hot:
    """Aggregate of one hot boundary."""

    __slots__ = ("calls", "seconds", "accepted", "items")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.accepted = 0
        self.items = 0  # paths returned, colorings yielded


class NullTracer:
    """Stand-in for untraced runs: cell spans cost one method call."""

    enabled = False

    def open(self, name, **attrs):
        pass

    def close(self):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.root = Span(0, None, "run", {}, _perf())
        self.stack = [self.root]
        self.spans = []
        self.hot = {}
        self.depth = 0  # hot calls currently open
        # enumeration bands of the optimizers, and counting enumeration
        self.band_nodes = 0
        self.infeasible_nodes = 0
        self.count_nodes = 0
        self._patches = []

    # ------------------------------------------------------------- spans

    def open(self, name, **attrs):
        span = Span(len(self.spans) + 1, self.stack[-1].id, name, attrs,
                    _perf())
        self.spans.append(span)
        self.stack.append(span)

    def close(self):
        span = self.stack.pop()
        span.end = _perf()
        self.stack[-1].child_s += span.duration

    def finish(self):
        self.root.end = _perf()

    def _span_wrapper(self, name, fn, **attrs):
        tracer = self

        def wrapper(*args, **kwargs):
            saved, tracer.depth = tracer.depth, 0
            tracer.open(name, **attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()
                tracer.depth = saved
        return wrapper

    # ------------------------------------------------------ hot counters

    def _agg(self, key) -> Hot:
        return self.hot.setdefault(key, Hot())

    def _hot_wrapper(self, key, fn, size=None):
        agg = self._agg(key)
        tracer = self

        def wrapper(*args, **kwargs):
            outer = tracer.depth == 0
            tracer.depth += 1
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                tracer.depth -= 1
                agg.calls += 1
                agg.seconds += dt
                if outer:
                    tracer.stack[-1].child_s += dt
            if result:
                agg.accepted += 1
            if size is not None:
                agg.items += size(result)
            return result
        return wrapper

    def _hot_generator(self, key, fn, bands=False):
        """Time each ``next()`` of a generator function's iterators.

        With ``bands``, a surjective enumeration that runs to its end is a
        palette size the optimizer proved infeasible.
        """
        agg = self._agg(key)
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            span = tracer.stack[-1]
            yielded = 0
            busy = 0.0
            complete = False
            try:
                while True:
                    t0 = _perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += _perf() - t0
                        complete = True
                        return
                    busy += _perf() - t0
                    yielded += 1
                    yield item
            finally:
                agg.calls += 1
                agg.items += yielded
                agg.seconds += busy
                if tracer.depth == 0:
                    span.child_s += busy
                if bands:
                    surjective = kwargs.get(
                        "surjective", args[2] if len(args) > 2 else False)
                    if surjective:
                        tracer.band_nodes += yielded
                        if complete:
                            tracer.infeasible_nodes += yielded
                    else:
                        tracer.count_nodes += yielded
        return wrapper

    # ---------------------------------------------------------- patching

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self, cc):
        graph, coloring, verify, solve, local = (
            cc.graph, cc.coloring, cc.verify, cc.solve, cc.local)
        canonical = self._hot_wrapper("graph.canonical_form",
                                      graph.canonical_form)
        self._patch(graph, "canonical_form", lambda f: canonical)
        self._patch(local, "canonical_form", lambda f: canonical)
        self._patch(verify, "uv_bipartitions",
                    lambda f: self._hot_generator("graph.bipartitions", f))
        self._patch(solve, "max_disjoint_paths",
                    lambda f: self._hot_wrapper("graph.disjoint_paths", f))
        self._patch(solve, "restricted_growth_strings",
                    lambda f: self._hot_generator("coloring.enum", f,
                                                  bands=True))
        self._patch(coloring.PathSearch, "find",
                    lambda f: self._hot_wrapper("coloring.find", f))
        self._patch(coloring.PathSearch, "all_pattern_paths",
                    lambda f: self._hot_wrapper("coloring.all_paths", f,
                                                size=len))
        for cls, test, key in ((verify.ConnCheck, "connected", "verify.conn"),
                               (verify.KConnCheck, "connected",
                                "verify.kconn"),
                               (verify.DisconnCheck, "disconnected",
                                "verify.disconn")):
            self._patch(cls, "__init__",
                        lambda f, c=cls: self._span_wrapper(
                            "checker_build", f, checker=c.__name__))
            self._patch(cls, "witnesses",
                        lambda f, c=cls: self._span_wrapper(
                            "witness", f, checker=c.__name__))
            self._patch(cls, test, lambda f, k=key: self._hot_wrapper(k, f))
        self._patch(verify, "verify_certificate",
                    lambda f: self._span_wrapper("certificate", f))
        self._patch(solve, "is_proper_edge_coloring",
                    lambda f: self._hot_wrapper("local.proper", f))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ----------------------------------------------------------- reports

    def span_sums(self):
        """Per span name: (count, total duration, total self time)."""
        out = {}
        for s in self.spans:
            n, d, own = out.get(s.name, (0, 0.0, 0.0))
            out[s.name] = (n + 1, d + s.duration, own + s.self_s)
        return out

    def cell_sums(self, kinds):
        """(count, total duration, total self time) of cells of some kinds."""
        n = d = own = 0
        for s in self.spans:
            if s.name == "cell" and s.attrs.get("kind") in kinds:
                n += 1
                d += s.duration
                own += s.self_s
        return n, d, own
