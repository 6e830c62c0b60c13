"""Outside-in layer tracing for the benchmark.

The benchmark wraps the bindings through which plucker_lab's modules call
each other (module attributes such as ``plucker_lab.curve.lambda_roots``
and class attributes such as ``LambdaPoly.gcd``) with timing wrappers, and
puts the originals back afterwards.  Nothing under ``src/`` changes.

Each wrapped call is one span.  A span knows its id, its parent span and
the op (benchmark operation) it ran under.  On close it folds into the
per-layer totals: calls, calls that raised, total time and self time,
where self time is the span's duration minus the time its child spans
cover.  The process is single-threaded and every child span closes
before its parent, so the children of a span are disjoint intervals
inside it and the time they cover is the sum of their durations.
"""

import functools
import sys
import time


class Layer:
    """One traced binding: ``owner`` is a module path, ``attr`` a function
    name or ``Class.method``; ``probe(args, result)`` returns counters."""

    __slots__ = ("name", "owner", "attr", "probe")

    def __init__(self, name, owner, attr, probe=None):
        self.name = name
        self.owner = owner
        self.attr = attr
        self.probe = probe


class LayerStats:
    __slots__ = ("calls", "raised", "total_s", "self_s", "maxima", "sums")

    def __init__(self):
        self.calls = 0
        self.raised = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.maxima = {}
        self.sums = {}


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "child_s")

    def __init__(self, span_id, parent, op, name, start):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Span stack plus per-layer totals; ``op`` is set by the caller to
    the id of the operation about to run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = None
        self.stats = {}
        self._stack = []
        self._next_id = 0
        self._patched = []

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        self._next_id += 1
        span = Span(self._next_id, parent, self.op, name, self.clock())
        self._stack.append(span)
        return span

    def close(self, span, end, raised=False, counters=None):
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError("span %s closed out of order" % span.name)
        stats = self.stats.get(span.name)
        if stats is None:
            stats = self.stats[span.name] = LayerStats()
        duration = end - span.start
        stats.calls += 1
        stats.raised += raised
        stats.total_s += duration
        stats.self_s += duration - span.child_s
        for key, value in (counters or {}).items():
            stats.sums[key] = stats.sums.get(key, 0) + value
            if value > stats.maxima.get(key, value - 1):
                stats.maxima[key] = value
        if self._stack:
            # the parent's child time runs to now, so probes and the
            # bookkeeping above are charged to neither span
            self._stack[-1].child_s += self.clock() - span.start

    def wrap(self, name, fn, probe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span, tracer.clock(), raised=True)
                raise
            end = tracer.clock()
            tracer.close(span, end, counters=probe(args, result) if probe else None)
            return result

        return traced

    def install(self, layers):
        """Wrap every binding of each layer's function in plucker_lab.

        A module-level function is replaced in every loaded module of the
        package that binds it, so calls that went through an import
        (``from .scalars import lambda_roots``) are seen as well.
        """
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "plucker_lab" or n.startswith("plucker_lab."))]
        try:
            for layer in layers:
                owner = sys.modules[layer.owner]
                if "." in layer.attr:
                    cls_name, meth = layer.attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, self.wrap(layer.name, original, layer.probe))
                    continue
                original = getattr(owner, layer.attr)
                wrapper = self.wrap(layer.name, original, layer.probe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
