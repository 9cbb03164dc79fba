"""In-memory span tracer used by the benchmark's traced run.

A span is one call of a wrapped function: its name, the span that was open
when it started (its parent), start and end on a monotonic clock, and
counts taken from its arguments and result by an optional hook.  Spans stay
in memory; the benchmark summarises them when the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""
import contextlib
import functools
import time


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent, start, end=None, counts=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.counts = counts or {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while active; wrapping and patching are reversible."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.active = False
        self._stack = []
        self._undo = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self.clock()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index, end=None, counts=None):
        span = self.spans[index]
        span.end = self.clock() if end is None else end
        if counts:
            span.counts = counts
        if self._stack.pop() != index:
            raise RuntimeError("span %s closed out of order" % span.name)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a block."""
        if not self.active:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name, fn, hook=None):
        """fn recorded as span `name`; hook(args, kwargs, result) -> counts,
        taken after the span's end so its own cost stays outside."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            end = self.clock()
            counts = hook(args, kwargs, result) if hook is not None else None
            self.close(index, end, counts)
            return result

        return traced

    def patch(self, holder, attr, name, hook=None, rebind_in=()):
        """Replace holder.attr by its traced form, and every other binding
        of the same object in the namespaces of rebind_in (modules that
        imported it by name).  Returns False when holder has no attr."""
        original = getattr(holder, attr, None)
        if original is None:
            return False
        traced = self.wrap(name, original, hook)
        setattr(holder, attr, traced)
        self._undo.append((holder, attr, original))
        for module in rebind_in:
            for key, value in list(vars(module).items()):
                if value is original and module is not holder:
                    setattr(module, key, traced)
                    self._undo.append((module, key, original))
        return True

    def unpatch(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()


def _covered(interval, children):
    """Length of the union of children's intervals clipped to interval."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per span: duration minus the time its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return [s.duration - _covered((s.start, s.end),
                                  [(c.start, c.end) for c in kids])
            for s, kids in zip(spans, children)]
