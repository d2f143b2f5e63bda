"""Spans and counters recorded by the benchmark around library entry
calls, and the cProfile pass that charges self time to modules.

Untraced runs get `NULL_TRACER`, whose span is a shared no-op context
and whose `on` flag lets items skip counting work altogether.
"""

import contextlib
import cProfile
import pstats
import time
from collections import Counter
from pathlib import Path

LAYERS = ("exactlin", "chiral_fm", "jetcalc", "coisson", "fockq", "cli")

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    on = False

    def span(self, name):
        return _NULL_SPAN

    def count(self, name, k=1):
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """In-memory spans (id, name, start, end, parent) and named counts."""

    on = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        record = [sid, name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def count(self, name, k=1):
        self.counts[name] += k

    def busy(self):
        """Total span duration per span name."""
        out = Counter()
        for _, name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def dump(self):
        keys = ("id", "name", "start", "end", "parent")
        return [dict(zip(keys, rec)) for rec in self.spans]


def layer_profile(profiler: cProfile.Profile, sector_init_code):
    """Self time and call counts summed by library module file, plus the
    stdlib `fractions` share and the two constructor counts."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    out["exactlin.fraction_s"] = 0.0
    out["exactlin.fraction_new"] = 0
    out["fockq.sectors_built"] = 0
    sector_key = (
        sector_init_code.co_filename,
        sector_init_code.co_firstlineno,
        sector_init_code.co_name,
    )
    stats = pstats.Stats(profiler).stats
    for (filename, line, func), (_, ncalls, tottime, _, _) in stats.items():
        path = Path(filename)
        if path.parent.name == "chiraltorus" and path.stem in LAYERS:
            out[f"{path.stem}.self_s"] += tottime
            out[f"{path.stem}.calls"] += ncalls
        elif path.name == "fractions.py":
            out["exactlin.fraction_s"] += tottime
            if func == "__new__":
                out["exactlin.fraction_new"] += ncalls
        if (filename, line, func) == sector_key:
            out["fockq.sectors_built"] += ncalls
    return out
