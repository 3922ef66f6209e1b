"""Spans recorded around the benchmark's calls into trefoil, and the
per-layer metrics derived from them.

A span is (name, start, end, parent, item, value, ok).  Spans stay in
memory in flat arrays while the run measures and are written out once it
ends.  Self time is a span's duration minus the time its child spans
cover.  Nothing inside the program is instrumented: spans open and close
in the benchmark's own wrappers.
"""

from __future__ import annotations

import gzip
from array import array
from statistics import median
from time import perf_counter_ns

# Bucket lower bounds for the ``.ms.<prefix>-<bound>`` metrics, keyed by the
# item property they read.
BITS = (1024, 2048, 4096, 8192, 16384)
LENS = (32, 64, 128, 256, 512, 1024, 2048, 4096)
DEPTHS = (2, 4, 6, 8)
KS = (1, 4, 16, 64)
ORDERS = (8, 16, 32, 64)

# (span name, item property, bucket prefix, bounds): the median call time
# per bucket of the calling item's property
BUCKETED = (
    ("pfrac.op", "bits", "bits", BITS),
    ("cfrac.expand", "bits", "bits", BITS),
    ("cfrac.eval", "bits", "bits", BITS),
    ("words.normalize", "word_len", "len", LENS),
    ("words.word_to_frac", "word_len", "len", LENS),
    ("longknot.qt_op", "depth", "depth", DEPTHS),
    ("longknot.fiber_compare", "k", "k", KS),
    ("quandle.check", "order", "order", ORDERS),
)

# Spans whose calls and self time are reported, and whether us_per_call is.
TIMED = (
    ("pfrac.op", True), ("pfrac.orbit_bfs", False),
    ("cfrac.expand", False), ("cfrac.eval", False),
    ("words.normalize", False), ("words.word_to_frac", False), ("words.frac_to_word", False),
    ("braid.eq", False), ("braid.garside_eq", False),
    ("longknot.qt_op", True), ("longknot.qt_op_inv", False), ("longknot.fiber_compare", False),
    ("quandle.check", False), ("cli.run", True),
)
SELF_ONLY = ("braid.parse", "longknot.lambda_act", "quandle.build", "bench.check")


class Tracer:
    """Records spans; ``item`` is the id stamped on spans opened next."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item_of = array("i")
        self.value = array("q")
        self.ok = array("b")
        self._open: list[int] = []
        self.item = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.item_of.append(self.item)
        self.value.append(0)
        self.ok.append(0)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int, ok: bool = True) -> None:
        self.end[idx] = perf_counter_ns()
        self.ok[idx] = ok
        self._open.pop()

    def wrap(self, name: str, fn, value_of=None):
        """fn, recording a span per call and, when value_of is given, the
        number it reads off the result."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.close(idx, ok)
            if value_of is not None:
                self.value[idx] = value_of(result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def self_ns(self) -> list[int]:
        """Each span's duration minus its children's; sibling spans never
        overlap because the run has one thread."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\titem\tvalue\tok\n")
            for idx in range(len(self)):
                out.write(f"{idx}\t{self.names[self.name[idx]]}\t{self.start[idx]}\t"
                          f"{self.end[idx]}\t{self.parent[idx]}\t{self.item_of[idx]}\t"
                          f"{self.value[idx]}\t{self.ok[idx]}\n")


def _bucket(value, bounds):
    """The largest bound not above value, or None below the first."""
    found = None
    for b in bounds:
        if value >= b:
            found = b
    return found


def layer_metrics(tracer: Tracer, props: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans.  ``props[i]`` are item i's input
    properties; spans outside any item (set-up) carry item -1.  A metric
    for a call the workload never makes reads 0."""
    own = tracer.self_ns()
    by_name: dict[str, list[int]] = {}
    for idx, nid in enumerate(tracer.name):
        by_name.setdefault(tracer.names[nid], []).append(idx)

    def spans(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(own[i] for i in spans(name)) / 1e9

    def item_prop(idx, key):
        item = tracer.item_of[idx]
        return props[item].get(key) if item >= 0 else None

    out: dict[str, tuple[float, str]] = {}
    for name, per_call in TIMED:
        calls = len(spans(name))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
        if per_call:
            out[f"{name}.us_per_call"] = (self_s(name) / calls * 1e6 if calls else 0.0, "us")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name, key, prefix, bounds in BUCKETED:
        durations: dict[int, list[int]] = {b: [] for b in bounds}
        for idx in spans(name):
            prop = item_prop(idx, key)
            b = _bucket(prop, bounds) if prop is not None else None
            if b is not None:
                durations[b].append(tracer.end[idx] - tracer.start[idx])
        for b in bounds:
            ms = median(durations[b]) / 1e6 if durations[b] else 0.0
            out[f"{name}.ms.{prefix}-{b}"] = (ms, "ms")

    def values(name):
        return [tracer.value[i] for i in spans(name)]

    out["pfrac.orbit_bfs.explored"] = (sum(values("pfrac.orbit_bfs")), "count")
    out["pfrac.result_bits_max"] = (max(values("pfrac.op"), default=0), "bits")
    out["cfrac.expand.terms"] = (sum(values("cfrac.expand")), "count")
    out["braid.render_len_max"] = (max(values("braid.render"), default=0), "count")
    out["words.normalize.letters"] = (
        sum(item_prop(i, "word_len") or 0 for i in spans("words.normalize")), "count")
    out["words.normalize.failed"] = (
        sum(1 for i in spans("words.normalize") if not tracer.ok[i]), "count")
    out["quandle.check.cells"] = (
        sum((item_prop(i, "order") or 0) ** 3 for i in spans("quandle.check")), "count")
    return out
