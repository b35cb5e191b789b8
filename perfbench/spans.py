"""In-memory spans recorded around the benchmark's calls into imgroups.

A span has a name (``<layer>.<call>``), a start, an end, the span that
caused it and a request id.  Spans stay in a list until the traced child
ends and hands them to the parent.

Some spans are *replays*: after a verdict returns, the survey workload
calls the same layer functions again with the same inputs, so that the
verdict's children can be timed without code inside the package.  A
replay lies after its parent in time, so a parent's self time subtracts
its replayed children's durations as well as the part of its own
interval that nested children cover.
"""

from __future__ import annotations

from contextlib import contextmanager

LAYERS = ("treeauto", "selfsim", "arithmodel", "polyarith", "maximality",
          "constantfield", "verify", "cli")


class Tracer:
    def __init__(self, now):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._now = now

    @contextmanager
    def span(self, name: str, request, *, parent: int | None = None,
             replay: bool = False):
        """Record one span; yields its index so that replays can name it."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        index = len(self.spans)
        rec = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
               "request": request, "replay": replay}
        self.spans.append(rec)
        self._stack.append(index)
        rec["start"] = self._now()
        try:
            yield index
        finally:
            rec["end"] = self._now()
            self._stack.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus what its children account for."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = []
    for i, s in enumerate(spans):
        replayed = 0.0
        nested = []
        for c in children.get(i, ()):
            if c["replay"]:
                replayed += duration(c)
            else:
                nested.append((max(c["start"], s["start"]),
                               min(c["end"], s["end"])))
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(nested):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(duration(s) - covered - replayed)
    return out


def layer_self_times(spans: list[dict], keep) -> dict[str, float]:
    """Self time summed per layer over the spans ``keep`` accepts.

    The layer is the span name's prefix.  Self times are computed over
    all spans first, since parents are named by their index.
    """
    out = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_times(spans)):
        if keep(s):
            out[s["name"].split(".", 1)[0]] += t
    return out


def total(spans: list[dict], name: str) -> float:
    return sum(duration(s) for s in spans if s["name"] == name)
