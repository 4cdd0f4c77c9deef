"""In-memory spans recorded around the benchmark's calls into bqcontrol.

A span has a name, start and end (perf_counter seconds), the id of the span
that encloses it, and the id of the job it belongs to.  Spans stay in memory
and are written as JSON lines once the run ends.  A disabled tracer records
nothing, so untraced runs pay one no-op context manager per call.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled):
        self.enabled = bool(enabled)
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, job=None):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        if job is None and parent is not None:
            job = self.spans[parent]["job"]
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "job": job, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def table(self):
        """{name: (calls, total_s, self_s)}; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s in self.spans:
            calls, total, own = out.get(s["name"], (0, 0.0, 0.0))
            dur = s["end"] - s["start"]
            out[s["name"]] = (calls + 1, total + dur, own + dur - child[s["id"]])
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
