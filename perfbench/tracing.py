"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own code around public calls into the
package: `Tracer.wrap` swaps a public module attribute (for example
`onegenus.forms.enumerate_reduced`) for a timing wrapper in the benchmark's
own process, and `restore` puts the originals back.  Nothing under `src/`
changes.  Spans stay in memory and are written once, at exit, with the
counts the caller derives from them.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; attrs are stored with it (e.g. the call's size)."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, on_call=None) -> None:
        """Replace module.attr by a wrapper that records a span per call.

        on_call(record, args, kwargs, result) may add attributes to the span
        record after the call returns.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(record, args, kwargs, result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def select(self, run_id: str, name: str) -> list[dict]:
        return [s for s in self.spans if s["run_id"] == run_id and s["name"] == name]

    def total(self, run_id: str, *names: str) -> float:
        """Time in spans of these names, not counting one nested in another."""
        total = 0.0
        for s in self.spans:
            if s["run_id"] != run_id or s["name"] not in names:
                continue
            parent = s["parent"]
            while parent is not None and self.spans[parent]["name"] not in names:
                parent = self.spans[parent]["parent"]
            if parent is None:
                total += s["end"] - s["start"]
        return total

    def self_time(self, span_id: int) -> float:
        """A span's duration minus the part its direct children cover."""
        s = self.spans[span_id]
        children = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == span_id)
        return (s["end"] - s["start"]) - children

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh, indent=1, default=str)
            fh.write("\n")
