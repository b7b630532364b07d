"""In-memory span recording around proxdyn's public callables.

A span is (parent id, name, start ns, end ns); its id is its index in
`Tracer.spans`, so ids grow with start time.  Wrappers are installed at the
attribute each caller looks up (e.g. `proxdyn.convex.solve_pd`, which
`stepper` calls as `convex.solve_pd`) and removed again by `restore`.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    work: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[int, float] = {}
        self.last: dict[str, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        count: Optional[Callable] = None,
        keep: bool = False,
    ) -> Callable:
        """Return fn wrapped in a span named `name`.

        count(args, result) -> number is stored in `counts` under the span
        id (work done at this boundary); keep=True stores the latest result
        in `last[name]`.
        """
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, name, start, end)
            if count is not None:
                counts[sid] = count(args, out)
            if keep:
                self.last[name] = out
            return out

        return traced

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        """Replace owner.attr by its traced version until `restore`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kwargs))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def roots(self) -> list[int]:
        """The top-level ancestor of every span, by span id."""
        root: list[int] = []
        for sid, (parent, *_rest) in enumerate(self.spans):
            root.append(sid if parent < 0 else root[parent])
        return root

    def totals(self) -> dict[tuple[int, str], Totals]:
        """Calls, seconds, self seconds and counted work per (root, name).

        Self time is a span's duration minus that of its direct children.
        """
        covered = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += (end - start) * 1e-9
        out: dict[tuple[int, str], Totals] = {}
        for sid, ((_, name, start, end), root) in enumerate(zip(self.spans, self.roots())):
            t = out.setdefault((root, name), Totals())
            seconds = (end - start) * 1e-9
            t.calls += 1
            t.seconds += seconds
            t.self_seconds += seconds - covered[sid]
            t.work += self.counts.get(sid, 0)
        return out

    def write_csv(self, path) -> None:
        """Write every span as `id,parent,name,start_ns,end_ns`."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, (parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{start},{end}\n")
