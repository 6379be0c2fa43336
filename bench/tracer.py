"""In-memory span tracer that wraps the program's public functions from outside.

A span is recorded around each wrapped call: name, start, end, parent span
and request id (the cell, the system-and-criterion pair or the trajectory).
Spans stay in memory until :meth:`Tracer.dump` writes them out.  Very hot
calls that would swamp the span list (the solver's ``eigh``/``eigvalsh``)
are counted instead, per request.

Every patch is undone by :meth:`Tracer.restore`, so an untraced pass in the
same process runs the unmodified program.
"""

from __future__ import annotations

import json
import time
import types
from collections import Counter

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = None
        # (counter name, request) -> count, for calls too hot to span
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, _now(), parent, self.request))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = _now()
        self.stack.pop()
        return span

    # -- patching ----------------------------------------------------------

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = value
        else:
            old = getattr(owner, key)
            setattr(owner, key, value)
        self._undo.append((owner, key, old))

    def wrap(self, owner, key: str, name: str, on_result=None) -> None:
        """Replace ``owner.key`` (or ``owner[key]``) by a spanning wrapper.

        ``on_result(args, result)`` returns attributes to attach to the span.
        """
        target = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = target(*args, **kwargs)
            finally:
                span = tracer.close(idx)
            if on_result is not None:
                span.attrs = on_result(args, result)
            return result

        self._set(owner, key, wrapper)

    def count_numpy_eigh(self, module, counter: str) -> None:
        """Give ``module`` a private ``np`` whose ``linalg.eigh`` and
        ``linalg.eigvalsh`` count their calls; numpy itself is untouched."""
        real_np = module.np
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(real_np.linalg.__dict__)
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(real_np.__dict__)
        proxy.linalg = linalg
        counts = self.counts
        tracer = self

        for fname in ("eigh", "eigvalsh"):
            real = getattr(real_np.linalg, fname)

            def counted(*args, _real=real, **kwargs):
                counts[(counter, tracer.request)] += 1
                return _real(*args, **kwargs)

            setattr(linalg, fname, counted)
        self._set(module, "np", proxy)

    def restore(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)

    # -- output ------------------------------------------------------------

    def total(self, counter: str) -> int:
        return sum(v for (c, _r), v in self.counts.items() if c == counter)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "request": s.request,
                }
                if s.attrs:
                    rec["attrs"] = s.attrs
                fh.write(json.dumps(rec) + "\n")
            for (c, r), v in sorted(self.counts.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
                fh.write(json.dumps({"counter": c, "request": r, "count": v}) + "\n")
