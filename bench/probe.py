"""Call accounting, output checks and spans around the program's public calls.

A :class:`Probe` replaces module attributes of the program (the names its
callers look up, such as ``hawkeslob.harness.simulate_book``) with wrappers
for the duration of a run.  Every wrapped call is counted as attempted; it
fails when it raises or when its output check reports a problem.  With
tracing on, each call also records a span: name, start, end, parent span and
the id of the timed iteration it belongs to.  Spans stay in memory until the
run ends.  Spans are timed on the clock the probe is given, process CPU
time by default.  No file of the program changes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: Upper bound on the failure messages kept for the report.
MAX_ERRORS = 20


@dataclass
class Hook:
    """One public function and how to observe it.

    ``targets`` lists every (owner, attribute) through which the program or
    the benchmark reaches the function; all of them get the same wrapper.
    ``check(result, args, kwargs)`` returns failure messages; ``counts``
    returns span attributes (traced runs only); ``digest`` returns
    ``(stream name, bytes)`` pairs folded into the run's output digests.
    """

    name: str
    targets: list
    check: Optional[Callable[..., list]] = None
    counts: Optional[Callable[..., dict]] = None
    digest: Optional[Callable[..., list]] = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Probe:
    """Counts, checks and (optionally) traces every hooked call."""

    def __init__(self, hooks: list, trace: bool = False,
                 clock: Callable[[], float] = time.process_time):
        self.hooks = hooks
        self.trace = trace
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.spans: list[Span] = []
        self.run_id = -1
        self._stack: list[int] = []
        self._digests: dict = {}
        self._saved: list = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Probe":
        for hook in self.hooks:
            for owner, attr in hook.targets:
                orig = getattr(owner, attr)
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(hook, orig))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self._observe(hook, fn, args, kwargs)

        return wrapper

    # -- accounting --------------------------------------------------------

    def fail(self, message: str) -> None:
        """Count one failure; the benchmark uses it for checks that span calls."""
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def _observe(self, hook: Hook, fn: Callable, args, kwargs) -> Any:
        self.attempted += 1
        span = None
        if self.trace:
            parent = self._stack[-1] if self._stack else None
            span = Span(hook.name, self.clock(), 0.0, parent, self.run_id)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.fail(f"{hook.name}: {type(exc).__name__}: {exc}")
            exc.probe_counted = True
            if span is not None:
                span.attrs["error"] = type(exc).__name__
            raise
        finally:
            if span is not None:
                span.end = self.clock()
                self._stack.pop()
        problems = hook.check(result, args, kwargs) if hook.check else []
        if problems:
            self.fail(f"{hook.name}: " + "; ".join(problems))
        if hook.digest:
            for stream, payload in hook.digest(result, args, kwargs):
                self._digests.setdefault(stream, hashlib.sha256()).update(payload)
        if span is not None and hook.counts:
            span.attrs.update(hook.counts(result, args, kwargs))
        return result

    def guard(self, fn: Callable, *args, **kwargs) -> Any:
        """Call from the benchmark body; a failure is counted, not raised."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if not getattr(exc, "probe_counted", False):
                self.attempted += 1
                self.fail(f"benchmark step: {type(exc).__name__}: {exc}")
            return None

    # -- iterations --------------------------------------------------------

    def begin_iteration(self, run_id: int) -> None:
        self.run_id = run_id
        self._digests = {}

    def digests(self) -> dict:
        """sha256 per output stream of the current iteration."""
        return {name: h.hexdigest() for name, h in sorted(self._digests.items())}

    def iteration_spans(self, run_id: int) -> list:
        return [s for s in self.spans if s.run_id == run_id]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list, all_spans: list) -> list:
    """Per span: duration minus the durations of its direct children.

    Calls run on one thread and nest strictly, so the children of a span
    cover disjoint parts of its interval and their durations add up.
    """
    index = {id(s): i for i, s in enumerate(all_spans)}
    child_time = [0.0] * len(all_spans)
    for s in all_spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return [s.duration - child_time[index[id(s)]] for s in spans]
