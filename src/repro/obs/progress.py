"""Progress reporting for long-running sweeps.

Every sweep accepts any callable matching :class:`ProgressCallback`;
the library itself never prints.  :class:`ProgressTicker` is the CLI's
implementation: a single self-rewriting ``evaluated/total`` line on
stderr, automatically silent when the stream is not an interactive
terminal (so piped and logged runs stay clean), and rate-limited so the
callback costs nothing measurable even for very fine sweeps.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

try:  # Python 3.8+: typing.Protocol
    from typing import Protocol
except ImportError:  # pragma: no cover - ancient interpreters only
    Protocol = object  # type: ignore[assignment]


class ProgressCallback(Protocol):
    """Protocol for sweep progress consumers.

    Sweeps call it once per committed grid chunk — serial or pooled,
    one site or many — with the number of evaluations ``done`` so far,
    the ``total`` expected, and a short human ``label`` for the phase
    (e.g. the strategy name being swept).

    **Semantics of ``done``.**  ``done`` is a *completed count*, not a
    grid position: parallel sweeps complete chunks out of grid order, so
    ``done == k`` means "k evaluations finished somewhere in the grid",
    never "the first k grid points are finished".  Within one sweep the
    reported counts are non-decreasing, and a resumed sweep's first call
    may jump straight to the number of checkpointed evaluations.
    Consumers must treat ``(done, total)`` as a pair — rendering
    ``done`` alone, or assuming unit increments, is wrong — and should
    tolerate a misbehaving producer (``done > total`` or a decrease)
    rather than crash mid-sweep; :class:`ProgressTicker` clamps both.
    """

    def __call__(self, done: int, total: int, label: str) -> None:  # pragma: no cover
        ...


def null_progress(done: int, total: int, label: str) -> None:
    """A progress callback that does nothing (the library default)."""


class ProgressTicker:
    """Render progress as a rewriting ``label: done/total`` stderr line.

    Parameters
    ----------
    stream:
        Destination stream; defaults to ``sys.stderr``.
    min_interval_s:
        Minimum seconds between repaints (final updates always paint).
    force:
        Paint even when the stream is not a TTY (used by tests; also
        handy under ``script``/CI when a ticker is explicitly wanted).
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval_s: float = 0.1,
        force: bool = False,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval_s = min_interval_s
        self._active = force or bool(
            getattr(self._stream, "isatty", lambda: False)()
        )
        self._last_paint = float("-inf")
        self._last_width = 0
        self._max_done = 0
        self._last_label: Optional[str] = None

    def __call__(self, done: int, total: int, label: str) -> None:
        if not self._active:
            return
        # Robustness to producers that misreport: never paint a count
        # above the total or below one already shown for this phase
        # (chunked sweeps complete out of grid order; see
        # ProgressCallback).  A new label is a new phase with its own
        # count.
        if label != self._last_label:
            self._last_label = label
            self._max_done = 0
        if total > 0:
            done = min(done, total)
        done = max(done, self._max_done)
        self._max_done = done
        now = time.monotonic()
        if done < total and now - self._last_paint < self._min_interval_s:
            return
        self._last_paint = now
        if total > 0:
            line = f"{label}: {done}/{total} ({100.0 * done / total:.0f}%)"
        else:
            line = f"{label}: {done}"
        padding = " " * max(self._last_width - len(line), 0)
        self._stream.write(f"\r{line}{padding}")
        self._stream.flush()
        self._last_width = len(line)

    def close(self) -> None:
        """Erase the ticker line so subsequent output starts clean."""
        if not self._active or self._last_width == 0:
            return
        self._stream.write("\r" + " " * self._last_width + "\r")
        self._stream.flush()
        self._last_width = 0
