"""Structured JSON-lines event logging.

Every event is one JSON object per line::

    {"ts": 1723112345.123, "module": "service.store", "event": "corrupt_entry_dropped",
     "span": "s17", "path": "...", "kind": "minimal-cut-sets"}

The logger is process-wide and defaults to the shared no-op
:class:`NullLogger`, so instrumented call sites (``log_event(...)``) cost a
single no-op method call unless logging was enabled -- e.g. via the
``--log-json PATH`` flag on ``repro serve`` and campaign runs.
:class:`MemoryLogger` collects events in a list for tests and demos.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional

from .trace import current_tracer

__all__ = [
    "JsonLinesLogger",
    "MemoryLogger",
    "NullLogger",
    "get_logger",
    "log_event",
    "set_logger",
]


def _build_event(module: str, event: str, attrs: Dict[str, Any]) -> Dict[str, Any]:
    record: Dict[str, Any] = {"ts": time.time(), "module": module, "event": event}
    tracer = current_tracer()
    if tracer.is_recording:
        span = tracer.current
        if span.is_recording:
            record["span"] = span.span_id
    record.update(attrs)
    return record


class JsonLinesLogger:
    """Append JSON-lines events to a file path or an open text stream."""

    def __init__(self, target: Any):
        self._lock = threading.Lock()
        if hasattr(target, "write"):
            self._stream = target
            self._owns_stream = False
        else:
            self._stream = open(target, "a", encoding="utf-8")
            self._owns_stream = True

    @property
    def is_recording(self) -> bool:
        return True

    def log(self, module: str, event: str, **attrs: Any) -> None:
        record = _build_event(module, event, attrs)
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()


class MemoryLogger:
    """Collects event dicts in memory; for tests and interactive inspection."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: List[Dict[str, Any]] = []

    @property
    def is_recording(self) -> bool:
        return True

    def log(self, module: str, event: str, **attrs: Any) -> None:
        record = _build_event(module, event, attrs)
        with self._lock:
            self.events.append(record)

    def matching(self, event: str) -> List[Dict[str, Any]]:
        with self._lock:
            return [record for record in self.events if record["event"] == event]

    def close(self) -> None:
        pass


class NullLogger:
    """Shared do-nothing logger: the zero-cost default."""

    __slots__ = ()

    @property
    def is_recording(self) -> bool:
        return False

    def log(self, module: str, event: str, **attrs: Any) -> None:
        pass

    def close(self) -> None:
        pass


NULL_LOGGER = NullLogger()

_LOGGER = NULL_LOGGER


def get_logger():
    """Return the process-wide structured logger (no-op by default)."""

    return _LOGGER


def set_logger(logger) -> Any:
    """Install ``logger`` process-wide; returns the previous logger."""

    global _LOGGER
    previous = _LOGGER
    _LOGGER = logger if logger is not None else NULL_LOGGER
    return previous


def log_event(module: str, event: str, **attrs: Any) -> None:
    """Emit one structured event through the process-wide logger."""

    _LOGGER.log(module, event, **attrs)
