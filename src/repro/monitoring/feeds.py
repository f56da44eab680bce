"""Feed adapters: sources of live basic-event probability updates.

A feed is simply an iterable of :class:`ProbabilityUpdate` batches — each a
timestamped ``{event: probability}`` mapping — that a
:class:`~repro.monitoring.monitor.TreeMonitor` consumes one at a time.
Three adapters cover the ROADMAP's live-monitoring sources:

* :class:`SyntheticFeed` — a deterministic log-space random walk over a
  tree's basic events (:func:`repro.workloads.generator.probability_walk`),
  for demos, benchmarks and the CI monitoring smoke;
* :class:`FileTailFeed` — tails a JSON-lines file where each line is an
  update document (the shape sensors or an ETL job would append);
* :class:`HTTPPollFeed` — polls an HTTP endpoint returning either one update
  document or ``{"updates": [...]}``, deduplicating on ``seq`` so an
  idempotent endpoint can be polled faster than it produces.

Update documents are the wire form used everywhere (file lines, HTTP bodies,
SSE frames)::

    {"values": {"x1": 0.02, "x4": 0.3}, "ts": 1723112345.1, "seq": 17,
     "source": "hydrometry-station-4"}

Only ``values`` is required; each value must lie in (0, 1], the range of a
basic event's probability.  ``ts`` defaults to arrival time and ``seq`` to
the feed's own running counter.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.exceptions import ReproError
from repro.fta.tree import FaultTree
from repro.observability.log import log_event
from repro.workloads.generator import probability_walk

__all__ = [
    "FeedError",
    "FileTailFeed",
    "HTTPPollFeed",
    "ProbabilityUpdate",
    "SyntheticFeed",
    "feed_from_spec",
]


class FeedError(ReproError):
    """A feed source produced something that is not a probability update."""


@dataclass(frozen=True)
class ProbabilityUpdate:
    """One timestamped batch of basic-event probability changes."""

    values: Tuple[Tuple[str, float], ...]
    timestamp: float = field(default_factory=time.time)
    seq: Optional[int] = None
    source: str = ""

    @staticmethod
    def create(
        values: Mapping[str, float],
        *,
        timestamp: Optional[float] = None,
        seq: Optional[int] = None,
        source: str = "",
    ) -> "ProbabilityUpdate":
        items = tuple(sorted((str(k), float(v)) for k, v in values.items()))
        if not items:
            raise FeedError("a probability update needs at least one event value")
        for name, value in items:
            # A basic event's probability lies in (0, 1]: refusing 0 here
            # keeps a zero reading from reaching (and stopping) a monitor.
            if not 0.0 < value <= 1.0:
                raise FeedError(
                    f"update value for event {name!r} must lie in (0, 1], got {value!r}"
                )
        return ProbabilityUpdate(
            values=items,
            timestamp=time.time() if timestamp is None else float(timestamp),
            seq=seq,
            source=source,
        )

    def as_mapping(self) -> Dict[str, float]:
        return dict(self.values)

    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "values": {name: value for name, value in self.values},
            "ts": self.timestamp,
        }
        if self.seq is not None:
            document["seq"] = self.seq
        if self.source:
            document["source"] = self.source
        return document

    @staticmethod
    def from_dict(document: Mapping[str, Any]) -> "ProbabilityUpdate":
        if not isinstance(document, Mapping):
            raise FeedError(f"update document must be a JSON object, got {document!r}")
        values = document.get("values")
        if not isinstance(values, Mapping):
            raise FeedError("update document needs a 'values' object of event: probability")
        seq = document.get("seq")
        if seq is not None and (not isinstance(seq, int) or isinstance(seq, bool)):
            raise FeedError(f"update 'seq' must be an integer, got {seq!r}")
        try:
            return ProbabilityUpdate.create(
                {str(k): float(v) for k, v in values.items()},
                timestamp=document.get("ts"),
                seq=seq,
                source=str(document.get("source", "")),
            )
        except (TypeError, ValueError) as exc:
            raise FeedError(f"malformed update document: {exc}") from exc


class SyntheticFeed:
    """Deterministic random-walk feed over a tree's basic events.

    Wraps :func:`repro.workloads.generator.probability_walk`: given the same
    tree and seed, two feeds emit identical value sequences (timestamps are
    wall-clock).  ``interval_s`` throttles emission for realistic pacing;
    the default ``0`` emits as fast as the monitor consumes.
    """

    def __init__(
        self,
        tree: FaultTree,
        *,
        updates: int = 100,
        seed: int = 0,
        events_per_update: int = 1,
        volatility: float = 0.35,
        interval_s: float = 0.0,
    ) -> None:
        self.tree = tree
        self.updates = int(updates)
        self.seed = int(seed)
        self.events_per_update = int(events_per_update)
        self.volatility = float(volatility)
        self.interval_s = float(interval_s)

    def __iter__(self) -> Iterator[ProbabilityUpdate]:
        walk = probability_walk(
            self.tree,
            steps=self.updates,
            seed=self.seed,
            events_per_step=self.events_per_update,
            volatility=self.volatility,
        )
        for seq, batch in enumerate(walk, start=1):
            if self.interval_s > 0:
                time.sleep(self.interval_s)
            yield ProbabilityUpdate.create(batch, seq=seq, source="synthetic")

    def close(self) -> None:
        pass


class FileTailFeed:
    """Tail a JSON-lines file of update documents.

    Reads existing lines first (``from_start=True``, the default), then polls
    for appended lines every ``poll_interval_s``.  Iteration ends once no new
    line has appeared for ``idle_timeout_s`` (``None`` tails forever — the
    monitor's stop flag is then the only exit).  Malformed lines are logged
    and skipped, never fatal: one corrupt sensor write must not kill a
    long-lived monitor.
    """

    def __init__(
        self,
        path: str,
        *,
        poll_interval_s: float = 0.2,
        idle_timeout_s: Optional[float] = None,
        from_start: bool = True,
    ) -> None:
        self.path = path
        self.poll_interval_s = float(poll_interval_s)
        self.idle_timeout_s = idle_timeout_s
        self.from_start = from_start
        self._seq = 0

    def _parse(self, line: str) -> Optional[ProbabilityUpdate]:
        text = line.strip()
        if not text:
            return None
        try:
            update = ProbabilityUpdate.from_dict(json.loads(text))
        except (json.JSONDecodeError, FeedError) as exc:
            log_event(
                "monitoring.feeds",
                "malformed_feed_line",
                path=self.path,
                error=str(exc),
            )
            return None
        if update.seq is None:
            self._seq += 1
            update = ProbabilityUpdate(
                values=update.values,
                timestamp=update.timestamp,
                seq=self._seq,
                source=update.source or self.path,
            )
        else:
            self._seq = update.seq
        return update

    def __iter__(self) -> Iterator[ProbabilityUpdate]:
        with open(self.path, "r", encoding="utf-8") as stream:
            if not self.from_start:
                stream.seek(0, 2)
            idle_since = time.monotonic()
            while True:
                line = stream.readline()
                if line:
                    idle_since = time.monotonic()
                    update = self._parse(line)
                    if update is not None:
                        yield update
                    continue
                if (
                    self.idle_timeout_s is not None
                    and time.monotonic() - idle_since > self.idle_timeout_s
                ):
                    return
                time.sleep(self.poll_interval_s)

    def close(self) -> None:
        pass


class HTTPPollFeed:
    """Poll an HTTP endpoint for update documents.

    The endpoint returns JSON: one update document, a list of them, or
    ``{"updates": [...]}``.  Updates whose ``seq`` is not newer than the last
    seen one are dropped, so the endpoint may idempotently re-serve recent
    readings (the hubeau-style sensor APIs do).  Unreachable polls are logged
    and retried; ``max_polls`` bounds iteration for tests and one-shot runs.
    """

    def __init__(
        self,
        url: str,
        *,
        poll_interval_s: float = 1.0,
        timeout_s: float = 10.0,
        max_polls: Optional[int] = None,
    ) -> None:
        self.url = url
        self.poll_interval_s = float(poll_interval_s)
        self.timeout_s = float(timeout_s)
        self.max_polls = max_polls
        self._last_seq: Optional[int] = None

    def _fetch(self) -> Any:
        request = urllib.request.Request(self.url, method="GET")
        with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
            return json.loads(response.read().decode("utf-8"))

    def _documents(self, body: Any) -> Iterator[Mapping[str, Any]]:
        if isinstance(body, Mapping) and "updates" in body:
            body = body["updates"]
        if isinstance(body, Mapping):
            yield body
            return
        if isinstance(body, list):
            for document in body:
                yield document
            return
        raise FeedError(f"HTTP feed body must be an update document or list, got {type(body).__name__}")

    def __iter__(self) -> Iterator[ProbabilityUpdate]:
        polls = 0
        while self.max_polls is None or polls < self.max_polls:
            polls += 1
            try:
                body = self._fetch()
            except (urllib.error.URLError, json.JSONDecodeError, OSError) as exc:
                log_event(
                    "monitoring.feeds", "poll_failed", url=self.url, error=str(exc)
                )
                time.sleep(self.poll_interval_s)
                continue
            for document in self._documents(body):
                update = ProbabilityUpdate.from_dict(document)
                if update.seq is not None and self._last_seq is not None:
                    if update.seq <= self._last_seq:
                        continue
                if update.seq is not None:
                    self._last_seq = update.seq
                yield update
            if self.max_polls is None or polls < self.max_polls:
                time.sleep(self.poll_interval_s)

    def close(self) -> None:
        pass


def feed_from_spec(document: Mapping[str, Any], *, tree: Optional[FaultTree] = None):
    """Build a feed from its wire-form spec (the ``POST /monitor`` payload).

    ====================  =========================================================
    ``{"type": ...}``     parameters
    ====================  =========================================================
    ``synthetic``         ``updates``, ``seed``, ``events_per_update``,
                          ``volatility``, ``interval_s`` (needs a tree)
    ``file``              ``path``, ``poll_interval_s``, ``idle_timeout_s``,
                          ``from_start``
    ``http``              ``url``, ``poll_interval_s``, ``timeout_s``, ``max_polls``
    ====================  =========================================================
    """
    if not isinstance(document, Mapping):
        raise FeedError(f"feed spec must be a JSON object, got {document!r}")
    kind = document.get("type")
    if kind == "synthetic":
        if tree is None:
            raise FeedError("a synthetic feed needs the monitored tree")
        return SyntheticFeed(
            tree,
            updates=document.get("updates", 100),
            seed=document.get("seed", 0),
            events_per_update=document.get("events_per_update", 1),
            volatility=document.get("volatility", 0.35),
            interval_s=document.get("interval_s", 0.0),
        )
    if kind == "file":
        path = document.get("path")
        if not isinstance(path, str) or not path:
            raise FeedError("a file feed needs a 'path' string")
        return FileTailFeed(
            path,
            poll_interval_s=document.get("poll_interval_s", 0.2),
            idle_timeout_s=document.get("idle_timeout_s"),
            from_start=bool(document.get("from_start", True)),
        )
    if kind == "http":
        url = document.get("url")
        if not isinstance(url, str) or not url:
            raise FeedError("an http feed needs a 'url' string")
        return HTTPPollFeed(
            url,
            poll_interval_s=document.get("poll_interval_s", 1.0),
            timeout_s=document.get("timeout_s", 10.0),
            max_polls=document.get("max_polls"),
        )
    raise FeedError(
        f"unknown feed type {kind!r}; expected 'synthetic', 'file' or 'http'"
    )
