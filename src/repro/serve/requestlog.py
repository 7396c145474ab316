"""The served-request log: every prediction, durably, off the hot path.

The ROADMAP's closed-loop story starts here: retraining on real traffic
needs a record of what was served — which features, which classifier,
what the model answered and how sure it was.  :class:`RequestLog` appends
one JSON object per response to a log file without ever making a client
wait for the disk:

* **Off the hot path.**  ``record()`` only enqueues (an unbounded
  in-process queue, O(1), no I/O, no locks shared with the serve path);
  a dedicated writer thread drains the queue and performs the actual
  writes.
* **Atomic line flushes.**  The file is opened ``O_APPEND`` and the
  writer emits only complete, newline-terminated lines per ``os.write``
  call.  POSIX append-mode writes are atomic for these sizes, so many
  daemon *processes* (the multi-process serve tier) can share one log
  path: lines interleave, they never tear.
* **Buffered.**  The writer drains whatever has accumulated into a
  single ``write`` — under load, hundreds of records cost one syscall.
* **Size-rotated.**  With ``max_bytes`` set, a live file that crosses
  the limit is renamed through the classic ``.1``, ``.2``, … chain and a
  fresh file is opened.  Rotation only ever happens *between* batched
  writes and each write carries only whole lines, so rotation never
  tears a record.  Sharers of one path coordinate through an exclusive
  lockfile plus an inode check before every write: whichever process
  rotates first wins, the others notice the live inode changed and
  re-open.

Records carry: ``ts`` (epoch seconds), ``worker`` (the serving worker's
id, ``null`` for a single-process daemon), ``id`` (the client's request
id), ``classifier``, ``features_sha256`` (checksum of the request's
feature vector or loop source — the dedup/drift key for the closed
loop), the raw ``features`` vector or loop ``source`` (what the
lifecycle replays for drift scans and canary evaluation), ``ok``,
``factor``, ``confidence`` (ensemble requests), an ``error_type`` for
non-ok responses, ``latency_ms`` measured from gateway admission to
the end of the response write, and ``delivered`` — whether that socket
write succeeded (the same outcome healthz counts as
``delivery.responses_written`` / ``delivery.write_failed``).
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import threading
from pathlib import Path
from typing import Iterator

_CLOSE = object()


def features_checksum(request) -> str | None:
    """The closed-loop dedup key: SHA-256 over the request's payload.

    Feature vectors hash their canonical JSON (so a replayed request with
    the same numbers collides regardless of client formatting); source
    requests hash the loop text.  Requests with neither — malformed lines,
    admin probes — have no checksum.
    """
    if not isinstance(request, dict):
        return None
    payload = request.get("features")
    if payload is None:
        payload = request.get("source")
    if payload is None:
        return None
    try:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        canonical = repr(payload)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RequestLog:
    """Append-mode JSON-lines log with a buffered background writer.

    ``record(entry)`` never blocks and never raises into the serve path;
    ``close()`` drains everything recorded so far, so a drain-shaped
    daemon shutdown loses no lines.  ``records`` counts what has been
    durably written (not merely enqueued) — ``healthz`` reports it,
    alongside ``bytes_written`` and the live file's current size so
    operators can alarm on a stalled log.
    """

    def __init__(
        self,
        path: str | Path,
        worker: int | None = None,
        max_bytes: int | None = None,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.path = Path(path)
        self.worker = worker
        self.max_bytes = max_bytes
        self.records = 0
        self.write_errors = 0
        self.bytes_written = 0
        self.rotations = 0
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._fd = self._open()
        self._closed = False
        self._writer = threading.Thread(
            target=self._drain, name="request-log-writer", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------------------

    def record(self, entry: dict) -> None:
        """Enqueue one record; the hot path pays for a queue put, nothing
        else.  Records arriving after ``close()`` are dropped silently —
        the log is already sealed."""
        if self._closed:
            return
        self._queue.put(entry)

    def close(self) -> None:
        """Seal the log: flush every record enqueued so far, then close
        the file.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_CLOSE)
        self._writer.join(timeout=30)
        os.close(self._fd)

    # ------------------------------------------------------------------

    def _open(self) -> int:
        return os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    def _reopen_if_rotated(self) -> None:
        """Follow the live path if a sibling process rotated it away.

        ``O_APPEND`` writes land wherever the descriptor points; after a
        rotation that is the ``.1`` segment, which would still be safe
        (whole lines, never torn) but would grow the wrong file.  An
        inode comparison per batch keeps every writer on the live file.
        """
        try:
            live = os.stat(self.path)
        except FileNotFoundError:
            live = None
        if live is not None and live.st_ino == os.fstat(self._fd).st_ino:
            return
        try:
            fd = self._open()
        except OSError:
            return  # keep the old descriptor; better a misplaced line than none
        os.close(self._fd)
        self._fd = fd

    def _maybe_rotate(self) -> None:
        """Rotate the live file through the ``.N`` chain once it crosses
        ``max_bytes``.  A ``.rotating`` lockfile (``O_CREAT|O_EXCL``)
        elects one rotator among processes sharing the path; losers skip
        and pick up the fresh inode before their next write."""
        if self.max_bytes is None:
            return
        try:
            if os.fstat(self._fd).st_size < self.max_bytes:
                return
        except OSError:
            return
        lock = str(self.path) + ".rotating"
        try:
            lock_fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError:
            return  # a sibling is rotating; the inode check re-syncs us
        try:
            try:
                live = os.stat(self.path)
            except FileNotFoundError:
                return
            if live.st_ino != os.fstat(self._fd).st_ino:
                return  # already rotated under us between check and lock
            # Shift the chain oldest-first: .N -> .N+1, …, live -> .1.
            for index in sorted(_segment_indexes(self.path), reverse=True):
                os.replace(
                    f"{self.path}.{index}", f"{self.path}.{index + 1}"
                )
            os.replace(self.path, f"{self.path}.1")
            fd = self._open()
            os.close(self._fd)
            self._fd = fd
            self.rotations += 1
        except OSError:
            pass  # a failed rotation must not take the writer down
        finally:
            os.close(lock_fd)
            try:
                os.unlink(lock)
            except OSError:
                pass

    def _drain(self) -> None:
        """Writer thread: batch whatever has accumulated into one append.

        Each ``os.write`` carries only whole ``\\n``-terminated lines, so
        concurrent writers on the same path interleave at line
        granularity (O_APPEND atomicity) — never mid-record.  Rotation
        happens only between batches, after a complete write.
        """
        while True:
            entry = self._queue.get()
            closing = entry is _CLOSE
            batch = [] if closing else [entry]
            # Sweep the backlog: one syscall per burst, not per record.
            while True:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _CLOSE:
                    closing = True
                    break
                batch.append(extra)
            if batch:
                lines = "".join(
                    json.dumps(entry, sort_keys=True) + "\n" for entry in batch
                )
                self._reopen_if_rotated()
                try:
                    data = lines.encode("utf-8")
                    os.write(self._fd, data)
                    self.records += len(batch)
                    self.bytes_written += len(data)
                except OSError:
                    # A full disk must not take the serve path down with
                    # it; count the loss so healthz can surface it.
                    self.write_errors += len(batch)
                else:
                    self._maybe_rotate()
            if closing:
                return

    def stats(self) -> dict:
        try:
            file_bytes = os.stat(self.path).st_size
        except OSError:
            file_bytes = 0
        return {
            "path": str(self.path),
            "records": self.records,
            "write_errors": self.write_errors,
            "bytes_written": self.bytes_written,
            "file_bytes": file_bytes,
            "rotations": self.rotations,
        }


def _segment_indexes(path: Path) -> list[int]:
    """Numeric suffixes of existing rotated segments (``path.3`` -> 3)."""
    prefix = path.name + "."
    indexes = []
    for sibling in path.parent.glob(prefix + "*"):
        suffix = sibling.name[len(prefix):]
        if suffix.isdigit():
            indexes.append(int(suffix))
    return indexes


def request_log_segments(path: str | Path) -> list[Path]:
    """Every file of a possibly-rotated log, oldest first, live file last.

    The highest ``.N`` suffix is the oldest segment (rotation shifts the
    chain upward), so replay order is ``.N``, …, ``.1``, then the live
    path.  Missing files (no rotation yet, or no log at all) simply drop
    out of the list.
    """
    path = Path(path)
    ordered = [
        Path(f"{path}.{index}")
        for index in sorted(_segment_indexes(path), reverse=True)
    ]
    if path.exists():
        ordered.append(path)
    return ordered


def iter_request_log(path: str | Path) -> Iterator[dict]:
    """Stream records across every rotated segment in write order — the
    lifecycle replay reader.  Rotation preserves whole lines, so each
    line parses; blank lines (none are written, but editors add them) are
    skipped."""
    for segment in request_log_segments(path):
        with open(segment, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield json.loads(line)


def read_request_log(path: str | Path) -> list[dict]:
    """Parse one request-log file back into records (the retraining
    side's entry point; also what the tests assert against).  For a
    rotated log, :func:`iter_request_log` walks every segment."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
