"""Hash-chained, append-only audit log, and the trace archive beside it.

Each record binds a decision to its proof-trace digest and to the digest of
the previous record, so any byte-level tampering, deletion, or reordering
is detectable by rescanning the file. Records are newline-delimited
canonical JSON; digests are lowercase hex SHA-256.

Only one writer may ever append to a given log: the gateway's handlers
funnel their events through one `AuditPump`, whose single consumer thread
owns the log and the trace archive. Verification and reading are pure and
safe to run concurrently with the writer.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from .canonical import ZERO_DIGEST, canonical_bytes, sha256_hex, value_from_plain

logger = logging.getLogger("axgate.audit")

CAUSE_PARSE = "parse-error"
CAUSE_DIGEST = "digest-mismatch"
CAUSE_LINK = "link-mismatch"
CAUSE_SEQ = "seq-gap"
CAUSE_HEAD = "head-mismatch"


@dataclass(frozen=True, slots=True)
class AuditRecord:
    seq: int
    prev_digest: str
    ts_ns: int
    request_id: str
    tool: str
    env_version: str
    decision: str
    trace_digest: str
    refusal_causes: tuple  # tuples of (reason, axiom_id, symbol)
    enforced: bool
    record_digest: str = ""
    duplicate_of: int | None = None
    note: str | None = None

    def payload(self) -> dict:
        return _payload(self.seq, self.prev_digest, self.ts_ns,
                        self.request_id, self.tool, self.env_version,
                        self.decision, self.trace_digest,
                        self.refusal_causes, self.enforced,
                        self.duplicate_of, self.note)

    def line(self) -> bytes:
        return _line(canonical_bytes(self.payload()), self.record_digest)

    @classmethod
    def from_doc(cls, doc: dict) -> "AuditRecord":
        return cls(
            seq=doc["seq"],
            prev_digest=doc["prev_digest"],
            ts_ns=doc["ts_ns"],
            request_id=doc["request_id"],
            tool=doc["tool"],
            env_version=doc["env_version"],
            decision=doc["decision"],
            trace_digest=doc["trace_digest"],
            refusal_causes=tuple(tuple(c) for c in doc.get("refusal_causes", [])),
            enforced=doc["enforced"],
            record_digest=doc.get("record_digest", ""),
            duplicate_of=doc.get("duplicate_of"),
            note=doc.get("note"),
        )


def _payload(seq, prev_digest, ts_ns, request_id, tool, env_version,
             decision, trace_digest, refusal_causes, enforced,
             duplicate_of=None, note=None) -> dict:
    """The plain document a record's digest is taken over: every field but
    record_digest, with duplicate_of and note left out when None."""
    doc = {
        "seq": seq,
        "prev_digest": prev_digest,
        "ts_ns": ts_ns,
        "request_id": request_id,
        "tool": tool,
        "env_version": env_version,
        "decision": decision,
        "trace_digest": trace_digest,
        "refusal_causes": [list(c) for c in refusal_causes],
        "enforced": enforced,
    }
    if duplicate_of is not None:
        doc["duplicate_of"] = duplicate_of
    if note is not None:
        doc["note"] = note
    return doc


def _line(payload: bytes, record_digest: str) -> bytes:
    """A record's log line: its canonical payload bytes with
    '"record_digest":"<d>",' spliced in, and a newline.

    Sorted keys put "record_digest" directly between "prev_digest" and the
    always-present "refusal_causes", so the splice goes before the first
    '"refusal_causes":' run. That run cannot occur inside a JSON string
    value, whose quotes are escaped, and only the top-level object has
    keys, so the first match is the key. The result is the canonical bytes
    of the payload with the digest added; `_checked_record` cuts the digest
    out at the same place."""
    at = payload.index(b'"refusal_causes":')
    return b'%s"record_digest":"%s",%s\n' % (
        payload[:at], record_digest.encode("ascii"), payload[at:])


class AuditStorageError(OSError):
    """Appending could not be completed durably."""


class AuditWriter:
    """The single appender: assigns sequence numbers, chains digests, and
    writes each record through before acknowledging it.

    An append lands its whole line or none of it: after a failed write or
    fsync the log is truncated back to the end of the last whole record.
    The handle is unbuffered, since a buffer would keep the failed bytes
    and write them with the next record. If that truncation fails too, the
    writer appends nothing more."""

    def __init__(self, path: str, *, fsync: bool = True) -> None:
        self.path = path
        self._fsync = fsync
        self._seq = 0
        self._prev = ZERO_DIGEST
        self._recover_tail()
        self._fh: IO[bytes] = open(path, "ab", buffering=0)
        self._end = self._fh.seek(0, os.SEEK_END)  # of the last whole record
        self._broken: str | None = None

    def _recover_tail(self) -> None:
        """Resume the chain from the last record of an existing log.

        Only the final line is read, so a restart costs the same however
        long the log is. That line must be a whole record that checks as in
        `verify_chain_lines`: new records are never chained onto a torn
        write or onto a record that lost its newline."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        with fh:
            end = fh.seek(0, os.SEEK_END)
            if end == 0:
                return
            # Read back in blocks until a newline before the final byte
            # marks where the last line starts, or the file runs out.
            start, tail = end, b""
            while start > 0 and b"\n" not in tail[:-1]:
                step = min(start, 1 << 16)
                start -= step
                fh.seek(start)
                tail = fh.read(step) + tail
        line = tail[tail.rfind(b"\n", 0, len(tail) - 1) + 1:]
        doc = _checked_record(line)
        if type(doc) is str:
            raise AuditStorageError(
                f"{self.path}: the last line, at byte {end - len(line)}, is "
                f"not a whole audit record ({doc}); refusing to append")
        self._seq = doc["seq"] + 1
        self._prev = doc["record_digest"]

    @property
    def next_seq(self) -> int:
        return self._seq

    def append(self, **fields) -> AuditRecord:
        if self._broken is not None:
            raise AuditStorageError(self._broken)
        payload = canonical_bytes(
            _payload(seq=self._seq, prev_digest=self._prev, **fields))
        record = AuditRecord(seq=self._seq, prev_digest=self._prev,
                             record_digest=sha256_hex(payload), **fields)
        line = _line(payload, record.record_digest)
        try:
            written = 0
            while written < len(line):  # a raw write may land part of it
                written += self._fh.write(line[written:])
            if self._fsync:
                os.fsync(self._fh.fileno())
        except OSError as exc:
            try:
                self._fh.truncate(self._end)
            except OSError as undo:
                self._broken = (f"{self.path}: a failed append left bytes "
                                f"past byte {self._end} that could not be "
                                f"truncated ({undo}); refusing to append")
            raise AuditStorageError(str(exc)) from exc
        self._end += len(line)
        self._seq += 1
        self._prev = record.record_digest
        return record

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self) -> "AuditWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True, slots=True)
class ChainReport:
    ok: bool
    records: int
    bad_index: int | None = None
    cause: str | None = None
    head: str | None = None  # digest of the last intact record

    def render(self) -> str:
        if self.ok:
            return (f"ok: {self.records} records, chain intact, "
                    f"head {self.head or ZERO_DIGEST}")
        return f"bad record at index {self.bad_index}: {self.cause}"


_decode = json.JSONDecoder().decode
# The fields AuditRecord.from_doc cannot read a record without, and those
# the writer writes into every record.
_REQUIRED = frozenset(("seq", "prev_digest", "ts_ns", "request_id", "tool",
                       "env_version", "decision", "trace_digest", "enforced"))
_WRITTEN = _REQUIRED | {"refusal_causes", "record_digest"}
# The fields the writer writes as strings.
_TEXTS = ("prev_digest", "request_id", "tool", "env_version", "decision",
          "trace_digest", "record_digest")
_SCALARS = (int, float, type(None))  # and bool, an int


def _checked_record(line: bytes) -> dict | str:
    """The record one raw log line holds, as its parsed document, or the
    cause it fails with.

    A line without its newline, or that is not UTF-8 or not JSON, is a
    parse-error, and so is a document whose fields are not the writer's
    as `_field_cause` says. Any other line must be the one the writer
    writes for the record it holds, or it is a digest-mismatch: encoding
    it again with `canonical_bytes` must give back the line byte for byte,
    and the line with its '"record_digest":"<d>",' run cut out, where
    `_line` splices it, must hash to <d>."""
    if not line.endswith(b"\n") or line == b"\n":
        return CAUSE_PARSE
    try:
        doc = _decode(line.decode("utf-8"))
    except (ValueError, RecursionError):
        return CAUSE_PARSE
    if type(doc) is not dict:
        return CAUSE_PARSE
    # The writer's fields, of the types it writes: the ones it always
    # writes, no other key but a duplicate_of or note that is not null, seq
    # and ts_ns ints (not bools), the texts strings, enforced a bool, each
    # cause [str, str|null, str|null], duplicate_of an int and note a
    # string.
    causes = doc.get("refusal_causes")
    duplicate_of, note = doc.get("duplicate_of"), doc.get("note")
    optional = (duplicate_of is not None) + (note is not None)
    if not _WRITTEN <= doc.keys() or len(doc) != len(_WRITTEN) + optional \
            or type(causes) is not list or type(doc["seq"]) is not int \
            or type(doc["ts_ns"]) is not int \
            or type(doc["enforced"]) is not bool \
            or duplicate_of is not None and type(duplicate_of) is not int \
            or note is not None and type(note) is not str:
        return _field_cause(doc)
    for key in _TEXTS:
        if type(doc[key]) is not str:
            return _field_cause(doc)
    for cause in causes:
        if type(cause) is not list or len(cause) != 3 \
                or type(cause[0]) is not str \
                or cause[1] is not None and type(cause[1]) is not str \
                or cause[2] is not None and type(cause[2]) is not str:
            return _field_cause(doc)
    digest = doc["record_digest"]
    try:
        if canonical_bytes(doc) + b"\n" != line:
            return CAUSE_DIGEST
    except (ValueError, RecursionError):  # a lone surrogate, say
        return CAUSE_DIGEST
    # The line is canonical, so it holds the key, and the run sits just
    # before the key unless that first match is in an earlier field's value.
    at = line.index(b'"refusal_causes":')
    run = b'"record_digest":"%s",' % digest.encode()
    if not line.endswith(run, 0, at) \
            or sha256_hex(line[:at - len(run)] + line[at:-1]) != digest:
        return CAUSE_DIGEST
    return doc


def _field_cause(doc: dict) -> str:
    """The cause of a document whose fields are not the writer's: a
    parse-error where AuditRecord.from_doc cannot read it, since a field
    it needs is missing or the refusal causes are, or hold, a number, bool
    or null, which it cannot read as tuples; otherwise a digest-mismatch."""
    causes = doc.get("refusal_causes", [])
    if not _REQUIRED <= doc.keys() or isinstance(causes, _SCALARS) \
            or type(causes) is list \
            and any(isinstance(c, _SCALARS) for c in causes):
        return CAUSE_PARSE
    return CAUSE_DIGEST


class _ChainBreak(Exception):
    """The first line of a log that fails verification; its args are the
    line's 0-based index and the verifier's cause."""


def _chain(lines: Iterable[bytes]) -> Iterator[dict]:
    """The one walk over a log: each record's document in order, checked by
    `_checked_record` and linked to the one before it by prev_digest and
    seq. _ChainBreak at the first line that fails, so a reader only ever
    sees a chain that verifies up to the record it reads."""
    expected_prev = ZERO_DIGEST
    for index, line in enumerate(lines):
        doc = _checked_record(line)
        if type(doc) is str:
            raise _ChainBreak(index, doc)
        if doc["prev_digest"] != expected_prev:
            raise _ChainBreak(index, CAUSE_LINK)
        if doc["seq"] != index:
            raise _ChainBreak(index, CAUSE_SEQ)
        expected_prev = doc["record_digest"]
        yield doc


def verify_chain_lines(
    lines: Iterable[bytes], *, expected_head: str | None = None
) -> ChainReport:
    """Recompute every record digest and linkage over raw log lines.

    Tamper evidence is byte-level: each line must be exactly the canonical
    serialization of the record it claims to be (so injected keys, renamed
    fields, whitespace, or anything else the parser would forgive still
    reports digest-mismatch), the recomputed payload digest must match the
    stored one, each prev_digest must equal the predecessor's digest, and
    sequence numbers must be gapless from zero. A final line without its
    newline is a truncated write and reports parse-error.

    Truncating the tail of a hash chain is indistinguishable from a shorter
    log by content alone; pass `expected_head` (the last record digest the
    auditor trusts) to detect it.
    """
    head, records = ZERO_DIGEST, 0
    try:
        for doc in _chain(lines):
            head, records = doc["record_digest"], records + 1
    except _ChainBreak as exc:
        index, cause = exc.args
        return ChainReport(False, index, index, cause)
    if expected_head is not None and head != expected_head:
        return ChainReport(False, records, records, CAUSE_HEAD, head=head)
    return ChainReport(True, records, head=head)


def verify_chain(path: str, *, expected_head: str | None = None) -> ChainReport:
    with open(path, "rb") as fh:
        return verify_chain_lines(fh, expected_head=expected_head)


def iter_records(path: str) -> Iterator[AuditRecord]:
    """The records of a log, read as `verify_chain` reads them: each one is
    yielded only once it and every record before it verify. ValueError
    naming the 1-based line and the cause of the first line that fails."""
    with open(path, "rb") as fh:
        try:
            for doc in _chain(fh):
                yield AuditRecord.from_doc(doc)
        except _ChainBreak as exc:
            index, cause = exc.args
            raise ValueError(f"{path}: line {index + 1} fails "
                             f"verification: {cause}") from None


def find_record(path: str, *, seq: int | None = None,
                request_id: str | None = None) -> AuditRecord | None:
    for record in iter_records(path):
        if seq is not None and record.seq == seq:
            return record
        if request_id is not None and record.request_id == request_id:
            return record
    return None


# Audit pump -------------------------------------------------------------------


_SENTINEL = object()
_QUEUE_SIZE = 1024
_DUPLICATE_WINDOW = 4096  # request ids remembered for duplicate_of
_ARCHIVE_WINDOW = 65536  # trace digests remembered as already archived


@dataclass
class AuditEvent:
    request_id: str
    tool: str
    env_version: str
    decision: str
    trace_digest: str
    refusal_causes: tuple
    enforced: bool
    note: str | None = None
    trace_bytes: bytes | None = field(default=None, repr=False)


def archive_path(log_path: str) -> str:
    """Where the trace archive of the log at `log_path` is."""
    return log_path + ".traces"


class AuditPump:
    """Bounded multi-producer, single-consumer funnel to the audit log.

    Producers block when the queue is full (backpressure, never loss). The
    consumer owns the log file and its trace archive, `archive_path(path)`;
    a storage failure flips the pump into degraded mode instead of blocking
    decisions. A failed archive write sets `archive_degraded` and ends
    archiving, while records keep landing in the log.
    """

    def __init__(self, path: str, *, fsync: bool = True) -> None:
        self._queue: queue.Queue = queue.Queue(maxsize=_QUEUE_SIZE)
        self._writer = AuditWriter(path, fsync=fsync)
        try:
            self._trace_fh = open(archive_path(path), "ab")
        except BaseException:
            self._writer.close()
            raise
        # Two FIFO windows: insert on a miss, evict the oldest entry past the
        # cap, never refresh on a hit. Each keeps its keys in a deque for the
        # eviction order; archived digests are held as their 32 raw bytes.
        self._seen: dict[str, int] = {}
        self._seen_order: deque[str] = deque()
        self._archived: set[bytes] = set()
        self._archived_order: deque[bytes] = deque()
        self.degraded = False
        self.archive_degraded = False
        self.records_written = 0
        self._thread = threading.Thread(
            target=self._run, name="axgate-audit", daemon=True
        )
        self._thread.start()

    def submit(self, event: AuditEvent) -> None:
        self._queue.put(event)  # blocks when full: bounded backpressure

    def drain(self) -> None:
        self._queue.join()

    def close(self) -> None:
        self._queue.put(_SENTINEL)
        self._thread.join()
        self._writer.close()
        self._trace_fh.close()  # a no-op once a failed write closed it

    def _run(self) -> None:
        while True:
            event = self._queue.get()
            try:
                if event is _SENTINEL:
                    return
                self._consume(event)
            finally:
                self._queue.task_done()

    def _consume(self, event: AuditEvent) -> None:
        request_id = event.request_id
        duplicate_of = self._seen.get(request_id) if request_id else None
        try:
            record = self._writer.append(
                ts_ns=time.time_ns(),
                request_id=request_id,
                tool=event.tool,
                env_version=event.env_version,
                decision=event.decision,
                trace_digest=event.trace_digest,
                refusal_causes=event.refusal_causes,
                enforced=event.enforced,
                duplicate_of=duplicate_of,
                note=event.note,
            )
        except Exception:  # storage, or a record that cannot be encoded
            logger.exception("audit append failed; running degraded")
            self.degraded = True
            return
        self.records_written += 1
        # Only a record that was written can be cited as the first of its id.
        if request_id and duplicate_of is None:
            self._seen[request_id] = record.seq
            self._seen_order.append(request_id)
            if len(self._seen_order) > _DUPLICATE_WINDOW:
                del self._seen[self._seen_order.popleft()]
        self._archive_trace(event)

    def _archive_trace(self, event: AuditEvent) -> None:
        if self.archive_degraded or event.trace_bytes is None:
            return
        key = bytes.fromhex(event.trace_digest)
        if key in self._archived:
            return
        self._archived.add(key)
        self._archived_order.append(key)
        if len(self._archived_order) > _ARCHIVE_WINDOW:
            self._archived.remove(self._archived_order.popleft())
        try:
            self._trace_fh.write(_archive_line(event.trace_bytes,
                                               event.trace_digest))
            self._trace_fh.flush()
        except OSError as exc:
            logger.error("trace archive write failed (%s); archiving stopped",
                         exc)
            self.archive_degraded = True
            with contextlib.suppress(OSError):  # a failed flush fails again
                self._trace_fh.close()


def _archive_line(trace_bytes: bytes, trace_digest: str) -> bytes:
    """A trace's archive line: the kernel's canonical trace bytes spliced in
    as they are. Sorted keys put "trace" before "trace_digest", so the line
    is canonical_bytes({"trace_digest": d, "trace": trace.to_plain()})."""
    return b'{"trace":%s,"trace_digest":"%s"}\n' % (
        trace_bytes, trace_digest.encode("ascii"))


def load_archived_bindings(path: str, trace_digest: str, env) -> dict:
    """The bindings archived under this trace digest, decoded under the
    concepts of `env`: {} when there are none. An entry counts only when
    its trace, written again by `canonical_bytes`, gives back its whole
    line and hashes to `trace_digest`; any other line is skipped and hides
    no later one. A binding that `env` does not declare, or that does not
    decode as its concept's kind, is left out, so a notice shows it as
    unavailable."""
    plain: dict = {}
    try:
        with open(path, "rb") as fh:
            for line in fh:
                try:
                    trace = json.loads(line)["trace"]
                    trace_bytes = canonical_bytes(trace)
                except (KeyError, TypeError, ValueError, RecursionError):
                    continue  # RecursionError: nested too deep to parse
                if sha256_hex(trace_bytes) == trace_digest \
                        and _archive_line(trace_bytes, trace_digest) == line:
                    plain = trace["bindings"]
                    break
    except OSError:
        pass
    bindings = {}
    for decl in env.registry:
        if decl.symbol in plain:
            try:
                bindings[decl.symbol] = value_from_plain(plain[decl.symbol], decl)
            except (ArithmeticError, KeyError, TypeError, ValueError):
                pass  # another environment's kind
    return bindings
