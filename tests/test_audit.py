import errno
import json
import time
from collections import Counter
from fractions import Fraction

import pytest

from axgate.audit import (
    AuditStorageError,
    AuditWriter,
    find_record,
    iter_records,
    verify_chain,
    verify_chain_lines,
)
from axgate.canonical import ZERO_DIGEST, canonical_bytes, sha256_hex


def _append_n(path, n, *, decision="Refuted", enforced=True):
    with AuditWriter(str(path), fsync=False) as writer:
        for i in range(n):
            writer.append(
                ts_ns=time.time_ns(),
                request_id=f"r{i}",
                tool="execute_trade",
                env_version="e" * 64,
                decision=decision,
                trace_digest="t" * 64,
                refusal_causes=(("forbid-fired", "cap", None),),
                enforced=enforced,
            )


def test_genesis_record(tmp_path):
    log = tmp_path / "audit.log"
    _append_n(log, 1)
    records = list(iter_records(str(log)))
    assert records[0].seq == 0
    assert records[0].prev_digest == ZERO_DIGEST
    assert records[0].record_digest == \
        sha256_hex(canonical_bytes(records[0].payload()))


def test_identical_decisions_chain_differently(tmp_path):
    log = tmp_path / "audit.log"
    _append_n(log, 2)
    a, b = iter_records(str(log))
    assert a.record_digest != b.record_digest  # seq and prev differ
    assert b.prev_digest == a.record_digest
    assert b.seq == a.seq + 1


def test_thousand_record_chain_verifies(tmp_path):
    log = tmp_path / "audit.log"
    _append_n(log, 1000)
    report = verify_chain(str(log))
    assert report.ok
    assert report.records == 1000
    seqs = [r.seq for r in iter_records(str(log))]
    assert seqs == list(range(1000))


def test_single_byte_flip_detected(tmp_path):
    log = tmp_path / "audit.log"
    _append_n(log, 10)
    data = log.read_bytes()
    lines = data.split(b"\n")
    # flip one byte inside record 5's payload
    target = bytearray(lines[5])
    target[len(target) // 2] ^= 0x01
    lines[5] = bytes(target)
    report = verify_chain_lines([l + b"\n" for l in lines if l])
    assert not report.ok
    assert report.bad_index <= 5


def test_deleted_record_detected(tmp_path):
    log = tmp_path / "audit.log"
    _append_n(log, 10)
    lines = [l for l in log.read_bytes().split(b"\n") if l]
    del lines[5]
    report = verify_chain_lines([l + b"\n" for l in lines])
    assert not report.ok
    assert report.bad_index == 5
    assert report.cause in ("link-mismatch", "seq-gap")


def test_reordered_records_detected(tmp_path):
    log = tmp_path / "audit.log"
    _append_n(log, 10)
    lines = [l for l in log.read_bytes().split(b"\n") if l]
    lines[3], lines[4] = lines[4], lines[3]
    report = verify_chain_lines([l + b"\n" for l in lines])
    assert not report.ok
    assert report.bad_index == 3


def test_truncated_garbage_line_is_parse_error(tmp_path):
    log = tmp_path / "audit.log"
    _append_n(log, 3)
    with open(log, "ab") as fh:
        fh.write(b"{not json\n")
    report = verify_chain(str(log))
    assert not report.ok
    assert report.bad_index == 3
    assert report.cause == "parse-error"


def test_writer_resumes_existing_chain(tmp_path):
    log = tmp_path / "audit.log"
    _append_n(log, 5)
    _append_n(log, 5)  # re-open and continue
    report = verify_chain(str(log))
    assert report.ok
    assert report.records == 10


def _resume_by_full_scan(path):
    """The writer's resume point as it was found by parsing every line."""
    last = None
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                last = json.loads(line)
    return (0, ZERO_DIGEST) if last is None else \
        (last["seq"] + 1, last["record_digest"])


def test_writer_resumes_where_a_full_scan_would(tmp_path):
    """Only the last line is read on restart; for every log that verifies,
    the resumed (seq, prev_digest) is the one a full scan gives, including
    a last record longer than one read-back block."""
    log = tmp_path / "audit.log"
    log.touch()
    for extra in (0, 1, 2, 40):
        _append_n(log, extra)
        assert verify_chain(str(log)).ok
        with AuditWriter(str(log), fsync=False) as writer:
            assert (writer.next_seq, writer._prev) == _resume_by_full_scan(log)
    with AuditWriter(str(log), fsync=False) as writer:
        writer.append(ts_ns=1, request_id="r" * 150_000, tool="t",
                      env_version="e" * 64, decision="Proven",
                      trace_digest="t" * 64, refusal_causes=(),
                      enforced=False)
    assert verify_chain(str(log)).ok
    with AuditWriter(str(log), fsync=False) as writer:
        assert (writer.next_seq, writer._prev) == _resume_by_full_scan(log)
        assert writer.next_seq == 44
    with AuditWriter(str(tmp_path / "new.log"), fsync=False) as writer:
        assert (writer.next_seq, writer._prev) == (0, ZERO_DIGEST)


@pytest.mark.parametrize("damage", ["torn", "unterminated", "rewritten"])
def test_damaged_tail_refuses_to_resume(tmp_path, damage):
    """A writer never chains onto a last line that is not a whole, checked
    record: it stops with the path and the line's byte offset."""
    log = tmp_path / "audit.log"
    _append_n(log, 3)
    data = log.read_bytes()
    last_at = data.rindex(b"\n", 0, len(data) - 1) + 1
    if damage == "torn":  # a write cut short
        log.write_bytes(data + data[last_at:last_at + 40])
        last_at = len(data)
    elif damage == "unterminated":  # a whole record without its newline
        log.write_bytes(data[:-1])
    else:  # edited in place, digest left stale
        log.write_bytes(data.replace(b'"request_id":"r2"',
                                     b'"request_id":"r9"'))
    with pytest.raises(AuditStorageError) as info:
        AuditWriter(str(log), fsync=False)
    assert str(log) in str(info.value)
    assert f"byte {last_at}" in str(info.value)


def test_find_record(tmp_path):
    log = tmp_path / "audit.log"
    _append_n(log, 5)
    assert find_record(str(log), seq=3).request_id == "r3"
    assert find_record(str(log), request_id="r2").seq == 2
    assert find_record(str(log), seq=99) is None


def test_duplicate_of_field_participates_in_digest(tmp_path):
    log = tmp_path / "audit.log"
    with AuditWriter(str(log), fsync=False) as writer:
        writer.append(
            ts_ns=1, request_id="a", tool="t", env_version="e" * 64,
            decision="Proven", trace_digest="t" * 64,
            refusal_causes=(), enforced=True,
        )
        writer.append(
            ts_ns=2, request_id="a", tool="t", env_version="e" * 64,
            decision="Proven", trace_digest="t" * 64,
            refusal_causes=(), enforced=True, duplicate_of=0,
        )
    report = verify_chain(str(log))
    assert report.ok
    records = list(iter_records(str(log)))
    assert records[1].duplicate_of == 0


def test_pump_cites_no_record_after_a_failed_append(tmp_path, monkeypatch):
    """A request id is remembered only once its record is written. Before,
    a failed append left the id at the sequence number the next record
    took, so a retry of the id cited another request's record."""
    from axgate.audit import AuditEvent, AuditPump

    append = AuditWriter.append
    failed = []

    def append_failing_once(self, **fields):
        if not failed:
            failed.append(fields["request_id"])
            raise AuditStorageError("disk full")
        return append(self, **fields)

    monkeypatch.setattr(AuditWriter, "append", append_failing_once)
    log = tmp_path / "audit.log"
    pump = AuditPump(str(log), fsync=False)
    try:
        for request_id in ("lost", "other", "lost"):
            pump.submit(AuditEvent(
                request_id=request_id, tool="t", env_version="e" * 64,
                decision="Proven", trace_digest="t" * 64,
                refusal_causes=(), enforced=False,
            ))
        pump.drain()
    finally:
        pump.close()
    assert failed == ["lost"] and pump.degraded
    assert [(r.seq, r.request_id, r.duplicate_of)
            for r in iter_records(str(log))] == \
        [(0, "other", None), (1, "lost", None)]


class _TornWrite:
    """A log handle that lands half of each write and then fails as on a
    full disk; with `stuck`, truncating it fails too."""

    def __init__(self, fh, stuck=False):
        self.fh, self.stuck = fh, stuck

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def truncate(self, size):
        if self.stuck:
            raise OSError(errno.EIO, "Input/output error")
        return self.fh.truncate(size)


_FIELDS = dict(ts_ns=1, request_id="r", tool="t", env_version="e" * 64,
               decision="Proven", trace_digest="t" * 64, refusal_causes=(),
               enforced=False)


def test_a_failed_append_leaves_no_partial_bytes(tmp_path):
    """A write that lands half a line and fails is truncated away, and the
    next append chains on the last whole record. Before, the half line
    stayed (a buffered handle wrote it out with the next record), so
    verify_chain reported parse-error at index 1 and no writer could start
    on the log."""
    log = tmp_path / "audit.log"
    _append_n(log, 1)
    size = log.stat().st_size
    with AuditWriter(str(log), fsync=True) as writer:
        fh, writer._fh = writer._fh, _TornWrite(writer._fh)
        with pytest.raises(AuditStorageError):
            writer.append(**_FIELDS)
        assert log.stat().st_size == size
        writer._fh = fh
        assert writer.append(**_FIELDS).seq == 1
    report = verify_chain(str(log))
    assert (report.ok, report.records) == (True, 2)
    AuditWriter(str(log)).close()


def test_a_writer_that_cannot_truncate_appends_nothing_more(tmp_path):
    log = tmp_path / "audit.log"
    with AuditWriter(str(log), fsync=False) as writer:
        fh, writer._fh = writer._fh, _TornWrite(writer._fh, stuck=True)
        with pytest.raises(AuditStorageError):
            writer.append(**_FIELDS)
        torn = log.read_bytes()
        writer._fh = fh
        with pytest.raises(AuditStorageError, match="refusing to append"):
            writer.append(**_FIELDS)
    assert torn and log.read_bytes() == torn


def test_archived_bindings_decode_only_under_their_own_kinds(tmp_path):
    """A binding archived under one policy is read back under that policy's
    concepts. A policy that declares the same symbols with other kinds
    decodes none of them, so its notice shows them as unavailable."""
    from axgate.audit import AuditEvent, AuditPump, load_archived_bindings
    from axgate.compiler import compile_source
    from axgate.kernel import ActionRequest, SystemState, verify
    from axgate.notices import render_notice_from_parts

    explain = ('axiom max_order forbid execute_trade when volume > '
               'max_order_size\n  explain "Order volume {volume} exceeds '
               'the maximum order size {max_order_size}."\n')
    quantities = compile_source(
        'concept volume : quantity from request "Order volume (shares)"\n'
        'concept max_order_size : quantity from state '
        '"Maximum order size (shares)"\n' + explain).environment
    money = compile_source(
        'concept volume : money "USD" from request "Order volume (shares)"\n'
        'concept max_order_size : money "USD" from state '
        '"Maximum order size (shares)"\n' + explain).environment
    result = verify(ActionRequest("r", "execute_trade",
                                  {"volume": Fraction(99999)}),
                    SystemState({"max_order_size": Fraction(100)}), quantities)
    assert not result.proven

    archive = tmp_path / "audit.log.traces"
    pump = AuditPump(str(tmp_path / "audit.log"), fsync=False)
    try:
        pump.submit(AuditEvent(
            request_id="r", tool="execute_trade",
            env_version=quantities.version_digest, decision=result.decision,
            trace_digest=result.trace_digest, refusal_causes=(),
            enforced=True, trace_bytes=result.trace_bytes))
        pump.drain()
    finally:
        pump.close()

    assert load_archived_bindings(str(archive), result.trace_digest,
                                  quantities) == \
        {"volume": Fraction(99999), "max_order_size": Fraction(100)}
    bindings = load_archived_bindings(str(archive), result.trace_digest, money)
    assert bindings == {}
    notice = render_notice_from_parts(result.refusal_causes, bindings, money,
                                      "r")
    assert notice.lines == (
        "Order volume <Order volume (shares): unavailable> exceeds the "
        "maximum order size <Maximum order size (shares): unavailable>.",)


def test_record_with_key_like_strings_round_trips(tmp_path):
    """Writing splices "record_digest" into the payload bytes and verifying
    cuts it back out; strings that spell those keys must not confuse either,
    and every single-byte flip of such a record is still caught."""
    log = tmp_path / "audit.log"
    tricky = 'x","record_digest":"' + "0" * 64 + '",\\"refusal_causes":[]'
    note = ',"refusal_causes":[["日",null,null]],"record_digest":"'
    with AuditWriter(str(log), fsync=False) as writer:
        written = writer.append(
            ts_ns=1, request_id=tricky, tool="execute_trade",
            env_version="e" * 64, decision="Refuted", trace_digest="t" * 64,
            refusal_causes=(("forbid-fired", "cap", '"refusal_causes":'),),
            enforced=True, duplicate_of=0, note=note,
        )
    line = log.read_bytes()
    assert line == written.line()
    assert written.record_digest == \
        sha256_hex(canonical_bytes(written.payload()))
    assert verify_chain(str(log)).ok
    found = find_record(str(log), request_id=tricky)
    assert found == written
    assert found.note == note

    for i in range(len(line)):
        flipped = bytearray(line)
        flipped[i] ^= 0x01
        report = verify_chain_lines([bytes(flipped)])
        assert not report.ok, i
        assert report.cause in ("digest-mismatch", "parse-error"), i


# Pinned from the writer before its line encoder was shared with the
# verifier: any change to this value is an audit format change.
GOLDEN_LOG_SHA256 = \
    "3e641650fa887ba2aebd58effba5108bb31bff5cd8c3d789b7f84e027d6e172d"


def _golden_log(path):
    """200 records with fixed timestamps: both decisions, duplicates, notes,
    and request ids that spell the keys a line is spliced around."""
    ids = ("plain", '"record_digest":"' + "f" * 64 + '",',
           '","refusal_causes":[],"x":"', "日本 \\", "")
    with AuditWriter(str(path), fsync=False) as writer:
        for i in range(200):
            proven = i % 3 == 0
            writer.append(
                ts_ns=1_700_000_000_000_000_000 + i * 1_000_003,
                request_id=f"{ids[i % len(ids)]}{i % 40}",
                tool="execute_trade" if i % 2 else "transfer",
                env_version=f"{i % 7:x}" * 64,
                decision="Proven" if proven else "Refuted",
                trace_digest=f"{i % 11:x}" * 64,
                refusal_causes=() if proven else (
                    ("forbid-fired", f"ax{i % 5}", None),
                    ("binding-failure", "cap", '"refusal_causes":'))[:1 + i % 2],
                enforced=not proven and i % 4 != 1,
                duplicate_of=i - 40 if i >= 40 else None,
                note=("upstream-unreachable", None, '"record_digest":"',
                      None)[i % 4],
            )


def test_golden_log_bytes(tmp_path):
    import hashlib

    log = tmp_path / "audit.log"
    _golden_log(log)
    data = log.read_bytes()
    assert data.count(b"\n") == 200
    assert verify_chain(str(log)).ok
    assert hashlib.sha256(data).hexdigest() == GOLDEN_LOG_SHA256


def _flip_request_id(path, k):
    """Record k with its request id edited in place ("r" -> "s"): the line
    still parses, and its stored digest no longer recomputes."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[k] = lines[k].replace(b'"request_id":"r', b'"request_id":"s', 1)
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("k", [0, 4, 9])
def test_readers_see_only_the_chain_that_verifies(tmp_path, k):
    """iter_records and find_record walk the log as verify_chain does: a
    record is read only once it and every record before it verify. Before,
    a lenient parse read an edited record as genuine."""
    log = tmp_path / "audit.log"
    _append_n(log, 10)
    _flip_request_id(log, k)
    report = verify_chain(str(log))
    assert (report.ok, report.bad_index, report.cause) == \
        (False, k, "digest-mismatch")

    records = iter_records(str(log))
    assert [next(records).seq for _ in range(k)] == list(range(k))
    with pytest.raises(ValueError) as info:
        next(records)
    assert f"line {k + 1} fails verification: digest-mismatch" in \
        str(info.value)
    for j in range(10):
        if j < k:
            assert find_record(str(log), seq=j).request_id == f"r{j}"
        else:
            with pytest.raises(ValueError, match=f"line {k + 1} "):
                find_record(str(log), seq=j)
    with pytest.raises(ValueError, match="digest-mismatch"):
        find_record(str(log), request_id=f"s{k}")


def test_readers_name_the_verifier_cause_and_line(tmp_path):
    """Each way a log fails is reported by the readers with the cause and
    the 1-based line verify_chain gives it."""
    log = tmp_path / "audit.log"
    _append_n(log, 4)
    lines = log.read_bytes().splitlines(keepends=True)
    for damaged, line, cause in (
        (lines[:2] + [b"\n"] + lines[2:], 3, "parse-error"),
        (lines[:1] + lines[2:], 2, "link-mismatch"),
        (lines[:3] + [lines[3][:-1]], 4, "parse-error"),
    ):
        log.write_bytes(b"".join(damaged))
        report = verify_chain(str(log))
        assert (report.bad_index, report.cause) == (line - 1, cause)
        with pytest.raises(ValueError,
                           match=f"line {line} fails verification: {cause}"):
            list(iter_records(str(log)))


def test_pump_survives_a_record_it_cannot_encode(tmp_path):
    """Any failure to append degrades the pump and keeps its consumer
    running. Before, a tool with a lone surrogate raised UnicodeEncodeError
    out of the consumer, which died, so no later record was written and
    submit() blocked once the queue filled."""
    import threading

    from axgate.audit import AuditEvent, AuditPump

    def event(request_id, tool):
        return AuditEvent(request_id=request_id, tool=tool,
                          env_version="e" * 64, decision="Refuted",
                          trace_digest=ZERO_DIGEST, refusal_causes=(),
                          enforced=False)

    log = tmp_path / "audit.log"
    pump = AuditPump(str(log), fsync=False)
    try:
        pump.submit(event("a", "\ud800"))
        pump.submit(event("b", "execute_trade"))
        drained = threading.Thread(target=pump.drain, daemon=True)
        drained.start()
        drained.join(5)
        assert not drained.is_alive()
        assert pump.degraded and pump.records_written == 1
        assert pump._thread.is_alive()
    finally:
        pump.close()
    assert [r.request_id for r in iter_records(str(log))] == ["b"]


def test_pump_closes_its_log_when_the_archive_cannot_be_opened(tmp_path):
    """Before, the writer's file stayed open when the archive failed to
    open; collecting it warns, and the ResourceWarning filter fails that."""
    import gc

    from axgate.audit import AuditPump

    (tmp_path / "audit.log.traces").mkdir()
    with pytest.raises(IsADirectoryError):
        AuditPump(str(tmp_path / "audit.log"), fsync=False)
    gc.collect()


def test_archived_bindings_count_only_under_their_own_digest(tmp_path):
    """An archive entry is read only when its trace, written again
    canonically, gives back its line and hashes to the record's digest. An
    entry whose binding was edited under the same digest is not read."""
    from axgate.audit import AuditEvent, AuditPump, load_archived_bindings
    from axgate.compiler import compile_source
    from axgate.kernel import ActionRequest, SystemState, verify

    env = compile_source(
        'concept volume : quantity from request "Order volume (shares)"\n'
        "axiom ordinary permit execute_trade when volume > 0\n").environment
    result = verify(ActionRequest("r", "execute_trade",
                                  {"volume": Fraction(7)}),
                    SystemState({}), env)
    archive = tmp_path / "audit.log.traces"
    pump = AuditPump(str(tmp_path / "audit.log"), fsync=False)
    try:
        pump.submit(AuditEvent(
            request_id="r", tool="execute_trade",
            env_version=env.version_digest, decision=result.decision,
            trace_digest=result.trace_digest, refusal_causes=(),
            enforced=False, trace_bytes=result.trace_bytes))
        pump.drain()
    finally:
        pump.close()
    good = archive.read_bytes()
    assert load_archived_bindings(str(archive), result.trace_digest, env) == \
        {"volume": Fraction(7)}

    doc = json.loads(good)
    doc["trace"]["bindings"]["volume"] = "9/1"
    edited = canonical_bytes(doc) + b"\n"
    spaced = json.dumps(json.loads(good)).encode() + b"\n"
    for lines, expected in (
        (edited, {}),
        (spaced, {}),  # the right trace, but not the line its encoder writes
        (edited + spaced + good, {"volume": Fraction(7)}),
        # nested too deep to parse: skipped, not raised
        (b"[" * 100_000 + b"\n" + good, {"volume": Fraction(7)}),
    ):
        archive.write_bytes(lines)
        assert load_archived_bindings(str(archive), result.trace_digest,
                                      env) == expected


def _reference_checked_record(line):
    """The checking reader as it was when it built an AuditRecord from each
    line and encoded the record's payload again, kept unchanged as the
    reference `_checked_record` is compared against."""
    from axgate.audit import AuditRecord, _line

    if not line.endswith(b"\n") or line == b"\n":
        return "parse-error"
    try:
        record = AuditRecord.from_doc(json.loads(line))
    except (ValueError, KeyError, TypeError):
        return "parse-error"
    payload = canonical_bytes(record.payload())
    if sha256_hex(payload) != record.record_digest \
            or _line(payload, record.record_digest) != line:
        return "digest-mismatch"
    return record


def _sealed(doc):
    """The line of `doc` with a record_digest that hashes what is left when
    the digest run is cut out, as a forger who knows the scheme writes it."""
    doc = {k: v for k, v in doc.items() if k != "record_digest"}
    digest = sha256_hex(canonical_bytes(doc))
    return canonical_bytes({**doc, "record_digest": digest}) + b"\n"


def _crafted_lines(line):
    """Lines built from one good line: each key missing, with and without
    the digest recomputed, fields of the wrong shape or an extra key, other
    top levels, and whitespace the parser forgives."""
    doc = json.loads(line)
    shapes = [{k: v for k, v in doc.items() if k != key} for key in doc]
    shapes += [{**doc, "duplicate_of": None}, {**doc, "note": None},
               {**doc, "x": 1}, {**doc, "red": 1},  # "red" sorts in the run
               {**doc, "duplicate_of": {"refusal_causes": 1}},
               {**doc, "record_digest": 5}]
    shapes += [{**doc, "refusal_causes": causes} for causes in (
        "ab", 5, [5], [{"a": 1}], None, {}, "", [""], [["a"], 5],
        [["a"], "bc"])]
    crafted = [canonical_bytes(shape) + b"\n" for shape in shapes]
    crafted += [_sealed(shape) for shape in shapes]
    at = line.index(b'"record_digest":"') + len(b'"record_digest":"')
    crafted += [line[:at] + b"\\ud800" + line[at + 64:],  # cannot encode
                b"[]\n", b'"x"\n', b"5\n", b"null\n", b"{}\n", b"\n", b"",
                line[:-1], line[:-1] + b" \n", line[:-1] + b"\r\n",
                b" " + line, line + line]
    return crafted


def _wrong_type_shapes(line):
    """Documents built from one good line with one field of a type the
    writer never writes; every other field is the writer's."""
    doc = json.loads(line)
    cause = ["forbid-fired", "ax", None]
    shapes = [{**doc, "seq": 1.0}, {**doc, "seq": True}, {**doc, "seq": "1"},
              {**doc, "ts_ns": False}, {**doc, "ts_ns": 1.5},
              {**doc, "enforced": 1}, {**doc, "enforced": None},
              {**doc, "duplicate_of": True}, {**doc, "duplicate_of": "3"},
              {**doc, "note": 5}, {**doc, "note": ["n"]}]
    shapes += [{**doc, key: value} for key in (
        "prev_digest", "request_id", "tool", "env_version", "decision",
        "trace_digest") for value in (5, None, True, ["x"])]
    shapes += [{**doc, "refusal_causes": [c]} for c in (
        [1, None], ["a"], ["a", "b"], cause + [None], [None, "ax", None],
        ["forbid-fired", 5, None], ["forbid-fired", "ax", True],
        ["forbid-fired", ["ax"], None])]
    return shapes


def _damaged_lines(line):
    """Every single-byte flip (three masks), deletion and duplication."""
    for i in range(len(line)):
        for mask in (0x01, 0x20, 0x80):
            flipped = bytearray(line)
            flipped[i] ^= mask
            yield bytes(flipped)
        yield line[:i] + line[i + 1:]
        yield line[:i + 1] + line[i:]


def _outcome(checked):
    return checked if isinstance(checked, str) else "ok"


def test_reader_gives_the_reference_readers_causes(tmp_path):
    """`_checked_record` reads each line as a document, with no record
    object, and cuts the digest run out of the line to hash it. Over damaged
    and crafted lines it gives the cause the reference reader gives, and
    the same record for every line that checks."""
    from axgate.audit import AuditRecord, _checked_record

    log = tmp_path / "audit.log"
    _golden_log(log)
    golden = log.read_bytes().splitlines(keepends=True)
    # plain; the two ids that spell keys, with notes that do; CJK and "\"
    chosen = [golden[i] for i in (0, 41, 42, 43, 46)]
    lines = [damaged for line in chosen for damaged in _damaged_lines(line)]
    lines += [crafted for line in chosen for crafted in _crafted_lines(line)]
    outcomes = Counter()
    for line in lines:
        reference, checked = _reference_checked_record(line), \
            _checked_record(line)
        assert _outcome(checked) == _outcome(reference), line
        if not isinstance(checked, str):
            assert AuditRecord.from_doc(checked) == reference
        outcomes[_outcome(checked)] += 1
    assert set(outcomes) == {"ok", "parse-error", "digest-mismatch"}

    # Fields of a type the writer never writes. The reference read each
    # such line it could hash as a record (sealed, it reads "ok"); now each
    # one is a digest-mismatch, sealed or not, as any line the writer
    # cannot have written.
    for line in chosen:
        for shape in _wrong_type_shapes(line):
            sealed = _sealed(shape)
            assert _outcome(_reference_checked_record(sealed)) == "ok", shape
            for wrong in (canonical_bytes(shape) + b"\n", sealed):
                assert _checked_record(wrong) == "digest-mismatch", shape

    # Lines the reference reads otherwise: it raised on a lone surrogate
    # and on deep nesting, and decoded a UTF-8 BOM and UTF-16 as JSON.
    good = golden[46]
    surrogate = json.loads(good)
    surrogate["request_id"] = "\ud800"
    raw = json.dumps(surrogate, sort_keys=True, separators=(",", ":"),
                     ensure_ascii=False).encode("utf-8", "surrogatepass")
    escaped = raw.replace(b"\xed\xa0\x80", b"\\ud800")
    for line, before, after in (
        (escaped + b"\n", UnicodeEncodeError, "digest-mismatch"),
        (raw + b"\n", UnicodeEncodeError, "parse-error"),
        (b"[" * 100_000 + b"\n", RecursionError, "parse-error"),
        (b"\xef\xbb\xbf" + good, "digest-mismatch", "parse-error"),
        (good.decode().encode("utf-16-be"), "digest-mismatch", "parse-error"),
    ):
        if isinstance(before, str):
            assert _reference_checked_record(line) == before
        else:
            with pytest.raises(before):
                _reference_checked_record(line)
        assert _checked_record(line) == after


def test_a_resealed_line_of_types_the_writer_never_writes_breaks_the_chain(
        tmp_path, capsys):
    """The second of two records rewritten with `"seq":true` and `"tool":5`
    and its digest recomputed. Before, `audit verify` printed "ok: 2
    records, chain intact" (true == 1 passed the seq check) and
    iter_records yielded seq=True, tool=5, a record the writer cannot
    write."""
    from axgate.cli import main

    log = tmp_path / "audit.log"
    _append_n(log, 2)
    first, second = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(first + _sealed({**json.loads(second), "seq": True,
                                     "tool": 5}))
    report = verify_chain(str(log))
    assert (report.ok, report.bad_index, report.cause) == \
        (False, 1, "digest-mismatch")
    with pytest.raises(ValueError,
                       match="line 2 fails verification: digest-mismatch"):
        list(iter_records(str(log)))
    assert main(["audit", "verify", str(log)]) == 1
    assert capsys.readouterr().out.strip() == \
        "bad record at index 1: digest-mismatch"


@pytest.mark.parametrize("spelling, cause", [
    (b"\\ud800", "digest-mismatch"),  # a JSON escape: parses, cannot encode
    (b"\xed\xa0\x80", "parse-error"),  # a surrogate's bytes: not UTF-8
], ids=["escaped", "bytes"])
def test_a_lone_surrogate_is_a_cause_not_an_exception(tmp_path, capsys,
                                                      spelling, cause):
    """A line holding a lone surrogate fails with its cause and its line.
    Before, every reader raised UnicodeEncodeError: `audit verify` printed
    the codec's error without naming the line, and a writer on a log ending
    in such a line raised it instead of refusing to append."""
    from axgate.cli import main

    log = tmp_path / "audit.log"
    _append_n(log, 3)
    data = log.read_bytes()
    for index in (1, 2):
        lines = data.splitlines(keepends=True)
        lines[index] = lines[index].replace(
            b'"request_id":"r', b'"request_id":"' + spelling, 1)
        log.write_bytes(b"".join(lines))
        report = verify_chain(str(log))
        assert (report.ok, report.bad_index, report.cause) == \
            (False, index, cause)
        with pytest.raises(ValueError, match=f"line {index + 1} fails "
                                             f"verification: {cause}"):
            list(iter_records(str(log)))
        assert main(["audit", "verify", str(log)]) == 1
        assert capsys.readouterr().out.strip() == \
            f"bad record at index {index}: {cause}"
    with pytest.raises(AuditStorageError,
                       match=f"byte {len(b''.join(lines[:2]))},.*{cause}"):
        AuditWriter(str(log), fsync=False)
