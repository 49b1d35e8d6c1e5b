"""The HTTP/1.1 framer on bytes alone. Every case is fed whole, one byte at
a time, and split in two at every index; all three must give the same
events, and the same error or the same bytes left unread."""

from http import HTTPStatus

import pytest

from axgate import http1
from axgate.http1 import (
    MAX_HEAD_LINES,
    MAX_LINE,
    Head,
    ProtocolError,
    Refusal,
    Reply,
    ReplyReader,
    RequestReader,
    content_length,
    write_head,
)
from test_gateway import (
    _BAD_FRAMING,
    _CHUNKED,
    _CONTINUE,
    _EARLY_HINTS,
    _HEADS,
    _HTTP10,
    _HTTP10_KEEP_ALIVE,
    _NO_CONTENT,
    _TO_CLOSE,
    _UNRELAYABLE,
    UPSTREAM_OK,
    _smuggled,
)

MAX_BODY = 1 << 20


def _feed(make, pieces):
    """(events, bytes left unread) of feeding `pieces` and then the end of
    the stream to a fresh reader; (events, the error's arguments) when it
    raises."""
    reader, events = make(), []
    try:
        for piece in [*pieces, b""]:
            events += reader.feed(piece)
    except ProtocolError as exc:
        return events, exc.args
    return events, bytes(reader.buffer)


def fed_every_way(make, data: bytes):
    """The outcome of `data` fed whole, after checking that one byte at a
    time and every split in two give the same."""
    whole = _feed(make, [data])
    assert _feed(make, [data[i:i + 1] for i in range(len(data))]) == whole
    for i in range(1, len(data)):
        assert _feed(make, [data[:i], data[i:]]) == whole, i
    return whole


def requests(data: bytes, max_body: int = MAX_BODY):
    events, _ = fed_every_way(lambda: RequestReader(max_body), data)
    return events


def reply(data: bytes):
    """(the reply and the bytes left after it), or (None, the error's
    arguments)."""
    events, rest = fed_every_way(ReplyReader, data)
    assert len(events) == (1 if isinstance(rest, bytes) else 0)
    return (events[0] if events else None), rest


def head(method="POST", target="/v1/verify", version="HTTP/1.1", fields=None,
         malformed=False, close=False, expect_continue=False,
         declares_body=True):
    return Head(method, target, version, fields or {}, malformed, close,
                expect_continue, declares_body)


# Requests ---------------------------------------------------------------------


@pytest.mark.parametrize("framing, status, error", _BAD_FRAMING)
def test_bad_framing_is_one_refusal_and_the_body_is_never_a_request(
        framing, status, error):
    events = requests(b"POST /v1/verify HTTP/1.1\r\nHost: x\r\n%s\r\n\r\n%s"
                      % (framing, _smuggled("/v1/verify")))
    assert [type(event) for event in events] == [Head, Refusal]
    assert events[0].declares_body
    assert events[1] == Refusal(status, error, True)


def _page(status, message=None, explain=None, bare=False):
    return Refusal(status, message or HTTPStatus(status).phrase, True,
                   explain, bare)


# The events of each row of test_gateway's _HEADS, in its order.
_HEAD_EVENTS = [
    [_page(414)],
    [head("BREW", "/v1/healthz", declares_body=False)],
    [_page(505, "Invalid HTTP version (2.0)", bare=True)],
    [_page(400, "Bad request version ('HTTP/1.x')", bare=True)],
    [_page(400, "Bad request syntax ('GET /v1/healthz now HTTP/1.1')")],
    [_page(431, "Line too long", "got more than 65536 bytes when reading "
           "header line")],
    [_page(431, "Too many headers", "got more than 100 headers")],
    [head("GET", "/v1/healthz", fields={"x": ["a"] * 98,
                                        "connection": ["close"]},
          close=True, declares_body=False)],
    [head("GET", "/v1/healthz", fields={"connection": ["close"]}, close=True,
          declares_body=False)],
    [head("GET", "/v1/healthz", "HTTP/1.0", close=True, declares_body=False)],
    [head("GET", "/v1/healthz", "HTTP/1.0", {"connection": ["Keep-Alive"]},
          declares_body=False)],
]


@pytest.mark.parametrize("row, expected", zip(_HEADS, _HEAD_EVENTS), ids=[
    "uri-too-long", "unknown-method", "http-2", "bad-version", "four-words",
    "field-too-long", "100-fields", "99-fields", "close", "http-1.0",
    "http-1.0-keep-alive"])
def test_request_lines_and_head_limits(row, expected):
    data, _, stays_open = row
    events = requests(data)
    assert events == expected
    if isinstance(events[0], Head) and events[0].method == "GET":
        assert events[0].close is not stays_open


def test_a_line_may_be_max_line_bytes_and_no_longer(monkeypatch):
    """The limits are http.client's. The boundary is checked at a small
    limit; the rows of _HEADS cross the real one."""
    assert (MAX_LINE, MAX_HEAD_LINES) == (65536, 100)
    monkeypatch.setattr(http1, "MAX_LINE", 32)
    field = b"X: " + b"a" * 27 + b"\r\n"
    assert requests(b"GET / HTTP/1.1\r\n%s\r\n" % field) == [
        head("GET", "/", fields={"x": ["a" * 27]}, declares_body=False)]
    assert requests(b"GET / HTTP/1.1\r\nX%s\r\n" % field) == [_page(
        431, "Line too long", "got more than 32 bytes when reading header line")]
    line = b"GET /" + b"a" * 16 + b" HTTP/1.1\r\n"
    assert requests(line + b"\r\n") == [
        head("GET", "/" + "a" * 16, declares_body=False)]
    assert requests(b"GET /a" + line[5:] + b"\r\n") == [_page(414)]
    assert reply(b"HTTP/1.1 200 OK\r\n%s\r\n" % field)[0] is not None
    assert reply(b"HTTP/1.1 200 OK\r\nX%s\r\n" % field)[0] is None


def test_pipelined_requests_are_read_in_order():
    events = requests(
        b"POST /v1/verify HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
        b"GET /v1/healthz HTTP/1.1\r\n\r\n"
        b"POST /v1/execute HTTP/1.1\r\nContent-Length: 2, 2\r\n"
        b"Content-Length: 2\r\nConnection: close\r\n\r\nde")
    assert events == [
        head(fields={"content-length": ["3"]}), b"abc",
        head("GET", "/v1/healthz", declares_body=False),
        head(target="/v1/execute", close=True, fields={
            "content-length": ["2, 2", "2"], "connection": ["close"]}), b"de"]


def test_an_oversize_body_is_dropped_and_the_next_request_read():
    events = requests(b"POST /v1/verify HTTP/1.1\r\nContent-Length: 10\r\n\r\n"
                      b"0123456789GET / HTTP/1.1\r\n\r\n", max_body=4)
    assert events == [head(fields={"content-length": ["10"]}),
                      Refusal(413, "oversize-body", False),
                      head("GET", "/", declares_body=False)]


@pytest.mark.parametrize("data", [
    b"", b"GET /v1/healthz HTTP/1.1", b"GET /v1/healthz HTTP/1.1\r\n",
    b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n"])
def test_a_stream_that_ends_inside_a_head_gives_no_request(data):
    assert requests(data) == []


def test_a_stream_that_ends_inside_a_body_gives_a_refusal():
    body = b'{"request_id": "cut", "tool": "t"}'
    for max_body in (MAX_BODY, 4):  # read, or dropped as oversize
        events = requests(b"POST /v1/verify HTTP/1.1\r\nContent-Length: %d"
                          b"\r\n\r\n%s" % (len(body) + 1, body), max_body)
        assert events == [head(fields={"content-length": [str(len(body) + 1)]}),
                          Refusal(400, "incomplete-body", True)]


def test_keep_alive_expect_and_http_0_9():
    assert requests(b"GET /v1/healthz\r\n\r\n") == [
        head("GET", "/v1/healthz", "HTTP/0.9", close=True,
             declares_body=False)]
    assert requests(b"POST /x\r\n\r\n") == [
        _page(400, "Bad HTTP/0.9 request type ('POST')", bare=True)]
    assert requests(b"GET\r\n") == [
        _page(400, "Bad request syntax ('GET')", bare=True)]
    assert requests(b"\r\nGET / HTTP/1.1\r\n\r\n") == [Refusal(0, "", True)]
    assert requests(b"GET //v1//policy HTTP/1.1\r\n\r\n")[0].target == \
        "/v1//policy"
    for version, expect in (("HTTP/1.0", False), ("HTTP/1.1", True)):
        events = requests(b"POST /v1/verify %s\r\nExpect: 100-Continue\r\n"
                          b"Content-Length: 0\r\n\r\n" % version.encode())
        assert events[0].expect_continue is expect
        assert events[1] == b""


def test_a_head_with_a_field_line_that_is_not_name_value_frames_nothing():
    for line in (b"Content-Length : 5", b" Content-Length: 5", b"NoColon",
                 b"X: a\rb"):
        events = requests(b"GET /v1/healthz HTTP/1.1\r\n%s\r\n\r\nhello"
                          % line)
        assert events[0].malformed and events[0].declares_body
        assert events[1:] == [Refusal(400, "bad-framing", True)]


@pytest.mark.parametrize("values, length", [
    ([], -1), (["5"], 5), (["5", "5"], 5), (["5, 05"], 5), ([" 5 \t"], 5)])
def test_content_length_is_one_number(values, length):
    assert content_length({"content-length": values} if values else {}) == \
        length


@pytest.mark.parametrize("values", [
    ["abc"], ["-1"], ["+5"], ["1_0"], ["0x5"], ["\xb2"], [""], ["5", "500"],
    ["5, 6"], ["9" * 5000]])
def test_content_length_that_is_not_one_number_raises(values):
    with pytest.raises(ProtocolError):
        content_length({"content-length": values})


# Replies ----------------------------------------------------------------------


@pytest.mark.parametrize("data, expected", [
    (UPSTREAM_OK, Reply(200, b'{"ok": true}', "application/json", True)),
    (_CHUNKED, Reply(200, b"hello, world", "text/plain", True)),
    (_TO_CLOSE, Reply(200, b"hello, world", "text/plain", False)),
    (_NO_CONTENT, Reply(204, b"", "text/plain", True)),
    (b"HTTP/1.1 304 Not Modified\r\nContent-Length: 9\r\n\r\n",
     Reply(304, b"", "", True)),
    (_CONTINUE, Reply(200, b'{"ok": true}', "application/json", True)),
    (_EARLY_HINTS, Reply(200, b'{"ok": true}', "application/json", True)),
    (_HTTP10, Reply(200, b"hello, world", "text/plain", False)),
    (_HTTP10_KEEP_ALIVE, Reply(200, b"hello, world", "text/plain", True)),
    (UPSTREAM_OK.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"),
     Reply(200, b'{"ok": true}', "application/json", False)),
    (_CHUNKED.replace(b"7;name=value", b"7 ;name=value").replace(
        b"5\r\n", b"05\r\n"), Reply(200, b"hello, world", "text/plain", True)),
    (_CHUNKED.replace(b"0\r\nX-Trailer: t\r\n", b"0\r\n"),
     Reply(200, b"hello, world", "text/plain", True)),
], ids=["length", "chunked", "read-to-close", "204", "304", "100-continue",
        "103", "http-1.0", "http-1.0-keep-alive", "connection-close",
        "chunk-size-bws-and-zeros", "no-trailer"])
def test_reply_shapes(data, expected):
    assert reply(data) == (expected, b"")


# Framing that RFC 9112 calls suspect: read, then the connection retired.
@pytest.mark.parametrize("data", [
    _CHUNKED.replace(b"chunked\r\n", b"chunked\r\nContent-Length: 5\r\n"),
    _CHUNKED.replace(b"HTTP/1.1", b"HTTP/1.0").replace(
        b"chunked\r\n", b"chunked\r\nConnection: keep-alive\r\n"),
], ids=["transfer-encoding-and-content-length", "http-1.0-chunked"])
def test_suspect_framing_is_read_and_retires_the_connection(data):
    assert reply(data) == (Reply(200, b"hello, world", "text/plain", False),
                           b"")


@pytest.mark.parametrize("data", _UNRELAYABLE + [
    _CHUNKED.replace(b"5\r\nhello", b"1_0\r\nhello"),
    _CHUNKED.replace(b"5\r\nhello", b"+5\r\nhello"),
    _CHUNKED.replace(b"5\r\nhello", b"0x5\r\nhello"),
    _CHUNKED.replace(b"5\r\nhello", b" 5 \r\nhello"),
    _CHUNKED.replace(b"5\r\nhello\r\n", b"5\r\nhello\n"),
    UPSTREAM_OK.replace(b"200", b"2_00"),
    UPSTREAM_OK.replace(b"200", b"+200"),
    UPSTREAM_OK.replace(b"200", b"0200"),
    UPSTREAM_OK.replace(b"200", b"099"),
    UPSTREAM_OK[:20],
    UPSTREAM_OK[:40],
    _CHUNKED[:-2],
    b"",
    b"HTTP/1.1 200 OK\r\nX: " + b"a" * MAX_LINE + b"\r\n\r\n",
], ids=["space-before-colon", "obs-fold", "lengths-differ", "short-body",
        "bad-chunk-size", "gzip", "chunks-cut-short", "http-2", "101",
        "chunk-size-1_0", "chunk-size-+5", "chunk-size-0x5", "chunk-size-spaces",
        "chunk-without-crlf", "status-2_00", "status-+200", "status-0200",
        "status-099", "cut-in-status-line", "cut-in-head", "cut-in-trailer",
        "nothing", "field-too-long"])
def test_a_reply_that_cannot_be_relayed_raises(data):
    result, error = reply(data)
    assert result is None and isinstance(error, tuple)


def test_bytes_after_a_reply_stay_unread():
    assert reply(UPSTREAM_OK + b"HTTP/1.1 200") == (
        Reply(200, b'{"ok": true}', "application/json", True), b"HTTP/1.1 200")


# Heads ------------------------------------------------------------------------


def test_write_head():
    assert write_head("POST /x HTTP/1.1", [("Host", "h"), ("A", "b")]) == \
        b"POST /x HTTP/1.1\r\nHost: h\r\nA: b\r\n\r\n"
    assert write_head("HTTP/1.1 100 Continue", ()) == \
        b"HTTP/1.1 100 Continue\r\n\r\n"
