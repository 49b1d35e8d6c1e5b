"""HTTP/1.1 framing for both of the gateway's hops, with no I/O (the sans-I/O
pattern; RFC 9112). A reader is fed what a socket gave, `feed(data)` with
b"" for the end of the stream, and returns the events those bytes complete:
`RequestReader` a `Head`, then the body (bytes) or `Refusal` of a declared
body, or a `Refusal` for a head that breaks a rule; `ReplyReader` one
upstream `Reply`. `write_head` writes every head the gateway sends. The
request rules are `http.server`'s, both hops keep `http.client`'s limits,
and a stream that ends inside a message is never read as a whole one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from http import HTTPStatus

# http.client's limits, which http.server applies to request heads too:
# bytes per line, and lines per head with the empty one ending it.
MAX_LINE = 65536
MAX_HEAD_LINES = 100
# A field name as http.client reads one: printable ASCII but the space.
_FIELD_NAME = re.compile(r"[!-~]+")
_HEXDIGITS = re.compile(rb"[0-9A-Fa-f]+")


class ProtocolError(ValueError):
    """Bytes that break HTTP/1.1 framing: (message, explanation)."""


@dataclass(slots=True)
class Head:
    """A request head; `fields` maps lower-cased names to their values.
    `close`: the connection ends after this request. `declares_body`: the
    body or a `Refusal` follows."""

    method: str
    target: str
    version: str
    fields: dict
    malformed: bool  # a field line is not `name: value`
    close: bool
    expect_continue: bool
    declares_body: bool


@dataclass(slots=True)
class Refusal:
    """A request that cannot be served. For a head, `error` and `explain`
    (None: the status's own) fill the standard library's error page, the
    whole reply to an HTTP/0.9 request (`bare`); status 0 closes with no
    reply. For a body, `error` is the JSON error. `close`: what follows
    must not be read as a request."""

    status: int
    error: str
    close: bool
    explain: str | None = None
    bare: bool = False


@dataclass(slots=True)
class Reply:
    """An upstream's final reply, its body unframed. `keep`: the
    connection can carry another request."""

    status: int
    body: bytes
    content_type: str
    keep: bool


def write_head(start: str, fields) -> bytes:
    """A head in one piece: the start line, a `name: value` line for each
    pair in `fields`, and the empty line that ends it."""
    return "".join([start, "\r\n", *["%s: %s\r\n" % field for field in fields],
                    "\r\n"]).encode("latin-1")


def content_length(fields: dict) -> int:
    """The Content-Length of a head, -1 when it declares none. Every value
    must be ASCII digits and all of them equal (RFC 9112 §6.3)."""
    values = {value.strip(" \t") for field in fields.get("content-length", ())
              for value in field.split(",")}
    if not values:
        return -1
    try:  # int() raises past its digit limit; the unpacking, on two lengths
        if all(value.isascii() and value.isdigit() for value in values):
            (length,) = {int(value) for value in values}
            return length
    except ValueError:
        pass
    raise ProtocolError("Content-Length is not one number")


def first(fields: dict, name: str) -> str:
    """The first value of the field `name` (lower case), or ""."""
    return fields.get(name, ("",))[0]


class _Reader:
    """`_parse` is a generator that reads as a blocking parser would,
    appends its events to `_events`, and yields when it needs more bytes.
    `buffer` holds the bytes fed that no event has read."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self._eof = False
        self._events: list = []
        self._parser = self._parse()
        next(self._parser)

    def feed(self, data: bytes) -> list:
        """The events that `data` completes; b"" is the end of the stream."""
        self.buffer += data
        self._eof = not data
        try:
            self._parser.send(None)
        except StopIteration:  # the parse has ended, or raised before
            pass
        events, self._events = self._events, []
        return events

    def _line(self):
        """The next line with its LF; None when the stream ends first."""
        scan = 0
        while True:
            end = self.buffer.find(b"\n", scan) + 1
            if end > MAX_LINE or not end and len(self.buffer) > MAX_LINE:
                raise ProtocolError("Line too long", "got more than %d bytes "
                                    "when reading header line" % MAX_LINE)
            if end:
                line = bytes(self.buffer[:end])
                del self.buffer[:end]
                return line
            if self._eof:
                return None
            scan = len(self.buffer)
            yield

    def _fields(self):
        """(fields, malformed) through the empty line that ends a head;
        None when the stream ends first. A line that is not `name: value`
        is dropped and sets `malformed`: one without a colon, with
        whitespace in or before the name (an obs-fold line starts with SP
        or HTAB), or with a bare CR (RFC 9112 §2.2, §5.1, §5.2)."""
        fields: dict[str, list[str]] = {}
        malformed = False
        for _ in range(MAX_HEAD_LINES):
            line = yield from self._line()
            if line is None or line == b"\r\n" or line == b"\n":
                return line and (fields, malformed)
            name, colon, value = line.decode("latin-1").partition(":")
            value = value.strip(" \t\r\n")
            if colon and _FIELD_NAME.fullmatch(name) and "\r" not in value:
                fields.setdefault(name.lower(), []).append(value)
            else:
                malformed = True
        raise ProtocolError("Too many headers",
                            "got more than %d headers" % MAX_HEAD_LINES)

    def _take(self, n: int, keep: bool = True):
        """The next `n` bytes (dropped unless `keep`); None when the stream
        ends first."""
        while len(self.buffer) < n:
            if self._eof:
                return None
            if not keep:
                n -= len(self.buffer)
                self.buffer.clear()
            yield
        data = bytes(self.buffer[:n]) if keep else b""
        del self.buffer[:n]
        return data


class RequestReader(_Reader):
    """A client's requests, pipelined or not. A body over `max_body` bytes
    is read and dropped, then refused with 413, which the connection
    carries. The reader stops at a refusal that closes and at the end of
    the stream: a head cut short gives no event, a body a 400."""

    def __init__(self, max_body: int) -> None:
        self._max_body = max_body
        super().__init__()

    def _parse(self):
        while True:
            try:
                line = yield from self._line()
                start = line and _request_line(line)
            except ProtocolError:
                start = Refusal(414, HTTPStatus(414).phrase, True)
            if isinstance(start, Refusal):
                self._events.append(start)
            if not isinstance(start, tuple):  # or the end of the stream
                return
            method, target, version, close = start
            try:
                head = yield from self._fields()
            except ProtocolError as exc:
                head = Refusal(431, exc.args[0], True, exc.args[1],
                               version == "HTTP/0.9")
                self._events.append(head)
            if not isinstance(head, tuple):
                return
            fields, malformed = head
            close = {"close": True, "keep-alive": False}.get(
                first(fields, "connection").lower(), close)
            declares_body = malformed or "content-length" in fields \
                or "transfer-encoding" in fields
            self._events.append(Head(
                method, target, version, fields, malformed, close,
                first(fields, "expect").lower() == "100-continue"
                and version >= "HTTP/1.1", declares_body))
            if declares_body:
                length = _body_length(fields, malformed)
                if isinstance(length, Refusal):
                    self._events.append(length)
                    return
                fits = length <= self._max_body
                body = yield from self._take(length, keep=fits)
                self._events.append(
                    Refusal(400, "incomplete-body", True) if body is None
                    else body if fits else Refusal(413, "oversize-body", False))


def _request_line(line: bytes):
    """(method, target, version, close) of a request line, or the Refusal
    `http.server`'s parse_request answers it with."""
    requestline = str(line, "iso-8859-1").rstrip("\r\n")
    words = requestline.split()
    if not words:
        return Refusal(0, "", True)
    version, close = "HTTP/0.9", True
    if len(words) >= 3:
        word = words[-1]
        major, dot, minor = word[5:].partition(".")
        if not (word.startswith("HTTP/") and dot and major.isdecimal()
                and minor.isdecimal() and max(len(major), len(minor)) <= 10):
            return Refusal(400, "Bad request version (%r)" % word, True,
                           bare=True)
        number = int(major), int(minor)
        if number >= (2, 0):
            return Refusal(505, "Invalid HTTP version (%s)" % word[5:], True,
                           bare=True)
        version, close = word, number < (1, 1)
    if not 2 <= len(words) <= 3:
        return Refusal(400, "Bad request syntax (%r)" % requestline, True,
                       bare=version == "HTTP/0.9")
    if len(words) == 2 and words[0] != "GET":
        return Refusal(400, "Bad HTTP/0.9 request type (%r)" % words[0], True,
                       bare=True)
    target = words[1]
    if target.startswith("//"):  # not an absolute URI (gh-87389)
        target = "/" + target.lstrip("/")
    return words[0], target, version, close


def _body_length(fields: dict, malformed: bool):
    """The length of a request body, or the Refusal of a head that cannot
    frame one. One rule (RFC 9112 §6.3): the head must be well formed, its
    Content-Length one number, and any Transfer-Encoding is refused, since
    it would decide the framing and no coding is read here."""
    codings = fields.get("transfer-encoding")
    if not malformed and not codings:
        try:
            return max(content_length(fields), 0)
        except ProtocolError:
            pass
    if not malformed and any("chunked" in c.lower() for c in codings or ()):
        return Refusal(501, "unsupported-transfer-encoding", True)
    return Refusal(400, "bad-framing", True)


class ReplyReader(_Reader):
    """One upstream reply; interim 1xx replies are skipped. A 204 or 304
    has no body; otherwise the body is read by Content-Length, de-chunked,
    or read to the close, which retires the connection. So does framing RFC
    9112 calls suspect: Transfer-Encoding with Content-Length (§6.3) or in
    HTTP/1.0 (§6.1). Bytes after the reply stay in `buffer`. What cannot be
    relayed faithfully raises ProtocolError: a stream cut short, a status
    code that is not 3DIGIT, a chunk size that is not 1*HEXDIG, a field
    line that is not `name: value`, a Content-Length that is not one
    number, a coding other than `chunked`, 101, or a version not HTTP/1.x."""

    def _parse(self):
        status = 0
        while status < 200:
            line = yield from self._line()
            words = (line or b"").split(None, 2)
            if len(words) < 2 or not words[0].startswith(b"HTTP/") \
                    or len(words[1]) != 3 or not words[1].isdigit() \
                    or words[1] < b"100" or words[1] == b"101":
                raise ProtocolError("status line %r" % line)
            version, status = words[0], int(words[1])
            head = yield from self._fields()
            if not head or head[1]:
                raise ProtocolError("reply head cut short or malformed")
        fields = head[0]
        connection = first(fields, "connection").lower()
        codings = fields.get("transfer-encoding")
        if version in (b"HTTP/1.0", b"HTTP/0.9"):
            keep = not codings and ("keep-alive" in connection
                                    or "keep-alive" in fields)
        elif version.startswith(b"HTTP/1."):
            keep = "close" not in connection \
                and not (codings and "content-length" in fields)
        else:
            raise ProtocolError("version %r" % version)
        if status in (204, 304):
            body = b""
        elif codings:
            if len(codings) != 1 or codings[0].lower() != "chunked":
                raise ProtocolError("transfer coding %r" % codings)
            body = yield from self._chunked()
        elif (length := content_length(fields)) >= 0:
            body = yield from self._take(length)
        else:
            while not self._eof:
                yield
            body, keep = bytes(self.buffer), False
            self.buffer.clear()
        if body is None:
            raise ProtocolError("body cut short")
        self._events.append(
            Reply(status, body, first(fields, "content-type"), keep))

    def _chunked(self):
        """A chunked body without its framing; trailer fields are read and
        dropped. None when the stream ends first."""
        chunks = []
        while True:
            line = yield from self._line()
            if line is None:
                return None
            size, semi, _ = line[:-1].removesuffix(b"\r").partition(b";")
            if semi:
                size = size.rstrip(b" \t")  # BWS before an extension
            if not _HEXDIGITS.fullmatch(size):
                raise ProtocolError("chunk size %r" % line)
            if not int(size, 16):
                trailer = yield from self._fields()
                return trailer and b"".join(chunks)
            chunk = yield from self._take(int(size, 16) + 2)
            if chunk is None or chunk[-2:] != b"\r\n":
                raise ProtocolError("chunk cut short or without its CRLF")
            chunks.append(chunk[:-2])
