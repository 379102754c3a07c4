"""Minimal asyncio HTTP/1.1 plumbing for the query service.

The service speaks just enough HTTP for a JSON API — request line,
headers, ``Content-Length`` bodies, keep-alive — on plain
``asyncio.StreamReader``/``StreamWriter`` pairs.  No external web
framework: the container ships only the stdlib, and the endpoint surface
(six routes, JSON in/JSON out) does not justify one.  Anything the parser
does not understand raises :class:`ProtocolError` with the right status
code, which the connection loop turns into an error response and a
connection close.

Deliberately out of scope: chunked transfer encoding, pipelining,
multipart, TLS (terminate upstream), HTTP/2.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Optional
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "ProtocolError",
    "Request",
    "Response",
    "encode_response",
    "json_response",
    "read_request",
]

#: Hard cap on the request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """A malformed or unacceptable request; ``status`` maps to HTTP."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(message)


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        """The body decoded as JSON (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(400, f"request body is not valid JSON: {exc}")

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


@dataclass
class Response:
    """One HTTP response ready for :func:`encode_response`."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


def json_response(payload: Any, status: int = 200) -> Response:
    """A JSON :class:`Response` (sorted keys, trailing newline for curl)."""
    body = json.dumps(payload, sort_keys=True).encode() + b"\n"
    return Response(status=status, body=body)


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int,
    timeout_s: float,
) -> Optional[Request]:
    """Read one request; ``None`` on a clean EOF before any bytes.

    An idle connection that sends no byte within ``timeout_s`` also
    reads as ``None``; a request that has begun but is not complete
    ``timeout_s`` after its first byte raises :class:`ProtocolError`
    408.  Raises :class:`ProtocolError` on malformed input and
    ``asyncio.IncompleteReadError`` when the peer hangs up mid-body.
    """
    try:
        first = await asyncio.wait_for(reader.read(1), timeout_s)
    except asyncio.TimeoutError:
        return None
    if not first:
        return None  # idle keep-alive connection closed cleanly
    try:
        return await asyncio.wait_for(
            _read_started_request(reader, first, max_body_bytes), timeout_s
        )
    except asyncio.TimeoutError:
        raise ProtocolError(
            408, f"request not complete within {timeout_s:g} s"
        ) from None


async def _read_started_request(
    reader: asyncio.StreamReader, first: bytes, max_body_bytes: int
) -> Request:
    """The rest of a request whose first byte ``first`` was already read."""
    if first == b"\r":
        # No request line starts with CR; rejecting it here also keeps the
        # CRLFCRLF terminator from straddling the byte already consumed.
        raise ProtocolError(400, "malformed request line: leading CR")
    try:
        head = first + await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError:
        raise ProtocolError(400, "connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise ProtocolError(413, f"request head exceeds {MAX_HEAD_BYTES} bytes")
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError(413, f"request head exceeds {MAX_HEAD_BYTES} bytes")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)
    query = dict(parse_qsl(split.query))
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise ProtocolError(400, "chunked transfer encoding is not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(400, f"bad Content-Length: {length_text!r}")
    if length < 0:
        raise ProtocolError(400, f"bad Content-Length: {length_text!r}")
    if length > max_body_bytes:
        raise ProtocolError(
            413, f"request body of {length} bytes exceeds cap {max_body_bytes}"
        )
    body = await reader.readexactly(length) if length else b""
    return Request(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


def encode_response(response: Response, *, keep_alive: bool = True) -> bytes:
    """Serialize a :class:`Response` as HTTP/1.1 wire bytes."""
    reason = _REASONS.get(response.status, "Unknown")
    head = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in response.headers.items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body
