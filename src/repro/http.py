"""The one HTTP layer: server shim, serving lifecycle, and client call.

``repro serve``, the fabric coordinator and every HTTP client in the
package go through here; DESIGN.md ("One HTTP layer") states the app
contract, the shim's own answers (400 / 405 / 413) and the client's
rule: a status for every HTTP answer, ``OSError`` only when none came.
Imports are absolute, so this module never shadows the stdlib ``http``.
"""

import http.client
import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager, suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.obs.telemetry import render_prometheus

#: maximum accepted request body (a pickled unit result or one blob).
MAX_BODY_BYTES = 256 * 1024 * 1024


class HttpError(Exception):
    """An HTTP error answer: status + one-line message."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = int(status)
        self.message = message


class Body:
    """A non-JSON response body: raw bytes and their content type."""

    #: the content type Prometheus scrapers expect.
    PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self, blob, content_type="application/octet-stream"):
        self.blob = blob.encode("utf-8") if isinstance(blob, str) \
            else blob
        self.content_type = content_type

    @property
    def text(self):
        return self.blob.decode("utf-8")


def query_param(params, name):
    """The single value of query param ``name``, or ``None``.

    Empty and repeated values are malformed (400).
    """
    if name not in params:
        return None
    values = [value for value in params[name] if value]
    if len(values) != 1:
        raise HttpError(400, f"parameter {name!r} needs exactly one "
                             f"non-empty value")
    return values[0]


def metrics(params, accept=None):
    """The ``/metrics`` route: the active :mod:`repro.obs` registry.

    ``format=json|prom`` picks the shape.  Without it, an ``Accept``
    header naming ``text/plain`` but not JSON picks ``prom`` — a
    scraper gets exposition text; browsers, ``*/*`` and ``urllib`` get
    JSON.  Returns ``{"enabled", "metrics"}`` or a Prometheus
    :class:`Body`.
    """
    fmt = query_param(params, "format")
    if fmt is None:
        fmt = "prom" if accept and "text/plain" in accept \
            and "application/json" not in accept else "json"
    if fmt not in ("json", "prom"):
        raise HttpError(400, f"unknown metrics format {fmt!r} "
                             f"(expected json or prom)")
    ctx = obs.current()
    snapshot = ctx.metrics.snapshot() if ctx.enabled else {}
    if fmt == "prom":
        return Body(render_prometheus(snapshot), Body.PROMETHEUS)
    return {"enabled": ctx.enabled, "metrics": snapshot}


metrics.params = ("format",)


class _Handler(BaseHTTPRequestHandler):
    """The one request handler: read the body, ask the app, answer."""

    #: set by :func:`make_server`.
    app = None
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: the headers and the body go out in separate sends,
    #: and on a kept-alive connection Nagle's algorithm would hold the
    #: body until the client's delayed ACK of the headers (~40 ms).
    disable_nagle_algorithm = True

    def __getattr__(self, name):
        # ``http.server`` calls ``do_<METHOD>``: every method lands in
        # one dispatcher, which answers 405 for those the app does not
        # take (instead of the stdlib's HTML 501 page).
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def _read_body(self):
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise HttpError(411, "send a Content-Length, not chunks")
        length = self.headers.get("Content-Length", "0").strip()
        if not length.isdecimal():
            self.close_connection = True
            raise HttpError(400, f"bad Content-Length {length!r}")
        if int(length) > MAX_BODY_BYTES:
            self.close_connection = True
            raise HttpError(413, "request body too large")
        return self.rfile.read(int(length))

    def _dispatch(self):
        app = self.app
        try:
            body = self._read_body()
            if self.command not in app.methods:
                raise HttpError(405, f"method {self.command} not "
                                     f"allowed")
            parsed = urlsplit(self.path)
            status, payload = app.respond(
                self.command, parsed.path,
                parse_qs(parsed.query, keep_blank_values=True), body,
                self.headers)
        except HttpError as exc:
            status, payload = exc.status, app.error(exc.status,
                                                    exc.message)
        if not isinstance(payload, Body):
            payload = Body(json.dumps(payload, sort_keys=True),
                           "application/json")
        self.send_response(status)
        self.send_header("Content-Type", payload.content_type)
        self.send_header("Content-Length", str(len(payload.blob)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload.blob)

    def log_message(self, format, *args):
        """Suppress per-request stderr noise; obs counters cover it."""


def make_server(app, host="127.0.0.1", port=0):
    """A ``ThreadingHTTPServer`` bound to ``app`` (port 0: ephemeral)."""
    handler = type("BoundHandler", (_Handler,), {"app": app})
    return ThreadingHTTPServer((host, port), handler)


def base_url(server):
    """``http://host:port`` of a bound server."""
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


@contextmanager
def serving(server):
    """Serve on a background thread; yields the base URL.

    On exit, however it comes, the server is shut down and its
    listening socket closed.
    """
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield base_url(server)
    finally:
        server.shutdown()
        server.server_close()


def serve_until_interrupt(server):
    """Serve on this thread until Ctrl-C, then close the socket."""
    with server, suppress(KeyboardInterrupt):
        server.serve_forever()


def request(url, method="GET", data=None, content_type=None, timeout=10.0):
    """One HTTP exchange through ``urllib``; returns ``(status, body)``.

    Every HTTP answer is returned, 4xx/5xx included; ``OSError`` with a
    one-line message means no HTTP answer came back.
    """
    headers = {"Content-Type": content_type} if content_type else {}
    req = urllib.request.Request(url, data=data, method=method,
                                 headers=headers)
    try:
        try:
            response = urllib.request.urlopen(req, timeout=timeout)
        except urllib.error.HTTPError as exc:
            response = exc
        with response:
            return response.status, response.read()
    except urllib.error.URLError as exc:
        raise OSError(str(exc.reason)) from None
    except http.client.HTTPException as exc:
        raise OSError(f"malformed HTTP response "
                      f"({type(exc).__name__})") from None
