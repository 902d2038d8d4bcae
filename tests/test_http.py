"""Boundary tests for the shared HTTP layer (``repro.http``).

Every server here wraps a stub: ``repro serve``'s app over no study
(its ``/metrics`` route needs only the obs registry) and the fabric
app over a one-unit campaign — no study is built.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.fabric import FabricCoordinator, make_fabric_server
from repro.ingest import QueryService, make_server
from repro.schema import SCHEMA_VERSION
from repro.store.campaign import CampaignIndex


def _serve_app(tmp_path):
    return make_server(QueryService(study=None, ingester=None))


def _fabric_app(tmp_path):
    index = CampaignIndex.create(
        tmp_path / "campaign.json",
        [{"name": "u0", "key": "0" * 64, "seed": 0}], "probe")
    return make_fabric_server(FabricCoordinator(index))[0]


def _live(server):
    """Serve on a thread for one test, then shut down."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture(params=[_serve_app, _fabric_app], ids=["serve", "fabric"])
def server(request, tmp_path):
    yield from _live(request.param(tmp_path))


@pytest.fixture
def serve_server(tmp_path):
    yield from _live(_serve_app(tmp_path))


@pytest.fixture
def fabric_server(tmp_path):
    yield from _live(_fabric_app(tmp_path))


def _connect(server):
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=5)


def _send(server, method, path, headers=(), body=b""):
    """One request with hand-set headers; returns (status, headers, body)."""
    conn = _connect(server)
    try:
        conn.putrequest(method, path)
        for name, value in headers:
            conn.putheader(name, value)
        conn.endheaders(body or None)
        response = conn.getresponse()
        return response.status, response.headers, response.read()
    finally:
        conn.close()


class TestServerShim:
    def test_post_to_serve_is_a_405_envelope(self, serve_server):
        status, headers, body = _send(serve_server, "POST", "/healthz",
                                      [("Content-Length", "2")], b"{}")
        assert status == 405
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["api_version"] == "v1"
        assert payload["error"]["status"] == 405

    def test_unknown_method_is_a_405_json(self, fabric_server):
        status, headers, body = _send(fabric_server, "BREW", "/metrics")
        assert status == 405
        assert json.loads(body) == {"error": "method BREW not allowed"}

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_a_json_400(self, server, length,
                                              capsys):
        status, headers, body = _send(server, "GET", "/metrics",
                                      [("Content-Length", length)])
        assert status == 400
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        assert "Content-Length" in json.dumps(json.loads(body))
        assert capsys.readouterr().err == ""

    def test_over_cap_body_is_a_413(self, serve_server):
        # the cap is 256 MiB; the shim refuses before reading any byte
        status, headers, body = _send(
            serve_server, "GET", "/metrics",
            [("Content-Length", str(256 * 1024 * 1024 + 1))])
        assert status == 413
        assert "too large" in json.dumps(json.loads(body))

    def test_chunked_body_is_a_411(self, serve_server):
        status, headers, body = _send(
            serve_server, "GET", "/metrics",
            [("Transfer-Encoding", "chunked")], b"5\r\nhello\r\n0\r\n\r\n")
        assert status == 411
        assert headers["Connection"] == "close"
        assert json.loads(body)["error"]["status"] == 411

    def test_get_body_is_consumed_on_keep_alive(self, serve_server):
        conn = _connect(serve_server)
        try:
            conn.request("GET", "/metrics", body=b"hello")
            first = conn.getresponse()
            first.read()
            conn.request("GET", "/metrics")
            second = conn.getresponse()
            second.read()
        finally:
            conn.close()
        assert (first.status, second.status) == (200, 200)

    def test_fabric_prometheus_content_type(self, fabric_server):
        status, headers, body = _send(fabric_server, "GET",
                                      "/metrics?format=prom")
        assert status == 200
        assert headers["Content-Type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        status, headers, _ = _send(fabric_server, "GET", "/metrics",
                                   [("Accept", "text/plain")])
        assert headers["Content-Type"].startswith("text/plain")

    def test_fabric_repeated_format_is_a_400(self, fabric_server):
        status, _, body = _send(fabric_server, "GET",
                                "/metrics?format=json&format=prom")
        assert status == 400
        assert "exactly one" in json.loads(body)["error"]

    def test_head_answers_without_a_body(self, serve_server):
        conn = _connect(serve_server)
        try:
            conn.request("HEAD", "/metrics")
            response = conn.getresponse()
            assert response.status == 405
            assert response.read() == b""
            conn.request("GET", "/metrics")  # the connection stays usable
            assert conn.getresponse().status == 200
        finally:
            conn.close()

    def test_app_contract(self, tmp_path):
        from repro.http import Body, HttpError, make_server, request, \
            serving

        class Echo:
            methods = ("PUT",)

            def respond(self, method, path, params, body, headers):
                if path == "/refuse":
                    raise HttpError(409, "refused")
                return 201, Body(body[::-1], "text/plain")

            def error(self, status, message):
                return {"refused": message}

        server = make_server(Echo())
        with serving(server) as url:
            assert request(url + "/x", "PUT", b"abc") == (201, b"cba")
            status, body = request(url + "/refuse", "PUT", b"")
            assert (status, json.loads(body)) == (409,
                                                  {"refused": "refused"})
        assert server.socket.fileno() == -1  # serving() closed it


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestClient:
    def test_http_errors_are_answers(self, serve_server):
        from repro.http import base_url, request
        status, body = request(base_url(serve_server) + "/nope")
        assert status == 404
        assert json.loads(body)["error"]["status"] == 404

    def test_closed_port_raises_oserror_within_timeout(self):
        from repro.http import request
        begin = time.monotonic()
        with pytest.raises(OSError) as err:
            request(f"http://127.0.0.1:{_free_port()}/", timeout=2.0)
        assert time.monotonic() - begin < 2.5
        assert "\n" not in str(err.value)
