"""The fabric HTTP server: lease protocol + blob store on one port.

Mirrors the shape of :mod:`repro.ingest.server`: all routing and
payload assembly live in :class:`FabricService.handle`, a pure
``(method, path, params, body) -> (status, payload)`` function that is
unit-testable without a socket; :func:`make_fabric_server` serves it
through the shared :mod:`repro.http` shim.

Surface:

- ``POST /fabric/lease|heartbeat|complete|fail`` — the lease protocol
  (:mod:`repro.fabric.protocol`), JSON in, JSON out;
- ``GET /fabric/ping`` — liveness (also the remote store's
  reachability probe);
- ``GET /fabric/status`` — the coordinator's queue/lease/ledger view;
- ``GET /metrics[?format=json|prom]`` — the active :mod:`repro.obs`
  registry, Prometheus exposition on request, by the same rules as
  ``repro serve`` (:func:`repro.http.metrics`; the CI smoke job scrapes
  ``repro_fabric_*`` through this);
- ``GET /blob/<key>`` / ``PUT /blob/<key>`` — the remote artifact
  store's raw ``.art`` blobs, validated server-side on upload
  (:meth:`~repro.store.artifact.ArtifactStore.write_raw`);
- ``GET /blob/stats`` — the blob store's aggregate statistics.

Boot activates an enabled observability context if none is active, so
``/metrics`` never answers with an empty snapshot.
"""

import json

from repro import obs
from repro.fabric.protocol import ProtocolError
from repro.http import Body, HttpError, base_url, make_server, metrics

#: content keys are sha256 hex digests.
_KEY_LENGTH = 64


def _is_key(text):
    return len(text) == _KEY_LENGTH \
        and all(ch in "0123456789abcdef" for ch in text)


class FabricService:
    """Routing + payload assembly for the fabric server."""

    def __init__(self, coordinator, blob_store=None):
        self.coordinator = coordinator
        self.blob_store = blob_store

    # -- routing --------------------------------------------------------------

    def handle(self, method, path, params=None, body=None, accept=None):
        """Answer one request; returns ``(status, payload)``.

        ``payload`` is a JSON-serializable dict, or a
        :class:`~repro.http.Body` for blob downloads and Prometheus
        text.  Protocol violations surface as their HTTP status with a
        one-line ``{"error": ...}`` body.
        """
        params = params or {}
        try:
            if path.startswith("/blob/"):
                return self._blob(method, path[len("/blob/"):], body)
            if method == "GET":
                return self._get(path, params, accept)
            if method == "POST":
                return self._post(path, body)
            raise ProtocolError(405, f"method {method} not allowed")
        except HttpError as exc:
            obs.incr("fabric.errors", key=str(exc.status))
            return exc.status, self.error(exc.status, exc.message)

    # -- the repro.http app contract ------------------------------------------

    methods = ("GET", "POST", "PUT")

    def respond(self, method, path, params, body, headers):
        return self.handle(method, path, params, body,
                           accept=headers.get("Accept"))

    @staticmethod
    def error(status, message):
        return {"error": message}

    def _get(self, path, params, accept):
        if path == "/fabric/ping":
            return 200, {"ok": True,
                         "campaign_id": self.coordinator.index
                         .campaign_id}
        if path == "/fabric/status":
            return 200, self.coordinator.status()
        if path == "/metrics":
            return 200, metrics(params, accept)
        raise ProtocolError(404, f"unknown route {path!r}")

    def _post(self, path, body):
        payload = self._json_body(body)
        if path == "/fabric/lease":
            return 200, self.coordinator.lease(payload.get("worker"))
        if path == "/fabric/heartbeat":
            return 200, self.coordinator.heartbeat(
                self._token(payload))
        if path == "/fabric/complete":
            return 200, self.coordinator.complete(
                self._token(payload), payload.get("result"))
        if path == "/fabric/fail":
            return 200, self.coordinator.fail(
                self._token(payload), payload.get("error", "unknown"))
        raise ProtocolError(404, f"unknown route {path!r}")

    @staticmethod
    def _json_body(body):
        try:
            payload = json.loads((body or b"").decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ProtocolError(400, "request body is not valid JSON") \
                from None
        if not isinstance(payload, dict):
            raise ProtocolError(400, "request body must be a JSON "
                                     "object")
        return payload

    @staticmethod
    def _token(payload):
        token = payload.get("lease")
        if not isinstance(token, str) or not token:
            raise ProtocolError(400, "request needs a lease token")
        return token

    # -- the blob store -------------------------------------------------------

    def _blob(self, method, rest, body):
        if self.blob_store is None:
            raise ProtocolError(503, "this coordinator serves no blob "
                                     "store")
        if method == "GET" and rest == "stats":
            return 200, self.blob_store.stats()
        if not _is_key(rest):
            raise ProtocolError(400, f"malformed blob key {rest!r}")
        if method == "GET":
            raw = self.blob_store.read_raw(rest)
            if raw is None:
                obs.incr("fabric.blob_misses")
                return 404, {"error": f"no blob {rest}"}
            obs.incr("fabric.blob_reads")
            return 200, Body(raw)
        if method == "PUT":
            if not self.blob_store.write_raw(rest, body or b""):
                raise ProtocolError(
                    400, "blob rejected: bad magic, checksum "
                         "mismatch, or key/header mismatch")
            obs.incr("fabric.blob_writes")
            return 200, {"ok": True, "key": rest}
        raise ProtocolError(405, f"method {method} not allowed on "
                                 f"/blob/")


def make_fabric_server(coordinator, blob_store=None, host="127.0.0.1",
                       port=0):
    """An HTTP server for one campaign (port 0: ephemeral).

    A campaign whose store spec is a self-served http store
    (``backend: http`` with no ``url``) gets its blob store here: an
    :class:`~repro.store.artifact.ArtifactStore` over the spec's
    ``dir``, and the coordinator's spec resolves to this server's URL
    once the port is bound.

    Returns ``(server, service)``; the caller runs the server (see
    :func:`repro.http.serving` / :func:`repro.http.serve_until_interrupt`).
    """
    obs.ensure_enabled()
    spec = coordinator.store_spec or {}
    self_served = blob_store is None and spec.get("backend") == "http" \
        and not spec.get("url")
    if self_served:
        from repro.store.artifact import ArtifactStore
        blob_store = ArtifactStore(spec["dir"])
    service = FabricService(coordinator, blob_store=blob_store)
    server = make_server(service, host=host, port=port)
    if self_served:
        coordinator.store_spec = {"backend": "http",
                                  "url": base_url(server)}
    return server, service
