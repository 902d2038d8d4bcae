"""The remote artifact-store backend: content-addressed blobs over HTTP.

A sweep campaign sharded across machines cannot share an on-disk
:class:`~repro.store.artifact.ArtifactStore` root, so the fabric
coordinator (:mod:`repro.fabric`) serves the store's raw ``.art`` blobs
over a two-verb HTTP interface and workers talk to it through
:class:`RemoteArtifactStore`:

- ``GET /blob/<key>`` — the raw blob bytes, 404 when absent;
- ``PUT /blob/<key>`` — upload one blob; the server re-derives the
  content key from the blob's own header and rejects any mismatch, so
  a client can never plant bytes under a key it does not own.

The client is the local store's :class:`~repro.store.artifact.BaseStore`
over an HTTP blob transport, so it shares its surface (``key``/``get``/
``put``/``get_or_compute``/``provenance``) and — crucially — its failure
discipline: **every defect degrades to a retriable miss, never to wrong
bytes.**  A truncated response, a checksum mismatch, a version-skewed
header, an HTTP 5xx, or an unreachable server all count a miss (with a
taxonomy counter) and the caller recomputes; nothing defective is ever
admitted to the cache.

A deterministic :class:`BlobCache` LRU fronts the network: hits are
served from memory without a round trip (a warm worker keeps working
through a coordinator restart), insertion order + access order fully
determine eviction order, and only blobs that already passed the
integrity checks are admitted.
"""

import threading
from collections import OrderedDict

from repro import obs
from repro.http import request
from repro.store.artifact import BaseStore

#: default number of verified blobs the client-side LRU holds.
DEFAULT_CACHE_ENTRIES = 64


class StoreUnreachable(RuntimeError):
    """The remote store's endpoint cannot be reached (one-line message)."""


class BlobCache:
    """A deterministic LRU of verified raw blobs, keyed by content key.

    Eviction is a pure function of the put/get sequence: ``put`` moves
    (or inserts) the key at the most-recent end, ``get`` refreshes it,
    and overflow evicts the least-recently-used key.  ``evicted``
    records the eviction order for tests and provenance.
    """

    def __init__(self, capacity=DEFAULT_CACHE_ENTRIES):
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        #: content keys evicted so far, oldest first.
        self.evicted = []

    def get(self, key):
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
            return blob

    def put(self, key, blob):
        with self._lock:
            self._entries[key] = blob
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self.evicted.append(evicted)

    def discard(self, key):
        with self._lock:
            self._entries.pop(key, None)

    def keys(self):
        """Current keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def __len__(self):
        with self._lock:
            return len(self._entries)


class RemoteArtifactStore(BaseStore):
    """The HTTP artifact-store client (drop-in for ``ArtifactStore``).

    Speaks the same ``.art`` wire format as the local store — the same
    magic line, header, and payload SHA-256 — so digests and cache keys
    are byte-identical across backends, which is what lets a campaign
    move between ``--store-backend local`` and ``http`` mid-flight.
    """

    def __init__(self, base_url, version=None,
                 cache_entries=DEFAULT_CACHE_ENTRIES, timeout=10.0):
        super().__init__(version)
        self.base_url = str(base_url).rstrip("/")
        self.timeout = timeout
        self.cache = BlobCache(cache_entries)

    def _url(self, key):
        return f"{self.base_url}/blob/{key}"

    # -- the blob hooks: LRU first, network second ----------------------------

    def _load(self, key, stage):
        """The blob from the LRU or a GET; ``None`` on any failure."""
        blob = self.cache.get(key)
        if blob is not None:
            obs.incr("store.lru_hits", key=stage)
            return blob
        try:
            status, blob = request(self._url(key), timeout=self.timeout)
        except OSError:
            obs.incr("store.remote_errors", key="get:unreachable")
            return None
        if status == 200:
            return blob
        if status != 404:
            obs.incr("store.remote_errors", key=f"get:{status}")
        return None

    def _save(self, key, blob):
        """PUT one blob; its key iff the server accepted it."""
        try:
            status, _ = request(self._url(key), "PUT", blob,
                                "application/octet-stream",
                                timeout=self.timeout)
        except OSError:
            obs.incr("store.remote_errors", key="put:unreachable")
            return None
        if status != 200:
            obs.incr("store.remote_errors", key=f"put:{status}")
            return None
        self.cache.put(key, blob)
        return key

    def _admit(self, key, blob):
        self.cache.put(key, blob)

    def _drop(self, key):
        self.cache.discard(key)

    def ping(self):
        """Probe the endpoint; raises :class:`StoreUnreachable` if dead."""
        try:
            status, _ = request(f"{self.base_url}/fabric/ping",
                                timeout=self.timeout)
        except OSError as exc:
            raise StoreUnreachable(
                f"store backend {self.base_url} is unreachable: "
                f"{exc}") from None
        if status != 200:
            raise StoreUnreachable(
                f"store backend {self.base_url} answered "
                f"HTTP {status} to a ping")
        return True

    def provenance(self):
        """This run's cache traffic, for the run manifest."""
        return dict(super().provenance(), url=self.base_url,
                    lru_entries=len(self.cache),
                    lru_evicted=len(self.cache.evicted))
