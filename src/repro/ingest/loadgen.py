"""A stdlib load generator for the ``repro serve`` query API.

Drives a warm server with a deterministic round-robin mix of the hot
endpoints from ``workers`` threads (:func:`repro.http.request`
clients), recording per-request wall latencies.  The summary —
sustained queries/sec plus p50/p99 latency — is what
``benchmarks/bench_serve.py`` folds into ``BENCH_serve.json`` for the
bench gate.

No randomness: the request mix is a fixed rotation, so two runs against
the same server issue the identical request sequence.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor

from repro.http import request
from repro.obs.slo import percentile

#: the hot-path request mix, rotated round-robin by every worker.
DEFAULT_MIX = (
    "/healthz",
    "/v1/doc",
    "/v1/fingerprints?limit=25",
    "/v1/match-rate",
    "/v1/issuers",
    "/v1/verdicts",
)


class LoadResult:
    """Latency + throughput summary of one load run."""

    def __init__(self, latencies_ms, errors, duration_s):
        self.latencies_ms = sorted(latencies_ms)
        self.errors = errors
        self.duration_s = duration_s

    def to_json(self):
        requests = len(self.latencies_ms)
        return {
            "requests": requests,
            "errors": self.errors,
            "duration_s": round(self.duration_s, 4),
            "qps": round(requests / self.duration_s, 2)
            if self.duration_s > 0 else 0.0,
            "p50_ms": round(percentile(self.latencies_ms, 0.50), 3),
            "p99_ms": round(percentile(self.latencies_ms, 0.99), 3),
            "max_ms": round(self.latencies_ms[-1], 3)
            if self.latencies_ms else 0.0,
        }


def _worker(base_url, mix, offset, requests):
    """One client thread's run: ``(latencies_ms, errors)``."""
    latencies, errors = [], 0
    for i in range(requests):
        url = base_url + mix[(offset + i) % len(mix)]
        begin = time.perf_counter()
        try:
            status, body = request(url)
            if status != 200 or "data" not in json.loads(body):
                errors += 1
        except (OSError, ValueError):
            errors += 1
        latencies.append((time.perf_counter() - begin) * 1000.0)
    return latencies, errors


def run_load(base_url, requests_per_worker=50, workers=4,
             mix=DEFAULT_MIX):
    """Hammer ``base_url`` and return a :class:`LoadResult`.

    ``base_url`` is e.g. ``http://127.0.0.1:8437`` (no trailing slash).
    Workers start at staggered offsets into the mix so concurrent
    requests exercise different endpoints.
    """
    mix = tuple(mix)
    begin = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        runs = list(pool.map(
            lambda offset: _worker(base_url, mix, offset,
                                   requests_per_worker),
            range(workers)))
    duration = time.perf_counter() - begin
    return LoadResult([ms for latencies, _ in runs for ms in latencies],
                      sum(errors for _, errors in runs), duration)
