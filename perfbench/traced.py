"""The traced child: one ``repro`` command in-process, timed by layer.

Usage (with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced.py report SEED CACHE_DIR OUTPUT [BASELINE]
    python perfbench/traced.py serve SEED CACHE_DIR

``report`` runs ``repro report`` through ``repro.cli.main``; with a
baseline it then checks the run's node digests against it.  ``serve``
runs ``repro serve --port 0`` until it receives SIGINT, then times each
mix route's payload encoding and one full from-scratch ingest.  Either
way the last line of standard output is one JSON object: the import
time, every span's total, every count, and per-request durations.
"""

import json
import sys
import time

BEGIN = time.perf_counter()

import repro.cli  # noqa: E402  (timed: the import is a measured layer)

IMPORT_S = time.perf_counter() - BEGIN

from layers import Tracer, install  # noqa: E402


def span_totals(tracer):
    totals = {}
    for name, start, end, _parent in tracer.spans:
        if end is not None:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def request_durations(tracer):
    """``{route: {"handle": [...], "handle_request": [...]}}`` seconds."""
    routes = {}
    for name, start, end, _parent in tracer.spans:
        kind, _, route = name.partition(" ")
        if kind in ("serve.handle", "serve.handle_request") and end:
            entry = routes.setdefault(route, {"handle": [],
                                              "handle_request": []})
            entry[kind.split(".", 1)[1]].append(end - start)
    return routes


def conformance(seed, cache_dir, baseline):
    """Check the run's cached node results against ``baseline``."""
    from repro.store.artifact import ArtifactStore
    from repro.study import StudyConfig, get_study
    from repro.verify.baseline import check_baseline, run_and_snapshot
    begin = time.perf_counter()
    study = get_study(StudyConfig(seed=seed)).attach_store(
        ArtifactStore(cache_dir))
    _results, snapshots = run_and_snapshot(study)
    report = check_baseline(study, baseline, snapshots=snapshots)
    return {"ok": report.ok, "nodes_checked": report.nodes_checked,
            "first_divergent_node": report.first_divergent_node,
            "verify_s": time.perf_counter() - begin}


def serve_extras(service):
    """Encoding time per mix route, and one full ingest, no checkpoint."""
    from urllib.parse import parse_qs, urlparse

    from repro.ingest.ingester import Ingester
    from repro.ingest.loadgen import DEFAULT_MIX
    from repro.ingest.stream import DEFAULT_WINDOW_SECONDS
    encode = {}
    for route in DEFAULT_MIX:
        parsed = urlparse(route)
        _status, payload = service.handle(parsed.path,
                                          parse_qs(parsed.query))
        samples = []
        for _ in range(50):
            begin = time.perf_counter()
            json.dumps(payload, sort_keys=True).encode("utf-8")
            samples.append(time.perf_counter() - begin)
        encode[parsed.path] = sorted(samples)[len(samples) // 2]
    ingester = Ingester(service.study,
                        window_seconds=DEFAULT_WINDOW_SECONDS, store=None)
    begin = time.perf_counter()
    ingester.run()
    return {"encode_s": encode,
            "ingest": {"run_s": time.perf_counter() - begin,
                       "records": ingester.records_ingested,
                       "windows": ingester.stream.window_count}}


def main(argv):
    mode, seed, cache_dir = argv[0], int(argv[1]), argv[2]
    tracer = Tracer()
    live = install(tracer)
    if mode == "report":
        command = ["report", "-o", argv[3]]
    elif mode == "serve":
        command = ["serve", "--port", "0"]
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    begin = time.perf_counter()
    status = repro.cli.main(command + ["--seed", str(seed),
                                       "--cache-dir", cache_dir])
    main_s = time.perf_counter() - begin
    tracer.enabled = False
    result = {"status": status, "import_s": IMPORT_S, "main_s": main_s,
              "root_s": tracer.root_total(),
              "spans": span_totals(tracer), "counts": tracer.counts}
    if mode == "report" and len(argv) > 4:
        result["conformance"] = conformance(seed, cache_dir, argv[4])
    if mode == "serve":
        result["requests"] = request_durations(tracer)
        result.update(serve_extras(live["service"]))
    print(json.dumps(result))
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
