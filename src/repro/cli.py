"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``generate``  build the world and save the anonymized ClientHello
  capture as JSONL (the artifact the paper open-sources);
- ``probe``     probe every SNI from the three vantage points and save a
  per-server certificate summary;
- ``report``    run the full analysis pipeline and write the markdown
  study report;
- ``audit``     client- and server-side audit of one vendor;
- ``whatif``    run the recommendation experiments (ACME adoption, AIA
  chasing, revocation exposure);
- ``figures``   export plot-ready JSON data for every figure;
- ``cache``     inspect (``stats``) or empty (``clear``) the artifact
  store;
- ``serve``     stream-ingest the capture through the incremental
  analyses and answer the paper's hot queries over a stdlib HTTP/JSON
  API (``/healthz`` with per-objective SLO state, ``/metrics`` in JSON
  or Prometheus exposition text via ``?format=prom``, ``/v1/slo``,
  ``/v1/debug/recent`` — the flight recorder, ``/v1/doc``,
  ``/v1/fingerprints``, ``/v1/match-rate``, ``/v1/issuers``,
  ``/v1/verdicts``); with a cache directory the ingester resumes from
  its last compacted checkpoint; ``--smoke`` runs the built-in load
  mix against the warm server and exits (the CI smoke job);
- ``obs``       inspect a *running* server over HTTP: ``top`` (live
  polling view of health, SLO verdicts, and key metrics), ``export``
  (scrape ``/metrics`` once, write the JSON snapshot or Prometheus
  text), ``diff`` (compare two exported snapshots and flag
  regressions — error counters that grew, lag gauges that rose,
  latency histograms that shifted slow);
- ``match``     the ``repro.match`` engine: ``build-index`` (construct
  the corpus + vendor similarity indexes, write the stats JSON),
  ``query`` (exact near-match libraries for one fingerprint id, sketch
  candidate pruning optional), ``stats`` (engine and index parameters);
- ``ml``        learned fingerprint attribution (``repro.ml``):
  ``train`` the seeded pure-numpy naive-Bayes + logistic-regression
  bundle on the generator's ground-truth labels, ``eval`` it into a
  canonical digest-checkable report (optionally against an external
  labeled capture via ``--input``), ``predict`` the exact-match-
  unmatched 97.45% with per-fingerprint confidences;
- ``verify``    differential conformance: ``record``/``check`` golden
  baselines, run the execution-mode equivalence ``matrix`` (including
  the ``sketch`` matching mode), evaluate the paper ``invariants``,
  prove ``streaming`` == batch, digest-check the deterministic ``ml``
  eval report against its committed baseline;
- ``sweep``     process-parallel multi-config campaigns: ``run`` a seed
  grid (plus trust-store / fault-rate ablations) across worker
  processes — or across a one-host cluster with ``--backend cluster``
  and a remote blob store with ``--store-backend http`` — ``resume`` a
  killed campaign (completed configs are skipped via the campaign
  ledger; works across backends), ``report`` the aggregate variance
  bands around every paper anchor;
- ``fabric``    the distributed campaign fabric: ``serve`` a campaign's
  units as expiring HTTP leases (plus the content-addressed blob store
  and Prometheus ``/metrics``), ``worker`` to claim/run/upload units
  against a coordinator from any machine, ``status`` for the live
  queue/lease/ledger view;
- ``trace-summary``  render a ``--trace`` JSONL file (top spans by
  self-time, metric table, manifest line).

Every study command is *config-first*: the shared flags ``--seed``,
``--jobs``, ``--retries``, and ``--trust-stores`` build one
:class:`~repro.config.StudyConfig` (via :func:`config_from_args`), so no
command silently drops an engine knob.

Caching: pass ``--cache-dir DIR`` (or set ``REPRO_CACHE_DIR``) to reuse
expensive artifacts — the capture, the certificate dataset, every
analysis result — across invocations via the content-addressed
:class:`~repro.store.artifact.ArtifactStore`; ``repro report`` after
``repro probe`` then reuses the probe artifact, and an unchanged re-run
is near-instant.  ``--no-cache`` bypasses the store even when the
environment variable is set.

Observability (``repro.obs``) is active for every command: add
``--trace trace.jsonl`` to stream span/metric/manifest events to JSONL,
``--metrics`` to print the metric table, and find a provenance
``<artifact>.manifest.json`` (seed, config digest, version, stage
timings, metric snapshot, cache traffic) next to every file a command
writes.

Errors: a command that cannot run (a bad flag value, a missing input
file, an unreachable server) prints one line, ``<command path>:
<message>``, to stderr and exits 2; a check that ran and failed exits 1.
"""

import argparse
import json
import os
import sys
import time

from repro import obs
from repro.config import MAJOR_STORES
from repro.obs.manifest import RunManifest, manifest_path_for
from repro.obs.scrape import ScrapeError
from repro.store import StoreUnreachable
from repro.study import DEFAULT_SEED, StudyConfig, get_study

#: cache directory used when --cache-dir is absent ($REPRO_CACHE_DIR
#: overrides; caching stays off when neither is set).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: the committed golden baseline `repro verify check` compares against.
DEFAULT_BASELINE = "conformance/baseline.json"

#: the committed ML eval-report baseline `repro verify ml` checks.
DEFAULT_ML_BASELINE = "conformance/ml_baseline.json"

#: default paths for the `repro ml` model and eval-report artifacts.
DEFAULT_ML_MODEL = "ml_model.json"
DEFAULT_ML_REPORT = "ml_eval.json"


class CommandError(Exception):
    """A command cannot run; ``main`` prints the message and exits 2."""


#: exception types that mean "bad input, not a bug": ``_dispatch``
#: turns each into one stderr line and exit 2 (anything else keeps its
#: traceback).  ``OSError`` covers ``ConnectionError`` and missing
#: files, ``ValueError`` covers ``JSONDecodeError``.
_USAGE_ERRORS = (CommandError, ValueError, OSError, ScrapeError,
                StoreUnreachable)


def _add_config(parser):
    group = parser.add_argument_group("study config")
    group.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="world seed (default %(default)s)")
    group.add_argument("--jobs", type=int, default=1,
                       help="worker threads for probing and analysis "
                            "(default %(default)s; output is identical "
                            "for any value)")
    group.add_argument("--retries", type=int, default=3,
                       help="attempt budget per probe "
                            "(default %(default)s)")
    group.add_argument("--trust-stores", metavar="NAMES",
                       default=",".join(MAJOR_STORES),
                       help="comma-separated major stores the validator "
                            "unions (default %(default)s)")


def _add_cache(parser):
    group = parser.add_argument_group("artifact cache")
    group.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="artifact store directory (default "
                            f"${ENV_CACHE_DIR}; caching is off when "
                            "neither is set)")
    group.add_argument("--no-cache", action="store_true",
                       help="bypass the artifact store entirely")


def _add_obs(parser):
    group = parser.add_argument_group("observability")
    group.add_argument("--trace", metavar="PATH", default=None,
                       help="write tracing spans, metric snapshot, and "
                            "run manifest as JSONL events to PATH")
    group.add_argument("--metrics", action="store_true",
                       help="print the metric table after the command")


def config_from_args(args):
    """The full :class:`StudyConfig` a study command's flags describe."""
    from repro.probing.engine import RetryPolicy
    stores = tuple(name.strip()
                   for name in args.trust_stores.split(",")
                   if name.strip())
    return StudyConfig(seed=args.seed, probe_jobs=args.jobs,
                       retry=RetryPolicy(max_attempts=args.retries),
                       trust_stores=stores)


def _cache_root(args):
    """The artifact-store root the flags select, or ``None`` (off)."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None) or \
        os.environ.get(ENV_CACHE_DIR)


def store_from_args(args):
    """The artifact store the flags select, or ``None`` (caching off)."""
    from repro.store import ArtifactStore
    root = _cache_root(args)
    return ArtifactStore(root) if root else None


def _study_from_args(args):
    """Build config + store + memoized study; records both on ``args``.

    Raises ``ValueError`` on an invalid flag combination.
    """
    config = config_from_args(args)
    args.config = config
    args.store = store_from_args(args)
    return get_study(config).attach_store(args.store)


def _write_output(args, path, text, what=None):
    """Write one output file, record it as a run artifact, say so."""
    with obs.span("cli.write_output"):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    args.artifacts.append(path)
    if what:
        print(f"wrote {what} to {path}")


def _json_text(payload, indent=2):
    return json.dumps(payload, indent=indent, sort_keys=True) + "\n"


def cmd_generate(args):
    from repro.inspector.io import save_records
    dataset = _study_from_args(args).dataset
    with obs.span("cli.write_output"):
        save_records(dataset.records, args.output)
    args.artifacts.append(args.output)
    print(f"wrote {len(dataset.records)} ClientHello records from "
          f"{dataset.device_count} devices ({dataset.vendor_count} "
          f"vendors, {dataset.user_count} users) to {args.output}")
    return 0


def cmd_probe(args):
    study = _study_from_args(args)
    certificates = study.certificates
    rows = certificates.to_json_rows(ct_logs=study.network.ct_logs)
    _write_output(args, args.output,
                  "".join(json.dumps(row) + "\n" for row in rows))
    reachable = sum(1 for row in rows if row["reachable"])
    print(f"probed {len(rows)} SNIs ({reachable} reachable); "
          f"wrote {args.output}")
    if args.stats and certificates.stats is not None:
        print(certificates.stats.summary())
    return 0


def cmd_report(args):
    from repro.core.pipeline import run_full_study
    from repro.core.report import render_report
    results = run_full_study(_study_from_args(args), jobs=args.jobs)
    with obs.span("cli.render_report"):
        text = render_report(results, seed=args.seed)
    if args.output == "-":
        print(text)
    else:
        _write_output(args, args.output, text, "study report")
    return 0


def cmd_audit(args):
    from repro.core.customization import doc_vendor
    from repro.core.issuers import issuer_report
    from repro.core.matching import validate_case_study
    from repro.core.tables import percent
    study = _study_from_args(args)
    dataset = study.dataset
    vendor = args.vendor
    if vendor not in dataset.vendor_names():
        raise CommandError(f"unknown vendor {vendor!r}; known vendors: "
                           + ", ".join(dataset.vendor_names()))
    print(f"== {vendor} ==")
    print(f"devices: {len(dataset.devices_of_vendor(vendor))}")
    print(f"fingerprints: {len(dataset.vendor_fingerprints(vendor))} "
          f"(DoC_vendor {percent(doc_vendor(dataset, vendor))})")
    with obs.span("analysis.audit.matching"):
        matches = validate_case_study(dataset, study.corpus, vendor)
    print(f"library matches: {matches or '(none)'}")
    with obs.span("analysis.audit.issuers"):
        report = issuer_report(dataset, study.certificates,
                               study.ecosystem)
    ratios = sorted(report.vendor_issuer_ratios(vendor).items(),
                    key=lambda kv: -kv[1])
    print("server certificate issuers seen by its devices:")
    for org, share in ratios[:8]:
        kind = "public" if org in set(report.public_orgs) else "PRIVATE"
        print(f"  {org:35s} {kind:8s} {percent(share)}")
    return 0


def cmd_whatif(args):
    from repro.core import whatif
    from repro.core.tables import percent
    study = _study_from_args(args)
    if args.experiment in ("acme", "all"):
        with obs.span("analysis.whatif.acme"):
            result = whatif.acme_adoption(study)
        before, after = result["before"], result["after"]
        print(f"[acme] {result['private_leaf_count']} vendor-signed "
              f"leafs: validity max "
              f"{before['validity_min_med_max'][2]:.0f}d → "
              f"{after['validity_min_med_max'][2]:.0f}d; CT "
              f"{percent(before['ct_share'])} → "
              f"{percent(after['ct_share'])}")
    if args.experiment in ("aia", "all"):
        with obs.span("analysis.whatif.aia"):
            result = whatif.aia_chasing(study)
        print(f"[aia] verdicts fixed by intermediate fetching: "
              f"{len(result['fixed_by_aia'])}")
    if args.experiment in ("revocation", "all"):
        with obs.span("analysis.whatif.revocation"):
            result = whatif.revocation_exposure(study)
        print(f"[revocation] devices with no revocation path: "
              f"{result['devices_exposed_no_revocation_path']} "
              f"(protected: "
              f"{result['devices_protected_by_revocation']})")
    return 0


def cmd_figures(args):
    from repro.core.figures import export_all
    study = _study_from_args(args)
    with obs.span("cli.write_output"):
        written = export_all(study, args.output)
    args.artifacts.append(args.output)
    print(f"wrote {len(written)} figure data files under {args.output}")
    return 0


def _cache_store(args):
    store = store_from_args(args)
    if store is None:
        raise CommandError(f"no cache directory (pass --cache-dir or set "
                           f"${ENV_CACHE_DIR})")
    return store


def cmd_cache_stats(args):
    stats = _cache_store(args).stats()
    print(f"cache {stats['dir']} (current version "
          f"{stats['version']}): {stats['entries']} entries, "
          f"{stats['bytes'] / 1e6:.1f} MB")
    for stage, count in stats["by_stage"].items():
        print(f"  {stage:40s} {count}")
    for version, count in stats["by_version"].items():
        marker = "" if version == stats["version"] else "  (stale)"
        print(f"  version {version}: {count} entries{marker}")
    return 0


def cmd_cache_clear(args):
    store = _cache_store(args)
    removed = store.clear()
    print(f"removed {removed} entries from {store.root}")
    return 0


def _write_verify_report(args, payload):
    """Write a machine-readable verify report when --report was given."""
    if getattr(args, "report", None):
        _write_output(args, args.report, _json_text(payload),
                      "verify report")


def cmd_serve(args):
    from repro.http import base_url, serve_until_interrupt, serving
    from repro.ingest import run_load, serve_study
    from repro.inspector.timeline import days
    server, service = serve_study(
        _study_from_args(args), host=args.host, port=args.port,
        window_seconds=days(args.window_days), store=args.store)
    print(f"serving study (seed {args.seed}) on {base_url(server)} "
          f"— {service.ingester.records_ingested} records in "
          f"{service.ingester.stream.window_count} windows"
          f"{' (resumed from checkpoint)' if service.ingester.resumed else ''}")
    if args.smoke:
        with serving(server) as url:
            result = run_load(url, requests_per_worker=args.smoke_requests,
                              workers=2)
        summary = result.to_json()
        print(f"smoke: {summary['requests']} requests, "
              f"{summary['errors']} errors, {summary['qps']} q/s, "
              f"p99 {summary['p99_ms']} ms")
        return 0 if summary["errors"] == 0 else 1
    serve_until_interrupt(server)
    print("shutting down")
    return 0


def _match_engine(args, study):
    """The seeded :class:`~repro.match.MatchEngine` the flags select."""
    from repro.match import MatchEngine
    return MatchEngine.for_config(study.config, mode=args.mode)


def cmd_match_build_index(args):
    from repro.ingest.incremental import fingerprint_id
    study = _study_from_args(args)
    engine = _match_engine(args, study)
    with obs.span("match.build_index"):
        payload = engine.stats(dataset=study.dataset,
                               corpus=study.corpus)
        payload["fingerprint_ids"] = {
            fingerprint_id(fp): [int(fp[0]), list(fp[1]), list(fp[2])]
            for fp in sorted(study.dataset.fingerprints())}
    _write_output(args, args.output, _json_text(payload))
    corpus_stats = payload["corpus"]
    print(f"built {args.mode} match index: "
          f"{corpus_stats['entries']} corpus entries → "
          f"{corpus_stats['distinct_keys']} distinct keys "
          f"(dedup {corpus_stats['dedup_ratio']}x), "
          f"{payload['vendors']['items']} vendor sets; "
          f"wrote {args.output}")
    return 0


def cmd_match_query(args):
    from repro.ingest.incremental import fingerprint_id
    study = _study_from_args(args)
    by_id = {fingerprint_id(fp): fp
             for fp in study.dataset.fingerprints()}
    fp = by_id.get(args.fingerprint)
    if fp is None:
        raise CommandError(f"unknown fingerprint id {args.fingerprint!r} "
                           f"(see `repro match build-index` output for "
                           f"the id map)")
    engine = _match_engine(args, study)
    with obs.span("match.query"):
        exact = engine.corpus_index(study.corpus).match(*fp)
        hits = engine.near_matches(fp, study.corpus,
                                   threshold=args.threshold,
                                   limit=args.limit)
    version, suites, extensions = fp
    print(f"fingerprint {args.fingerprint}: TLS {int(version):#06x}, "
          f"{len(suites)} suites, {len(extensions)} extensions")
    print(f"exact corpus match: "
          f"{exact.full_name if exact is not None else '(none)'}")
    if hits:
        print(f"near matches (Jaccard >= {args.threshold}):")
        for similarity, library in hits:
            print(f"  {similarity:.3f}  {library.full_name}")
    else:
        print(f"near matches (Jaccard >= {args.threshold}): (none)")
    return 0


def cmd_match_stats(args):
    study = _study_from_args(args)
    engine = _match_engine(args, study)
    with obs.span("match.stats"):
        payload = engine.stats(dataset=study.dataset,
                               corpus=study.corpus)
    print(f"engine: mode={payload['mode']} seed={payload['seed']:#x} "
          f"hashes={payload['num_hashes']} bands={payload['bands']}x"
          f"{payload['rows_per_band']}")
    corpus_stats = payload["corpus"]
    print(f"corpus: {corpus_stats['entries']} entries, "
          f"{corpus_stats['distinct_keys']} distinct keys "
          f"(dedup {corpus_stats['dedup_ratio']}x), "
          f"{corpus_stats['prefix_buckets']} (version, "
          f"suite[:{corpus_stats['suite_prefix']}]) buckets")
    vendor_stats = payload["vendors"]
    print(f"vendors: {vendor_stats['items']} sets, "
          f"{vendor_stats['distinct_vectors']} distinct vectors, "
          f"{vendor_stats['feature_space']}-bit feature space, "
          f"candidate pairs {vendor_stats['candidate_pairs']} / "
          f"{vendor_stats['total_pairs']}")
    return 0


def cmd_verify_record(args):
    from repro.verify import (invariant_summary, record_baseline,
                              render_invariants, run_and_snapshot)
    study = _study_from_args(args)
    results, snapshots = run_and_snapshot(study, jobs=args.jobs)
    summary = invariant_summary(study, results)
    args.invariants = summary
    print(render_invariants(summary))
    if not summary["ok"]:
        print("verify record: refusing to record a baseline that "
              "violates paper invariants", file=sys.stderr)
        return 1
    with obs.span("cli.write_output"):
        path = record_baseline(study, args.baseline,
                               snapshots=snapshots)
    print(f"recorded golden baseline ({len(snapshots)} nodes) to "
          f"{path}")
    return 0


def cmd_verify_check(args):
    from repro.verify import (check_baseline, invariant_summary,
                              render_invariants, run_and_snapshot)
    study = _study_from_args(args)
    results, snapshots = run_and_snapshot(study, jobs=args.jobs)
    summary = invariant_summary(study, results)
    args.invariants = summary
    report = check_baseline(study, args.baseline, snapshots=snapshots)
    print(report.render())
    print(render_invariants(summary))
    payload = report.to_json()
    payload["invariants"] = summary
    _write_verify_report(args, payload)
    return 0 if report.ok and summary["ok"] else 1


def cmd_verify_matrix(args):
    from repro.verify import EquivalenceMatrix, default_modes
    args.config = config_from_args(args)
    parallel_jobs = args.jobs if args.jobs > 1 else 4
    matrix = EquivalenceMatrix(
        base_config=args.config, modes=default_modes(parallel_jobs))
    report = matrix.run()
    print(report.render())
    _write_verify_report(args, report.to_json())
    return 0 if report.ok else 1


def cmd_verify_invariants(args):
    from repro.core.pipeline import run_full_study
    from repro.verify import invariant_summary, render_invariants
    study = _study_from_args(args)
    results = run_full_study(study, jobs=args.jobs)
    summary = invariant_summary(study, results)
    args.invariants = summary
    print(render_invariants(summary))
    return 0 if summary["ok"] else 1


def cmd_verify_streaming(args):
    from repro.inspector.timeline import days
    from repro.verify import check_streaming
    report = check_streaming(_study_from_args(args),
                             window_seconds=days(args.window_days),
                             store=args.store)
    print(report.render())
    _write_verify_report(args, report.to_json())
    return 0 if report.ok else 1


def cmd_verify_ml(args):
    from repro.ml import (check_ml_baseline, eval_digest,
                          evaluate_study, record_ml_baseline)
    payload = evaluate_study(_study_from_args(args))
    if args.record:
        with obs.span("cli.write_output"):
            path = record_ml_baseline(payload, args.baseline)
        args.artifacts.append(path)
        print(f"recorded ml eval baseline (digest "
              f"{eval_digest(payload)[:16]}..., macro-F1 "
              f"{payload['macro']['f1']:.4f}) to {path}")
        return 0
    try:
        report = check_ml_baseline(payload, args.baseline)
    except FileNotFoundError:
        raise CommandError(f"baseline not found: {args.baseline} (record "
                           f"one with `repro verify ml --record`)") \
            from None
    if report["ok"]:
        print(f"ml eval digest matches baseline "
              f"({report['actual_digest'][:16]}..., macro-F1 "
              f"{payload['macro']['f1']:.4f})")
    else:
        print("ml eval digest DIVERGES from baseline:")
        print(f"  expected {report['expected_digest']}")
        print(f"  actual   {report['actual_digest']}")
        if "note" in report:
            print(f"  note: {report['note']}")
        if "first_divergence" in report:
            where, detail = report["first_divergence"]
            print(f"  first divergence at {where}: {detail}")
    _write_verify_report(args, report)
    return 0 if report["ok"] else 1


def _ml_params_from_args(args):
    """An :class:`repro.ml.MLParams` from the train flags (lazy import)."""
    from repro.ml import MLParams
    overrides = {name: value for name, value in (
        ("target", getattr(args, "target", None)),
        ("width", getattr(args, "width", None)),
        ("iters", getattr(args, "iters", None)),
        ("test_fraction", getattr(args, "test_fraction", None)),
    ) if value is not None}
    return MLParams(**overrides)


def _ml_threshold(args):
    """Validated --threshold (``None`` defers to the model's default)."""
    threshold = args.threshold
    if threshold is not None and not 0.0 <= threshold <= 1.0:
        raise CommandError(f"--threshold must be within [0.0, 1.0], "
                           f"got {threshold}")
    return threshold


def _ml_model(args):
    """The model file --model names."""
    from repro.ml import AttributionModel
    try:
        return AttributionModel.load(args.model)
    except FileNotFoundError:
        raise CommandError(f"model file not found: {args.model} (run "
                           f"`repro ml train` first)") from None


def cmd_ml_train(args):
    from repro.ml import train_study
    params = _ml_params_from_args(args)
    model = train_study(_study_from_args(args), params=params)
    with obs.span("cli.write_output"):
        model.save(args.output)
    args.artifacts.append(args.output)
    print(f"trained {params.target} attribution on "
          f"{model.counts['train']} fingerprints "
          f"({len(model.classes)} classes, {params.iters} fixed "
          f"iterations); wrote {args.output}")
    return 0


def _ml_eval_capture(args, model, threshold):
    """Eval on an external labeled capture (the ``--input`` JSONL)."""
    from repro.ml import evaluate_capture
    rows = []
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise CommandError(
                        f"{args.input}:{number}: expected a JSON "
                        f"object, got {type(row).__name__}")
                rows.append(row)
    except FileNotFoundError:
        raise CommandError(f"input file not found: {args.input}") \
            from None
    except json.JSONDecodeError as exc:
        raise CommandError(f"{args.input} is not JSONL ({exc})") \
            from None
    return evaluate_capture(model, rows, threshold=threshold)


def cmd_ml_eval(args):
    from repro.ml import (canonical_report_text, evaluate_model,
                          render_eval)
    threshold = _ml_threshold(args)
    model = _ml_model(args)
    if args.input:
        payload = _ml_eval_capture(args, model, threshold)
        print(f"capture eval: {payload['records']} records, "
              f"{payload['fingerprints']} fingerprints; accuracy "
              f"{payload['accuracy']:.4f} on {payload['known']} "
              f"known-class fingerprints, {payload['attributed']} "
              f"attributed at confidence >= {payload['threshold']}")
    else:
        study = _study_from_args(args)
        payload = evaluate_model(model, study.dataset, study.corpus,
                                 study.world, study.config,
                                 threshold=threshold)
        print(render_eval(payload))
    _write_output(args, args.report, canonical_report_text(payload),
                  "canonical eval report")
    return 0


def cmd_ml_predict(args):
    from repro.ml import labeled_examples
    threshold = _ml_threshold(args)
    model = _ml_model(args)
    study = _study_from_args(args)
    _, unmatched = labeled_examples(study.dataset, study.corpus,
                                    study.world,
                                    target=model.params.target)
    rows = model.predict_rows(list(unmatched), threshold=threshold)
    if args.output:
        _write_output(args, args.output, _json_text({"rows": rows}, 1),
                      f"{len(rows)} prediction rows")
    for row in rows[:args.limit]:
        mark = "*" if row["attributed"] else " "
        print(f"{mark} {row['fingerprint']}  {row['label']:<16s} "
              f"confidence={row['confidence']:.4f} "
              f"(nb: {row['nb_label']})")
    attributed = sum(1 for row in rows if row["attributed"])
    print(f"attributed {attributed}/{len(rows)} unmatched "
          f"fingerprints ({model.params.target} target)")
    return 0


def _sweep_store_spec(args):
    """The store-backend spec the sweep/fabric flags describe.

    Raises ``ValueError`` on an impossible combination.
    """
    from repro.store import http_spec, local_spec
    cache_root = _cache_root(args)
    if args.store_backend == "http":
        if not args.store_url and not cache_root:
            raise ValueError(
                "--store-backend http needs --store-url (an external "
                "blob server) or --cache-dir (self-served by the "
                "coordinator)")
        return http_spec(url=args.store_url,
                         cache_dir=None if args.store_url else cache_root)
    if args.store_url:
        raise ValueError("--store-url requires --store-backend http")
    return local_spec(cache_root)


def _campaign_from_args(args):
    """The units and store spec the campaign flags describe.

    Records the base config on ``args``; raises ``ValueError`` on a bad
    grid, stage, or store combination.
    """
    from repro.sweep import expand_grid, parse_grid
    config = config_from_args(args)
    units = expand_grid(config, seeds=args.seeds,
                        grid=parse_grid(args.grid),
                        time_scale=args.time_scale, stage=args.stage)
    spec = _sweep_store_spec(args)
    args.config = config
    return units, spec


def _finish_sweep(args, result):
    """Aggregate a campaign, print + write the report; returns exit code."""
    from repro.sweep import SweepAggregator
    report = SweepAggregator.from_index(result.index).report()
    print(f"sweep: ran {len(result.ran)}, skipped "
          f"{len(result.skipped)} (already completed), failed "
          f"{len(result.failed)}")
    print(report.render())
    _write_output(args, os.path.join(args.out, "sweep_report.json"),
                  _json_text(report.to_json()), "sweep report")
    return 0 if (result.ok and report.ok) else 1


def cmd_sweep_run(args):
    from repro.sweep import SweepRunner
    units, store = _campaign_from_args(args)
    if args.backend == "local" and store \
            and store.get("backend") == "http" and not store.get("url"):
        raise ValueError("a self-served http store needs --backend "
                         "cluster (or an explicit --store-url)")
    os.makedirs(args.out, exist_ok=True)
    runner = SweepRunner(
        units=units,
        index_path=os.path.join(args.out, "campaign.json"),
        workers=args.workers,
        cache_dir=_cache_root(args),
        backend=args.backend, store=store,
        lease_seconds=args.lease_seconds,
        worker_jobs=args.worker_jobs)
    print(f"sweep: {len(units)} units "
          f"({', '.join(unit.name for unit in units[:8])}"
          f"{', ...' if len(units) > 8 else ''}) across "
          f"{args.workers} {args.backend} worker(s)")
    result = runner.run()
    return _finish_sweep(args, result)


def _load_campaign(args):
    """The campaign ledger under ``--out`` (also sets ``args.config``)."""
    from repro.store.campaign import CampaignIndex
    from repro.sweep import campaign_units
    index = CampaignIndex.load(os.path.join(args.out, "campaign.json"))
    units = campaign_units(index)
    if units:
        args.config = units[0].study_config()
    return index


def cmd_sweep_resume(args):
    from repro.store import RemoteArtifactStore
    from repro.sweep import SweepRunner
    index = _load_campaign(args)
    spec = index.store_spec
    if spec and spec.get("backend") == "http" and spec.get("url"):
        # Fail fast with one line instead of a ConnectionError
        # traceback from the first unit that dials a dead store.
        RemoteArtifactStore(spec["url"]).ping()
    runner = SweepRunner(
        index_path=os.path.join(args.out, "campaign.json"),
        workers=args.workers,
        cache_dir=index.cache_dir,
        backend=args.backend, store=spec,
        lease_seconds=args.lease_seconds,
        worker_jobs=args.worker_jobs)
    return _finish_sweep(args, runner.run(resume=True))


def cmd_sweep_report(args):
    from repro.sweep import SweepAggregator
    report = SweepAggregator.from_index(_load_campaign(args)).report()
    print(report.render())
    if args.json:
        _write_output(args, args.json, _json_text(report.to_json()),
                      "sweep report")
    return 0 if report.ok else 1


def cmd_fabric_serve(args):
    from repro.fabric import (DEFAULT_LEASE_SECONDS,
                              DEFAULT_MAX_ATTEMPTS, FabricCoordinator,
                              make_fabric_server)
    from repro.http import base_url, serve_until_interrupt, serving
    from repro.store import CampaignIndex
    index_path = os.path.join(args.out, "campaign.json")
    try:
        index = _load_campaign(args)
        spec = index.store_spec
        print(f"fabric serve: resuming campaign "
              f"{index.campaign_id[:12]} ({len(index.completed)}/"
              f"{len(index.units)} units complete)")
    except ValueError:
        units, spec = _campaign_from_args(args)
        os.makedirs(args.out, exist_ok=True)
        index = CampaignIndex.create(
            index_path, [unit.to_json() for unit in units],
            units[0].stage, cache_dir=_cache_root(args), store=spec)
        print(f"fabric serve: created campaign "
              f"{index.campaign_id[:12]} ({len(units)} units)")
    coordinator = FabricCoordinator(
        index, store_spec=spec,
        lease_seconds=args.lease_seconds or DEFAULT_LEASE_SECONDS,
        max_attempts=args.max_attempts or DEFAULT_MAX_ATTEMPTS)
    server, _ = make_fabric_server(coordinator, host=args.host,
                                   port=args.port)
    url = base_url(server)
    print(f"fabric coordinator on {url} — point workers at it with "
          f"`repro fabric worker {url}`")
    if args.until_done:
        with serving(server):
            while not coordinator.done():
                time.sleep(0.25)
        completed = len(index.completed)
        print(f"fabric serve: campaign finished — {completed}/"
              f"{len(index.units)} units completed")
        return 0 if completed == len(index.units) else 1
    serve_until_interrupt(server)
    print("shutting down")
    return 0


def cmd_fabric_worker(args):
    from repro.fabric import worker_main
    if not args.worker_id:
        args.worker_id = f"{os.uname().nodename}-{os.getpid()}"
    summary = worker_main(args.url, worker_id=args.worker_id,
                          jobs=args.jobs, max_units=args.max_units,
                          poll_seconds=args.poll_seconds)
    print(f"fabric worker {summary['worker']}: "
          f"ran {len(summary['ran'])}, "
          f"stolen {len(summary['stolen'])}, "
          f"failed {len(summary['failed'])}")
    return 0 if not summary["failed"] else 1


def cmd_fabric_status(args):
    from repro.obs.scrape import scrape
    status = scrape(args.url, "/fabric/status")
    done = " — done" if status.get("done") else ""
    print(f"campaign {status['campaign_id'][:12]} "
          f"(stage {status['stage']}): {status['completed']}/"
          f"{status['units']} completed, {status['pending']} pending, "
          f"{len(status['leased'])} leased, "
          f"{status['failed']} failed{done}")
    for lease in status["leased"]:
        print(f"  leased  {lease['unit'][:12]}  -> {lease['worker']} "
              f"(expires in {lease['expires_in']}s)")
    for key in status["exhausted"]:
        print(f"  exhausted  {key[:12]} (attempt budget spent)")
    return 0


def cmd_trace_summary(args):
    from repro.obs.summary import summarize_file
    print(summarize_file(args.trace_file, top=args.top))
    return 0


def cmd_obs_top(args):
    from repro.obs.scrape import render_top, scrape
    previous = None
    frame = 0
    try:
        while True:
            frame += 1
            healthz = scrape(args.url, "/healthz")["data"]
            slo = scrape(args.url, "/v1/slo")["data"]
            metrics = scrape(args.url, "/metrics")["data"]
            print(render_top(
                healthz, slo, metrics, previous=previous,
                interval=args.interval if previous is not None
                else None))
            previous = metrics.get("metrics", metrics)
            if args.count and frame >= args.count:
                break
            print("")
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_obs_export(args):
    from repro.obs.scrape import scrape
    if args.format == "prom":
        text = scrape(args.url, "/metrics?format=prom", as_text=True)
    else:
        payload = scrape(args.url, "/metrics")
        text = _json_text(payload)
    if args.output == "-":
        print(text, end="")
    else:
        _write_output(args, args.output, text,
                      f"{args.format} metrics snapshot")
    return 0


def cmd_obs_diff(args):
    from repro.obs.scrape import diff_snapshots, load_export, render_diff
    before = load_export(args.before)
    after = load_export(args.after)
    report = diff_snapshots(before, after, tolerance=args.tolerance)
    print(render_diff(report))
    if args.json:
        _write_output(args, args.json, _json_text(report), "diff report")
    return 0 if report["ok"] else 1


def _add_campaign(parser):
    """Grid and store flags shared by ``sweep run`` and ``fabric serve``."""
    group = parser.add_argument_group("campaign")
    group.add_argument("--seeds", type=int, default=4,
                       help="number of consecutive seeds starting at "
                            "--seed (default %(default)s)")
    group.add_argument("--grid", metavar="AXES", default="seeds",
                       help="comma-separated grid axes from "
                            "seeds,stores,faults (default %(default)s)")
    group.add_argument("--stage", choices=("full", "probe", "ml"),
                       default="full",
                       help="run the full pipeline or stop after "
                            "probing (default %(default)s)")
    group.add_argument("--time-scale", type=float, default=0.0,
                       dest="time_scale",
                       help="real seconds slept per simulated network "
                            "second while probing (default "
                            "%(default)s; never changes output bytes)")
    group.add_argument("--out", metavar="DIR", default="sweep_out",
                       help="campaign directory: ledger + report "
                            "(default %(default)s)")
    group.add_argument("--store-backend", choices=("local", "http"),
                       default="local", dest="store_backend",
                       help="artifact store backend the units use "
                            "(default %(default)s; http dials "
                            "--store-url or is self-served by the "
                            "coordinator from --cache-dir)")
    group.add_argument("--store-url", metavar="URL", default=None,
                       dest="store_url",
                       help="base URL of an external http blob store")
    _add_lease_seconds(group)


def _add_lease_seconds(parser):
    parser.add_argument("--lease-seconds", type=float, default=None,
                        dest="lease_seconds",
                        help="cluster lease/heartbeat interval "
                             "(default: fabric default)")


def _add_sweep_backend(parser):
    """Execution flags shared by ``sweep run`` and ``sweep resume``."""
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; 1 runs inline "
                             "(default %(default)s; output digests are "
                             "identical for any value)")
    parser.add_argument("--backend", choices=("local", "cluster"),
                        default="local",
                        help="execution backend: this process / a "
                             "process pool, or a fabric coordinator + "
                             "worker processes (default %(default)s; "
                             "digests are identical either way)")
    parser.add_argument("--worker-jobs", type=int, default=2,
                        dest="worker_jobs",
                        help="claim threads per cluster worker process "
                             "(default %(default)s)")


def _add_match_mode(parser):
    parser.add_argument("--mode", choices=("exact", "sketch"),
                        default="sketch",
                        help="matching engine mode (default %(default)s; "
                             "results are identical, sketch prunes "
                             "candidates)")


def _add_ml_model(parser):
    """The trained-model flags ``ml eval`` and ``ml predict`` share."""
    parser.add_argument("--model", default=DEFAULT_ML_MODEL,
                        help="trained model file (default %(default)s)")
    parser.add_argument("--threshold", type=float, default=None,
                        help="attribution confidence floor in [0, 1] "
                             "(default: the model's)")


def _add_window_days(parser):
    parser.add_argument("--window-days", type=int, default=28,
                        dest="window_days",
                        help="stream window width in capture days "
                             "(default %(default)s)")


def _add_bind(parser, port):
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default %(default)s)")
    parser.add_argument("--port", type=int, default=port,
                        help="bind port; 0 picks an ephemeral port "
                             "(default %(default)s)")


#: the flag groups of a command that builds a study.
_STUDY_FLAGS = (_add_config, _add_cache, _add_obs)


def _command(sub, name, help_text, func, groups=_STUDY_FLAGS):
    """One leaf command: its parser, the flag ``groups``, its ``func``."""
    parser = sub.add_parser(name, help=help_text)
    for add_group in groups:
        add_group(parser)
    parser.set_defaults(func=func)
    return parser


def _command_group(sub, name, help_text):
    """A command with subcommands, dispatched on ``<name>_command``."""
    return sub.add_parser(name, help=help_text).add_subparsers(
        dest=f"{name}_command", required=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Behind the Scenes' (IMC 2023)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = _command(sub, "generate",
                          "generate the world, save the capture as JSONL",
                          cmd_generate)
    p_generate.add_argument("-o", "--output", default="capture.jsonl")
    p_probe = _command(sub, "probe",
                       "probe all SNIs, save per-server cert summary",
                       cmd_probe)
    p_probe.add_argument("-o", "--output", default="certificates.jsonl")
    p_probe.add_argument("--stats", action="store_true",
                         help="print probe engine telemetry (attempts, "
                              "retries, error taxonomy)")
    p_report = _command(sub, "report",
                        "run the full pipeline, write the markdown report",
                        cmd_report)
    p_report.add_argument("-o", "--output", default="study_report.md",
                          help="output path, or '-' for stdout")
    p_audit = _command(sub, "audit", "audit one vendor", cmd_audit)
    p_audit.add_argument("vendor")
    p_figures = _command(sub, "figures",
                         "export plot-ready JSON data for every figure",
                         cmd_figures)
    p_figures.add_argument("-o", "--output", default="figure_data")
    p_whatif = _command(sub, "whatif",
                        "run the recommendation experiments", cmd_whatif)
    p_whatif.add_argument("experiment",
                          choices=("acme", "aia", "revocation", "all"))

    p_serve = _command(
        sub, "serve",
        "stream-ingest the capture, serve the query API over HTTP",
        cmd_serve, _STUDY_FLAGS + (_add_window_days,))
    _add_bind(p_serve, 8437)
    p_serve.add_argument("--smoke", action="store_true",
                         help="run the built-in load mix against the "
                              "warm server, print the summary, exit")
    p_serve.add_argument("--smoke-requests", type=int, default=50,
                         dest="smoke_requests",
                         help="requests per smoke worker "
                              "(default %(default)s)")

    match_sub = _command_group(
        sub, "match",
        "the repro.match engine: build indexes, query near matches, "
        "inspect index stats")
    match_groups = _STUDY_FLAGS + (_add_match_mode,)
    p_mbuild = _command(
        match_sub, "build-index",
        "construct the corpus + vendor similarity indexes, write the "
        "stats and fingerprint-id map as JSON",
        cmd_match_build_index, match_groups)
    p_mbuild.add_argument("-o", "--output", default="match_index.json")
    p_mquery = _command(
        match_sub, "query",
        "exact near-match libraries for one fingerprint id",
        cmd_match_query, match_groups)
    p_mquery.add_argument("fingerprint",
                          help="fingerprint id (16-hex handle from "
                               "build-index or /v1/fingerprints)")
    p_mquery.add_argument("--threshold", type=float, default=0.7,
                          help="minimum feature-set Jaccard "
                               "(default %(default)s)")
    p_mquery.add_argument("--limit", type=int, default=10,
                          help="max results (default %(default)s)")
    _command(match_sub, "stats",
             "engine parameters and corpus/vendor index statistics",
             cmd_match_stats, match_groups)

    ml_sub = _command_group(
        sub, "ml",
        "learned fingerprint attribution: train/eval/predict seeded "
        "pure-numpy classifiers over the labeled synthetic world")
    p_mltrain = _command(
        ml_sub, "train",
        "train the naive-Bayes + logistic-regression bundle, write the "
        "JSON model file", cmd_ml_train)
    p_mltrain.add_argument("--target", choices=("family", "vendor"),
                           default=None,
                           help="prediction target (default family)")
    p_mltrain.add_argument("--width", type=int, default=None,
                           help="hashed feature-space width "
                                "(default 1024)")
    p_mltrain.add_argument("--iters", type=int, default=None,
                           help="fixed gradient-descent iteration "
                                "count (default 2000)")
    p_mltrain.add_argument("--test-fraction", type=float, default=None,
                           dest="test_fraction",
                           help="held-out fraction per class "
                                "(default 0.3)")
    p_mltrain.add_argument("-o", "--output", default=DEFAULT_ML_MODEL,
                           help="model file (default %(default)s)")
    p_mleval = _command(
        ml_sub, "eval",
        "evaluate a trained model, write the canonical eval report "
        "(digest-checkable by `repro verify ml`)",
        cmd_ml_eval, _STUDY_FLAGS + (_add_ml_model,))
    p_mleval.add_argument("--input", metavar="PATH", default=None,
                          help="evaluate on an external labeled "
                               "capture (JSONL rows with vendor "
                               "labels) instead of the study world")
    p_mleval.add_argument("--report", metavar="PATH",
                          default=DEFAULT_ML_REPORT,
                          help="canonical eval report path "
                               "(default %(default)s)")
    p_mlpredict = _command(
        ml_sub, "predict",
        "attribute the exact-match-unmatched fingerprints with a "
        "trained model", cmd_ml_predict, _STUDY_FLAGS + (_add_ml_model,))
    p_mlpredict.add_argument("--limit", type=int, default=20,
                             help="prediction rows to print "
                                  "(default %(default)s)")
    p_mlpredict.add_argument("-o", "--output", default=None,
                             help="also write every prediction row "
                                  "as JSON to PATH")

    verify_sub = _command_group(
        sub, "verify",
        "differential conformance: golden baselines, equivalence "
        "matrix, paper invariants")
    p_vrecord = _command(verify_sub, "record",
                         "record the golden baseline for this config",
                         cmd_verify_record)
    p_vrecord.add_argument("--baseline", metavar="PATH",
                           default=DEFAULT_BASELINE,
                           help="baseline file (default %(default)s)")
    p_vcheck = _command(
        verify_sub, "check",
        "re-run the pipeline, compare against the golden baseline",
        cmd_verify_check)
    p_vcheck.add_argument("--baseline", metavar="PATH",
                          default=DEFAULT_BASELINE,
                          help="baseline file (default %(default)s)")
    p_vcheck.add_argument("--report", metavar="PATH", default=None,
                          help="also write the structured diff report "
                               "as JSON to PATH")
    p_vmatrix = _command(
        verify_sub, "matrix",
        "prove execution modes equivalent (serial/parallel, cold/warm "
        "cache, faults+retries, store permutations)",
        cmd_verify_matrix, (_add_config, _add_obs))
    p_vmatrix.add_argument("--report", metavar="PATH", default=None,
                           help="also write per-mode node digests and "
                                "mismatches as JSON to PATH")
    _command(verify_sub, "invariants",
             "evaluate the paper-invariant checks and print verdicts",
             cmd_verify_invariants)
    p_vstream = _command(
        verify_sub, "streaming",
        "prove the streaming ingest path's final state equals the batch "
        "pipeline's, node for node",
        cmd_verify_streaming, _STUDY_FLAGS + (_add_window_days,))
    p_vstream.add_argument("--report", metavar="PATH", default=None,
                           help="also write per-node digests as JSON "
                                "to PATH")
    p_vml = _command(
        verify_sub, "ml",
        "re-train the attribution model and digest-check its canonical "
        "eval report against the committed baseline", cmd_verify_ml)
    p_vml.add_argument("--baseline", metavar="PATH",
                       default=DEFAULT_ML_BASELINE,
                       help="ml baseline file (default %(default)s)")
    p_vml.add_argument("--record", action="store_true",
                       help="record the baseline instead of checking")
    p_vml.add_argument("--report", metavar="PATH", default=None,
                       help="also write the digest-check report as "
                            "JSON to PATH")

    sweep_sub = _command_group(
        sub, "sweep",
        "process-parallel multi-config campaigns: seed grids, "
        "trust-store and fault ablations, variance bands")
    _command(sweep_sub, "run",
             "run (or re-run, skipping completed configs) a sweep "
             "campaign", cmd_sweep_run,
             _STUDY_FLAGS + (_add_campaign, _add_sweep_backend))
    p_sresume = _command(
        sweep_sub, "resume",
        "resume a killed campaign: re-run only incomplete configs",
        cmd_sweep_resume, (_add_obs, _add_sweep_backend,
                           _add_lease_seconds))
    p_sresume.add_argument("--out", metavar="DIR", default="sweep_out")
    p_sreport = _command(
        sweep_sub, "report",
        "aggregate a campaign ledger into variance bands (no re-running)",
        cmd_sweep_report, (_add_obs,))
    p_sreport.add_argument("--out", metavar="DIR", default="sweep_out")
    p_sreport.add_argument("--json", metavar="PATH", default=None,
                           help="also write the aggregate report as "
                                "JSON to PATH")

    fabric_sub = _command_group(
        sub, "fabric",
        "distributed campaign fabric: serve a campaign's units as "
        "leases, run a worker, inspect a coordinator")
    p_fserve = _command(
        fabric_sub, "serve",
        "serve a campaign over HTTP (leases + blob store + /metrics); "
        "creates the campaign from the grid flags when --out has no "
        "ledger yet", cmd_fabric_serve, _STUDY_FLAGS + (_add_campaign,))
    _add_bind(p_fserve, 8600)
    p_fserve.add_argument("--max-attempts", type=int, default=None,
                          dest="max_attempts",
                          help="lease grants per unit before it is "
                               "declared failed "
                               "(default: fabric default)")
    p_fserve.add_argument("--until-done", action="store_true",
                          dest="until_done",
                          help="exit when every unit is completed or "
                               "exhausted (instead of serving forever)")
    p_fworker = _command(
        fabric_sub, "worker",
        "claim, run, and upload units from a fabric coordinator until "
        "its campaign is done", cmd_fabric_worker, (_add_obs,))
    p_fworker.add_argument("url", help="coordinator base URL")
    p_fworker.add_argument("--worker-id", default=None,
                           dest="worker_id",
                           help="lease identity "
                                "(default: host-pid)")
    p_fworker.add_argument("--jobs", type=int, default=2,
                           help="concurrent claim threads "
                                "(default %(default)s)")
    p_fworker.add_argument("--max-units", type=int, default=None,
                           dest="max_units",
                           help="stop after completing this many "
                                "units (default: run until done)")
    p_fworker.add_argument("--poll-seconds", type=float, default=0.25,
                           dest="poll_seconds",
                           help="sleep between lease attempts while "
                                "the queue is drained "
                                "(default %(default)s)")
    p_fstatus = _command(
        fabric_sub, "status",
        "one-shot queue/lease/ledger view of a running coordinator",
        cmd_fabric_status, (_add_obs,))
    p_fstatus.add_argument("url", nargs="?",
                           default="http://127.0.0.1:8600",
                           help="coordinator base URL "
                                "(default %(default)s)")

    cache_sub = _command_group(sub, "cache",
                               "inspect or clear the artifact store")
    for name, help_text, func in (
            ("stats", "entry counts, bytes, per-stage breakdown",
             cmd_cache_stats),
            ("clear", "delete every cached artifact (all versions)",
             cmd_cache_clear)):
        p_cache = _command(cache_sub, name, help_text, func, ())
        p_cache.add_argument("--cache-dir", metavar="DIR", default=None)

    p_trace = _command(
        sub, "trace-summary",
        "render a --trace JSONL file (top spans, metrics, manifest)",
        cmd_trace_summary, ())
    p_trace.add_argument("trace_file")
    p_trace.add_argument("--top", type=int, default=15,
                         help="span names to show (default %(default)s)")

    obs_sub = _command_group(
        sub, "obs",
        "inspect a running repro serve over HTTP: live top view, "
        "snapshot export, snapshot diff")
    default_url = "http://127.0.0.1:8437"
    p_otop = _command(
        obs_sub, "top",
        "poll a server's health, SLO verdicts, and key metrics (ctrl-C "
        "to stop)", cmd_obs_top, ())
    p_otop.add_argument("url", nargs="?", default=default_url,
                        help="server base URL (default %(default)s)")
    p_otop.add_argument("--interval", type=float, default=2.0,
                        help="seconds between polls "
                             "(default %(default)s)")
    p_otop.add_argument("--count", type=int, default=0,
                        help="frames to render; 0 polls until "
                             "interrupted (default %(default)s)")
    p_oexport = _command(obs_sub, "export",
                         "scrape /metrics once, write the snapshot",
                         cmd_obs_export, ())
    p_oexport.add_argument("url", nargs="?", default=default_url,
                           help="server base URL (default %(default)s)")
    p_oexport.add_argument("-o", "--output",
                           default="metrics_snapshot.json",
                           help="output path, or '-' for stdout "
                                "(default %(default)s)")
    p_oexport.add_argument("--format", choices=("json", "prom"),
                           default="json",
                           help="JSON snapshot or Prometheus "
                                "exposition text (default %(default)s)")
    p_odiff = _command(
        obs_sub, "diff",
        "compare two exported JSON snapshots and flag regressions "
        "(exit 1 when any)", cmd_obs_diff, ())
    p_odiff.add_argument("before", help="earlier obs export file")
    p_odiff.add_argument("after", help="later obs export file")
    p_odiff.add_argument("--tolerance", type=float, default=0.05,
                         help="allowed growth of a latency "
                              "histogram's slow share "
                              "(default %(default)s)")
    p_odiff.add_argument("--json", metavar="PATH", default=None,
                         help="also write the structured diff report "
                              "as JSON to PATH")
    return parser


def _command_path(args):
    """``verify check``, ``cache stats``, ``report``: the words typed."""
    subcommand = getattr(args, f"{args.command}_command", None)
    return f"{args.command} {subcommand}" if subcommand else args.command


def _dispatch(args):
    """Run the command; a usage error becomes one stderr line, exit 2."""
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"{_command_path(args)}: {exc}", file=sys.stderr)
        return 2


def _run_observed(args):
    """Run one study command inside a live observability context."""
    from repro.obs.summary import metric_table
    sink = obs.JsonlSink(args.trace) if args.trace else None
    ctx = obs.Observability(sink=sink)
    started_at = time.time()
    previous = obs.activate(ctx)
    try:
        with ctx.span(f"cli.{args.command}"):
            code = _dispatch(args)
    finally:
        obs.deactivate(previous)
    manifest = RunManifest.from_run(
        command=args.command,
        config=getattr(args, "config", None)
        or StudyConfig(seed=getattr(args, "seed", DEFAULT_SEED)),
        obs_ctx=ctx, outputs=args.artifacts,
        started_at=started_at, finished_at=time.time(),
        store=getattr(args, "store", None),
        invariants=getattr(args, "invariants", None))
    ctx.sink.emit({"type": "manifest", "manifest": manifest.to_json()})
    ctx.close()
    for artifact in args.artifacts:
        manifest.write(manifest_path_for(artifact))
    if args.trace:
        print(f"wrote trace to {args.trace} "
              f"({sink.events_written} events)")
    if args.metrics:
        print("metrics:")
        print("\n".join(metric_table(ctx.metrics.snapshot())))
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.artifacts = []
    # Commands without the observability flags run unobserved.
    if "trace" not in args:
        return _dispatch(args)
    return _run_observed(args)


if __name__ == "__main__":
    raise SystemExit(main())
