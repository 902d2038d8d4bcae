"""Tests for the command-line interface."""

import json

import pytest

import repro.cli
from repro.cli import build_parser, main

#: nothing listens on port 1, so a connection is refused at once.
DEAD_URL = "http://127.0.0.1:1"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seed_default(self):
        args = build_parser().parse_args(["report"])
        assert args.seed == 2023

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    # The Study cache makes these cheap after the session fixtures ran.

    def test_generate_writes_jsonl(self, tmp_path, study, capsys):
        out = tmp_path / "capture.jsonl"
        assert main(["generate", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == len(study.dataset.records)
        first = json.loads(lines[0])
        assert {"device_id", "vendor", "ciphersuites", "sni"} <= set(first)

    def test_probe_writes_summary(self, tmp_path, study, capsys):
        out = tmp_path / "certs.jsonl"
        assert main(["probe", "-o", str(out)]) == 0
        rows = [json.loads(line)
                for line in out.read_text().strip().splitlines()]
        assert len(rows) == 1194
        reachable = [row for row in rows if row["reachable"]]
        assert len(reachable) == 1151
        assert all("issuer" in row for row in reachable)

    def test_probe_parallel_identical_output(self, tmp_path, study,
                                             capsys):
        serial_out = tmp_path / "serial.jsonl"
        parallel_out = tmp_path / "parallel.jsonl"
        assert main(["probe", "-o", str(serial_out)]) == 0
        assert main(["probe", "-o", str(parallel_out),
                     "--jobs", "4", "--stats"]) == 0
        assert serial_out.read_text() == parallel_out.read_text()
        text = capsys.readouterr().out
        assert "retries" in text and "outcomes" in text

    def test_probe_flag_defaults(self):
        args = build_parser().parse_args(["probe"])
        assert args.jobs == 1
        assert args.retries == 3
        assert args.stats is False

    def test_report_to_stdout(self, study, capsys):
        assert main(["report", "-o", "-"]) == 0
        text = capsys.readouterr().out
        assert "# IoT TLS & Certificate Practice" in text
        assert "Table 2" in text
        assert "Netflix" in text

    def test_report_to_file(self, tmp_path, study, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "-o", str(out)]) == 0
        assert out.read_text().startswith("# IoT TLS")

    def test_audit_known_vendor(self, study, capsys):
        assert main(["audit", "Tuya"]) == 0
        text = capsys.readouterr().out
        assert "Tuya" in text
        assert "PRIVATE" in text

    def test_audit_unknown_vendor(self, study, capsys):
        assert main(["audit", "NotAVendor"]) == 2

    def test_whatif_revocation(self, study, capsys):
        assert main(["whatif", "revocation"]) == 0
        text = capsys.readouterr().out
        assert "no revocation path" in text


class TestMatchCommands:
    def test_mode_default_is_sketch(self):
        args = build_parser().parse_args(["match", "stats"])
        assert args.mode == "sketch"

    def test_build_index_writes_json(self, tmp_path, study, capsys):
        out = tmp_path / "index.json"
        assert main(["match", "build-index", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {"mode", "seed", "corpus", "vendors",
                "fingerprint_ids"} <= set(payload)
        assert payload["mode"] == "sketch"
        assert payload["corpus"]["entries"] >= \
            payload["corpus"]["distinct_keys"]
        assert payload["corpus"]["dedup_ratio"] > 1.0
        assert len(payload["fingerprint_ids"]) == \
            len(study.dataset.fingerprints())
        text = capsys.readouterr().out
        assert "built sketch match index" in text

    def test_query_known_fingerprint(self, tmp_path, study, capsys):
        from repro.ingest.incremental import fingerprint_id
        fp = sorted(study.dataset.fingerprints())[0]
        fp_id = fingerprint_id(fp)
        assert main(["match", "query", fp_id,
                     "--threshold", "0.3"]) == 0
        text = capsys.readouterr().out
        assert f"fingerprint {fp_id}" in text
        assert "exact corpus match:" in text
        assert "near matches (Jaccard >= 0.3)" in text

    def test_query_unknown_fingerprint(self, study, capsys):
        assert main(["match", "query", "no-such-id"]) == 2
        err = capsys.readouterr().err
        assert "unknown fingerprint id" in err

    def test_query_modes_agree(self, study, capsys):
        from repro.ingest.incremental import fingerprint_id
        fp = sorted(study.dataset.fingerprints())[5]
        fp_id = fingerprint_id(fp)
        assert main(["match", "query", fp_id, "--mode", "sketch"]) == 0
        sketch = capsys.readouterr().out
        assert main(["match", "query", fp_id, "--mode", "exact"]) == 0
        exact = capsys.readouterr().out
        assert sketch == exact

    def test_stats(self, study, capsys):
        assert main(["match", "stats"]) == 0
        text = capsys.readouterr().out
        assert "engine: mode=sketch" in text
        assert "corpus:" in text
        assert "vendors:" in text


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """A hand-built model file that loads, so later checks are reached."""
    import numpy as np
    from repro.ml import (AttributionModel, FeatureExtractor,
                          LogisticOVR, MLParams, MultinomialNB)
    extractor = FeatureExtractor(width=16, seed=3)
    X = extractor.matrix([(0x0303, (1, 2), (0,)), (0x0301, (9,), (5,))])
    y = np.array([0, 1])
    model = AttributionModel(
        params=MLParams(target="vendor", width=16, iters=5),
        extractor=extractor, classes=("Acme", "Bolt"),
        nb=MultinomialNB().fit(X, y, 2),
        lr=LogisticOVR(iters=5).fit(X, y, 2),
        artifact_digest="0" * 64, counts={"examples": 2})
    path = tmp_path_factory.mktemp("model") / "model.json"
    model.save(path)
    return path


#: every exit-2 path as (command path, argv); ``{tmp}`` is the test's
#: empty directory, ``{model}`` a loadable model file.
USAGE_ERROR_CASES = [
    pytest.param("report", ["report", "--trust-stores", "netscape"],
                 id="report-trust-stores"),
    pytest.param("verify check",
                 ["verify", "check", "--trust-stores", "netscape"],
                 id="verify-check-trust-stores"),
    pytest.param("match stats",
                 ["match", "stats", "--trust-stores", "netscape"],
                 id="match-stats-trust-stores"),
    pytest.param("ml predict",
                 ["ml", "predict", "--model", "{model}",
                  "--trust-stores", "netscape"],
                 id="ml-predict-trust-stores"),
    pytest.param("cache stats", ["cache", "stats"],
                 id="cache-stats-no-dir"),
    pytest.param("ml eval", ["ml", "eval", "--threshold", "2"],
                 id="ml-eval-threshold"),
    pytest.param("ml eval",
                 ["ml", "eval", "--model", "{tmp}/missing.json"],
                 id="ml-eval-missing-model"),
    pytest.param("ml eval",
                 ["ml", "eval", "--model", "{model}",
                  "--input", "{tmp}/missing.jsonl"],
                 id="ml-eval-missing-input"),
    pytest.param("ml eval",
                 ["ml", "eval", "--model", "{model}",
                  "--input", "{tmp}/capture.txt"],
                 id="ml-eval-input-not-jsonl"),
    pytest.param("ml eval",
                 ["ml", "eval", "--model", "{model}",
                  "--input", "{tmp}/rows.jsonl"],
                 id="ml-eval-input-row-not-object"),
    pytest.param("sweep run",
                 ["sweep", "run", "--grid", "bogus", "--out", "{tmp}/o"],
                 id="sweep-run-grid"),
    pytest.param("sweep run",
                 ["sweep", "run", "--store-url", DEAD_URL,
                  "--out", "{tmp}/o"],
                 id="sweep-run-store-url-without-http"),
    pytest.param("sweep resume", ["sweep", "resume", "--out", "{tmp}"],
                 id="sweep-resume-empty-out"),
    pytest.param("sweep report", ["sweep", "report", "--out", "{tmp}"],
                 id="sweep-report-empty-out"),
    pytest.param("sweep report",
                 ["sweep", "report", "--out", "{tmp}/ledger"],
                 id="sweep-report-ledger-without-fields"),
    pytest.param("fabric serve",
                 ["fabric", "serve", "--grid", "bogus", "--out", "{tmp}/o"],
                 id="fabric-serve-grid"),
    pytest.param("fabric worker", ["fabric", "worker", DEAD_URL],
                 id="fabric-worker-dead-url"),
    pytest.param("fabric status", ["fabric", "status", DEAD_URL],
                 id="fabric-status-dead-url"),
    pytest.param("trace-summary", ["trace-summary", "{tmp}/none.jsonl"],
                 id="trace-summary-missing-file"),
    pytest.param("report", ["report", "-o", "{tmp}/missing/report.md"],
                 id="report-output-dir-missing"),
    pytest.param("audit", ["audit", "NotAVendor"],
                 id="audit-unknown-vendor"),
    pytest.param("match query", ["match", "query", "no-such-id"],
                 id="match-query-unknown-id"),
]


class TestUsageErrors:
    @pytest.mark.parametrize("path, argv", USAGE_ERROR_CASES)
    def test_one_line_exit_2(self, path, argv, tmp_path, tiny_model,
                             study, monkeypatch, capsys):
        monkeypatch.delenv(repro.cli.ENV_CACHE_DIR, raising=False)
        (tmp_path / "capture.txt").write_text("not json\n",
                                              encoding="utf-8")
        (tmp_path / "rows.jsonl").write_text(
            '{"vendor": "Acme", "tls_version": 771, "ciphersuites": [1], '
            '"extensions": [0]}\n[1, 2]\n', encoding="utf-8")
        (tmp_path / "ledger").mkdir()
        (tmp_path / "ledger" / "campaign.json").write_text(
            '{"format": 1}', encoding="utf-8")
        argv = [arg.format(tmp=tmp_path, model=tiny_model)
                for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{path}: ")

    def test_other_exceptions_keep_their_traceback(self, tmp_path,
                                                   monkeypatch):
        def broken(args):
            raise RuntimeError("a bug, not a usage error")

        monkeypatch.setattr(repro.cli, "cmd_cache_stats", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["cache", "stats", "--cache-dir", str(tmp_path)])

    def test_failed_command_still_writes_its_trace(self, tmp_path,
                                                   capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["report", "--trust-stores", "netscape",
                     "--trace", str(trace)]) == 2
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        manifests = [e for e in events if e["type"] == "manifest"]
        assert manifests[0]["manifest"]["command"] == "report"


def test_serve_smoke_closes_listening_socket(study, monkeypatch, capsys):
    import repro.ingest
    servers = []
    serve_study = repro.ingest.serve_study

    def kept(*args, **kwargs):
        server, service = serve_study(*args, **kwargs)
        servers.append(server)
        return server, service

    monkeypatch.setattr(repro.ingest, "serve_study", kept)
    monkeypatch.delenv(repro.cli.ENV_CACHE_DIR, raising=False)
    assert main(["serve", "--smoke", "--port", "0",
                 "--smoke-requests", "2"]) == 0
    assert servers[0].socket.fileno() == -1
