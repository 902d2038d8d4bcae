"""The repository benchmark: cold and warm ``repro report``, and ``repro serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report-cold --seed 2023 \\
        --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

- ``report-cold``  ``python -m repro report`` against an empty cache;
- ``report-warm``  the same command against a cache primed in set-up;
- ``serve-query``  ``repro serve`` on a primed cache, driven open-loop
  with the ``repro.ingest.loadgen.DEFAULT_MIX`` route rotation over
  fresh connections at 100 q/s for ``--seconds``; the traced run adds
  higher fixed rates, a doubling ladder and two persistent HTTP/1.1
  connections.

``--trace 0`` prints the end-to-end metrics, measured with no tracing;
``--trace 1`` runs the workload's command in a traced child
(``traced.py``) and prints the per-layer metrics.  Earlier lines of
standard output describe the machine and the run; the last line is the
result object.  Every output is checked: reports must be byte-identical
within a run (and, at the conformance seed, match the committed
baseline), and every query answer must be a versioned envelope with
``data`` whose bytes match the route's first answer.  Any failure makes
``correct`` false and the exit code 1.  A checkout that cannot run the
program at all exits 2 with no result.
"""

import argparse
import gc
import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import harness

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BASELINE = ROOT / "conformance" / "baseline.json"
WORK_DIR = BENCH_DIR / ".work"

#: the seed the committed conformance baseline was recorded at.
CONFORMANCE_SEED = 2023

WORKLOADS = ("report-cold", "report-warm", "serve-query")

#: seconds any one child may run before it is killed and counted failed.
CHILD_TIMEOUT = 150

#: phase (i): fixed request rates (per second) below today's capacity,
#: each sampled RATE_SAMPLES times so p99 has ten samples beyond it.
#: The untraced run sends only the low rate, for ``--seconds`` (and at
#: least RATE_SAMPLES requests).
RATES = (("low", 100), ("mid", 200), ("high", 400))
RATE_SAMPLES = 1000
#: the doubling ladder continues from the highest fixed rate up to this.
LADDER_TOP = 3200
#: the server's own query_latency_p99 objective (repro.obs.telemetry).
SLO_P99_MS = 250.0
#: phase (ii): two persistent connections, each reused back to back.
KEEPALIVE_SAMPLES = 200
#: client socket timeout; a slower answer counts as a failed request.
REQUEST_TIMEOUT = 10.0

#: the analysis registry (repro.core.pipeline), in registry order.
CLIENT_NODES = (
    "matching", "degree_distribution", "doc_vendor", "doc_device",
    "heterogeneity", "vulnerability", "jaccard", "server_proxy",
    "semantics", "versions", "fallback", "ocsp", "grease",
    "lowest_vulnerable_index", "clean_vendors", "preferred_components",
    "ml_attribution")
SERVER_NODES = (
    "probe_stats", "issuers", "survey", "validation_failures",
    "private_issuers", "expired", "ct", "netflix", "ct_private_figure",
    "slds", "geo", "lab")

#: route labels for per-route metrics, keyed by request path.
ROUTE_LABELS = {
    "/healthz": "healthz", "/v1/doc": "doc",
    "/v1/fingerprints": "fingerprints", "/v1/match-rate": "match-rate",
    "/v1/issuers": "issuers", "/v1/verdicts": "verdicts"}

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    (("import.cli_s", "s"),
     ("inspector.generate_s", "s"), ("inspector.dataset_s", "s"),
     ("inspector.devices", "count"), ("inspector.records", "count"),
     ("libraries.corpus_s", "s"), ("libraries.corpus_entries", "count"),
     ("probing.network_s", "s"), ("probing.certs_issued", "count"),
     ("probing.probe_all_s", "s"), ("probing.probes", "count"),
     ("probing.attempts", "count"), ("probing.retries", "count"),
     ("probing.unreachable", "count"), ("probing.ok_per_attempt", "ratio"),
     ("x509.validate_all_s", "s"), ("x509.chains", "count"))
    + tuple((f"core.{name}_s", "s") for name in CLIENT_NODES + SERVER_NODES)
    + (("core.client_s", "s"), ("core.server_s", "s"),
       ("ml.train_s", "s"), ("ml.eval_s", "s"), ("ml.examples", "count"),
       ("store.put_s", "s"), ("store.puts", "count"),
       ("store.bytes_written", "bytes"), ("store.get_s", "s"),
       ("store.hits", "count"), ("store.misses", "count"),
       ("store.bytes_read", "bytes"), ("store.hit_ratio", "ratio"),
       ("report.render_s", "s"),
       ("ingest.run_s", "s"), ("ingest.records", "count"),
       ("ingest.windows", "count"), ("ingest.records_per_s", "1/s"),
       ("ingest.resume_s", "s"), ("ingest.replayed_windows", "count"),
       ("serve.warm_s", "s"))
    + tuple((f"serve.handle_us.{label}", "us")
            for label in ROUTE_LABELS.values())
    + (("serve.encode_us", "us"), ("serve.http_overhead_us", "us"),
       ("obs.telemetry_us", "us"))
    + tuple((f"serve.query_{stat}_ms.{level}", "ms")
            for stat in ("p50", "p99") for level, _rate in RATES)
    + (("serve.max_qps", "1/s"), ("serve.saturation_per_s", "1/s"),
       ("serve.keepalive_p50_ms", "ms"),
       ("serve.keepalive_p95_ms", "ms"),
       ("loadgen.late_p99_ms", "ms"), ("loadgen.sent", "count"),
       ("trace.wall_s", "s"), ("trace.untraced_s", "s"),
       ("trace.layer_sum_s", "s"), ("trace.overhead_s", "s"),
       ("trace.unaccounted_s", "s"))
)


class SetupError(Exception):
    """The program cannot be run from this checkout at all."""


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return ok


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_CACHE_DIR", None)
    return env


def say(*parts):
    print(*parts, flush=True)


# -- the program's commands ----------------------------------------------------

IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - t)")


def preflight(work, env):
    """Launch ``import repro.cli`` once; returns the import's seconds.

    Proves the checkout runs before any workload starts, and writes the
    bytecode cache so no measured command pays for compiling.
    """
    done = harness.run_child([sys.executable, "-c", IMPORT_PROBE], work,
                             env, CHILD_TIMEOUT)
    if done.returncode != 0:
        raise SetupError("cannot import repro.cli: "
                         + done.stderr.strip()[-400:])
    return float(done.stdout.split()[-1])


def run_report(work, env, seed, cache, name):
    """One ``repro report`` subprocess; ``(Finished, report bytes)``."""
    out = work / name
    done = harness.run_child(
        [sys.executable, "-m", "repro", "report", "--seed", str(seed),
         "--cache-dir", str(cache), "-o", str(out)],
        work, env, CHILD_TIMEOUT)
    text = out.read_bytes() if done.returncode == 0 and out.exists() \
        else None
    return done, text


def baseline_report_digest():
    """The committed baseline's digest of the rendered report."""
    with open(BASELINE, encoding="utf-8") as handle:
        return json.load(handle)["nodes"]["artifact.report"]["digest"]


def report_digest(text):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.verify.canonical import canonicalize, digest
    return digest(canonicalize(text.decode("utf-8")))


class ReportChecker:
    """Every report of a run must equal its first, which at the
    conformance seed must match the committed baseline."""

    def __init__(self, seed, tally):
        self.seed = seed
        self.tally = tally
        self.reference = None

    def check(self, done, text, what):
        if done.returncode != 0 or text is None:
            return self.tally.record(
                False, f"{what}: exit {done.returncode}: "
                       f"{done.stderr.strip()[-300:]}")
        if self.reference is None:
            self.reference = text
            if self.seed == CONFORMANCE_SEED and BASELINE.is_file() \
                    and report_digest(text) != baseline_report_digest():
                return self.tally.record(
                    False, f"{what}: report differs from the conformance "
                           f"baseline")
        return self.tally.record(text == self.reference,
                                 f"{what}: report bytes differ from the "
                                 f"run's first report")


# -- repro serve ----------------------------------------------------------------


class Server:
    """A ``repro serve`` child: start, wait until healthy, stop."""

    def __init__(self, argv, work, env):
        env = dict(env, PYTHONUNBUFFERED="1")
        self.stderr = open(work / "server.stderr", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=work, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self.stderr,
                                     stdin=subprocess.DEVNULL)
        self.host = self.port = None
        self.output = b""

    def wait_ready(self, timeout=CHILD_TIMEOUT):
        """Read the address line, then poll /healthz until it answers 200.

        Returns seconds from launch to the first 200.
        """
        deadline = self.started + timeout
        while b"http://" not in self.output:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise SetupError("repro serve did not start: "
                                 + self._stderr_tail())
            readable, _, _ = select.select([self.proc.stdout], [], [],
                                           remaining)
            if readable:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    continue
                self.output += chunk
        address = self.output.split(b"http://", 1)[1].split()[0]
        host, port = address.decode().rsplit(":", 1)
        self.host, self.port = host, int(port)
        while time.perf_counter() < deadline:
            try:
                status, _body = fresh_get(self.host, self.port, "/healthz")
                if status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.005)
        raise SetupError("repro serve never answered /healthz")

    def _stderr_tail(self):
        self.stderr.flush()
        with open(self.stderr.name, "rb") as handle:
            return handle.read()[-400:].decode("utf-8", "replace")

    def stop(self):
        """SIGINT, then reap; returns ``(returncode, maxrss_mb, stdout)``."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        try:
            rest = self.proc.stdout.read()
            returncode, maxrss_mb = harness.reap(self.proc)
        finally:
            timer.cancel()
            self.proc.stdout.close()
            self.stderr.close()
        return returncode, maxrss_mb, (self.output + rest).decode(
            "utf-8", "replace")


def fresh_get(host, port, path):
    """One GET on a new connection, closed after the answer."""
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
    try:
        conn.request("GET", path, headers={"Connection": "close"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def envelope_ok(body):
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    return (isinstance(payload, dict) and "data" in payload
            and "schema_version" in payload and "api_version" in payload)


class AnswerChecker:
    """An answer is correct when it is a 200 versioned envelope with
    ``data``; answers that do not change while serving must also equal
    the route's first answer byte for byte."""

    #: routes whose body reports live server state.
    LIVE = ("/healthz",)

    def __init__(self, tally):
        self.tally = tally
        self.reference = {}
        self.lock = threading.Lock()

    def check(self, path, status, body):
        if status != 200:
            return self.tally_record(False, f"{path}: HTTP {status}")
        if path in self.LIVE:
            return self.tally_record(envelope_ok(body),
                                     f"{path}: not an envelope with data")
        with self.lock:
            reference = self.reference.get(path)
        if reference is None:
            if not envelope_ok(body):
                return self.tally_record(False, f"{path}: not an envelope "
                                                f"with data")
            with self.lock:
                reference = self.reference.setdefault(path, body)
        return self.tally_record(body == reference,
                                 f"{path}: body differs from its first "
                                 f"answer")

    def tally_record(self, ok, reason):
        with self.lock:
            return self.tally.record(ok, reason)


def load_mix():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.ingest.loadgen import DEFAULT_MIX
    return tuple(DEFAULT_MIX)


def fresh_sender(server, mix, checker):
    """``send(slot, index)`` for ``harness.run_load``: the mix's next
    route on a fresh connection, its answer checked."""
    host, port = server.host, server.port
    # the generator's own heap (the imported package) is long-lived;
    # keep the collector from rescanning it between requests
    gc.freeze()

    def send_fresh(_slot, index):
        path = mix[index % len(mix)]
        try:
            status, body = fresh_get(host, port, path)
        except OSError as exc:
            return checker.tally_record(False, f"{path}: {exc}")
        return checker.check(path, status, body)

    return send_fresh


def serve_phases(server, mix, checker):
    """Phase (i) fixed rates and ladder, then phase (ii) keep-alive."""
    host, port = server.host, server.port
    send_fresh = fresh_sender(server, mix, checker)
    rungs = []
    for level, rate in RATES:
        samples = harness.run_load(send_fresh, RATE_SAMPLES, rate)
        rungs.append((level, rate, samples))
    rate = RATES[-1][1]
    while not harness.backlog_growing(rungs[-1][2], rate) \
            and rate * 2 <= LADDER_TOP:
        rate *= 2
        samples = harness.run_load(send_fresh, RATE_SAMPLES, rate)
        rungs.append((f"ladder-{rate}", rate, samples))

    conns = [http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
             for _ in range(2)]

    def send_keepalive(slot, index):
        path = mix[index % len(mix)]
        try:
            conns[slot].request("GET", path)
            response = conns[slot].getresponse()
            status, body = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            conns[slot].close()
            return checker.tally_record(False, f"{path}: {exc}")
        return checker.check(path, status, body)

    try:
        keepalive = harness.run_load(send_keepalive, KEEPALIVE_SAMPLES)
    finally:
        for conn in conns:
            conn.close()
    return rungs, keepalive


def rung_passes(samples, rate):
    p99_ms = harness.tail([s.latency for s in samples])[0] * 1000.0
    return (all(s.ok for s in samples) and p99_ms <= SLO_P99_MS
            and not harness.backlog_growing(samples, rate))


def serve_summary(rungs, keepalive):
    """The query-side numbers of one serve-query run."""
    fixed = [s for _level, _rate, samples in rungs[:len(RATES)]
             for s in samples]
    summary = {"max_qps": 0.0, "rungs": []}
    passing = True
    for level, rate, samples in rungs:
        latencies = [s.latency for s in samples]
        passing = passing and rung_passes(samples, rate)
        if passing:
            summary["max_qps"] = harness.achieved_rate(samples)
        summary["rungs"].append({
            "rung": level, "rate": rate, "n": len(samples),
            "passed": passing,
            "p50_ms": harness.median(latencies) * 1000,
            "p99_ms": harness.tail(latencies)[0] * 1000,
            "achieved_per_s": harness.achieved_rate(samples),
            "late_p50_ms": harness.median(
                [s.lateness for s in samples]) * 1000})
    # the ladder stops at the first rung whose backlog grew (or at its
    # top): answers there come as fast as server and generator allow
    summary["saturation_per_s"] = summary["rungs"][-1]["achieved_per_s"]
    keep = [s.latency for s in keepalive]
    summary["keepalive_p50_ms"] = harness.median(keep) * 1000
    summary["keepalive_p95_ms"] = harness.tail(keep)[0] * 1000
    summary["late_tail_ms"] = harness.tail(
        [s.lateness for s in fixed])[0] * 1000
    summary["sent"] = len(keep) + sum(len(samples)
                                      for _l, _r, samples in rungs)
    return summary


# -- workloads ----------------------------------------------------------------


def report_ops(args, work, env, tally, cache_for, checker):
    """Run ``repro report`` for ``--seconds``, at least once.

    A report is not started when the last one's wall time says it would
    end after the deadline, so a run of reports that each take longer
    than ``--seconds`` is always exactly one report.
    """
    walls, rss = [], []
    deadline = time.perf_counter() + args.seconds
    index, last = 0, 0.0
    while index == 0 or time.perf_counter() + last <= deadline:
        done, text = run_report(work, env, args.seed, cache_for(index),
                                f"report-{index}.md")
        last = done.wall_s
        if checker.check(done, text, f"report {index}"):
            walls.append(done.wall_s)
            rss.append(done.maxrss_mb)
        index += 1
    return walls, rss


def op_metrics(latencies_s, rss_mb, setup_s):
    return {"setup_s": setup_s,
            "op_p50_ms": harness.median(latencies_s) * 1000.0,
            "peak_rss_mb": rss_mb}


def report_cold(args, work, env, tally):
    checker = ReportChecker(args.seed, tally)
    setups = []
    for index in range(3):
        begin = time.perf_counter()
        preflight(work, env)
        (work / f"setup-cache-{index}").mkdir()
        setups.append(time.perf_counter() - begin)

    def empty_cache(index):
        cache = work / f"cache-{index}"
        cache.mkdir()
        return cache

    walls, rss = report_ops(args, work, env, tally, empty_cache, checker)
    metrics = op_metrics(walls, harness.median(rss),
                         harness.median(setups))
    say("report-cold:", json.dumps({"reports": len(walls),
                                    "wall_s": [round(w, 3) for w in walls],
                                    "setup_s": [round(s, 4)
                                                for s in setups]}))
    return metrics


def prime_report(args, work, env, checker):
    cache = work / "cache"
    cache.mkdir()
    done, text = run_report(work, env, args.seed, cache, "prime.md")
    if not checker.check(done, text, "priming report"):
        raise SetupError(f"priming report failed: {checker.tally.reasons}")
    return cache, done.wall_s


def report_warm(args, work, env, tally):
    checker = ReportChecker(args.seed, tally)
    preflight(work, env)
    cache, setup_s = prime_report(args, work, env, checker)
    walls, rss = report_ops(args, work, env, tally, lambda index: cache,
                            checker)
    metrics = op_metrics(walls, harness.median(rss), setup_s)
    say("report-warm:", json.dumps({"reports": len(walls),
                                    "wall_s": [round(w, 3) for w in walls]}))
    return metrics


def serve_argv(args, cache):
    return [sys.executable, "-m", "repro", "serve", "--seed",
            str(args.seed), "--cache-dir", str(cache), "--port", "0"]


def prime_serve(args, work, env):
    """Boot once on an empty cache, so the next boot resumes from it."""
    cache = work / "cache"
    cache.mkdir()
    server = Server(serve_argv(args, cache), work, env)
    try:
        server.wait_ready()
    finally:
        server.stop()
    return cache


def serve_query(args, work, env, tally):
    """The low fixed rate of phase (i) for ``--seconds``.

    Only this rate gives an end-to-end metric; the other rates, the
    ladder and phase (ii) are per-layer metrics of the traced run.
    """
    checker = AnswerChecker(tally)
    mix = load_mix()
    preflight(work, env)
    cache = prime_serve(args, work, env)
    server = Server(serve_argv(args, cache), work, env)
    level, rate = RATES[0]
    count = max(RATE_SAMPLES, int(rate * args.seconds))
    try:
        setup_s = server.wait_ready()
        samples = harness.run_load(fresh_sender(server, mix, checker),
                                   count, rate)
    finally:
        returncode, maxrss_mb, _out = server.stop()
    tally.record(returncode == 0, f"repro serve exited {returncode}")
    latencies = [s.latency for s in samples]
    tail_s, percentile, n = harness.tail(latencies)
    late = [s.lateness for s in samples]
    say("serve-query:", json.dumps({
        "rung": level, "rate": rate, "n": n,
        "p50_ms": harness.median(latencies) * 1000,
        "tail_ms": tail_s * 1000, "tail_percentile": percentile,
        "achieved_per_s": harness.achieved_rate(samples),
        "late_p50_ms": harness.median(late) * 1000}))
    return op_metrics(latencies, maxrss_mb, setup_s)


# -- traced runs ----------------------------------------------------------------


def traced_argv(args, mode, *extra):
    return [sys.executable, str(BENCH_DIR / "traced.py"), mode,
            str(args.seed), *map(str, extra)]


def last_json(text):
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def layer_metrics(import_s, child):
    """Per-layer metrics from one traced child's spans and counts."""
    spans = child.get("spans", {})
    counts = child.get("counts", {})
    span = lambda name: spans.get(name, 0.0)  # noqa: E731
    tally = lambda name: counts.get(name, 0)  # noqa: E731
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    metrics.update({
        "import.cli_s": import_s,
        "inspector.generate_s": span("inspector.generate"),
        "inspector.dataset_s": span("inspector.dataset"),
        "inspector.devices": tally("inspector.devices"),
        "inspector.records": tally("inspector.records"),
        "libraries.corpus_s": span("libraries.corpus"),
        "libraries.corpus_entries": tally("libraries.corpus_entries"),
        "probing.network_s": span("probing.network"),
        "probing.certs_issued": tally("probing.certs_issued"),
        "probing.probe_all_s": span("probing.probe_all"),
        "probing.probes": tally("probing.probes"),
        "probing.attempts": tally("probing.attempts"),
        "probing.retries": tally("probing.retries"),
        "probing.unreachable": tally("probing.unreachable"),
        "probing.ok_per_attempt": (tally("probing.ok")
                                   / tally("probing.attempts")
                                   if tally("probing.attempts") else 0.0),
        "x509.validate_all_s": span("x509.validate_all"),
        "x509.chains": tally("x509.chains"),
        "core.client_s": sum(span(f"core.{n}") for n in CLIENT_NODES),
        "core.server_s": sum(span(f"core.{n}") for n in SERVER_NODES),
        "ml.train_s": span("ml.train"),
        "ml.eval_s": span("ml.eval"),
        "ml.examples": tally("ml.examples"),
        "store.put_s": span("store.put"),
        "store.puts": tally("store.puts"),
        "store.bytes_written": tally("store.bytes_written"),
        "store.get_s": span("store.get"),
        "store.hits": tally("store.hits"),
        "store.misses": tally("store.misses"),
        "store.bytes_read": tally("store.bytes_read"),
        "store.hit_ratio": (tally("store.hits")
                            / (tally("store.hits") + tally("store.misses"))
                            if tally("store.hits") + tally("store.misses")
                            else 0.0),
        "report.render_s": span("report.render"),
        "ingest.resume_s": span("ingest.run"),
        "ingest.replayed_windows": tally("ingest.windows"),
        "serve.warm_s": span("serve.warm"),
    })
    for name in CLIENT_NODES + SERVER_NODES:
        metrics[f"core.{name}_s"] = span(f"core.{name}")
    return metrics


def trace_accounting(metrics, wall_s, untraced_s, layer_sum_s):
    metrics.update({
        "trace.wall_s": wall_s, "trace.untraced_s": untraced_s,
        "trace.layer_sum_s": layer_sum_s,
        "trace.overhead_s": wall_s - untraced_s,
        "trace.unaccounted_s": wall_s - layer_sum_s})


def import_median(work, env):
    return harness.median([preflight(work, env) for _ in range(3)])


def traced_report(args, work, env, tally, cold):
    checker = ReportChecker(args.seed, tally)
    import_s = import_median(work, env)
    if cold:
        reference_cache = work / "untraced-cache"
        reference_cache.mkdir()
        done, text = run_report(work, env, args.seed, reference_cache,
                                "untraced.md")
        if not checker.check(done, text, "untraced report"):
            raise SetupError(f"untraced report failed: {tally.reasons}")
        untraced_s = done.wall_s
        cache = work / "cache"
        cache.mkdir()
    else:
        cache, _setup_s = prime_report(args, work, env, checker)
        walls = []
        for index in range(3):
            done, text = run_report(work, env, args.seed, cache,
                                    f"untraced-{index}.md")
            checker.check(done, text, f"untraced report {index}")
            walls.append(done.wall_s)
        untraced_s = harness.median(walls)
    out = work / "traced.md"
    extra = [cache, out]
    conformance = cold and args.seed == CONFORMANCE_SEED
    if conformance:
        extra.append(BASELINE)
    done = harness.run_child(traced_argv(args, "report", *extra),
                             work, env, CHILD_TIMEOUT)
    try:
        child = last_json(done.stdout)
    except ValueError:
        child = {}
    text = out.read_bytes() if out.exists() else None
    checker.check(done, text, "traced report")
    if conformance:
        verdict = child.get("conformance", {})
        tally.record(verdict.get("ok") is True,
                     f"conformance: first divergent node "
                     f"{verdict.get('first_divergent_node')}")
    metrics = layer_metrics(import_s, child)
    if not cold:
        idle = [name for name in ("inspector.generate_s",
                                  "inspector.dataset_s",
                                  "probing.network_s",
                                  "probing.probe_all_s")
                if metrics[name] != 0.0]
        tally.record(not idle and metrics["store.misses"] == 0,
                     f"warm report did work it should not: "
                     f"{idle or ''} misses={metrics['store.misses']}")
    wall = done.wall_s - child.get("conformance", {}).get("verify_s", 0.0)
    trace_accounting(metrics, wall, untraced_s,
                     child.get("import_s", 0.0) + child.get("root_s", 0.0))
    say("traced:", json.dumps({"status": child.get("status"),
                               "conformance": child.get("conformance")}))
    return metrics


def traced_serve(args, work, env, tally):
    checker = AnswerChecker(tally)
    mix = load_mix()
    import_s = import_median(work, env)
    cache = prime_serve(args, work, env)
    reference = Server(serve_argv(args, cache), work, env)
    try:
        untraced_s = reference.wait_ready()
    finally:
        reference.stop()
    server = Server(traced_argv(args, "serve", cache), work, env)
    try:
        wall_s = server.wait_ready()
        rungs, keepalive = serve_phases(server, mix, checker)
    finally:
        returncode, _rss, output = server.stop()
    tally.record(returncode == 0, f"traced serve exited {returncode}")
    try:
        child = last_json(output)
    except ValueError:
        child = {}
    summary = serve_summary(rungs, keepalive)
    metrics = layer_metrics(import_s, child)
    ingest = child.get("ingest", {})
    metrics.update({
        "ingest.run_s": ingest.get("run_s", 0.0),
        "ingest.records": ingest.get("records", 0),
        "ingest.windows": ingest.get("windows", 0),
        "ingest.records_per_s": (ingest.get("records", 0)
                                 / ingest["run_s"]
                                 if ingest.get("run_s") else 0.0),
        "serve.max_qps": summary["max_qps"],
        "serve.saturation_per_s": summary["saturation_per_s"],
        "serve.keepalive_p50_ms": summary["keepalive_p50_ms"],
        "serve.keepalive_p95_ms": summary["keepalive_p95_ms"],
        "loadgen.late_p99_ms": summary["late_tail_ms"],
        "loadgen.sent": summary["sent"],
    })
    for (level, _rate, samples) in rungs[:len(RATES)]:
        latencies = [s.latency for s in samples]
        metrics[f"serve.query_p50_ms.{level}"] = \
            harness.median(latencies) * 1000
        metrics[f"serve.query_p99_ms.{level}"] = \
            harness.tail(latencies)[0] * 1000

    # per-route server-side times, from the requests the child served
    requests = child.get("requests", {})
    encode = child.get("encode_s", {})
    low = rungs[0][2]
    overhead, telemetry = [], []
    for index, route in enumerate(mix):
        path = route.split("?", 1)[0]
        served = requests.get(path, {"handle": [], "handle_request": []})
        handle = harness.median(served["handle"])
        handle_request = harness.median(served["handle_request"])
        metrics[f"serve.handle_us.{ROUTE_LABELS[path]}"] = handle * 1e6
        client = harness.median([s.done - s.start for s in low
                                 if s.index % len(mix) == index])
        overhead.append(client - handle_request)
        telemetry.append(handle_request - handle - encode.get(path, 0.0))
    metrics["serve.encode_us"] = harness.median(list(encode.values())) * 1e6
    metrics["serve.http_overhead_us"] = harness.median(overhead) * 1e6
    metrics["obs.telemetry_us"] = harness.median(telemetry) * 1e6
    spans = child.get("spans", {})
    request_s = sum(total for name, total in spans.items()
                    if name.startswith("serve.handle_request"))
    trace_accounting(metrics, wall_s, untraced_s,
                     child.get("import_s", 0.0)
                     + child.get("root_s", 0.0) - request_s)
    say("traced serve-query:", json.dumps(summary))
    return metrics


# -- entry point ----------------------------------------------------------------


def measure(args, work, env, tally):
    if args.trace:
        if args.workload == "serve-query":
            return traced_serve(args, work, env, tally)
        return traced_report(args, work, env, tally,
                             cold=args.workload == "report-cold")
    return {"report-cold": report_cold, "report-warm": report_warm,
            "serve-query": serve_query}[args.workload](args, work, env,
                                                       tally)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=CONFORMANCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # A shell that starts this in the background leaves SIGINT ignored,
    # and an ignored signal stays ignored in every child; restore it so
    # ``repro serve`` stops on SIGINT as it does from a terminal.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    env = child_env()
    WORK_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    tally = Tally()
    try:
        say(json.dumps({"machine": harness.fingerprint(),
                        "workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace}))
        metrics = measure(args, work, env, tally)
        say(json.dumps({"calibration_after_s": round(harness.calibrate(),
                                                     4),
                        "loadavg_after": [round(x, 2)
                                          for x in os.getloadavg()]}))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in tally.reasons:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    names = PER_LAYER if args.trace else END_TO_END
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in names}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
