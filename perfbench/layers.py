"""Per-layer timing from outside the program.

:class:`Tracer` records a span around every call it wraps, and
:func:`install` wraps the public entry points of each layer of the
``repro`` package in place, so a traced run executes the program's own
code paths (the CLI, the study, the analysis scheduler, the store, the
HTTP server) with timers around the layer boundaries and nothing added
inside the package.  Only the traced child (``traced.py``) imports this
module; the untraced end-to-end runs never load it.
"""

import dataclasses
import functools
import importlib.abc
import importlib.util
import sys
import threading
import time


class Tracer:
    """Spans and counts, kept in memory until the run ends.

    A span is ``[name, start, end, parent]``; ``parent`` is the index of
    the span open on the same thread when this one began, so a layer's
    self time and the tree's root spans can be recovered afterwards.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, n=1):
        if self.enabled:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        """``fn`` with a span named ``name`` (or ``name(*args)``).

        ``after(args, result)`` runs outside the span, for counts that
        need the call's result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(*args) if callable(name) else name
            stack = tracer._stack()
            span = [label, tracer.clock(), None,
                    stack[-1] if stack else None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = tracer.clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    def root_total(self):
        """Seconds covered by spans that no other span encloses."""
        return sum(span[2] - span[1] for span in self.spans
                   if span[3] is None and span[2] is not None)


class _AfterImport(importlib.abc.MetaPathFinder):
    """Runs ``callback(module)`` right after ``name`` is first imported."""

    def __init__(self, name, callback):
        self.name = name
        self.callback = callback

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        exec_module = spec.loader.exec_module
        callback = self.callback

        def exec_and_patch(module):
            exec_module(module)
            callback(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def when_imported(name, callback):
    """Apply ``callback`` to module ``name`` now, or once it is imported.

    Patching must not import anything itself: the program imports some
    layers lazily (``repro.ml`` and with it numpy), and a traced run
    that imported them up front would move their import time out of
    the layer that pays it.
    """
    module = sys.modules.get(name)
    if module is not None:
        callback(module)
    else:
        sys.meta_path.insert(0, _AfterImport(name, callback))


def install(tracer):
    """Wrap every measured layer entry point; returns the live state.

    Each layer is patched when its module is (or has been) imported.
    The returned dict collects objects the caller reads afterwards (the
    query service that ``repro serve`` warmed).
    """
    live = {}
    count = tracer.count
    wrap = tracer.wrap

    def inspector_generator(module):
        generator = module.WorldGenerator
        generator.generate = wrap(
            "inspector.generate", generator.generate,
            after=lambda args, world: count("inspector.devices",
                                            len(world.devices)))

    def inspector_dataset(module):
        dataset = module.InspectorDataset
        dataset.from_world = staticmethod(wrap(
            "inspector.dataset", dataset.from_world,
            after=lambda args, value: count("inspector.records",
                                            len(value.records))))

    def study(module):
        # the study builds the corpus and the network through these
        # module-level names
        module.build_default_corpus = wrap(
            "libraries.corpus", module.build_default_corpus,
            after=lambda args, corpus: count("libraries.corpus_entries",
                                             len(corpus)))
        module.SimulatedNetwork = wrap("probing.network",
                                       module.SimulatedNetwork)

    def x509_ca(module):
        authority = module.CertificateAuthority
        issue_leaf = authority.issue_leaf

        def counted_issue_leaf(*args, **kwargs):
            count("probing.certs_issued")
            return issue_leaf(*args, **kwargs)

        authority.issue_leaf = counted_issue_leaf

    def probe_counts(args, certificates):
        stats = certificates.stats
        if stats is None:
            return
        count("probing.probes", stats.probes)
        count("probing.attempts", stats.attempts)
        count("probing.retries", stats.retries)
        count("probing.unreachable", stats.outcomes.get("unreachable", 0))
        count("probing.ok", stats.outcomes.get("ok", 0))

    def probing_engine(module):
        engine = module.ProbeEngine
        engine.probe_all = wrap("probing.probe_all", engine.probe_all,
                                after=probe_counts)

    # x509: chain validation, from the batch pipeline's survey node and
    # from the query service's verdict table
    def chain_count(args, survey):
        count("x509.chains", len(survey.reports))

    def core_chains(module):
        module.validate_all = wrap("x509.validate_all", module.validate_all,
                                   after=chain_count)

    def core_pipeline(module):
        # every analysis node, in registry order; the run functions read
        # the registries at call time
        for attr in ("CLIENT_ANALYSES", "SERVER_ANALYSES"):
            setattr(module, attr, tuple(
                dataclasses.replace(
                    spec, fn=wrap(f"core.{spec.name}", spec.fn))
                for spec in getattr(module, attr)))

    def ml_pipeline(module):
        # evaluate_components calls these through the module globals
        module.train_attribution = wrap(
            "ml.train", module.train_attribution,
            after=lambda args, model: count(
                "ml.examples", model.counts.get("labeled", 0)))
        module.evaluate_model = wrap("ml.eval", module.evaluate_model)

    def store_artifact(module):
        store_class = module.ArtifactStore
        miss = module.MISS

        def get_counts(args, value):
            store, config, stage = args[:3]
            if value is miss:
                count("store.misses")
                return
            count("store.hits")
            count("store.bytes_read",
                  store.path_for(config, stage).stat().st_size)

        def put_counts(args, path):
            count("store.puts")
            if path is not None:
                count("store.bytes_written", path.stat().st_size)

        store_class.get = wrap("store.get", store_class.get,
                               after=get_counts)
        store_class.put = wrap("store.put", store_class.put,
                               after=put_counts)

    def core_report(module):
        module.render_report = wrap("report.render", module.render_report)

    def ingest_ingester(module):
        # the run, and every window it absorbs (none when a resumed
        # checkpoint already covers the stream)
        ingester = module.Ingester
        ingester.run = wrap("ingest.run", ingester.run)
        ingest_window = ingester.ingest_window

        def counted_ingest_window(self, window):
            count("ingest.windows")
            count("ingest.records", len(window))
            return ingest_window(self, window)

        ingester.ingest_window = counted_ingest_window

    def ingest_server(module):
        # boot-time warming, and per request the routing function and
        # the instrumented HTTP entry that wraps it
        if not hasattr(module.validate_all, "__wrapped__"):
            module.validate_all = wrap("x509.validate_all",
                                       module.validate_all,
                                       after=chain_count)
        service = module.QueryService

        def remember(args, value):
            live["service"] = value

        service.warm = wrap("serve.warm", service.warm, after=remember)
        service.handle = wrap(
            lambda self, path, *rest: f"serve.handle {path}",
            service.handle)
        service.handle_request = wrap(
            lambda self, path, *rest: f"serve.handle_request {path}",
            service.handle_request)

    for name, patch in (
            ("repro.inspector.generator", inspector_generator),
            ("repro.inspector.dataset", inspector_dataset),
            ("repro.study", study),
            ("repro.x509.ca", x509_ca),
            ("repro.probing.engine", probing_engine),
            ("repro.core.chains", core_chains),
            ("repro.core.pipeline", core_pipeline),
            ("repro.ml.pipeline", ml_pipeline),
            ("repro.store.artifact", store_artifact),
            ("repro.core.report", core_report),
            ("repro.ingest.ingester", ingest_ingester),
            ("repro.ingest.server", ingest_server)):
        when_imported(name, patch)
    return live
