"""Traced launcher: run ``sst`` with spans around each layer's public calls.

Usage::

    python perfledger/launcher.py OUT.json [sst arguments ...] serve ...

Wraps the public callables of the layers the ledger reports (corpus
load, fingerprint, cache bulk lookup/store, the service handlers and
the server's JSON encoding) in spans of the program's own tracer, so
they nest with the spans the program already records (``facade.*``,
``kernel.*``, ``index.persist.*``).  Then it calls ``repro.cli.main``
unchanged.  When ``main`` returns, every span is attributed to a layer
(see ``layers.py``) and written to ``OUT.json`` together with samples
of the program's cache and server counters.
"""

import time

STARTED = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

from layers import (SAMPLED_COUNTERS, SPAN_LAYERS,  # noqa: E402
                    TRANSPARENT_SPANS)

# The program must not see this directory on its import path.
del sys.path[0]

SAMPLE_INTERVAL = 0.02


def _wrap(owner, attribute, span_name, tracer):
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(span_name):
            return original(*args, **kwargs)

    setattr(owner, attribute, traced)


def _install(tracer):
    import repro.ontologies
    from repro.core import server
    from repro.core.cache import CachedRunner
    from repro.core.facade import SOQASimPackToolkit

    _wrap(repro.ontologies, "load_corpus", "ledger.ontologies.load", tracer)
    _wrap(SOQASimPackToolkit, "fingerprint", "ledger.facade.fingerprint",
          tracer)
    _wrap(CachedRunner, "bulk_lookup", "ledger.cache.lookup", tracer)
    _wrap(CachedRunner, "bulk_store", "ledger.cache.store", tracer)
    _wrap(server.SimilarityService, "ksim", "ledger.service.ksim", tracer)
    _wrap(server.SimilarityService, "similarity",
          "ledger.service.similarity", tracer)
    _wrap(server, "_json_response", "ledger.server.encode", tracer)


def _attribute(root, rows):
    """Flatten one span tree into ``[layer, start, self, total, pairs]``.

    Walks with an explicit stack: on the server, requests that finish
    out of order leave their ``server.request`` span on the tracer's
    thread stack, so later requests nest under it and the tree becomes
    a chain as deep as the number of requests served.
    """
    pending = [(root, None)]
    while pending:
        span, inherited = pending.pop()
        if span.name in TRANSPARENT_SPANS:
            # No layer's self time, but its whole duration under its
            # own name: the time the server spent on one request.
            rows.append([span.name, span.started_at, span.duration,
                         span.duration, 0])
            pending.extend((child, inherited) for child in span.children)
            continue
        layer = SPAN_LAYERS.get(span.name, inherited)
        covered = sum(child.duration for child in span.children
                      if child.name not in TRANSPARENT_SPANS)
        rows.append([layer, span.started_at, span.duration - covered,
                     span.duration, span.labels.get("pairs", 0)])
        pending.extend((child, layer) for child in span.children)


class _Sampler(threading.Thread):
    """Samples the program's counters so windows can be cut later."""

    def __init__(self, registry):
        super().__init__(name="ledger-sampler", daemon=True)
        self.registry = registry
        self.samples = []
        self.stopped = threading.Event()

    def sample(self):
        values = [self.registry.value(name) for name in SAMPLED_COUNTERS]
        self.samples.append([time.perf_counter()] + values)

    def run(self):
        while not self.stopped.wait(SAMPLE_INTERVAL):
            self.sample()


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import repro.cli
    imported = time.perf_counter()
    from repro.core import telemetry

    tracer = telemetry.get_tracer()
    _install(tracer)
    sampler = _Sampler(telemetry.get_registry())
    sampler.start()
    code = 1
    try:
        code = repro.cli.main(argv)
    finally:
        sampler.stopped.set()
        sampler.join()
        sampler.sample()
        rows = []
        for root in tracer.drain():
            _attribute(root, rows)
        record = {
            "started": STARTED, "imported": imported, "spans": rows,
            "counters": SAMPLED_COUNTERS, "samples": sampler.samples,
            "code": code,
        }
        with open(out_path + ".tmp", "w") as handle:
            json.dump(record, handle)
        os.replace(out_path + ".tmp", out_path)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
