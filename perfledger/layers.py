"""The ledger's per-layer rows and how program spans map onto them.

Every row names the end-to-end metric it should move and the workload
on which it should move it, so a change to one layer can be checked on
a workload where that layer dominates and on one where it is idle.
This module imports nothing from the program; the traced launcher and
the aggregation in ``spans.py`` both read it.
"""

# (name, unit, better, moves, on)
LAYERS = [
    ("interp.start_ms", "ms", "lower", "setup_s", "serve-*"),
    ("cli.import_ms", "ms", "lower", "setup_s", "serve-*"),
    ("ontologies.load_ms", "ms", "lower", "setup_s", "serve-hot"),
    ("sqlstore.open_ms", "ms", "lower", "setup_s", "serve-store"),
    ("unified.tree_ms", "ms", "lower", "setup_s", "serve-store"),
    ("wrapper.build_ms", "ms", "lower", "setup_s", "serve-store"),
    ("facade.fingerprint_ms", "ms", "lower", "setup_s", "serve-store"),
    ("index.persist_ms", "ms", "lower", "setup_s", "serve-store"),
    ("kernel.build_ms", "ms", "lower", "setup_s", "serve-store"),
    ("cache.l1_hit_ratio", "ratio", "higher", "mean_ms, cpu_ms_per_op",
     "serve-hot (idle on serve-store)"),
    ("cache.l1_lookups", "count", "lower", "mean_ms, cpu_ms_per_op",
     "serve-hot"),
    ("cache.l2_hit_ratio", "ratio", "higher", "mean_ms; cpu_ms_per_op",
     "serve-store (writes)"),
    ("cache.l2_lookups", "count", "lower", "mean_ms; cpu_ms_per_op",
     "serve-store"),
    ("cache.lookup_ms", "ms", "lower", "mean_ms, cpu_ms_per_op",
     "serve-store"),
    ("cache.store_ms", "ms", "lower", "mean_ms, cpu_ms_per_op",
     "serve-store"),
    ("cache.l2_flush_ms", "ms", "lower", "mean_ms; cpu_ms_per_op",
     "serve-store"),
    ("facade.most_similar_ms", "ms", "lower", "mean_ms, cpu_ms_per_op",
     "serve-hot"),
    ("facade.similarity_matrix_ms", "ms", "lower", "mean_ms, ops_per_s",
     "serve-store"),
    ("engine.score_ms", "ms", "lower", "mean_ms, ops_per_s; setup_s",
     "serve-store; serve-hot warm-up"),
    ("engine.pairs", "count", "lower", "mean_ms, ops_per_s",
     "serve-store"),
    ("engine.us_per_pair", "us", "lower", "mean_ms, ops_per_s",
     "serve-store"),
    ("kernel.batch_ms", "ms", "lower", "mean_ms, ops_per_s",
     "serve-store"),
    ("service.ksim_ms", "ms", "lower", "mean_ms", "serve-hot"),
    ("service.similarity_ms", "ms", "lower", "mean_ms", "serve-store"),
    ("server.encode_ms", "ms", "lower", "mean_ms",
     "serve-store (matrix bodies); serve-hot"),
    ("server.http_ms", "ms", "lower", "mean_ms, tail_ms", "serve-hot"),
    ("server.reconnects", "count", "lower", "mean_ms, tail_ms",
     "serve-hot"),
    ("server.coalesced", "count", "higher", "tail_ms", "serve-*"),
    ("server.shed", "count", "lower", "tail_ms", "serve-* (expected 0)"),
    ("server.queue_depth", "count", "lower", "tail_ms", "serve-*"),
    ("telemetry.overhead_pct", "%", "lower", "cpu_ms_per_op",
     "serve-hot"),
    ("loadgen.cpu_ms_per_op", "ms", "lower",
     "none: shows the generator is not the bottleneck", "serve-*"),
    ("trace.wall_ms", "ms", "lower", "reconciliation: traced mean op",
     "all"),
    ("trace.unexplained_pct", "%", "lower", "reconciliation of every row",
     "all"),
    ("trace.overhead_pct", "%", "lower", "reconciliation of every row",
     "all"),
    ("host.loop_ms", "ms", "lower", "none: host-drift context", "all"),
    ("host.spawn_ms", "ms", "lower", "none: host-drift context", "all"),
]

LAYER_NAMES = [row[0] for row in LAYERS]

#: Rows that are self times of one layer per request: summed, they
#: (plus the unexplained share) make up the traced wall time of an op.
TIME_LAYERS = [
    "cache.lookup_ms", "cache.store_ms", "cache.l2_flush_ms",
    "facade.most_similar_ms", "facade.similarity_matrix_ms",
    "engine.score_ms", "kernel.batch_ms", "service.ksim_ms",
    "service.similarity_ms", "server.encode_ms", "server.http_ms",
]

#: Rows that are paid once per server boot, not per request; they are
#: reported per boot.
STARTUP_LAYERS = [
    "interp.start_ms", "cli.import_ms", "ontologies.load_ms",
    "sqlstore.open_ms", "unified.tree_ms", "wrapper.build_ms",
    "facade.fingerprint_ms", "index.persist_ms", "kernel.build_ms",
]

#: Span name -> layer row.  Spans named ``ledger.*`` are recorded by the
#: launcher around public callables; the others are the program's own
#: spans, read through its tracer.  A span whose name is not listed
#: belongs to the layer of its nearest listed ancestor.
SPAN_LAYERS = {
    "ledger.ontologies.load": "ontologies.load_ms",
    "soqa.load_file": "sqlstore.open_ms",
    "facade.unified_tree.build": "unified.tree_ms",
    "facade.wrapper.build": "wrapper.build_ms",
    "ledger.facade.fingerprint": "facade.fingerprint_ms",
    "index.persist.load": "index.persist_ms",
    "index.persist.compile": "index.persist_ms",
    "index.persist.save": "index.persist_ms",
    "graphindex.compile": "index.persist_ms",
    "kernel.build": "kernel.build_ms",
    "ledger.cache.lookup": "cache.lookup_ms",
    "ledger.cache.store": "cache.store_ms",
    "diskcache.flush": "cache.l2_flush_ms",
    "facade.most_similar": "facade.most_similar_ms",
    "facade.similarity_matrix": "facade.similarity_matrix_ms",
    "parallel.score_pairs": "engine.score_ms",
    "kernel.batch": "kernel.batch_ms",
    "ledger.service.ksim": "service.ksim_ms",
    "ledger.service.similarity": "service.similarity_ms",
    "ledger.server.encode": "server.encode_ms",
}

#: Spans that wrap an ``await`` on the event-loop thread.  Concurrent
#: requests interleave them, so they carry no self time of a layer;
#: their children are still attributed.  Their durations are kept under
#: their own name: ``server.http_ms`` is the part of the request span no
#: layer covers, and what lies outside it (reading the request head,
#: writing the reply, the loopback and the client) is
#: ``trace.unexplained_pct``.
REQUEST_SPAN = "server.request"
TRANSPARENT_SPANS = {REQUEST_SPAN}

#: Program counters the launcher samples over time.
SAMPLED_COUNTERS = [
    "cache.l1.hits", "cache.l1.misses", "cache.l2.hits", "cache.l2.misses",
    "server.coalesced", "server.shed", "server.queue_depth",
]
