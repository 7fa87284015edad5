"""Turn the launcher's span records into per-layer ledger rows.

A layer's self time is the duration of its spans minus the part their
child spans of other layers cover.  Rows are normalised per op, or per
boot for the start-up layers.  Whatever time of
an op no named layer accounts for is ``trace.unexplained_pct``.
"""

import json

from layers import LAYER_NAMES, SAMPLED_COUNTERS, TIME_LAYERS

SCORE_LAYER = "engine.score_ms"


def load(path):
    with open(path) as handle:
        return json.load(handle)


def empty_rows():
    return {name: 0.0 for name in LAYER_NAMES}


def span_totals(record, start=None, end=None):
    """Self ms per layer (plus engine pairs) of spans starting in a window."""
    totals = {}
    pairs = 0
    score_total = 0.0
    for layer, started, self_time, total, span_pairs in record["spans"]:
        if start is not None and not start <= started <= end:
            continue
        key = layer if layer is not None else "unattributed"
        totals[key] = totals.get(key, 0.0) + self_time * 1000
        if layer == SCORE_LAYER:
            pairs += span_pairs
            score_total += total * 1000
    return totals, pairs, score_total


def counter_deltas(record, start=None, end=None):
    """Counter deltas over a window, from the launcher's samples.

    Gauges (the queue depth) are averaged over the samples instead.
    """
    samples = record["samples"]
    if start is not None:
        before = [row for row in samples if row[0] <= start] or samples[:1]
        inside = [row for row in samples if start <= row[0] <= end]
        after = [row for row in samples if row[0] >= end] or samples[-1:]
        first, last = before[-1], after[0]
    else:
        inside = samples
        first, last = [0.0] * len(samples[-1]), samples[-1]
    deltas = {}
    for position, name in enumerate(SAMPLED_COUNTERS, start=1):
        if name == "server.queue_depth":
            values = [row[position] for row in inside] or [0]
            deltas[name] = sum(values) / len(values)
        else:
            deltas[name] = last[position] - first[position]
    return deltas


def cache_rows(rows, counters):
    l1 = counters["cache.l1.hits"] + counters["cache.l1.misses"]
    l2 = counters["cache.l2.hits"] + counters["cache.l2.misses"]
    rows["cache.l1_lookups"] = float(l1)
    rows["cache.l1_hit_ratio"] = counters["cache.l1.hits"] / l1 if l1 else 0.0
    rows["cache.l2_lookups"] = float(l2)
    rows["cache.l2_hit_ratio"] = counters["cache.l2.hits"] / l2 if l2 else 0.0


def fill(rows, totals, pairs, score_total, ops):
    """Per-op layer rows from window totals."""
    for layer, value in totals.items():
        if layer in rows:
            rows[layer] += value / ops
    rows["engine.pairs"] = pairs / ops
    rows["engine.us_per_pair"] = (score_total * 1000 / pairs) if pairs else 0.0


def reconcile(rows, wall_ms, untraced_ms):
    """Set the reconciliation rows: explained + unexplained = wall."""
    explained = sum(rows[name] for name in TIME_LAYERS)
    rows["trace.wall_ms"] = wall_ms
    rows["trace.unexplained_pct"] = 100.0 * (wall_ms - explained) / wall_ms
    rows["trace.overhead_pct"] = 100.0 * (wall_ms / untraced_ms - 1.0)
