"""Seeded op streams of the two workloads, and answer digests.

An *op* is one HTTP request (``{"path": ..., "body": {...}}``).  The
same seed and catalog always give the same ops, so a timed phase
replays the same sequence on every run and every commit.  Pure standard library: the program receives
only the generated ops.
"""

import hashlib
import itertools
import json
import random

HOT_CONCEPTS = 15
HOT_MEASURES = ["Shortest Path", "Resnik", "TFIDF"]
#: The serve-hot traffic mix is assumed, not measured: no traffic log
#: exists to take it from.  Four in five requests are ``/v1/ksim`` at
#: 1/rank concept popularity, one in five an 8-pair batch.
HOT_KSIM_SHARE = 0.8
HOT_PAIRS_PER_BATCH = 8

STORE_PAIRS_PER_BATCH = 50
STORE_MATRIX_CONCEPTS = 30
STORE_PAIR_MEASURE = "Lin"
STORE_MATRIX_MEASURE = "Resnik"
#: Ops per block of the fixed 3:1 pairs:matrix ratio.
STORE_BLOCK = ["pairs", "pairs", "pairs", "matrix"]


def op_key(op):
    """A stable text key of one op."""
    return json.dumps(op, sort_keys=True, separators=(",", ":"))


def canonical_digest(payload):
    """Digest of a decoded answer, independent of its JSON layout."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _corpus_concepts(catalog):
    return [(ontology, concept) for ontology in sorted(catalog)
            for concept in catalog[ontology]]


# -- serve-hot --------------------------------------------------------------


def _ksim(ontology, concept, measure):
    return {"path": "/v1/ksim", "body": {
        "ontology": ontology, "concept": concept, "k": 10,
        "measure": measure}}


def hot_concepts(seed, catalog):
    """The hot concepts, most popular first."""
    return random.Random(f"serve-hot:{seed}").sample(
        _corpus_concepts(catalog), HOT_CONCEPTS)


def hot_warmup(seed, catalog):
    """Every hot (concept, measure) once: after it, every timed answer
    is an L1 hit."""
    return [_ksim(ontology, concept, measure)
            for ontology, concept in hot_concepts(seed, catalog)
            for measure in HOT_MEASURES]


def hot_stream(seed, catalog):
    """Zipf-popular ``/v1/ksim`` plus small pair batches in the hot set.

    Popularity is skewed over concepts only; the measure is drawn
    uniformly, so every seed asks for the same mix of measures (their
    costs differ by a factor of two).
    """
    hot = hot_concepts(seed, catalog)
    weights = [1.0 / rank for rank in range(1, len(hot) + 1)]
    rng = random.Random(f"serve-hot-stream:{seed}")
    while True:
        measure = rng.choice(HOT_MEASURES)
        if rng.random() < HOT_KSIM_SHARE:
            yield _ksim(*rng.choices(hot, weights)[0], measure)
            continue
        pairs = []
        for _ in range(HOT_PAIRS_PER_BATCH):
            first, second = rng.sample(hot, 2)
            pairs.append([first[0], first[1], second[0], second[1]])
        yield {"path": "/v1/similarity", "body": {
            "pairs": pairs, "measure": measure}}


# -- serve-store ------------------------------------------------------------


def _store_stream(rng, ontology, names):
    while True:
        block = list(STORE_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "pairs":
                pairs = [[ontology, rng.choice(names), ontology,
                          rng.choice(names)]
                         for _ in range(STORE_PAIRS_PER_BATCH)]
                yield {"path": "/v1/similarity", "body": {
                    "pairs": pairs, "measure": STORE_PAIR_MEASURE}}
            else:
                concepts = [[ontology, name] for name in
                            rng.sample(names, STORE_MATRIX_CONCEPTS)]
                yield {"path": "/v1/similarity", "body": {
                    "concepts": concepts, "measure": STORE_MATRIX_MEASURE}}


def store_warmup(seed, ontology, names):
    """One block from its own stream: compiles the index and kernel."""
    rng = random.Random(f"serve-store-warmup:{seed}")
    return list(itertools.islice(_store_stream(rng, ontology, names),
                                 len(STORE_BLOCK)))


def store_stream(seed, ontology, names):
    """Uniform endpoints over the whole store, so nearly all miss L1."""
    return _store_stream(random.Random(f"serve-store:{seed}"), ontology,
                         names)
