"""Benchmark helpers that run inside the program's interpreter.

Usage (with the program's ``src`` on ``PYTHONPATH``)::

    python perfledger/progside.py concepts OUT.json
    python perfledger/progside.py wordnet COUNT SEED OUT.wn
    python perfledger/progside.py oracle OPS.json OUT.json [--store S]
    python perfledger/progside.py replay PLAN.json CACHE_DIR OUT.json [--store S]

``oracle`` answers every distinct op with both cache tiers off and the
naive per-pair engine, and writes one digest per op key.  ``replay``
times the same handler calls with telemetry on and off.
"""

import json
import statistics
import sys
import time

from opsgen import canonical_digest, op_key  # noqa: E402

del sys.path[0]

ORACLE_ENGINE = "naive"


def _corpus_soqa(store):
    if store is None:
        from repro.ontologies import load_corpus

        return load_corpus()
    from repro.soqa.api import SOQA

    soqa = SOQA()
    soqa.load_file(store)
    return soqa


def _concepts(out_path):
    soqa = _corpus_soqa(None)
    names = {name: [concept.name for concept in soqa.ontology(name)]
             for name in soqa.ontology_names()}
    with open(out_path, "w") as handle:
        json.dump(names, handle)


def _wordnet(count, seed, out_path):
    from repro.ontologies.generator import generate_wordnet_data

    with open(out_path, "w") as handle:
        handle.write(generate_wordnet_data(int(count), int(seed)))


def _qualified(reference):
    from repro.core.results import QualifiedConcept

    return QualifiedConcept(reference[0], reference[1])


def _http_answer(toolkit, op):
    """The response payload of one HTTP op, from the facade directly."""
    body = op["body"]
    measure = body["measure"]
    name = toolkit.runner(measure).name
    if op["path"] == "/v1/ksim":
        entries = toolkit.get_most_similar_concepts(
            body["concept"], body["ontology"], k=body["k"],
            measure=measure, engine=ORACLE_ENGINE)
        return {"measure": name, "k": body["k"], "entries": [{
            "rank": rank, "ontology": entry.ontology_name,
            "concept": entry.concept_name, "similarity": entry.similarity,
        } for rank, entry in enumerate(entries, start=1)]}
    if "concepts" in body:
        qualified = [_qualified(ref) for ref in body["concepts"]]
        matrix = toolkit.get_similarity_matrix(qualified, measure,
                                               engine=ORACLE_ENGINE)
        return {"measure": name, "labels": [f"{ontology}:{concept}"
                                            for ontology, concept
                                            in body["concepts"]],
                "matrix": matrix}
    pairs = [(_qualified(entry[:2]), _qualified(entry[2:]))
             for entry in body["pairs"]]
    values = toolkit.engine(measure, engine=ORACLE_ENGINE).score_pairs(pairs)
    return {"measure": name, "values": values}


def _oracle(ops_path, out_path, store):
    with open(ops_path) as handle:
        ops = json.load(handle)
    from repro.core.facade import SOQASimPackToolkit

    toolkit = SOQASimPackToolkit(_corpus_soqa(store), cache=False)
    digests = {}
    for op in ops:
        key = op_key(op)
        if key in digests:
            continue
        digests[key] = canonical_digest(_http_answer(toolkit, op))
    with open(out_path, "w") as handle:
        json.dump(digests, handle)


def _replay(plan_path, cache_dir, out_path, store):
    """Median handler time per op with telemetry on vs off.

    The plan holds warm-up ops and rounds of timed ops; each round is
    its own slice of the op stream, so a workload whose ops miss the
    caches keeps missing.  Rounds alternate on/off as ABBA, so a slow
    drift of the host cancels out.
    """
    from repro.core import telemetry
    from repro.core.facade import SOQASimPackToolkit
    from repro.core.resilience import Deadline
    from repro.core.server import SimilarityService

    with open(plan_path) as handle:
        plan = json.load(handle)
    service = SimilarityService(SOQASimPackToolkit(
        _corpus_soqa(store), cache_dir=cache_dir))
    service.warm()
    handlers = {"/v1/ksim": service.ksim,
                "/v1/similarity": service.similarity}

    def call(op):
        handlers[op["path"]](op["body"], Deadline(None))

    for op in plan["warm"]:
        call(op)
    times = {True: [], False: []}
    for index, chunk in enumerate(plan["rounds"]):
        on = index % 4 in (0, 3)
        telemetry.set_enabled(on)
        started = time.perf_counter()
        for op in chunk:
            call(op)
        times[on].append((time.perf_counter() - started) / len(chunk))
    telemetry.set_enabled(True)
    on_time = statistics.median(times[True])
    off_time = statistics.median(times[False])
    with open(out_path, "w") as handle:
        json.dump({"overhead_pct": 100.0 * (on_time / off_time - 1.0),
                   "on_ms": on_time * 1000, "off_ms": off_time * 1000},
                  handle)


def main(argv):
    store = None
    if "--store" in argv:
        position = argv.index("--store")
        store = argv[position + 1]
        argv = argv[:position] + argv[position + 2:]
    command, arguments = argv[0], argv[1:]
    if command == "concepts":
        _concepts(*arguments)
    elif command == "wordnet":
        _wordnet(*arguments)
    elif command == "oracle":
        _oracle(*arguments, store=store)
    elif command == "replay":
        _replay(*arguments, store=store)
    else:
        raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
