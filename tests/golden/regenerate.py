"""Regenerate the golden certificate files in this directory.

    PYTHONPATH=src python tests/golden/regenerate.py

Each file is sorted JSON text that the tests recompute and compare, so a
changed entry shows up as a diff of this directory: the certificate files
exactly (``tests/test_certify.py``), the ``reproduce`` rows with their floats
to 1e-9 (``tests/test_verification.py``).
"""

import json
import random
from pathlib import Path

from gnorm.certify import certify_family, certify_not_norming
from gnorm.constructions import bipartite_kneser, hypercube, subdivided_complete
from gnorm.errors import InvalidParameter
from gnorm.graphs import BipartiteGraph, complete_bipartite, cycle
from gnorm.verification import ROWS, run_row

HERE = Path(__file__).resolve().parent


def _text(entries: list) -> str:
    return json.dumps(entries, sort_keys=True, indent=1) + "\n"


def hypercube_family_text() -> str:
    """``certify_family("hypercube", [d])`` for d = 1..12, a list in d order."""
    return _text([certify_family("hypercube", [d]).to_json() for d in range(1, 13)])


def family_grid_text() -> str:
    """``certify_family`` over kneser 2 <= n <= 11 with 0 <= r <= n, inclusion
    n <= 7 with 0 <= r <= k <= n, and subdivided-complete 1..11, a list in
    that order.  A refused parameter set is recorded as its error type and
    message."""
    grid = [("kneser", (n, r)) for n in range(2, 12) for r in range(n + 1)]
    grid += [("inclusion", (n, k, r))
             for n in range(1, 8) for k in range(n + 1) for r in range(k + 1)]
    grid += [("subdivided-complete", (n,)) for n in range(1, 12)]
    entries = []
    for family, params in grid:
        try:
            entries.append(certify_family(family, params).to_json())
        except InvalidParameter as exc:
            entries.append({"family": family, "params": list(params),
                            "refused": {"type": type(exc).__name__, "message": str(exc)}})
    return _text(entries)


def _relabelled(g: BipartiteGraph, seed: int) -> BipartiteGraph:
    """g with its vertices renamed and each side and the edge list shuffled,
    so that a hint's isomorphism check has a map to find."""
    rng = random.Random(seed)
    name = {v: f"x{i}" for i, v in enumerate(rng.sample(g.vertices, g.n_vertices))}
    left, right = [name[v] for v in g.left], [name[v] for v in g.right]
    edges = [(name[u], name[v]) for u, v in g.edges]
    for seq in (left, right, edges):
        rng.shuffle(seq)
    return BipartiteGraph(tuple(left), tuple(right), tuple(edges))


def certify_survey_text() -> str:
    """``certify_not_norming`` on C6, C8, C10, K_{2,4}, K_{2,6}, K_{4,4}, Q4
    and subdivided K5, and on a relabelled H(6,2) with the hint kneser:6:2,
    each entry a graph label and its certificate, in that order."""
    graphs = [("C6", cycle(6)), ("C8", cycle(8)), ("C10", cycle(10)),
              ("K_{2,4}", complete_bipartite(2, 4)), ("K_{2,6}", complete_bipartite(2, 6)),
              ("K_{4,4}", complete_bipartite(4, 4)), ("Q4", hypercube(4)),
              ("subdivided K5", subdivided_complete(5))]
    entries = [{"graph": label, "certificate": certify_not_norming(g).to_json()}
               for label, g in graphs]
    h62 = certify_not_norming(_relabelled(bipartite_kneser(6, 2), 62), ("kneser", 6, 2))
    entries.append({"graph": "H(6,2) hint kneser:6:2", "certificate": h62.to_json()})
    return _text(entries)


def reproduce_text() -> str:
    """Each ``gnorm reproduce`` row without ``elapsed_s`` and
    ``within_budget``, a list in row order, except ``falsifier`` and
    ``decoration-inequality``, which ``tests/test_verification.py`` pins bit
    for bit.  ``tests/test_verification.py`` compares floats to 1e-9 and
    every other value exactly."""
    entries = []
    for row in ROWS:
        if row.rid not in ("falsifier", "decoration-inequality"):
            result = run_row(row)
            del result["elapsed_s"], result["within_budget"]
            entries.append(result)
    return _text(entries)


GOLDEN_FILES = {
    "hypercube_family.json": hypercube_family_text,
    "family_grid.json": family_grid_text,
    "certify_survey.json": certify_survey_text,
    "reproduce.json": reproduce_text,
}

if __name__ == "__main__":
    for name, text in GOLDEN_FILES.items():
        (HERE / name).write_text(text())
