"""Print the chosen certificates that differ between the solver and a
textbook Hopcroft-Karp, on the population of
test_partition.test_chosen_certificates_pinned.

    PYTHONPATH=src python tests/certificate_diff.py

Each line of that test is (canonical matching, pairing, Berge witness S).
The textbook lines are made by solving with test_bipartite's
reference_hopcroft_karp, whose exploration order the solver followed until
it finished with the sweep's length-3 pass and augmenting search; they
must hash to OLD_DIGEST. Every differing line is printed as its graph6 and
the two canonical matchings. The script exits 1 unless the pairing and S
agree on every line and each graph with a changed line passes
verify_partition and the C2 and C3 suites.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_bipartite import reference_hopcroft_karp  # noqa: E402
from test_partition import CERTIFICATE_DIGEST, all_graphs  # noqa: E402

from fracmatch import fm, partition  # noqa: E402
from fracmatch.bipartite import BipartiteMatching  # noqa: E402
from fracmatch.graph import Graph, bits, mask_of  # noqa: E402
from fracmatch.graph6 import emit_graph6  # noqa: E402
from fracmatch.selftest import corpus_with_relabelings, run_partition_suite, run_structure_suite  # noqa: E402

OLD_DIGEST = "781fe3103883bf3bcf40c187c22f30f54ab15e0db127ca3d2a6eb0ff7a16fdd7"


def textbook(rows, n_right):
    pair, left, right = reference_hopcroft_karp(len(rows), n_right, [tuple(bits(r)) for r in rows])
    return BipartiteMatching(sum(v != -1 for v in pair), pair, mask_of(left), mask_of(right))


def certificate_lines(graphs):
    lines = []
    for g in graphs:
        g = Graph(g.n, g.rows)  # no solve kept from another run
        p = partition.good_partition(g)
        lines.append((fm.canonical_fm(g).items(), p.pairing, sorted(fm.berge_deficiency(g).s_set)))
    return lines


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode() + b"\n")
    return h.hexdigest()


def main() -> int:
    graphs = [g for n in range(6) for g in all_graphs(n)] + corpus_with_relabelings(copies=1)
    new = certificate_lines(graphs)
    solver = fm.hopcroft_karp
    fm.hopcroft_karp = partition.hopcroft_karp = textbook
    try:
        old = certificate_lines(graphs)
    finally:
        fm.hopcroft_karp = partition.hopcroft_karp = solver
    changed = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    for i in changed:
        print(f"{emit_graph6(graphs[i])}  {old[i][0]}  ->  {new[i][0]}")
    graphs = [graphs[i] for i in changed]
    checks = {
        "pairing and S agree on every line": all(a[1:] == b[1:] for a, b in zip(old, new)),
        "the textbook lines hash to OLD_DIGEST": digest(old) == OLD_DIGEST,
        "the solver's lines hash to CERTIFICATE_DIGEST": digest(new) == CERTIFICATE_DIGEST,
        "verify_partition passes on every changed graph": all(
            partition.verify_partition(g, partition.good_partition(g)).all_ok() for g in graphs
        ),
        "C2 passes on every changed graph": run_structure_suite(graphs).ok,
        "C3 passes on every changed graph": run_partition_suite(graphs).ok,
    }
    print(f"{len(changed)} of {len(old)} lines differ")
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
