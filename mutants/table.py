"""Hand-written mutants of the matching solver and the checks behind it.

Each entry is (file, snippet, replacement, tests, equivalent): the snippet
must occur exactly once in the file, and with it replaced at least one of
the tests must fail. equivalent is None, or the reason no test can see the
change; an equivalent mutant is run and reported but not counted against
the suite. Test ids are relative to the repository root.
"""

BATCH = "tests/test_batch_solve.py::"
SOLVER = "tests/test_bipartite.py::"
FM = "tests/test_fm.py::"

MUTANTS = [
    # The sweep's batch solve (harness._batch_alpha2, _batch_greedy, _check_batch).
    ("src/fracmatch/harness.py",
     "short = np.flatnonzero(size < (rows != 0).sum(axis=1))",
     "short = np.flatnonzero(size < (rows != 0).sum(axis=1) - 1)",
     [BATCH + "test_batch_solve_matches_hopcroft_karp_exhaustive[3]"], None),
    ("src/fracmatch/harness.py",
     "if fl.bit_count() > r.count(0):",
     "if fl.bit_count() > r.count(0) + 1:",
     [BATCH + "test_cover_check_names_the_graph"], None),
    ("src/fracmatch/harness.py",
     "        free_r ^= taken[u]\n", "",
     [BATCH + "test_batch_solve_matches_hopcroft_karp_exhaustive[3]"], None),
    ("src/fracmatch/harness.py",
     "    ok &= ((rows & bit) == bit).all(axis=1)\n", "",
     [BATCH + "test_batch_check_rejects_tampering_and_names_the_graph[non-edge]"], None),
    ("src/fracmatch/harness.py",
     "    ok &= paired.sum(axis=1) == size\n", "",
     [BATCH + "test_batch_check_rejects_tampering_and_names_the_graph[repeat, size-1]"], None),
    ("src/fracmatch/harness.py",
     "    ok &= np.unpackbits(union.view(np.uint8)).reshape(len(rows), 64).sum(axis=1) == size\n",
     "",
     [BATCH + "test_batch_check_rejects_tampering_and_names_the_graph[repeat]"], None),
    ("src/fracmatch/harness.py",
     "                    konig_cover(r, pr, fr, fl)",
     "                    pass",
     [BATCH + "test_cover_check_names_the_graph",
      BATCH + "test_cover_check_rejects_a_matching_that_is_not_maximum"], None),
    # The solver (bipartite): greedy, _finish (length-3 pass, augmenting
    # search), cover.
    ("src/fracmatch/bipartite.py",
     "free_r ^= b", "pass",
     [SOLVER + "test_exhaustive_tiny"], None),
    ("src/fracmatch/bipartite.py",
     "    if free_l.bit_count() > isolated:\n        free_r, free_l = _length3",
     "    if free_l.bit_count() > isolated + 1:\n        free_r, free_l = _length3",
     [SOLVER + "test_augmenting_path_case"], None),
    ("src/fracmatch/bipartite.py",
     "        if free_l.bit_count() > isolated:\n            free_r, free_l = _augment",
     "        if free_l.bit_count() > isolated + 1:\n            free_r, free_l = _augment",
     [BATCH + "test_batch_solve_matches_hopcroft_karp_exhaustive[4]",
      BATCH + "test_batch_solve_matches_hopcroft_karp_exhaustive[5]"], None),
    ("src/fracmatch/bipartite.py",
     "                free_l ^= a\n                break",
     "                break",
     [SOLVER + "test_augmenting_path_case"], None),
    ("src/fracmatch/bipartite.py",
     "            free_l ^= a\n            seen = 0",
     "            free_l ^= a",
     [SOLVER + "test_order_matches_reference_on_small_double_covers",
      SOLVER + "test_order_matches_reference_on_random_double_covers"], None),
    ("src/fracmatch/bipartite.py",
     "w = pair_r[b.bit_length() - 1]\n            c = rows[w] & free_r",
     "w = pair_r[b.bit_length() - 1]\n            c = rows[w]",
     [SOLVER + "test_exhaustive_tiny"], None),
    ("src/fracmatch/bipartite.py",
     "if new & free_r:", "if False:",
     [SOLVER + "test_cover_check_rejects_a_short_matching_and_a_wrong_partner_list"], None),
    ("src/fracmatch/bipartite.py",
     "reached_r |= new", "reached_r = new",
     [SOLVER + "test_exhaustive_tiny"], None),
    ("src/fracmatch/bipartite.py",
     "cover_left = ((1 << nl) - 1) & ~reached_l",
     "cover_left = ((1 << nl) - 1) & ~free_l",
     [SOLVER + "test_exhaustive_tiny"], None),
    ("src/fracmatch/bipartite.py",
     "return cover_left, reached_r", "return reached_r, cover_left",
     [SOLVER + "test_exhaustive_tiny"], None),
    ("src/fracmatch/bipartite.py",
     "if cover != size:", "if False:",
     [SOLVER + "test_cover_check_rejects_a_short_matching_and_a_wrong_partner_list"], None),
    # The primal checks of a scalar solve (graph.check_matching, fm._solved).
    ("src/fracmatch/graph.py",
     "if v < 0 or not rows[u] >> v & 1:", "if False:",
     [BATCH + "test_reference_check_rejects_tampering[non-edge]"], None),
    ("src/fracmatch/graph.py",
     "if taken >> v & 1:", "if False:",
     [BATCH + "test_reference_check_rejects_tampering[repeat, size-1]"], None),
    ("src/fracmatch/graph.py",
     "if taken.bit_count() != size:", "if False:",
     [BATCH + "test_reference_check_rejects_tampering[size+1]"], None),
    ("src/fracmatch/fm.py",
     "        check_matching(g.rows, m.pair_left, m.size)\n", "",
     [FM + "test_a_solve_that_pairs_a_non_edge_is_rejected[alpha2]"], None),
    ("src/fracmatch/fm.py",
     "if nb & out.half:", "if False:",
     [FM + "test_canonicalize_rejects_an_unweighted_vertex_with_a_non_full_neighbour"
      "[half-cycle-pendant]"], None),
]
