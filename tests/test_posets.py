import dataclasses
import random
import re
import tracemalloc

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    classification_by_scan,
    glb_table_by_rows,
    lattice_tables_by_scan,
    ortholattice_failure_by_scan,
)
from per_call_paths import distributive_by_cube, poset_failure_by_scan
from synaptica import catalog, posets
from synaptica.posets import (
    BoundedOrtholattice,
    FinitePoset,
    StructureError,
    classify,
    is_oml,
    join,
    lattice_tables,
    meet,
    subset_inf_sup,
)


def test_chain_classification():
    c = classify(catalog.chain(4))
    assert c.is_lattice
    assert c.is_distributive
    assert not c.is_complemented
    assert c.is_oml is None  # no orthocomplementation given


def test_bowtie_is_not_a_lattice():
    b = catalog.bowtie()
    c = classify(b)
    assert not c.is_lattice
    # the two middle elements have no join: both tops are minimal upper bounds
    l1, l2 = b.labels.index("l1"), b.labels.index("l2")
    assert join(b, l1, l2) is None


def test_boolean_lattice_flags():
    for k in (1, 2, 3, 4):
        c = classify(catalog.boolean_lattice(k))
        assert c.is_lattice and c.is_distributive and c.is_complemented
        assert c.is_boolean
        assert c.is_oml


def test_mo2_is_oml_not_distributive():
    c = classify(catalog.mo2())
    assert c.is_oml
    assert not c.is_distributive
    assert not c.is_boolean


def test_o6_fails_orthomodularity():
    lat = catalog.o6()
    c = classify(lat)
    assert c.is_lattice
    assert c.is_oml is False
    # direct witness: a <= b but a v (b ^ a') stops at a
    a, b = lat.poset.labels.index("a"), lat.poset.labels.index("b")
    ap = lat.perp[a]
    assert lat.leq(a, b)
    assert lat.join(a, lat.meet(b, ap)) == a != b


def test_meet_join_tables_on_square():
    lat = catalog.boolean_lattice(2)
    # bitmask elements: meet is AND, join is OR
    for x in range(4):
        for y in range(4):
            assert lat.meet(x, y) == (x & y)
            assert lat.join(x, y) == (x | y)


def test_completeness_decisions_track_the_lattice_flag():
    for structure in (catalog.chain(5), catalog.boolean_lattice(3), catalog.bowtie()):
        c = classify(structure)
        assert c.is_sigma_complete == c.is_lattice
        assert c.is_lattice_complete == c.is_lattice
        assert c.is_monotone_sigma_complete is True


@pytest.mark.parametrize(
    "lat",
    [catalog.boolean_lattice(k) for k in (1, 2, 3, 4)] + [catalog.mo2(), catalog.o6()],
    ids=["2^1", "2^2", "2^3", "2^4", "MO2", "O6"],
)
def test_classify_on_the_lattice_agrees_with_its_poset(lat, monkeypatch):
    plain = dataclasses.asdict(classify(lat.poset))
    # the ortholattice path reads its own tables and never rescans a pair
    monkeypatch.setattr(posets, "meet", None)
    monkeypatch.setattr(posets, "join", None)
    monkeypatch.setattr(posets, "lattice_tables", None)
    flags = dataclasses.asdict(classify(lat))
    assert plain.pop("is_oml") is None and flags.pop("is_oml") is not None
    assert flags == plain


def assert_matches_the_scan(structure):
    poset = structure.poset if isinstance(structure, BoundedOrtholattice) else structure
    perp = structure.perp if isinstance(structure, BoundedOrtholattice) else None
    raw = poset.relation().tolist()
    meets, joins = lattice_tables(poset)
    assert (meets.tolist(), joins.tolist()) == lattice_tables_by_scan(raw)
    assert dataclasses.asdict(classify(structure)) == classification_by_scan(raw, perp)


@pytest.mark.parametrize(
    "structure",
    [catalog.boolean_lattice(k) for k in range(1, 7)]
    + [catalog.mo2(), catalog.o6(), catalog.chain(1), catalog.chain(6), catalog.bowtie()],
    ids=[f"2^{k}" for k in range(1, 7)] + ["MO2", "O6", "chain1", "chain6", "bowtie"],
)
def test_catalog_tables_and_flags_match_the_scan(structure):
    assert_matches_the_scan(structure)


def involution(rng, n):
    perm = list(range(n))
    free = list(range(n))
    rng.shuffle(free)
    while len(free) > 1 and rng.random() < 0.8:
        a, b = free.pop(), free.pop()
        perm[a], perm[b] = b, a
    return perm


@pytest.mark.parametrize("k", [3, 4])
def test_shuffled_perps_fail_with_the_scans_first_witness(k):
    lat = catalog.boolean_lattice(k)
    n, raw = lat.n, lat.poset.relation().tolist()
    rng = random.Random(k)
    perps = [rng.sample(range(n), n) for _ in range(30)]      # mostly not involutions
    perps += [involution(rng, n) for _ in range(30)]          # mostly not order-reversing
    for _ in range(10):                                       # reverse order, not complements
        swap = involution(rng, k)
        perps.append([sum((((n - 1) ^ m) >> swap[i] & 1) << i for i in range(k))
                      for m in range(n)])
    perps.append(list(lat.perp))
    seen = set()
    for perp in perps:
        expected = ortholattice_failure_by_scan(raw, 0, n - 1, perp)
        seen.add(re.sub(r"\d+", "#", expected) if expected else None)
        if expected is None:
            BoundedOrtholattice(lat.poset, 0, n - 1, perp)
            continue
        with pytest.raises(StructureError) as caught:
            BoundedOrtholattice(lat.poset, 0, n - 1, perp)
        assert str(caught.value) == expected
    assert seen == {
        "perp is not an involution at #",
        "perp does not reverse order on (#, #)",
        "perp(#) is not a complement of #",
        None,
    }


def test_bounded_non_lattice_names_its_first_pair():
    # 0 below a, b below c, d below 1: a and b have two minimal upper bounds
    p = FinitePoset.from_pairs(
        ["0", "a", "b", "c", "d", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
         ("c", "1"), ("d", "1")],
    )
    perp = [5, 2, 1, 4, 3, 0]
    expected = ortholattice_failure_by_scan(p.relation().tolist(), 0, 5, perp)
    assert expected == "not a lattice: pair (1, 2)"
    with pytest.raises(StructureError, match=r"^not a lattice: pair \(1, 2\)$"):
        BoundedOrtholattice(p, 0, 5, perp)
    assert_matches_the_scan(p)


def test_building_and_classifying_needs_no_single_pair_queries(monkeypatch):
    for name in ("meet", "join", "_first_bound"):
        monkeypatch.setattr(posets, name, None)
    lat = catalog.boolean_lattice(5)
    flags = classify(lat)
    assert flags.is_boolean and flags.is_oml
    assert dataclasses.asdict(classify(lat.poset)) == dict(dataclasses.asdict(flags), is_oml=None)
    assert lat.meet(0b10110, 0b01101) == 0b00100 and lat.join(0b10110, 0b01101) == 0b11111
    assert type(lat.meet(3, 5)) is int and type(lat.join(3, 5)) is int


def test_subset_inf_sup():
    p = catalog.boolean_lattice(3)
    inf, sup = subset_inf_sup(p.poset, [1, 2, 4])
    assert inf == 0 and sup == 7
    with pytest.raises(ValueError):
        subset_inf_sup(p.poset, [])


def test_is_oml_needs_an_orthocomplementation():
    with pytest.raises(ValueError, match="no orthocomplementation"):
        is_oml(catalog.chain(3))


def test_reflexivity_witness():
    rel = [[False, True], [False, True]]
    with pytest.raises(StructureError, match="not reflexive at element 0"):
        FinitePoset(rel)


def test_antisymmetry_witness_from_cycle():
    with pytest.raises(StructureError, match="antisymmetry"):
        FinitePoset.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])


def test_transitivity_witness():
    rel = [
        [True, True, False],
        [False, True, True],
        [False, False, True],
    ]
    with pytest.raises(StructureError, match="transitivity"):
        FinitePoset(rel)


def test_ortholattice_rejects_non_involution():
    lat = catalog.boolean_lattice(2)
    with pytest.raises(StructureError, match="involution|permutation"):
        BoundedOrtholattice(lat.poset, 0, 3, (1, 1, 2, 3))


def test_ortholattice_rejects_non_complement():
    # identity permutation reverses nothing and complements nothing
    lat = catalog.boolean_lattice(2)
    with pytest.raises(StructureError):
        BoundedOrtholattice(lat.poset, 0, 3, (0, 1, 2, 3))


def test_from_pairs_closes_covers():
    p = FinitePoset.from_pairs(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")])
    assert p.leq(0, 3)
    assert meet(p, 1, 2) == 1
    assert join(p, 1, 2) == 2


@pytest.mark.parametrize(
    "pair, message",
    [
        (("a", 7), "pair ('a', 7): 7 is neither a label nor an index below 2"),
        (("a", "zz"), "pair ('a', 'zz'): 'zz' is neither a label nor an index below 2"),
        (("a", -1), "pair ('a', -1): -1 is neither a label nor an index below 2"),
        (("a", "1"), "pair ('a', '1'): '1' is neither a label nor an index below 2"),
        ((True, "b"), "pair (True, 'b'): True is neither a label nor an index below 2"),
        ((["a"], "b"), "pair (['a'], 'b'): ['a'] is neither a label nor an index below 2"),
        (("a",), "pair ('a',) is not a (below, above) pair"),
        (5, "pair 5 is not a (below, above) pair"),
        ((0, 2), "pair (0, 2): 2 is neither a label nor an index below 2"),
        ((0, True), "pair (0, True): True is neither a label nor an index below 2"),
        ((0, 1, 1), "pair (0, 1, 1) is not a (below, above) pair"),
        ([0], "pair [0] is not a (below, above) pair"),
    ],
)
def test_from_pairs_names_a_pair_it_cannot_read(pair, message):
    with pytest.raises(StructureError) as info:
        FinitePoset.from_pairs(["a", "b"], [pair])
    assert str(info.value) == message


def test_from_pairs_reads_index_pairs_pair_by_pair():
    # four indices in all, but not two to a pair
    with pytest.raises(StructureError) as info:
        FinitePoset.from_pairs(["a", "b"], [[0, 1, 1], [0]])
    assert str(info.value) == "pair [0, 1, 1] is not a (below, above) pair"
    assert FinitePoset.from_pairs(["a", "b"], [[0, 1], (1, 1)]).leq(0, 1)


def test_from_pairs_takes_labels_before_indices():
    # a label that is also an index in range means the label
    p = FinitePoset.from_pairs([1, 0], [(1, 0)])
    assert p.leq(0, 1) and not p.leq(1, 0)
    q = FinitePoset.from_pairs(["a", "b"], [("a", 1)])
    assert q.leq(0, 1)


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=8,
        )
    )
    return FinitePoset.from_pairs(list(range(n)), pairs)


@given(small_posets())
@settings(max_examples=60, deadline=None)
def test_classification_consistency(p):
    c = classify(p)
    if c.is_boolean:
        assert c.is_distributive and c.is_complemented and c.is_lattice
    if c.is_distributive or c.is_complemented:
        assert c.is_lattice
    assert c.is_sigma_complete == c.is_lattice
    assert c.is_lattice_complete == c.is_lattice
    assert c.is_monotone_sigma_complete


@st.composite
def dense_posets(draw):
    # each pair i < j is a cover with probability about one half, so
    # non-lattices with two minimal upper or lower bounds are common
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return FinitePoset.from_pairs(list(range(n)), pairs)


@given(st.one_of(small_posets(), dense_posets()))
@settings(max_examples=150, deadline=None)
def test_tables_and_flags_match_the_scan(p):
    assert_matches_the_scan(p)


@given(small_posets())
@settings(max_examples=40, deadline=None)
def test_meet_is_a_greatest_lower_bound(p):
    for a in range(p.n):
        for b in range(p.n):
            m = meet(p, a, b)
            if m is None:
                continue
            assert p.leq(m, a) and p.leq(m, b)
            for x in range(p.n):
                if p.leq(x, a) and p.leq(x, b):
                    assert p.leq(x, m)


def random_relation(rng, n):
    """The order closure of random forward edges under a random relabelling."""
    leq = np.triu(rng.random((n, n)) < rng.random() * 0.6, 1) | np.eye(n, dtype=bool)
    for k in range(n):
        leq |= leq[:, [k]] & leq[[k], :]
    perm = rng.permutation(n)
    return leq[perm][:, perm]


def test_blocked_tables_match_the_row_loop_on_random_posets():
    rng = np.random.default_rng(2024)
    lattices = 0
    for n in range(1, 41):
        for _ in range(3):
            leq = random_relation(rng, n)
            meets, joins = lattice_tables(FinitePoset(leq))
            for got, rel in ((meets, leq), (joins, leq.T)):
                want = glb_table_by_rows(rel)
                assert got.dtype == want.dtype and np.array_equal(got, want), n
            lattices += not ((meets < 0).any() or (joins < 0).any())
    assert 0 < lattices < 120  # lattices and non-lattices both occur


@pytest.mark.parametrize("k", range(1, 8))
def test_blocked_tables_match_the_row_loop_on_boolean_lattices(k):
    leq = catalog.boolean_lattice(k).poset.relation()
    for rel in (leq, leq.T):
        got, want = posets._glb_table(rel), glb_table_by_rows(rel)
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# word boundaries of the packed down-sets: 64 elements to a uint64 word

WORD_SIZES = [63, 64, 65, 127, 128, 129]


def bounded(leq):
    """leq with a new bottom and a new top, so that more pairs have a meet and a join."""
    n = leq.shape[0]
    out = np.eye(n + 2, dtype=bool)
    out[1:-1, 1:-1] = leq
    out[0, :] = out[:, -1] = True
    return out


@pytest.mark.parametrize("n", WORD_SIZES)
def test_tables_match_the_row_loop_and_the_scan_at_word_boundaries(n):
    rng = np.random.default_rng(n)
    chain = np.triu(np.ones((n, n), dtype=bool))
    perm = rng.permutation(n)
    relations = [random_relation(rng, n), bounded(random_relation(rng, n - 2)),
                 chain[perm][:, perm]]
    for leq in relations:
        meets, joins = lattice_tables(FinitePoset(leq))
        for got, rel in ((meets, leq), (joins, leq.T)):
            want = glb_table_by_rows(rel)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if leq is not relations[-1]:  # the scan takes n^4 steps on a chain
            assert (meets.tolist(), joins.tolist()) == lattice_tables_by_scan(leq.tolist())
    # the random orders miss some meets; the chain has them all
    assert (meets >= 0).all() and any((lattice_tables(FinitePoset(r))[0] < 0).any()
                                      for r in relations[:2])


def product(a, b):
    """The product ortholattice a x b, ordered and complemented coordinatewise."""
    la, lb = a.poset.relation(), b.poset.relation()
    n = a.n * b.n
    rel = (la[:, None, :, None] & lb[None, :, None, :]).reshape(n, n)
    perp = [a.perp[i] * b.n + b.perp[j] for i in range(a.n) for j in range(b.n)]
    return BoundedOrtholattice(FinitePoset(rel), a.zero * b.n + b.zero,
                               a.one * b.n + b.one, perp)


def pentagon():
    return FinitePoset.from_pairs(["0", "a", "b", "c", "1"],
                                  [("0", "a"), ("a", "b"), ("0", "c"), ("b", "1"), ("c", "1")])


def diamond():
    return FinitePoset.from_pairs(["0", "a", "b", "c", "1"],
                                  [("0", x) for x in "abc"] + [(x, "1") for x in "abc"])


@pytest.mark.parametrize(
    "structure",
    [pentagon(), diamond(), catalog.mo2(), catalog.o6(), catalog.chain(2), catalog.chain(9)]
    + [catalog.boolean_lattice(k) for k in range(1, 8)]
    + [product(catalog.mo2(), catalog.boolean_lattice(k)) for k in range(1, 5)],
    ids=["N5", "M3", "MO2", "O6", "chain2", "chain9"] + [f"2^{k}" for k in range(1, 8)]
    + [f"MO2x2^{k}" for k in range(1, 5)],
)
def test_join_prime_distributivity_matches_the_defining_identity(structure):
    perp = structure.perp if isinstance(structure, BoundedOrtholattice) else None
    poset = structure.poset if perp is not None else structure
    flags = dataclasses.asdict(classify(structure))
    assert flags == classification_by_scan(poset.relation().tolist(), perp)


@st.composite
def relations(draw):
    """Square tables: free, acyclic, order closures, and closures less one pair.

    Every entry of the diagonal is set except, now and then, one.
    """
    n = draw(st.integers(min_value=1, max_value=9))
    kind = draw(st.sampled_from(["free", "acyclic", "order", "order less one"]))
    rank = draw(st.permutations(range(n)))
    leq = [[i == j or (kind == "free" or rank[i] < rank[j]) and draw(st.booleans())
            for j in range(n)] for i in range(n)]
    if kind.startswith("order"):
        for k in range(n):
            for i in range(n):
                if leq[i][k]:
                    leq[i] = [x or y for x, y in zip(leq[i], leq[k])]
    if kind == "order less one":
        above = [(i, j) for i in range(n) for j in range(n) if i != j and leq[i][j]]
        if above:
            i, j = draw(st.sampled_from(above))
            leq[i][j] = False
    dropped = draw(st.integers(min_value=0, max_value=3 * n))
    if dropped < n:
        leq[dropped][dropped] = False
    return leq


def assert_names_the_scans_witness(leq):
    expected = poset_failure_by_scan(leq)
    if expected is None:
        FinitePoset(leq)
        return None
    with pytest.raises(StructureError) as caught:
        FinitePoset(leq)
    assert str(caught.value) == expected
    return expected


@given(relations())
@settings(max_examples=300, deadline=None)
def test_poset_checks_name_the_scans_first_witness(leq):
    assert_names_the_scans_witness(leq)


@pytest.mark.parametrize("n", WORD_SIZES)
def test_poset_witnesses_at_word_boundaries(n):
    rng = np.random.default_rng(n)
    seen = set()
    for _ in range(4):
        leq = random_relation(rng, n)
        below = np.argwhere(np.triu(leq | leq.T, 1) & ~np.eye(n, dtype=bool))
        i, j = below[rng.integers(len(below))]
        cycle = leq.copy()
        cycle[j, i] = cycle[i, j] = True          # a two-cycle
        pairs = np.argwhere(leq & ~np.eye(n, dtype=bool))
        gap = leq.copy()
        gap[tuple(pairs[rng.integers(len(pairs))])] = False
        for rel in (cycle, gap):
            found = assert_names_the_scans_witness(rel.tolist())
            seen.add(found.split(" fails")[0] if found else None)
    assert {"antisymmetry", "transitivity"} <= seen


@pytest.mark.parametrize("n", WORD_SIZES)
def test_from_pairs_closes_covers_at_word_boundaries(n):
    rng = np.random.default_rng(n)
    labels = [f"x{i}" for i in range(n)]
    perm = rng.permutation(n).tolist()
    chain_covers = [(perm[i], perm[i + 1]) for i in range(n - 1)]
    rng.shuffle(chain_covers)
    chain = FinitePoset.from_pairs(labels, chain_covers).relation()
    rank = np.argsort(perm)
    assert np.array_equal(chain, rank[:, None] <= rank[None, :])
    leq = random_relation(rng, n)
    pairs = [tuple(p) for p in np.argwhere(leq).tolist()]
    by_index = FinitePoset.from_pairs(labels, pairs).relation()
    by_label = FinitePoset.from_pairs(labels, [(labels[a], labels[b]) for a, b in pairs])
    assert np.array_equal(by_index, leq) and np.array_equal(by_label.relation(), leq)


def test_tables_and_classification_hold_no_cube():
    # one n^3 boolean cube of 2^7 takes 2 MB; the lookup holds n^2 words
    lat = catalog.boolean_lattice(7)
    tracemalloc.start()
    try:
        lattice_tables(lat.poset)
        classify(lat.poset)
        classify(lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


# ---------------------------------------------------------------------------
# row chunks: the pairwise kernels hold a bounded number of words at once


def chunks(n):
    """The row slices the pairwise kernels take on an order of n elements."""
    seen = []
    posets._by_chunks(lambda rows: seen.append(rows) or np.zeros((1, 1)), n, n * -(-n // 64))
    return seen


def test_orders_of_up_to_128_elements_take_one_chunk():
    for n in range(1, 129):
        (rows,) = chunks(n)
        assert rows.start == 0 and rows.stop >= n
    assert len(chunks(129)) == 2 and len(chunks(600)) == 120


@pytest.mark.parametrize("n", [1, 2, 65, 129, 200])
def test_tables_and_closures_are_the_same_in_any_chunks(n, monkeypatch):
    rng = np.random.default_rng(n)
    relations = [random_relation(rng, n)]
    relations += [bounded(random_relation(rng, n - 2))] if n > 2 else []
    labels = [f"x{i}" for i in range(n)]
    for leq in relations:
        pairs = [tuple(p) for p in np.argwhere(leq).tolist()]
        gap = leq.copy()
        if len(pairs) > n:
            gap[tuple(np.argwhere(leq & ~np.eye(n, dtype=bool))[0])] = False
        found = []
        for budget in (1 << 40, posets._CHUNK_WORDS, 3 * n, 1):
            monkeypatch.setattr(posets, "_CHUNK_WORDS", budget)
            meets, joins = lattice_tables(FinitePoset(leq))
            closed = FinitePoset.from_pairs(labels, pairs).relation()
            try:
                FinitePoset(gap)
                message = None
            except StructureError as exc:
                message = str(exc)
            found.append((meets.dtype, meets.tolist(), joins.tolist(), closed.tolist(), message))
        assert found[1:] == found[:-1]
        assert found[0][3] == leq.tolist()
    assert np.array_equal(meets, glb_table_by_rows(leq))


def test_a_600_element_chain_takes_bounded_memory():
    # at one chunk for all pairs the closure peaked at 28 MB and the
    # tables at 61 MB; the two n^2 index tables themselves take 5.8 MB
    n = 600
    labels = [f"c{i}" for i in range(n)]
    tracemalloc.start()
    try:
        chain = FinitePoset.from_pairs(labels, [(i, i + 1) for i in range(n - 1)])
        _, closure_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        meets, _ = lattice_tables(chain)
        _, tables_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(meets, np.minimum.outer(np.arange(n), np.arange(n)))
    assert closure_peak < 4 * 2**20, closure_peak
    assert tables_peak < 12 * 2**20, tables_peak


# ---------------------------------------------------------------------------
# distributivity: one down-set size per join-irreducible against the cube


def mo(k):
    """MO_k: a bottom, a top, and k complementary pairs of atoms, each an atom and a coatom."""
    n = 2 * k + 2
    rel = np.eye(n, dtype=bool)
    rel[0, :] = rel[:, n - 1] = True
    perp = [n - 1] + [1 + (i ^ 1) for i in range(2 * k)] + [0]
    return BoundedOrtholattice(FinitePoset(rel), 0, n - 1, perp)


def product_order(a, b):
    """(i, j) <= (k, l) iff i <= k in a and j <= l in b, as one relation."""
    n, m = len(a), len(b)
    return (a[:, None, :, None] & b[None, :, None, :]).reshape(n * m, n * m)


def n5():
    covers = [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]
    return FinitePoset.from_pairs("0abc1", covers)


def m3():
    return FinitePoset.from_pairs("0abc1", [("0", x) for x in "abc"] + [(x, "1") for x in "abc"])


def chain_relation(n):
    return catalog.chain(n).relation()


DISTRIBUTIVITY_CASES = {
    **{f"2^{k}": (catalog.boolean_lattice(k), True) for k in range(1, 7)},
    "MO2": (catalog.mo2(), False), "O6": (catalog.o6(), False),
    "MO_3": (mo(3), False), "MO_20": (mo(20), False), "MO_1": (mo(1), True),
    **{f"chain{n}": (catalog.chain(n), True) for n in (1, 2, 6, 65, 130)},
    "N5": (n5(), False), "M3": (m3(), False),
    "3x4": (FinitePoset(product_order(chain_relation(3), chain_relation(4))), True),
    "5x5": (FinitePoset(product_order(chain_relation(5), chain_relation(5))), True),
    "MO2x3": (FinitePoset(product_order(catalog.mo2().poset.relation(), chain_relation(3))), False),
    "N5x2": (FinitePoset(product_order(n5().relation(), chain_relation(2))), False),
}


@pytest.mark.parametrize("name", list(DISTRIBUTIVITY_CASES))
def test_distributivity_is_the_cubes(name):
    structure, distributive = DISTRIBUTIVITY_CASES[name]
    poset = structure.poset if isinstance(structure, BoundedOrtholattice) else structure
    _, joins = lattice_tables(poset)
    assert distributive_by_cube(poset.relation(), joins) is distributive
    assert classify(structure).is_distributive is distributive


def test_distributivity_is_the_cubes_on_random_lattices():
    rng = np.random.default_rng(2026)
    seen = set()
    for n in range(1, 41):
        for _ in range(4):
            poset = FinitePoset(random_relation(rng, n))
            meets, joins = lattice_tables(poset)
            if (meets < 0).any() or (joins < 0).any():
                continue
            want = distributive_by_cube(poset.relation(), joins)
            assert classify(poset).is_distributive == want, n
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("structure,bound", [(catalog.chain(300), 4), (mo(150), 3)],
                         ids=["chain300", "MO_150"])
def test_classifying_takes_no_cube(structure, bound):
    # one (irreducibles, n, n) boolean cube took 82 MB on either
    tracemalloc.start()
    try:
        classify(structure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * 2**20, peak


def test_first_pair_is_argwheres_first_hit():
    rng = np.random.default_rng(52)
    for shape in ((1, 1), (3, 7), (40, 40), (0, 4), (5, 0)):
        for density in (0.0, 0.01, 0.3):
            mask = rng.random(shape) < density
            for view in (mask, mask.T, mask[::-1, ::2]):
                hits = np.argwhere(view)
                want = (int(hits[0, 0]), int(hits[0, 1])) if hits.size else None
                got = posets.first_pair(view)
                assert got == want and (got is None or all(type(i) is int for i in got))
