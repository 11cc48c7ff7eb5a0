import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import classification_by_scan, lattice_tables_by_scan, ortholattice_failure_by_scan
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
    for name in ("meet", "join", "_greatest", "_least"):
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
    ],
)
def test_from_pairs_names_a_pair_it_cannot_read(pair, message):
    with pytest.raises(StructureError) as info:
        FinitePoset.from_pairs(["a", "b"], [pair])
    assert str(info.value) == message


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
