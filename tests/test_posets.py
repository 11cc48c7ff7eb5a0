import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synaptica import catalog, posets
from synaptica.posets import (
    BoundedOrtholattice,
    FinitePoset,
    StructureError,
    classify,
    is_oml,
    join,
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
    flags = dataclasses.asdict(classify(lat))
    assert plain.pop("is_oml") is None and flags.pop("is_oml") is not None
    assert flags == plain


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
