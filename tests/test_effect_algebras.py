"""Effect-algebra and MV-algebra checks against the brute-force oracle.

The library's verdicts are never trusted on their own word here: valid
models are re-validated by the oracle in helpers.py, every rejection
witness is replayed against the raw table, and the mutation corpus is
screened by the oracle first so that tables which happen to mutate into
a different valid algebra are not miscounted as failures.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cancelation_failure,
    ea_axiom_failures,
    ea_first_violation,
    invalid_mutations,
    is_valid_ea,
    mv_first_violation,
    normalized_table_by_entries,
    replay_witness,
    single_entry_mutations,
)
from synaptica import catalog
from synaptica.posets import StructureError
from synaptica.effect_algebras import (
    _normalize_table,
    EffectAlgebraError,
    FiniteEffectAlgebra,
    check_ea_axioms,
    check_morphism,
    check_mv_axioms,
    ea_to_mv,
    induced_order,
    is_mv_effect_algebra,
    is_sub_effect_algebra,
    mv_to_ea,
    oml_to_ea,
    orthosum_family,
)


CORPUS = [
    ("3-chain", catalog.chain_effect_algebra(2)),
    ("4-chain", catalog.chain_effect_algebra(3)),
    ("2^2", catalog.boolean_effect_algebra(2)),
    ("2^3", catalog.boolean_effect_algebra(3)),
    ("2^4", catalog.boolean_effect_algebra(4)),
    ("MO2-EA", catalog.mo2_effect_algebra()),
    ("diamond", catalog.diamond_pair()),
]


@pytest.mark.parametrize("name,ea", CORPUS)
def test_corpus_validates_and_oracle_agrees(name, ea):
    v = check_ea_axioms(ea.table, ea.zero, ea.one)
    assert v.ok, f"{name}: {v.violation}"
    assert is_valid_ea(ea.table, ea.zero, ea.one)


@pytest.mark.parametrize("name,ea", CORPUS[:5])
def test_mutations_fail_with_replayable_witnesses(name, ea):
    for i, j, new, mutated in invalid_mutations(ea.table, ea.zero, ea.one, 20):
        v = check_ea_axioms(mutated, ea.zero, ea.one)
        assert not v.ok, f"{name}: mutation ({i},{j})->{new} slipped through"
        assert replay_witness(
            mutated, ea.zero, ea.one, v.violation.axiom, v.violation.witness
        ), f"{name}: witness {v.violation} does not replay on the mutated table"


def test_some_mutations_are_valid_algebras():
    # completing the 2x2 Boolean table at (a, a) gives the 4-chain;
    # the oracle screen exists precisely for such cases
    ea = catalog.boolean_effect_algebra(2)
    a = 1
    ap = ea.perp[a]
    rows = [list(r) for r in ea.table]
    assert rows[a][a] is None
    rows[a][a] = ap
    assert is_valid_ea(rows, ea.zero, ea.one)
    assert check_ea_axioms(rows, ea.zero, ea.one).ok


def test_axiom_scan_order_and_witnesses():
    base = catalog.boolean_effect_algebra(2)

    rows = [list(r) for r in base.table]
    rows[1][2] = 1  # breaks osum(1,2) == osum(2,1)
    v = check_ea_axioms(rows, 0, 3)
    assert v.violation.axiom == "commutativity"
    assert replay_witness(rows, 0, 3, v.violation.axiom, v.violation.witness)

    rows = [list(r) for r in base.table]
    rows[1][2] = rows[2][1] = 2  # commutative, breaks associativity downstream
    v = check_ea_axioms(rows, 0, 3)
    assert v.violation.axiom == "associativity"
    assert replay_witness(rows, 0, 3, v.violation.axiom, v.violation.witness)

    # drop the top row/column sums: element 1 loses its orthosupplement
    rows = [list(r) for r in base.table]
    rows[1][2] = rows[2][1] = None
    v = check_ea_axioms(rows, 0, 3)
    assert not v.ok
    assert replay_witness(rows, 0, 3, v.violation.axiom, v.violation.witness)


def test_constructor_raises_on_bad_table():
    rows = [list(r) for r in catalog.boolean_effect_algebra(2).table]
    rows[1][2] = 1
    with pytest.raises(EffectAlgebraError):
        FiniteEffectAlgebra(rows, 0, 3)


def test_induced_order_duality_and_orthogonality():
    for name, ea in CORPUS:
        order = induced_order(ea)
        n = ea.n
        for e in range(n):
            assert order.leq(ea.zero, e) and order.leq(e, ea.one)
            for f in range(n):
                if order.leq(e, f):
                    assert order.leq(ea.perp[f], ea.perp[e])
                assert ea.orthogonal(e, f) == order.leq(e, ea.perp[f])


def test_oml_to_ea_round_trip_on_boolean_and_mo2():
    for lat in (catalog.boolean_lattice(2), catalog.boolean_lattice(3), catalog.mo2()):
        ea = oml_to_ea(lat)
        order = induced_order(ea)
        for a in range(lat.n):
            for b in range(lat.n):
                assert order.leq(a, b) == lat.leq(a, b)


def test_oml_to_ea_rejects_non_orthomodular():
    with pytest.raises(ValueError):
        oml_to_ea(catalog.o6())


def test_orthosum_family():
    ea = catalog.boolean_effect_algebra(3)
    atoms = [1, 2, 4]
    assert orthosum_family(ea, atoms) == ea.one
    assert orthosum_family(ea, []) == ea.zero
    assert orthosum_family(ea, [1, 1]) is None  # 1 is an atom, not orthogonal to itself


def test_sub_effect_algebra():
    ea = catalog.boolean_effect_algebra(2)
    assert is_sub_effect_algebra(ea, [0, 3])
    assert is_sub_effect_algebra(ea, [0, 1, 2, 3])
    assert not is_sub_effect_algebra(ea, [0, 1, 3])  # misses perp closure partner sums


def test_morphism_identity_and_projection():
    ea = catalog.boolean_effect_algebra(2)
    r = check_morphism(ea, ea, list(range(ea.n)))
    assert r.is_morphism and r.is_isomorphism

    chain = catalog.chain_effect_algebra(2)
    prod = catalog.product_effect_algebra(ea, chain)
    # pair (i, j) sits at index i * chain.n + j; first-factor projection
    phi = [k // chain.n for k in range(prod.n)]
    r = check_morphism(prod, ea, phi)
    assert r.is_morphism and not r.is_isomorphism


def test_morphism_rejects_unit_violation():
    ea = catalog.boolean_effect_algebra(2)
    phi = [0] * ea.n
    r = check_morphism(ea, ea, phi)
    assert not r.is_morphism


# --- MV layer -------------------------------------------------------------


def test_chain_ea_to_mv_and_back():
    for steps in (1, 2, 3, 4):
        ea = catalog.chain_effect_algebra(steps)
        mv = ea_to_mv(ea)
        assert check_mv_axioms(mv.plus_table, mv.perp, mv.zero, mv.one).ok
        back = mv_to_ea(mv)
        assert back.table == ea.table
        assert (back.zero, back.one) == (ea.zero, ea.one)


def test_boolean_ea_to_mv_is_idempotent():
    ea = catalog.boolean_effect_algebra(3)
    mv = ea_to_mv(ea)
    assert mv.is_boolean()
    assert mv_to_ea(mv).table == ea.table


def test_lukasiewicz_chain_is_not_boolean():
    mv = ea_to_mv(catalog.chain_effect_algebra(2))
    assert not mv.is_boolean()


def test_mv_join_against_order():
    mv = ea_to_mv(catalog.chain_effect_algebra(3))
    order = mv.order()
    for x in range(mv.n):
        for y in range(mv.n):
            j = mv.mv_join(x, y)
            assert order.leq(x, j) and order.leq(y, j)
            assert j in (x, y)  # a chain: join is the larger element


def test_mo2_and_diamond_are_not_mv():
    # both are lattice-ordered, but disjointness does not force orthogonality
    assert not is_mv_effect_algebra(catalog.mo2_effect_algebra())
    assert not is_mv_effect_algebra(catalog.diamond_pair())
    assert is_mv_effect_algebra(catalog.chain_effect_algebra(3))
    assert is_mv_effect_algebra(catalog.boolean_effect_algebra(2))


def test_ea_to_mv_rejects_non_mv_input():
    with pytest.raises(ValueError):
        ea_to_mv(catalog.mo2_effect_algebra())


def test_mv_axiom_failure_witnesses():
    mv = ea_to_mv(catalog.chain_effect_algebra(2))
    plus = [list(r) for r in mv.plus_table]
    plus[1][1] = 1  # truncated addition says h+h = 1
    v = check_mv_axioms(plus, mv.perp, mv.zero, mv.one)
    assert not v.ok
    assert v.violation.witness


# --- randomized agreement with the oracle ---------------------------------


@st.composite
def mutated_tables(draw):
    base = draw(
        st.sampled_from(
            [
                catalog.chain_effect_algebra(2),
                catalog.boolean_effect_algebra(2),
                catalog.chain_effect_algebra(3),
            ]
        )
    )
    muts = list(single_entry_mutations(base.table))
    k = draw(st.integers(min_value=0, max_value=2))
    rows = [list(r) for r in base.table]
    for _ in range(k):
        i, j, new, _ = draw(st.sampled_from(muts))
        rows[i][j] = new
    return tuple(tuple(r) for r in rows), base.zero, base.one


@given(mutated_tables())
@settings(max_examples=150, deadline=None)
def test_library_verdict_matches_oracle(case):
    table, zero, one = case
    v = check_ea_axioms(table, zero, one)
    assert v.ok == is_valid_ea(table, zero, one)
    if not v.ok:
        assert replay_witness(table, zero, one, v.violation.axiom, v.violation.witness)


# --- the row-at-a-time scans against the per-triple loops ------------------


_MO2 = catalog.mo2_effect_algebra()
SCAN_BASES = [
    catalog.chain_effect_algebra(0),  # n = 1
    catalog.boolean_effect_algebra(1),  # n = 2
    catalog.boolean_effect_algebra(2),
    catalog.boolean_effect_algebra(3),
    _MO2,
    catalog.chain_effect_algebra(4),
    catalog.product_effect_algebra(_MO2, _MO2),  # n = 36
]
MV_SCAN_BASES = [
    ea_to_mv(catalog.chain_effect_algebra(0)),
    ea_to_mv(catalog.boolean_effect_algebra(1)),
    ea_to_mv(catalog.boolean_effect_algebra(2)),
    ea_to_mv(catalog.boolean_effect_algebra(3)),
    ea_to_mv(catalog.chain_effect_algebra(4)),
    ea_to_mv(
        catalog.product_effect_algebra(
            catalog.boolean_effect_algebra(2), catalog.chain_effect_algebra(2)
        )
    ),
]


def _mutate(draw, rows, values):
    """Up to three entries of rows replaced, each mirrored half of the time."""
    n = len(rows)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.sampled_from(values))
        if draw(st.booleans()):
            rows[j][i] = rows[i][j]
    return rows


def _unit(draw, base_value, n):
    """The base's zero or one, and now and then any element instead."""
    return draw(st.sampled_from([base_value] * 4 + list(range(n))))


@st.composite
def mutated_scan_tables(draw):
    base = draw(st.sampled_from(SCAN_BASES))
    n = base.n
    rows = _mutate(draw, [list(r) for r in base.table], [None] + list(range(n)))
    return rows, _unit(draw, base.zero, n), _unit(draw, base.one, n)


@given(mutated_scan_tables())
@settings(max_examples=300, deadline=None)
def test_ea_scan_names_the_loops_first_violation(case):
    table, zero, one = case
    v = check_ea_axioms(table, zero, one)
    expected = ea_first_violation(table, zero, one)
    if expected is None:
        assert v.ok
        assert v.structure.table == tuple(map(tuple, table))
        assert v.structure.perp == tuple(r.index(one) for r in table)
    else:
        violation = v.violation
        assert (violation.axiom, violation.witness, violation.detail) == expected


@st.composite
def symmetric_tables(draw):
    """A commutative table on 1-4 elements with any zero and one."""
    n = draw(st.integers(1, 4))
    cells = st.sampled_from([None] + list(range(n)))
    rows = [[None] * n for _ in range(n)]
    for e in range(n):
        for f in range(e, n):
            rows[e][f] = rows[f][e] = draw(cells)
    return rows, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


@given(st.one_of(mutated_scan_tables(), symmetric_tables()))
@settings(max_examples=300, deadline=None)
def test_accepted_tables_pass_the_oracles_cancelation_scan(case):
    # the library scans no cancelation: a + b = a + c makes b and c both
    # orthosupplements of a + (a + b)', so the other axioms force it
    table, zero, one = case
    if check_ea_axioms(table, zero, one).ok:
        assert cancelation_failure(table) is None


ENTRIES = [None, 0, 1, 2, 3, -1, 5, True, np.int64(2), np.int64(9), 1.0, 2.5, -0.5,
           float("nan"), "1", "7", "x", [1]]


@st.composite
def raw_tables(draw):
    """Tables of 0-4 rows, now and then one row too many or too short, over ENTRIES."""
    n = draw(st.integers(0, 3))
    widths = st.sampled_from([n] * 6 + [n - 1, n + 1])
    rows = [[draw(st.sampled_from(ENTRIES)) for _ in range(max(0, draw(widths)))]
            for _ in range(draw(st.sampled_from([n] * 6 + [n + 1])))]
    return rows, n


@given(raw_tables())
@settings(max_examples=400, deadline=None)
def test_normalize_table_matches_the_two_pass_reading(case):
    table, n = case
    expected = normalized_table_by_entries(table, n)
    try:
        got = _normalize_table(table, n)
    except (TypeError, ValueError) as exc:
        got = (type(exc).__name__, str(exc))
    assert got == expected
    if isinstance(got, tuple) and got and isinstance(got[0], tuple):
        assert all(type(v) is int for row in got for v in row if v is not None)


@st.composite
def mutated_mv_tables(draw):
    base = draw(st.sampled_from(MV_SCAN_BASES))
    n = base.n
    rows = _mutate(draw, [list(r) for r in base.plus_table], list(range(n)))
    perp = list(base.perp)
    if draw(st.booleans()):
        perp[draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return rows, perp, _unit(draw, base.zero, n), _unit(draw, base.one, n)


@given(mutated_mv_tables())
@settings(max_examples=300, deadline=None)
def test_mv_scan_names_the_loops_first_violation(case):
    plus, perp, zero, one = case
    v = check_mv_axioms(plus, perp, zero, one)
    expected = mv_first_violation(plus, perp, zero, one)
    if expected is None:
        assert v.ok and v.structure.plus_table == tuple(map(tuple, plus))
    else:
        violation = v.violation
        assert (violation.axiom, violation.witness, violation.detail) == expected


@pytest.mark.parametrize("perp", [[5, 0], [1, 2], [-1, 0], [1], [1, 0, 0]])
def test_mv_scan_rejects_a_perp_outside_the_elements(perp):
    with pytest.raises(StructureError, match="perp must map every element to an element"):
        check_mv_axioms([[0, 1], [1, 1]], perp, 0, 1)


@pytest.mark.parametrize("zero,one", [(2, 1), (0, 2), (-1, 1)])
def test_mv_scan_rejects_zero_or_one_outside_the_elements(zero, one):
    with pytest.raises(StructureError, match="zero/one must be element indices"):
        check_mv_axioms([[0, 1], [1, 1]], [1, 0], zero, one)

