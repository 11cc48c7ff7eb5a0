"""Effect-algebra and MV-algebra checks against the brute-force oracle.

The library's verdicts are never trusted on their own word here: valid
models are re-validated by the oracle in helpers.py, every rejection
witness is replayed against the raw table, and the mutation corpus is
screened by the oracle first so that tables which happen to mutate into
a different valid algebra are not miscounted as failures.
"""

import re
import tracemalloc
from collections import Counter
from itertools import chain
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conversion_loops as loops
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
from synaptica import effect_algebras as ea_module
from synaptica.posets import StructureError
from synaptica.effect_algebras import (
    _read_table,
    EffectAlgebraError,
    FiniteEffectAlgebra,
    FiniteMVAlgebra,
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


@pytest.mark.parametrize("name,ea", CORPUS[:5])
def test_constructor_raises_the_violation_check_reports(name, ea):
    for i, j, new, mutated in invalid_mutations(ea.table, ea.zero, ea.one, 20):
        with pytest.raises(EffectAlgebraError) as raised:
            FiniteEffectAlgebra(mutated, ea.zero, ea.one)
        v = raised.value.violation
        assert v == check_ea_axioms(mutated, ea.zero, ea.one).violation, (name, i, j, new)
        assert str(raised.value) == str(v)
        assert replay_witness(mutated, ea.zero, ea.one, v.axiom, v.witness)


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


B1 = catalog.boolean_effect_algebra(1)   # 0 and 1, with 0 + 1 = 1

# each index the library reads, given a value int() would truncate, wrap
# round or find out of range, and the value the error names
INDEX_PROBES = {
    "table entry": (lambda: FiniteEffectAlgebra([[0, 1.7], [1.2, None]], 0, 1), 1.7),
    "zero": (lambda: FiniteEffectAlgebra(B1.table, 0.4, 1), 0.4),
    "one": (lambda: FiniteEffectAlgebra(B1.table, 0, 1.9), 1.9),
    "MV perp": (lambda: check_mv_axioms([[0, 1], [1, 1]], [1.9, 0.2], 0, 1), 1.9),
    "phi": (lambda: check_morphism(B1, B1, [0, 1.9]), 1.9),
    "negative subset member": (lambda: is_sub_effect_algebra(B1, [0, 1, -1]), -1),
    "subset member past the end": (lambda: is_sub_effect_algebra(B1, [0, 1, 5]), 5),
    "family member": (lambda: orthosum_family(B1, [-2]), -2),
    "string family member": (lambda: orthosum_family(B1, ["1"]), "1"),
}


@pytest.mark.parametrize("probe", list(INDEX_PROBES))
def test_an_index_that_is_no_element_is_refused(probe):
    call, value = INDEX_PROBES[probe]
    with pytest.raises(StructureError, match=re.escape(repr(value))):
        call()


def test_integral_values_of_other_types_are_indices():
    ea = FiniteEffectAlgebra([[0, 1.0], [True, None]], 0.0, np.int64(1))
    assert ea.table == B1.table and (ea.zero, ea.one) == (0, 1)
    assert {type(v) for v in (ea.zero, ea.one, *ea.table[0], ea.table[1][0])} == {int}
    assert check_morphism(B1, B1, [0.0, np.int16(1)]).is_isomorphism
    assert orthosum_family(B1, [1.0]) == 1 and is_sub_effect_algebra(B1, [0.0, True])


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
    return lambda: rows, n


# entries a table of int indices may be spoiled by: each is read through
# int() and a range check, one entry at a time
SPOILERS = [True, False, np.int64(1), 1.0, 2.5, -1, 4, 9, "1", "x", [1], float("nan")]


@st.composite
def index_tables(draw):
    """Tables of int indices and None, the input taken as it is, as list or
    tuple rows; now and then one entry spoiled, one row too short, of
    another type or an iterator, or one row too many.
    """
    n = draw(st.integers(0, 4))
    rows = [[draw(st.sampled_from([None, *range(n)])) for _ in range(n)] for _ in range(n)]
    change = draw(st.integers(0, 9))
    last = None
    if n and change < 5:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = \
            draw(st.sampled_from(SPOILERS))
    elif n and change == 5:
        last = draw(st.sampled_from([lambda r: r[:-1], lambda r: np.array(r, dtype=object),
                                     iter, lambda r: "0" * len(r)]))
    elif change == 6:
        rows.append([0] * n)
    as_rows = tuple if draw(st.booleans()) else list

    def make():
        table = [as_rows(r) for r in rows]
        if last is not None:
            table[-1] = last(rows[-1])
        return table

    return make, n


def outcome(read, table, n):
    """read(table, n) as an index array's rows, or the (error name, message) it raises."""
    try:
        return read(table, n).tolist()
    except (TypeError, ValueError, OverflowError) as exc:
        return (type(exc).__name__, str(exc))


def extended_rows(rows, n):
    """Row tuples of indices and None as the rows of their (n + 1) x (n + 1) index array."""
    return [[n if v is None else v for v in row] + [n] for row in rows] + [[n] * (n + 1)]


def truncated_or_unread(v):
    """An entry the two-pass reading read through int() but int(v) == v refuses."""
    try:
        return v is not None and int(v) != v
    except (TypeError, ValueError, OverflowError):
        return True


@given(raw_tables() | index_tables())
@settings(max_examples=800, deadline=None)
def test_normalize_table_matches_the_two_pass_reading(case):
    # a table is made afresh for each reading, so that an iterator row
    # can be read each time
    make, n = case
    got = outcome(_read_table, make(), n)
    expected = normalized_table_by_entries(make(), n)
    if all(isinstance(row, tuple) for row in expected):  # accepted: rows, not an error
        assert got == extended_rows(expected, n)
        assert _read_table(make(), n).dtype == np.int16
    else:
        assert got == expected
    # the reading this one replaced: the same array or error, except
    # where int(v) == v refuses an entry it read through int()
    parent = outcome(lambda t, n: loops.extended(loops.normalize_table(t, n)), make(), n)
    if any(map(truncated_or_unread, chain.from_iterable(map(list, make())))):
        assert got[0] == "StructureError"
    else:
        assert got == parent


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


@pytest.mark.parametrize("mv", MV_SCAN_BASES)
def test_mv_constructor_raises_the_violation_check_reports(mv):
    # the first 20 single-entry mutations of the addition the loop oracle rejects
    found = 0
    for i, j, new, plus in single_entry_mutations(mv.plus_table):
        expected = None if new is None else mv_first_violation(plus, mv.perp, mv.zero, mv.one)
        if expected is None:
            continue
        with pytest.raises(EffectAlgebraError) as raised:
            FiniteMVAlgebra(plus, mv.perp, mv.zero, mv.one)
        v = raised.value.violation
        assert v == check_mv_axioms(plus, mv.perp, mv.zero, mv.one).violation, (i, j, new)
        assert str(raised.value) == str(v)
        assert (v.axiom, v.witness, v.detail) == expected
        found += 1
        if found == 20:
            break
    assert found or mv.n == 1  # one element leaves nothing to mutate into


@pytest.mark.parametrize("perp", [[5, 0], [1, 2], [-1, 0], [1], [1, 0, 0]])
def test_mv_scan_rejects_a_perp_outside_the_elements(perp):
    with pytest.raises(StructureError, match="perp must map every element to an element"):
        check_mv_axioms([[0, 1], [1, 1]], perp, 0, 1)


@pytest.mark.parametrize("zero,one", [(2, 1), (0, 2), (-1, 1)])
def test_mv_scan_rejects_zero_or_one_outside_the_elements(zero, one):
    with pytest.raises(StructureError, match="zero/one must be element indices"):
        check_mv_axioms([[0, 1], [1, 1]], [1, 0], zero, one)



def mv_mutations(mv):
    """(plus, perp) for each one-entry change of the addition, each change
    mirrored across the diagonal, and each one-entry change of perp."""
    n, perp = mv.n, list(mv.perp)
    for i, j, new, plus in single_entry_mutations(mv.plus_table):
        if new is None:
            continue
        yield plus, perp
        if i < j:
            mirrored = [list(r) for r in plus]
            mirrored[j][i] = new
            yield mirrored, perp
    for x in range(n):
        for new in range(n):
            if new != perp[x]:
                yield [list(r) for r in mv.plus_table], perp[:x] + [new] + perp[x + 1:]


@pytest.mark.parametrize("mv", MV_SCAN_BASES, ids=lambda mv: f"n{mv.n}")
def test_every_one_entry_mutation_fails_as_the_loops_do(mv):
    # the pair axioms compare whole tables, and name the loops' witness
    for plus, perp in mv_mutations(mv):
        assert mv_scan(plus, perp, mv.zero, mv.one) == mv_first_violation(plus, perp, mv.zero, mv.one)


def mv_scan(plus, perp, zero, one):
    """check_mv_axioms' violation as (axiom, witness, detail), or None."""
    v = check_mv_axioms(plus, perp, zero, one).violation
    return v and (v.axiom, v.witness, v.detail)


PAIR_AXIOMS = ("mv-commutativity", "mv-lukasiewicz")


def relabelled(plus, perp, zero, one, order):
    """The same operands with element x renamed order[x]."""
    back = np.argsort(order)
    n = len(plus)
    return ([[order[plus[back[a]][back[b]]] for b in range(n)] for a in range(n)],
            [order[perp[back[a]]] for a in range(n)], order[zero], order[one])


def test_relabelled_pair_failures_name_the_loops_witness():
    # the one-entry mutants that reach a pair axiom, a left-zero band
    # (x + y = x: associative, not commutative) and its product with a
    # Lukasiewicz chain, each renamed at random so that the first failing
    # pair moves about the table
    cases = [(plus, perp, mv.zero, mv.one) for mv in MV_SCAN_BASES
             for plus, perp in mv_mutations(mv)
             if (mv_first_violation(plus, perp, mv.zero, mv.one) or ("",))[0] in PAIR_AXIOMS]
    cases.append(([[x] * 5 for x in range(5)], [4, 3, 2, 1, 0], 0, 4))
    chain = ea_to_mv(catalog.chain_effect_algebra(2)).plus_table   # 0, 1/2, 1
    cases.append(([[2 * chain[a // 2][c // 2] + a % 2 for c in range(6)] for a in range(6)],
                  [5, 4, 3, 2, 1, 0], 0, 5))
    rng = np.random.default_rng(53)
    witnesses = Counter()
    for case in cases:
        for _ in range(20):
            renamed = relabelled(*case, rng.permutation(len(case[0])).tolist())
            expected = mv_first_violation(*renamed)
            assert mv_scan(*renamed) == expected
            witnesses[expected[0]] += expected[0] in PAIR_AXIOMS
    assert min(witnesses[axiom] for axiom in PAIR_AXIOMS) >= 20, witnesses


# --- the chunked associativity kernel ---------------------------------------


def use_chunks_of(monkeypatch, rows):
    """Let every associativity scan gather `rows` rows d per chunk."""
    scan = ea_module._first_nonassociative

    def in_chunks(ext):
        n = len(ext) - 1
        with patch.object(ea_module, "_CHUNK_ENTRIES", rows * n * n):
            return scan(ext)

    monkeypatch.setattr(ea_module, "_first_nonassociative", in_chunks)


def test_extended_table_reads_undefined_sums_as_the_sentinel():
    ext = _read_table(((0, 1, 2), (1, None, None), (2, None, None)), 3)
    assert ext.dtype == np.int16
    assert ext.tolist() == [[0, 1, 2, 3], [1, 3, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]]


@pytest.mark.parametrize("rows, sizes", [(None, [16]), (1, [1] * 16), (2, [2] * 8),
                                         (3, [3] * 5 + [1])])
def test_the_chunk_cap_sets_the_rows_a_chunk_gathers(monkeypatch, rows, sizes):
    # a valid 2^4 table runs every chunk, and each chunk makes one comparison
    ea = catalog.boolean_effect_algebra(4)
    if rows is not None:
        use_chunks_of(monkeypatch, rows)
    compared = []
    compare = ea_module._first_mismatch
    monkeypatch.setattr(ea_module, "_first_mismatch",
                        lambda a, b: compared.append(a.shape) or compare(a, b))
    assert check_ea_axioms(ea.table, ea.zero, ea.one).ok
    assert compared == [(17, 17)] + [(size, 16, 16) for size in sizes]


@pytest.mark.parametrize("rows", [1, 2])
def test_ea_scan_in_small_chunks_names_the_loops_first_violation(monkeypatch, rows):
    use_chunks_of(monkeypatch, rows)
    test_ea_scan_names_the_loops_first_violation()
    test_library_verdict_matches_oracle()
    for name, ea in CORPUS[:5]:
        test_mutations_fail_with_replayable_witnesses(name, ea)
        test_constructor_raises_the_violation_check_reports(name, ea)


@pytest.mark.parametrize("rows", [1, 2])
def test_mv_scan_in_small_chunks_names_the_loops_first_violation(monkeypatch, rows):
    use_chunks_of(monkeypatch, rows)
    test_mv_scan_names_the_loops_first_violation()
    for mv in MV_SCAN_BASES:
        test_mv_constructor_raises_the_violation_check_reports(mv)
        test_every_one_entry_mutation_fails_as_the_loops_do(mv)


def mirrored_mutations(table, values, count, seed):
    """count tables, each with one random cell set to a random value, and
    mirrored across the diagonal three times in four, so that most of
    them pass commutativity and reach associativity."""
    rng = np.random.default_rng(seed)
    n = len(table)
    for _ in range(count):
        i, j = (int(x) for x in rng.integers(n, size=2))
        rows = [list(r) for r in table]
        rows[i][j] = values[int(rng.integers(len(values)))]
        if rng.random() < 0.75:
            rows[j][i] = rows[i][j]
        yield rows


LARGE_EAS = {"MO2xMO2": SCAN_BASES[-1], "2^6": catalog.boolean_effect_algebra(6)}


@pytest.mark.parametrize("rows", [None, 1, 2])
@pytest.mark.parametrize("name", list(LARGE_EAS))
def test_sampled_mutations_of_large_tables_fail_as_the_loops_do(monkeypatch, name, rows):
    if rows is not None:
        use_chunks_of(monkeypatch, rows)
    ea = LARGE_EAS[name]
    axioms = Counter()
    for table in mirrored_mutations(ea.table, [None, *range(ea.n)], 40, seed=ea.n):
        v = check_ea_axioms(table, ea.zero, ea.one).violation
        expected = ea_first_violation(table, ea.zero, ea.one)
        assert (v and (v.axiom, v.witness, v.detail)) == expected
        axioms[expected and expected[0]] += 1
    assert axioms["associativity"] >= 10, axioms


@pytest.mark.parametrize("rows", [None, 1, 2])
def test_sampled_mutations_of_the_2_6_mv_algebra_fail_as_the_loops_do(monkeypatch, rows):
    if rows is not None:
        use_chunks_of(monkeypatch, rows)
    mv = ea_to_mv(LARGE_EAS["2^6"])
    axioms = Counter()
    for plus in mirrored_mutations(mv.plus_table, range(mv.n), 30, seed=mv.n):
        expected = mv_first_violation(plus, mv.perp, mv.zero, mv.one)
        assert mv_scan(plus, mv.perp, mv.zero, mv.one) == expected
        axioms[expected and expected[0]] += 1
    assert axioms["mv-associativity"] >= 10, axioms


def lukasiewicz_chain(n):
    """The addition min(x + y, n - 1) and perp n - 1 - x of the n-element chain."""
    return [[min(x + y, n - 1) for y in range(n)] for x in range(n)], [n - 1 - x for x in range(n)]


@pytest.mark.parametrize("kind", ["effect algebra", "MV-algebra"])
def test_scanning_a_201_element_chain_holds_a_few_chunks(kind):
    # the whole gather would hold two 201^3 arrays; the chunks hold at
    # most 2^18 entries each
    if kind == "effect algebra":
        ea = catalog.chain_effect_algebra(200)
        check, args = check_ea_axioms, ([list(r) for r in ea.table], ea.zero, ea.one)
    else:
        check, args = check_mv_axioms, (*lukasiewicz_chain(201), 0, 200)
    tracemalloc.start()
    try:
        assert check(*args).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def mo_effect_table(m):
    """The orthosummation of MO_m: 0 + x = x, and each of m complementary
    pairs of atoms sums to one; 2m + 2 elements, one the last."""
    n = 2 * m + 2
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        table[0][x] = table[x][0] = x
    for a in range(1, n - 1, 2):
        table[a][a + 1] = table[a + 1][a] = n - 1
    return table


def test_a_502_element_effect_algebra_keeps_one_int16_table():
    # MO_250: the int16 index array is 0.5 MB; the row tuples the library
    # once kept beside it took 2.0 MB, with a peak of 5.3 MB (tracemalloc)
    table = mo_effect_table(250)
    tracemalloc.start()
    try:
        v = check_ea_axioms(table, 0, 501)
        del table
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.ok and v.structure.n == 502
    assert kept < 2**20, kept
    assert peak < 4 * 2**20, peak
