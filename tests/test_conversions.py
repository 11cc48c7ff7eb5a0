"""The whole-table conversions against their former pair-by-pair bodies.

induced_order, FiniteMVAlgebra.order, oml_to_ea, ea_to_mv, mv_to_ea,
is_mv_effect_algebra, check_morphism and stone_space are each run beside the loops in
conversion_loops.py, on the catalog structures and their products up to
128 elements and on forged ones: effect algebras with a perp, a zero or
a one that is not theirs or with sums dropped or changed (the tables
kept commutative, as every constructed one is), MV-algebras on arbitrary
total tables, and ortholattices whose meet, join, perp, zero or one lies.
Each case gives the same relation or table, or the same exception type
and message, so the same element, pair or point. A forged effect or MV
algebra stores the index array the loops' two-pass reading makes of its
table, and a forged ortholattice lies in its meets or joins array and in
the meet or join that reads it alike. The tuple views, orthosums and
orthosupplements of every structure built here are those the two-pass
reading gives, and an ortholattice's meet and join tables are those of
one scalar meet or join call per pair.
"""

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conversion_loops as loops
from synaptica import catalog
from synaptica.effect_algebras import (
    EffectAlgebraError,
    check_morphism,
    FiniteEffectAlgebra,
    FiniteMVAlgebra,
    ea_to_mv,
    induced_order,
    is_mv_effect_algebra,
    mv_to_ea,
    oml_to_ea,
)
from synaptica import posets
from synaptica.posets import FinitePoset, StructureError, classify, is_oml, lattice_tables
from synaptica.stone import StoneSpace, stone_space

EA_BASES = {
    **{f"chain{k}": functools.partial(catalog.chain_effect_algebra, k) for k in (1, 2, 3, 5, 7)},
    **{f"2^{k}": functools.partial(catalog.boolean_effect_algebra, k) for k in (1, 2, 3, 4)},
    "mo2": catalog.mo2_effect_algebra,
    "diamond": catalog.diamond_pair,
}
SMALL_EAS = list(EA_BASES) + [
    "chain3*2^2", "2^2*mo2", "chain2*diamond", "chain5*chain3", "2^3*chain3",
]
LARGE_EAS = ["2^4*mo2", "chain7*chain7", "2^4*chain7", "2^3*2^4", "chain127"]


@functools.lru_cache(maxsize=None)
def catalog_ea(name: str) -> FiniteEffectAlgebra:
    """The catalog effect algebra named, a product of two for 'a*b'; built once."""
    if name == "chain127":
        return catalog.chain_effect_algebra(127)
    if "*" in name:
        a, b = name.split("*")
        return catalog.product_effect_algebra(catalog_ea(a), catalog_ea(b))
    return EA_BASES[name]()


def forged_ea(table, zero, one, perp, labels) -> FiniteEffectAlgebra:
    """An effect algebra object on the given parts, never scanned; it
    stores the index array of the two-pass reading of table."""
    ea = object.__new__(FiniteEffectAlgebra)
    ea._table = loops.extended(loops.normalize_table(table, len(table)))
    ea.zero, ea.one, ea.perp, ea.labels = zero, one, tuple(perp), tuple(labels)
    ea._order = None
    return ea


def outcome(fn, *args):
    """("ok", what fn returns) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except (StructureError, EffectAlgebraError) as exc:
        return type(exc), str(exc)


def same(got, want, key):
    """Both outcomes failed alike, or both results agree under key."""
    if got[0] == "ok" and want[0] == "ok":
        assert key(got[1]) == key(want[1])
    else:
        assert got == want


def relation(poset):
    return poset.relation().tolist()


def table_of(ea):
    return ea.table, ea.zero, ea.one, ea.perp, ea.labels


def mv_parts(mv):
    return mv.plus_table, mv.perp, mv.zero, mv.one, mv.labels


# ---------------------------------------------------------------------------
# the former bodies, with the library's constructors where they validated


def induced_order_by_loops(ea):
    rel = loops.induced_relation(ea.table)
    poset = FinitePoset(rel, ea.labels)
    message = loops.induced_order_failure(rel, ea.table, ea.zero, ea.one, ea.perp)
    if message:
        raise EffectAlgebraError(message)
    return poset


def mv_order_by_loops(mv):
    return FinitePoset(loops.mv_relation(mv.plus_table, mv.perp), mv.labels)


def oml_to_ea_by_loops(latt):
    if not is_oml(latt):
        raise EffectAlgebraError("input is not an orthomodular lattice")
    leq = latt.poset.relation().tolist()
    table = loops.oml_table(leq, latt.join, latt.perp)
    ea = FiniteEffectAlgebra(table, latt.zero, latt.one, latt.labels)
    order = relation(induced_order_by_loops(ea))
    message = loops.oml_failure(order, leq, table, latt.meet, latt.zero)
    if message:
        raise EffectAlgebraError(message)
    return ea


def mv_meets_by_loops(ea):
    meets, joins = lattice_tables(induced_order_by_loops(ea))
    if (meets < 0).any() or (joins < 0).any():
        return None
    if not loops.disjoint_are_orthogonal(meets.tolist(), ea.table, ea.zero):
        return None
    return meets.tolist()


def ea_to_mv_by_loops(ea):
    meets = mv_meets_by_loops(ea)
    if meets is None:
        raise EffectAlgebraError("not an MV-effect algebra")
    order = relation(induced_order_by_loops(ea))
    plus = loops.mv_plus(ea.table, meets, ea.perp)
    if isinstance(plus, str):
        raise EffectAlgebraError(plus)
    mv = FiniteMVAlgebra(plus, ea.perp, ea.zero, ea.one, ea.labels)
    message = loops.order_disagreement(relation(mv_order_by_loops(mv)), order)
    if message:
        raise EffectAlgebraError(message)
    return mv


def mv_to_ea_by_loops(mv):
    return FiniteEffectAlgebra(loops.mv_restriction(mv.plus_table, mv.perp),
                               mv.zero, mv.one, mv.labels)


def stone_space_by_loops(lat):
    if not classify(lat).is_boolean:
        raise StructureError("Stone representation needs a Boolean lattice")
    leq = lat.poset.relation().tolist()
    atoms = loops.atoms(leq, lat.zero)
    char = [[1 if leq[a][b] else 0 for b in range(lat.n)] for a in atoms]
    message = loops.stone_failure(char, lat.zero, lat.one, lat.perp, lat.meet, lat.join)
    if message:
        raise StructureError(message)
    return StoneSpace(lattice=lat, atoms=tuple(atoms), char=tuple(map(tuple, char)))


def stone_key(st):
    return st.atoms, st.char


# ---------------------------------------------------------------------------
# catalog structures


def check_effect_algebra(ea):
    """Every conversion from ea, on a fresh copy each, against the loops."""
    fresh = functools.partial(copy.copy, ea)
    want = outcome(induced_order_by_loops, ea)
    same(outcome(induced_order, fresh()), want, relation)
    same(outcome(ea_to_mv, fresh()), outcome(ea_to_mv_by_loops, ea), mv_parts)
    same(outcome(is_mv_effect_algebra, fresh()),
         outcome(lambda e: mv_meets_by_loops(e) is not None, ea), bool)


def check_mv(mv):
    same(outcome(lambda m: copy.copy(m).order(), mv), outcome(mv_order_by_loops, mv), relation)
    same(outcome(mv_to_ea, mv), outcome(mv_to_ea_by_loops, mv), table_of)


@pytest.mark.parametrize("name", SMALL_EAS + LARGE_EAS)
def test_catalog_effect_algebras_convert_as_the_loops_do(name):
    ea = catalog_ea(name)
    check_effect_algebra(ea)
    if is_mv_effect_algebra(ea):
        check_mv(ea_to_mv(ea))


LATTICES = {f"2^{k}": functools.partial(catalog.boolean_lattice, k) for k in range(8)}
LATTICES.update(mo2=catalog.mo2, o6=catalog.o6)


@functools.lru_cache(maxsize=None)
def catalog_lattice(name):
    return LATTICES[name]()


@pytest.mark.parametrize("name", list(LATTICES))
def test_catalog_lattices_convert_as_the_loops_do(name):
    lat = catalog_lattice(name)
    for table, op in ((lat.meets, posets.meet), (lat.joins, posets.join)):
        assert np.array_equal(table, loops.pair_table(functools.partial(op, lat.poset), lat.n))
    same(outcome(oml_to_ea, lat), outcome(oml_to_ea_by_loops, lat), table_of)
    same(outcome(stone_space, lat), outcome(stone_space_by_loops, lat), stone_key)


def test_views_are_the_two_pass_readings(monkeypatch):
    # every effect and MV algebra the catalog, oml_to_ea, ea_to_mv and
    # mv_to_ea build here: its tuple views, orthosums and orthosupplements
    # against those the two-pass reading makes of the table it was given
    built = []

    def spy(cls):
        init = cls.__init__

        def recording(self, table, *args, **kwargs):
            raw = [list(row) for row in table]
            init(self, table, *args, **kwargs)
            built.append((self, raw))

        monkeypatch.setattr(cls, "__init__", recording)

    spy(FiniteEffectAlgebra)
    spy(FiniteMVAlgebra)
    for name in SMALL_EAS + LARGE_EAS:
        ea = catalog_ea.__wrapped__(name)
        if is_mv_effect_algebra(ea):
            mv_to_ea(ea_to_mv(ea))
    for lat in map(catalog_lattice, LATTICES):
        if is_oml(lat):
            oml_to_ea(lat)
    kinds = {FiniteEffectAlgebra: 0, FiniteMVAlgebra: 0}
    for structure, raw in built:
        rows = loops.normalize_table(raw, len(raw))
        if isinstance(structure, FiniteMVAlgebra):
            assert structure.plus_table == rows
        else:
            assert structure.table == rows
            assert structure.orthosums == loops.orthosums(rows)
            assert structure.perp == loops.orthosupplements(rows, structure.one)
        kinds[type(structure)] += 1
    assert kinds[FiniteEffectAlgebra] > len(SMALL_EAS + LARGE_EAS) and kinds[FiniteMVAlgebra] > 5


# ---------------------------------------------------------------------------
# forged structures


def lie(lat, part, table):
    """lat with its meets or joins array set to table, and its meet or join
    reading that table: the library and the loops see the same lie."""
    table.flags.writeable = False
    setattr(lat, part + "s", table)
    setattr(lat, part, lambda a, b: table.item(a, b))


@st.composite
def forged_effect_algebras(draw):
    """A catalog effect algebra with one or two of its parts forged.

    Its perp or zero or one redrawn, or symmetric pairs of sums dropped
    or redirected: the object is built without the axiom scan.
    """
    ea = catalog_ea(draw(st.sampled_from(SMALL_EAS)))
    n = ea.n
    index = st.integers(0, n - 1)
    table = [list(row) for row in ea.table]
    perp, zero, one = list(ea.perp), ea.zero, ea.one
    for part in draw(st.lists(st.sampled_from(["perp", "zero", "one", "drop", "sum"]),
                              min_size=1, max_size=2)):
        if part == "perp":
            perp = draw(st.permutations(range(n)) | st.lists(index, min_size=n, max_size=n))
        elif part == "zero":
            zero = draw(index)
        elif part == "one":
            one = draw(index)
        else:
            for e, f in draw(st.lists(st.tuples(index, index), min_size=1, max_size=3)):
                table[e][f] = table[f][e] = None if part == "drop" else draw(index)
    return forged_ea(table, zero, one, perp, ea.labels)


@given(forged_effect_algebras())
@settings(max_examples=200, deadline=None)
def test_forged_effect_algebras_fail_as_the_loops_do(ea):
    check_effect_algebra(ea)


@st.composite
def forged_mv_algebras(draw):
    """A total table and perp on up to six elements, or an MV-algebra's
    with entries redrawn; the object is built without the axiom scan."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        index = st.integers(0, n - 1)
        plus = draw(st.lists(st.lists(index, min_size=n, max_size=n), min_size=n, max_size=n))
        perp = draw(st.lists(index, min_size=n, max_size=n))
        zero, one = draw(index), draw(index)
    else:
        base = ea_to_mv(catalog_ea(draw(st.sampled_from(["chain3", "2^2", "chain2*chain3"]))))
        n = base.n
        index = st.integers(0, n - 1)
        plus, perp = [list(row) for row in base.plus_table], list(base.perp)
        zero, one = base.zero, base.one
        for x, y, v in draw(st.lists(st.tuples(index, index, index), max_size=3)):
            plus[x][y] = v
        if draw(st.booleans()):
            perp = draw(st.permutations(range(n)))
    mv = object.__new__(FiniteMVAlgebra)
    mv._table, mv.perp = loops.extended(loops.normalize_table(plus, n)), tuple(perp)
    mv.zero, mv.one, mv.labels = zero, one, tuple(f"x{i}" for i in range(n))
    mv._order = None
    return mv


@given(forged_mv_algebras())
@settings(max_examples=200, deadline=None)
def test_forged_mv_algebras_fail_as_the_loops_do(mv):
    check_mv(mv)


@st.composite
def forged_lattices(draw):
    """A catalog ortholattice on up to 32 elements whose meet, join,
    perp, zero or one lies: a table of drawn values, a drawn map, a drawn index."""
    lat = copy.copy(catalog_lattice(draw(st.sampled_from(["2^1", "2^2", "2^3", "2^5",
                                                           "mo2", "o6"]))))
    n = lat.n
    index = st.integers(0, n - 1)
    for part in draw(st.lists(st.sampled_from(["meet", "join", "perp", "zero", "one"]),
                              min_size=1, max_size=2)):
        if part in ("meet", "join"):
            table = getattr(lat, part + "s").copy()
            for a, b, v in draw(st.lists(st.tuples(index, index, index), min_size=1,
                                         max_size=3)):
                table[a, b] = v
            lie(lat, part, table)
        elif part == "perp":
            lat.perp = tuple(draw(st.permutations(range(n))))
        else:
            setattr(lat, part, draw(index))
    return lat


@given(forged_lattices())
@settings(max_examples=200, deadline=None)
def test_forged_lattices_fail_as_the_loops_do(lat):
    same(outcome(oml_to_ea, lat), outcome(oml_to_ea_by_loops, lat), table_of)
    same(outcome(stone_space, lat), outcome(stone_space_by_loops, lat), stone_key)


@st.composite
def maps_between_effect_algebras(draw):
    """Two catalog effect algebras and a map: drawn, or a bijection, or the identity."""
    dom = catalog_ea(draw(st.sampled_from(SMALL_EAS)))
    cod = draw(st.sampled_from([dom, catalog_ea(draw(st.sampled_from(SMALL_EAS)))]))
    index = st.integers(0, cod.n - 1)
    if cod.n != dom.n or draw(st.booleans()):
        phi = draw(st.lists(index, min_size=dom.n, max_size=dom.n))
        if draw(st.booleans()):
            phi[dom.one] = cod.one
    else:
        phi = draw(st.just(list(range(dom.n))) | st.permutations(range(dom.n)))
    return dom, cod, phi


@given(maps_between_effect_algebras())
@settings(max_examples=200, deadline=None)
def test_morphism_checks_name_the_loops_pair(case):
    dom, cod, phi = case
    report = check_morphism(dom, cod, phi)
    assert report.violation == loops.morphism_violation(dom.table, dom.one, cod.table,
                                                        cod.one, phi)
    inverse = [phi.index(v) for v in range(dom.n)] if sorted(phi) == list(range(cod.n)) else None
    assert report.is_isomorphism == (report.is_morphism and inverse is not None and (
        loops.morphism_violation(cod.table, cod.one, dom.table, dom.one, inverse) is None))


# ---------------------------------------------------------------------------
# each message, planted


def test_each_induced_order_message_names_the_loops_pair():
    ea = catalog_ea("chain3*2^2")
    swapped = list(ea.perp)            # an automorphism after perp: still order-reversing
    swapped[1], swapped[2] = swapped[2], swapped[1]
    dropped = [list(row) for row in ea.table]
    dropped[1][4] = dropped[4][1] = None
    cases = [
        forged_ea(ea.table, 1, ea.one, ea.perp, ea.labels),
        forged_ea(ea.table, ea.zero, ea.one, range(ea.n), ea.labels),
        forged_ea(ea.table, ea.zero, ea.one, swapped, ea.labels),
        forged_ea(dropped, ea.zero, ea.one, ea.perp, ea.labels),
        # duality and orthogonality both fail at (1, 0): duality is named
        forged_ea(catalog_ea("chain1").table, 0, 1, (0, 0), ("0", "1")),
    ]
    got = [outcome(induced_order, case) for case in cases]
    assert got == [outcome(induced_order_by_loops, case) for case in cases]
    assert [message for _, message in got] == [
        "induced order is not bounded at 0",
        "order duality fails on (0, 1)",
        "orthogonality mismatch on (1, 1)",
        "orthogonality mismatch on (1, 4)",
        "order duality fails on (1, 0)",
    ]


def test_disjoint_pairs_that_are_not_orthogonal_fail_as_the_loops_do():
    lat = copy.copy(catalog_lattice("2^3"))
    meets = lat.meets.copy()
    meets[lat.zero, lat.zero] = lat.one     # zero is orthogonal to itself; still orthomodular
    lie(lat, "meet", meets)
    got = outcome(oml_to_ea, lat)
    assert got == outcome(oml_to_ea_by_loops, lat)
    assert got == (EffectAlgebraError, "orthogonal pair (0, 0) is not disjoint")


def test_stone_names_each_check_as_the_loops_do():
    base = catalog_lattice("2^3")
    atom = stone_space(base).atoms[0]
    found = set()
    for part, value in [("one", 0), ("perp", tuple(range(8))), ("meet", atom), ("join", atom)]:
        lat = copy.copy(base)
        if part in ("meet", "join"):
            # zero with itself gives the first point's atom: the lattice
            # stays Boolean, and the first point sees the lie at (zero, zero)
            table = getattr(base, part + "s").copy()
            table[base.zero, base.zero] = value
            lie(lat, part, table)
        else:
            setattr(lat, part, value)
        got = outcome(stone_space, lat)
        assert got == outcome(stone_space_by_loops, lat)
        found.add(got[1])
    assert found == {"point 0 does not preserve the bounds",
                     "point 0 does not preserve complements",
                     "point 0 does not preserve meets",
                     "point 0 does not preserve joins"}


def test_tables_are_python_ints():
    ea = oml_to_ea(catalog_lattice("2^3"))
    mv = ea_to_mv(ea)
    for table in (ea.table, mv.plus_table, mv_to_ea(mv).table):
        assert {type(v) for row in table for v in row} <= {int, type(None)}
    st = stone_space(catalog_lattice("2^3"))
    assert {type(v) for row in st.char for v in row} | set(map(type, st.atoms)) == {int}
    assert np.array_equal(induced_order(ea).relation(), mv.order().relation())
