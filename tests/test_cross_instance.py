"""The function instance as the oracle for the matrix instance.

A diagonal matrix in Sym(n) and the function on n points with the same
entries are the same commutative algebra element, so every operation
must give the same answer on both: the diagonal of the matrix result
equals the function result, and the matrix result stays diagonal. The
function instance computes exactly and pointwise; the matrix instance
goes through eigendecompositions and SVDs, so this guards the space
protocol from both sides.
"""

import numpy as np
import pytest

from synaptica.order_unit import FunctionSpace, SymmetricMatrixSpace
from synaptica.states import (
    DensityState,
    element_duality_report,
    is_state,
    state_norm_report,
)
from synaptica.synaptic import (
    carrier,
    decompose,
    inverse,
    is_invertible,
    is_projection,
    jordan,
    proj_join,
    proj_meet,
    proper_effect_decomposition,
    spectral_resolution,
    sqrt,
)

# repeated, zero and negative entries; where proper_effect_decomposition
# has a choice to make, its value (the least one strictly inside (0, 1)
# after rescaling) is not repeated, since ties may come out of the
# matrix eigensolver in either order
ENTRIES = [
    [2.0, -1.0, 0.0, 2.0, 0.5],
    [0.0, 1.0, 0.0, 1.0],
    [0.7, 0.3, 0.7, 0.7, 0.0],
    [0.1, 0.1, 0.1, 0.9],
    [-0.5, -0.5, 3.0],
    [1.0, 1.0, 1.0],
    [-2.0, 1e-3, 4.0, 0.25, -2.0, 0.25],
]


def assert_same(m, f):
    """m is diagonal and its diagonal is f, bit for bit."""
    mp = m.payload if hasattr(m, "payload") else m
    fp = f.payload if hasattr(f, "payload") else f
    assert np.array_equal(mp, np.diag(np.diagonal(mp)))
    assert np.array_equal(np.diagonal(mp), fp)


@pytest.mark.parametrize("entries", ENTRIES, ids=[str(e) for e in ENTRIES])
def test_diagonal_matrices_agree_with_functions(entries):
    n = len(entries)
    M, F = SymmetricMatrixSpace(n), FunctionSpace([f"x{i}" for i in range(n)])
    a_m, a_f = M.element(np.diag(entries)), F.element(entries)
    b_m, b_f = M.element(np.diag(entries[::-1])), F.element(entries[::-1])

    assert_same(jordan(a_m, b_m), jordan(a_f, b_f))
    assert_same(sqrt(jordan(a_m, a_m)), sqrt(jordan(a_f, a_f)))
    for x_m, x_f in zip(decompose(a_m), decompose(a_f)):
        assert_same(x_m, x_f)
    assert_same(carrier(a_m), carrier(a_f))

    res_m, res_f = spectral_resolution(a_m), spectral_resolution(a_f)
    assert res_m.eigenvalues == res_f.eigenvalues == tuple(sorted(set(entries)))
    assert len(res_m.projections) == len(res_f.projections)
    for p_m, p_f in zip(res_m.projections, res_f.projections):
        assert_same(p_m, p_f)

    assert is_invertible(a_m) == is_invertible(a_f) == (0.0 not in entries)
    if is_invertible(a_f):
        assert_same(inverse(a_m), inverse(a_f))

    for x_m, x_f in ((a_m, a_f), (carrier(a_m), carrier(a_f))):
        assert is_projection(x_m) == is_projection(x_f)
    p_m, q_m, p_f, q_f = carrier(a_m), carrier(b_m), carrier(a_f), carrier(b_f)
    for r_m, r_f in ((p_m, p_f), (q_m, q_f), (res_m.projections[0], res_f.projections[0])):
        assert_same(proj_meet(p_m, r_m), proj_meet(p_f, r_f))
        assert_same(proj_join(q_m, r_m), proj_join(q_f, r_f))

    lo, hi = min(entries), max(entries)
    e_m = (a_m - lo * M.unit()) / max(hi - lo, 1.0)
    e_f = (a_f - lo * F.unit()) / max(hi - lo, 1.0)
    split_m, split_f = proper_effect_decomposition(e_m), proper_effect_decomposition(e_f)
    assert (split_m is None) == (split_f is None)
    if split_f is not None:
        for x_m, x_f in zip(split_m, split_f):
            assert_same(x_m, x_f)

    rep_m, rep_f = element_duality_report(a_m), element_duality_report(a_f)
    for name in ("min_extremal", "sup_abs_extremal", "norm", "is_positive",
                 "positivity_matches", "norm_matches"):
        assert getattr(rep_m, name) == getattr(rep_f, name), name
    assert (rep_m.witness_state is None) == (rep_f.witness_state is None)
    if rep_f.witness_state is not None:
        # ties at the least value may pick different points; the value may not differ
        assert rep_m.witness_state(a_m) == rep_f.witness_state(a_f) == lo

    for weights in (np.abs(entries) / np.sum(np.abs(entries)), np.array(entries) / n):
        rho_m = DensityState(M, np.diag(weights))
        rho_f = DensityState(F, weights)
        assert is_state(M, rho_m) == is_state(F, rho_f)
        nr_m, nr_f = state_norm_report(M, rho_m), state_norm_report(F, rho_f)
        assert nr_m.norm == nr_f.norm
        assert nr_m.value_at_unit == nr_f.value_at_unit
        assert nr_m.identity_holds == nr_f.identity_holds
        assert_same(nr_m.maximizer, nr_f.maximizer)
