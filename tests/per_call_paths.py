"""Former per-call paths, the oracles of the bulk and stacked ones.

The element references of a document resolved one entry at a time, as
the CLI read them before it looked whole rows of labels up at once; the
matrix density test with its four sampled squares drawn afresh from
default_rng(99) on every call, where the library draws them once per
dimension; and the spectral calculus one element at a time, as the
synaptic module computed it before its stacked kernels: decompose,
carrier, spectrum, the one-point step formula, and the eight loops that
summed c_i p_i in order; and the partial-order checks of a relation
table one element and one pair at a time, which name the first witness
the packed-row checks of FinitePoset must name; the functional
representation's report with each element mapped and decomposed on its
own; and distributivity tested on one (irreducibles, n, n) cube of
pairs. Like tests/helpers.py,
this module shares no code with src/; it lives apart because
perfbench's worker loads helpers.py from source in every pass, and its
peak memory grows with that file.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

RANK_RTOL = 1e-8  # the library's relative rank and clustering threshold


def refs_by_entries(rows, field, elements, width):
    """Element references resolved one entry at a time, or ("error", message).

    The shape first, then each entry in row order: a label by its
    position, an int as an index in range; a bool is no reference. The
    messages are the CLI's, without the file path in front.
    """
    by_label = {x: i for i, x in enumerate(elements)}
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and len(r) == width for r in rows
    ):
        return ("error", f"{field} must be a list of {width}-element lists")
    out = []
    for r in rows:
        resolved = []
        for x in r:
            if isinstance(x, bool):
                return ("error", f"bad element reference: {x!r}")
            if isinstance(x, int):
                if not 0 <= x < len(elements):
                    return ("error", f"element index out of range: {x}")
                resolved.append(x)
                continue
            try:
                resolved.append(by_label[x])
            except (KeyError, TypeError):
                return ("error", f"unknown element label: {x!r}")
        out.append(resolved)
    return out


def is_density_by_fresh_draws(d, tol) -> bool:
    """The matrix density test, drawing its four sampled squares anew.

    Symmetric to 1e-10, unit trace, eigenvalues >= -tol, and
    trace(d b b) >= -tol for four b = (m + m^T) / 2, each m a standard
    normal n x n draw in turn from a new default_rng(99).
    """
    n = d.shape[0]
    sym = d / 2 + d.T / 2
    if np.abs(d - sym).max() > 1e-10 or abs(float(np.trace(d)) - 1.0) > tol:
        return False
    if np.linalg.eigvalsh(sym).min() < -tol:
        return False
    rng = np.random.default_rng(99)
    for _ in range(4):
        m = rng.standard_normal((n, n)) * 1.0
        b = (m + m.T) / 2.0
        if float(np.trace(d @ (b @ b))) < -tol:
            return False
    return True


# ---------------------------------------------------------------------------
# The spectral calculus, one payload at a time. A payload is a symmetric
# matrix (2-D) or a function's values (1-D); the space primitives are
# written out for each.


def _eigh(x):
    """Ascending eigenvalues and a frame; on functions the sorted values and their points."""
    if x.ndim == 2:
        return np.linalg.eigh(x)
    order = np.argsort(x, kind="stable")
    return x[order], order


def _assemble(frame, values):
    if frame.ndim == 2:
        return (frame * values[None, :]) @ frame.T
    out = np.empty(frame.shape)
    out[frame] = values
    return out


def _projector(frame, idx):
    if frame.ndim == 2:
        cols = frame[:, idx]
        return cols @ cols.T
    out = np.zeros(len(frame))
    out[frame[idx]] = 1.0
    return out


def _rank_tol(w, x):
    return RANK_RTOL * max(1.0, float(np.abs(w).max())) if x.ndim == 2 else 0.0


def _unit(x):
    return np.eye(len(x)) if x.ndim == 2 else np.ones(len(x))


def decompose_one(x):
    """(|x|, x_plus, x_minus): |eigenvalues| over the frame, then the half-sums."""
    w, frame = _eigh(x)
    absolute = _assemble(frame, np.abs(w))
    return absolute, 0.5 * (absolute + x), 0.5 * (absolute - x)


def carrier_one(x):
    """The projection onto the frame members whose eigenvalues clear the rank threshold."""
    w, frame = _eigh(x)
    return _projector(frame, np.abs(w) > _rank_tol(w, x))


def spectrum_one(x):
    """Distinct eigenvalues: each joins the previous member's cluster within the
    rank threshold, and a cluster's value is its mean (its value if all equal)."""
    w, _ = _eigh(x)
    tol = _rank_tol(w, x)
    clusters = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[clusters[-1][-1]] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return tuple(
        float(w[c[0]]) if w[c[0]] == w[c[-1]] else float(np.mean(w[c])) for c in clusters
    )


def step_one(x, lam):
    """The one-point step formula 1 - carrier((x - lam)^+)."""
    one = _unit(x)
    _, plus, _ = decompose_one(x - float(lam) * one)
    return one - carrier_one(plus)


def step_by_loop(values, members, lam):
    """SpectralResolution.step: the members added in order up to the first value above lam."""
    acc = np.zeros(members[0].shape)
    for val, p in zip(values, members):
        if val <= lam:
            acc = acc + p
        else:
            break
    return acc


def reconstruct_by_loop(values, members):
    """SpectralResolution.reconstruct, also the reconstruction _verify_resolution checks."""
    acc = np.zeros(members[0].shape)
    for val, p in zip(values, members):
        acc = acc + float(val) * p
    return acc


def stieltjes_by_loop(values, members, mesh, partition=None):
    """stieltjes_reconstruct past its argument checks: right-endpoint tags."""
    lo, hi = values[0], values[-1]
    if partition is None:
        steps = max(1, math.ceil((hi - (lo - mesh)) / mesh))
        partition = list(np.linspace(lo - mesh, hi, steps + 1))
    else:
        partition = [float(t) for t in partition]
    acc = np.zeros(members[0].shape)
    for val, p in zip(values, members):
        j = bisect.bisect_left(partition, val)
        tag = partition[min(j, len(partition) - 1)]
        acc = acc + float(tag) * p
    return acc


def polynomial_by_loop(values, members, f):
    """apply_polynomial: f of each value times its projection, in order."""
    acc = np.zeros(members[0].shape)
    for val, p in zip(values, members):
        acc = acc + float(f(val)) * p
    return acc


def simple_form_by_loop(coefficients, members):
    """simple_form's two sums: (the identity sum it checks, the result)."""
    total = members[0]
    for p in members[1:]:
        total = total + p
    acc = np.zeros(members[0].shape)
    for c, p in zip(coefficients, members):
        acc = acc + float(c) * p
    return total, acc


def resolution_sums_by_loop(members):
    """_verify_resolution's two plain sums: (the identity sum, the running sums
    from zero that the step cross-check indexes)."""
    total = members[0]
    for p in members[1:]:
        total = total + p
    running = np.cumsum([np.zeros(members[0].shape)] + list(members), axis=0)
    return total, running


def poset_failure_by_scan(leq):
    """The first failed partial-order axiom of a square table as the library words it, or None.

    Reflexivity element by element, then antisymmetry and transitivity
    pair by pair in row-major order; (i, k) fails transitivity when some
    j has i <= j <= k but not i <= k.
    """
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            return f"not reflexive at element {i}"
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return f"antisymmetry fails on pair ({i}, {j})"
    for i in range(n):
        for k in range(n):
            if not leq[i][k] and any(leq[i][j] and leq[j][k] for j in range(n)):
                return f"transitivity fails reaching ({i}, {k})"
    return None


# ---------------------------------------------------------------------------
# The functional representation's report, one element at a time: each
# sample decomposed once for its norm, once for its cone test and once for
# its spectrum, and every mapped element tested for span membership by
# its own least-squares solve, as the stone module did before it read all
# three off one stacked eigh and rebuilt the elements from their
# coefficients.

REPRESENTATION_TOL = 1e-9  # the library's span residual and identity gap


def _norm(x) -> float:
    """The order-unit norm: the largest absolute eigenvalue, or value."""
    return float(np.max(np.abs(np.linalg.eigvalsh(x) if x.ndim == 2 else x)))


def _positive(x) -> bool:
    """The cone test: eigenvalues down to -1e-9 * max(1, ||x||), or values down to -1e-12."""
    if x.ndim == 2:
        w = np.linalg.eigvalsh(x)
        return bool(w.min() >= -1e-9 * max(1.0, float(np.abs(w).max())))
    return bool(x.min() >= -1e-12)


def _pairing(x, y) -> float:
    return float(np.trace(x @ y)) if x.ndim == 2 else float(np.dot(x, y))


def _jordan(x, y):
    if x.ndim == 2:
        xy = x @ y
        return (xy + xy.T) / 2.0
    return x * y


def representation_report_one_at_a_time(atoms, generators, patterns):
    """The eight flags of a representation's report, by name, or the
    ValueError text its checks raise.

    atoms, generators and patterns are the representation's: the atoms'
    payloads, the generators' payloads, and one 0/1 tuple per atom. Six
    samples sum(c_i q_i) with c drawn from default_rng(2718) uniform on
    [-2, 2]; each mapped element passes when its least-squares residual
    is at most 1e-9 * max(1, ||x||), and maps to its coefficients
    against the atoms over the atoms' weights.
    """
    tol = REPRESENTATION_TOL
    atoms = [np.asarray(q, dtype=float) for q in atoms]
    shape = atoms[0].shape
    mat = np.stack([q.ravel() for q in atoms], axis=1)
    weights = np.array([_pairing(q, q) for q in atoms])

    def to_function(x):
        flat = x.ravel()
        coeffs = np.linalg.lstsq(mat, flat, rcond=None)[0]
        residual = float(np.max(np.abs(mat @ coeffs - flat)))
        if not (residual <= tol or residual <= tol * max(1.0, _norm(x))):
            raise ValueError("element is not in the represented span")
        return (flat @ mat) / weights

    def from_function(values):
        return (mat @ values).reshape(shape)

    unit = np.eye(shape[0]) if len(shape) == 2 else np.ones(shape)
    rng = np.random.default_rng(2718)
    samples = [from_function(c) for c in rng.uniform(-2.0, 2.0, size=(6, len(atoms)))]
    norms = [_norm(x) for x in samples]
    pairs = ((0, 1), (2, 3), (4, 5))
    shifted = [samples[i] + (norms[i] + 1.0) * unit for i in (0, 1)]
    try:
        images = [to_function(x) for x in samples]
        combos = [to_function(samples[i] + samples[j] * 1.5) for i, j in pairs]
        unit_image = to_function(unit)
        products = [to_function(_jordan(samples[i], samples[j])) for i, j in pairs]
        shifted_images = [to_function(x) for x in shifted]
        indicators = np.reshape([to_function(np.asarray(g, dtype=float)) for g in generators],
                                (len(generators), len(atoms)))
        rounded = np.round(indicators)
        if indicators.size and np.max(np.abs(indicators - rounded)) > tol:
            raise ValueError("projection does not map to an indicator")
    except ValueError as exc:
        return str(exc)
    expected = np.reshape(np.array(patterns, dtype=float).T, indicators.shape)

    def same_spectrum(x, f) -> bool:
        spec = np.array(spectrum_one(x))
        distinct = np.array(sorted(set(np.round(f, 9))))
        return not (len(spec) != len(distinct) or np.max(np.abs(spec - distinct)) > 1e-6)

    return {
        "linear": not any(np.max(np.abs(combos[k] - (images[i] + images[j] * 1.5))) > tol
                          for k, (i, j) in enumerate(pairs)),
        "unital": bool(np.max(np.abs(unit_image - 1.0)) <= tol),
        "multiplicative": not any(np.max(np.abs(products[k] - images[i] * images[j])) > tol
                                  for k, (i, j) in enumerate(pairs)),
        "isometric": all(abs(norm - float(np.max(np.abs(image)))) <= tol
                         for norm, image in zip(norms, images)),
        "order_isomorphism": (
            [_positive(x) for x in samples] == [bool(f.min() >= -tol) for f in images]
            and all(_positive(x) for x in shifted)
            and all(f.min() >= -tol for f in shifted_images)
        ),
        "projections_to_indicators": not (indicators.size
                                          and np.max(np.abs(rounded - expected)) > tol),
        "round_trip": all(_norm(from_function(f) - x) <= 1e-12 * max(1.0, norm)
                          for f, x, norm in zip(images, samples, norms)),
        "spectrum_preserved": all(same_spectrum(x, f) for x, f in zip(samples, images)),
    }


# ---------------------------------------------------------------------------
# Distributivity as posets decided it with one boolean cube


def distributive_by_cube(leq, joins) -> bool:
    """Every join-irreducible j is join-prime, tested on all pairs (b, c) at once.

    leq[i][j] is i <= j and joins[b][c] the join of b and c in a lattice.
    j is join-irreducible when some k < j has a down-set one element
    smaller than j's; then j <= joins[b][c] must force j <= b or j <= c.
    """
    leq = np.asarray(leq, dtype=bool)
    size = leq.sum(axis=0)
    up = leq[(leq & (size[:, None] == size - 1)).any(axis=0)]   # [j, x]: j <= x
    return not (np.take(up, np.asarray(joins), axis=1) > (up[:, :, None] | up[:, None, :])).any()
