"""The CLI's former per-call paths, the oracles of its bulk and memoized ones.

The element references of a document resolved one entry at a time, as
the CLI read them before it looked whole rows of labels up at once; and
the matrix density test with its four sampled squares drawn afresh from
default_rng(99) on every call, where the library draws them once per
dimension. Like tests/helpers.py, this module shares no code with src/;
it lives apart because perfbench's worker loads helpers.py from source
in every pass, and its peak memory grows with that file.
"""

from __future__ import annotations

import numpy as np


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
