"""Hermitian eigendecomposition by cyclic Jacobi rotations.

Rotations stop at a relative threshold, so the small eigenvalues are not
swamped by the large ones of the same matrix; but a solver keeps only what
its float64 input holds, and forming a 1-RDM already loses the smallest
occupations.  Measured on the harmonium at d=12 against a 40-digit
eigensolve of the 40-digit rho: lam_12 = 4.4e-21 is off by a relative 1.4e-2
at kappa=1/3, and 5e-29 by 5.4e3 at kappa=0.1.  Intended for d <= 64.  The
matrix is first split into the connected blocks of its exact-nonzero pattern
(a harmonium 1-RDM is two parity blocks, a Borland-Dennis state gives a
diagonal one), and each block is rotated in scalar Python arithmetic on
nested lists.  For real input each product and sum rounds as numpy's
elementwise operations do, so the result is bit for bit that of a
whole-matrix sweep on numpy rows and columns (the tests keep that sweep as
the reference); numpy may fuse the products of a complex multiply, so for
complex input the two differ by a few ulps.  An eigenvalue-only call runs
the same rotations and skips just the eigenvector updates, which no rotation
reads, so its eigenvalues are bit for bit those of a call that also returns
the eigenvectors.
"""
from __future__ import annotations

import math

import numpy as np

_REL_TOL = 1e-15
_MAX_SWEEPS = 64
# below the smallest normal double a rotation cannot improve anything
_ABS_FLOOR = 2.3e-308


def _blocks(nonzero: np.ndarray) -> list[np.ndarray]:
    """Connected components of a pattern with its transpose, by least member, each ascending."""
    n = len(nonzero)
    # squaring the pattern with its diagonal doubles the path length it spans
    reach = (nonzero | nonzero.T | np.eye(n, dtype=bool)).astype(float)
    for _ in range(n.bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    least = reach.argmax(axis=1)
    order = np.argsort(least, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(least[order])) + 1)


def _jacobi_block(w: list, kind: type, vectors: bool) -> list | None:
    """Cyclic Jacobi on nested lists of Python numbers of type ``kind``, in place.

    ``w`` (rows) ends up diagonal; the return value holds the eigenvectors as
    a list of columns, or is None when ``vectors`` is false.  Each rotation
    performs, entry by entry, the scalar operations of a column update
    followed by a row update, in that order.
    """
    n = len(w)
    one, zero = kind(1), kind(0)
    v = [[one if i == j else zero for i in range(n)] for j in range(n)] if vectors else None
    # the sweep after the last allowed one only checks that no rotation is due
    for sweep in range(_MAX_SWEEPS + 1):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = w[p][q]
                absg = abs(g)
                if absg < _ABS_FLOOR:
                    continue
                if absg <= _REL_TOL * math.sqrt(abs(w[p][p].real * w[q][q].real)):
                    continue
                if sweep == _MAX_SWEEPS:
                    raise ValueError(f"Jacobi rotations did not converge in {_MAX_SWEEPS} sweeps")
                rotated = True
                phase = g / absg
                tau = (w[q][q].real - w[p][p].real) / (2.0 * absg)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                sp = s * phase
                sc = s * phase.conjugate()
                # A <- J^dag A J with J = [[c, s*phase], [-s*conj(phase), c]]
                for row in w:
                    x, y = row[p], row[q]
                    row[p] = c * x - sc * y
                    row[q] = sp * x + c * y
                row_p, row_q = w[p], w[q]
                w[p] = [c * x - sp * y for x, y in zip(row_p, row_q)]
                w[q] = [sc * x + c * y for x, y in zip(row_p, row_q)]
                w[p][q] = w[q][p] = zero
                w[p][p] = kind(w[p][p].real)
                w[q][q] = kind(w[q][q].real)
                if not vectors:
                    continue
                vec_p, vec_q = v[p], v[q]
                v[p] = [c * x - sc * y for x, y in zip(vec_p, vec_q)]
                v[q] = [sp * x + c * y for x, y in zip(vec_p, vec_q)]
        if not rotated:
            return v


def jacobi_eigh(a: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Returns ``(lams, v)`` with ``a @ v[:, i] = lams[i] * v[:, i]``; columns of
    ``v`` are orthonormal.  With ``vectors=False`` the eigenvector updates are
    skipped and ``v`` is None; ``lams`` is unchanged bit for bit.  Rotations
    are skipped once the off-diagonal entry is below
    ``_REL_TOL * sqrt(|a_pp * a_qq|)``, the Demmel-Veselic criterion that
    preserves relative accuracy for graded matrices.

    A rotation inside one block of the exact-nonzero pattern leaves the exact
    zeros around the block untouched, so each block is diagonalised on its
    own, at the cost of its size alone.  Non-finite entries, and a rotation
    still due after ``_MAX_SWEEPS`` sweeps, raise ``ValueError``.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    n = a.shape[0]
    complex_input = np.iscomplexobj(a)
    if complex_input and np.max(np.abs(a.imag)) == 0.0:
        a = a.real
        complex_input = False
    kind = complex if complex_input else float
    w = np.array(a, dtype=kind)
    lams = np.empty(n)
    v = np.zeros((n, n), dtype=kind) if vectors else None
    for block in _blocks(w != 0):
        rows = w[np.ix_(block, block)].tolist()
        columns = _jacobi_block(rows, kind, vectors)
        lams[block] = [rows[i][i].real for i in range(len(block))]
        if vectors:
            v[np.ix_(block, block)] = np.array(columns, dtype=kind).T
    order = np.argsort(lams, kind="stable")[::-1]
    return lams[order], v[:, order] if vectors else None
