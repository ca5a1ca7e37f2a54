"""Hermitian eigendecomposition by cyclic Jacobi rotations.

For the graded positive-semidefinite matrices produced by reduced density
operators (eigenvalues spread over many orders of magnitude) Jacobi with a
relative rotation threshold resolves the small eigenvalues to high relative
accuracy, which plain QR-based solvers do not guarantee.  Intended for the
small dimensions of this package (d <= 64).

Also holds ``one_blas_thread``, which runs numpy's matrix products on a
single BLAS thread for the duration of a ``with`` block.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from pathlib import Path

import numpy as np

_REL_TOL = 1e-15
_MAX_SWEEPS = 64
# below the smallest normal double a rotation cannot improve anything
_ABS_FLOOR = 2.3e-308


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Returns ``(lams, v)`` with ``a @ v[:, i] = lams[i] * v[:, i]``; columns of
    ``v`` are orthonormal.  Rotations are skipped once the off-diagonal entry
    is below ``_REL_TOL * sqrt(|a_pp * a_qq|)``, the Demmel-Veselic criterion
    that preserves relative accuracy for graded matrices.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    complex_input = np.iscomplexobj(a)
    if complex_input and np.max(np.abs(a.imag)) == 0.0:
        a = a.real
        complex_input = False
    dtype = complex if complex_input else float
    w = np.array(a, dtype=dtype)
    v = np.eye(n, dtype=dtype)

    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = w[p, q]
                absg = abs(g)
                if absg < _ABS_FLOOR:
                    continue
                if absg <= _REL_TOL * math.sqrt(abs(w[p, p].real * w[q, q].real)):
                    continue
                rotated = True
                phase = g / absg
                tau = (w[q, q].real - w[p, p].real) / (2.0 * absg)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # A <- J^dag A J with J = [[c, s*phase], [-s*conj(phase), c]]
                col_p = w[:, p].copy()
                col_q = w[:, q].copy()
                w[:, p] = c * col_p - s * np.conj(phase) * col_q
                w[:, q] = s * phase * col_p + c * col_q
                row_p = w[p, :].copy()
                row_q = w[q, :].copy()
                w[p, :] = c * row_p - s * phase * row_q
                w[q, :] = s * np.conj(phase) * row_p + c * row_q
                w[p, q] = 0.0
                w[q, p] = 0.0
                w[p, p] = w[p, p].real
                w[q, q] = w[q, q].real
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * np.conj(phase) * vec_q
                v[:, q] = s * phase * vec_p + c * vec_q
        if not rotated:
            break

    lams = np.real(np.diag(w)).copy()
    order = np.argsort(lams, kind="stable")[::-1]
    return lams[order], v[:, order]


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """(set, get) for the thread count of numpy's bundled OpenBLAS, or None."""
    root = Path(np.__file__).resolve().parent
    for folder in (root.parent / "numpy.libs", root / ".dylibs"):  # wheel layouts
        for path in sorted(folder.glob("*scipy_openblas64_*")):
            lib = ctypes.CDLL(str(path))
            setter = lib.scipy_openblas_set_num_threads64_
            getter = lib.scipy_openblas_get_num_threads64_
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's BLAS calls inside the block on one thread.

    A threaded product waits for its slowest thread, and OpenBLAS keeps its
    idle workers spinning between calls, so a loop of modest products runs
    only a little faster on two threads but its time follows how busy the
    machine's other cores are.  The previous thread count is restored on
    exit.  Where numpy's BLAS is not its bundled OpenBLAS this does nothing.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    setter, getter = calls
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)
