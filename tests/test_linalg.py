import math

import numpy as np
import pytest

from qmarginal import linalg
from qmarginal.fock import one_rdm
from qmarginal.harmonium import HarmoniumParams, expand_in_hermite_basis
from qmarginal.linalg import _ABS_FLOOR, _MAX_SWEEPS, _REL_TOL, jacobi_eigh


def loop_jacobi_eigh(a):
    """Reference: cyclic Jacobi over the whole matrix, one numpy row or column op at a time."""
    a = np.asarray(a)
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


def assert_bitwise_equal(a):
    lams, v = jacobi_eigh(a)
    ref_lams, ref_v = loop_jacobi_eigh(a)
    assert v.dtype == ref_v.dtype
    assert np.array_equal(lams, ref_lams)
    assert np.array_equal(v, ref_v)
    assert_values_alone_equal(a, lams)


def assert_values_alone_equal(a, lams):
    """An eigenvalue-only call gives the same eigenvalues, bit for bit, and no vectors."""
    lams_alone, v_alone = jacobi_eigh(a, vectors=False)
    assert v_alone is None
    assert np.array_equal(lams_alone, lams)


@pytest.mark.parametrize("n,kappa,basis", [
    (3, 1.0 / 3.0, 28), (3, 0.05, 28), (4, 0.25, 10), (2, 0.25, 12)])
def test_harmonium_rdm_bitwise_equal(n, kappa, basis):
    state, _ = expand_in_hermite_basis(HarmoniumParams(n=n, kappa=kappa), basis)
    assert_bitwise_equal(one_rdm(state))


def _symmetric(rng, n):
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def test_dense_real_bitwise_equal():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 12):
        assert_bitwise_equal(_symmetric(rng, n))


def test_graded_positive_bitwise_equal():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((10, 10))
    scale = np.logspace(0, -7, 10)
    assert_bitwise_equal(scale[:, None] * (g @ g.T) * scale[None, :])


def test_permuted_block_diagonal_bitwise_equal():
    rng = np.random.default_rng(5)
    a = np.zeros((9, 9))
    a[:4, :4] = _symmetric(rng, 4)
    a[4:7, 4:7] = _symmetric(rng, 3)
    a[7:, 7:] = _symmetric(rng, 2)
    perm = rng.permutation(9)
    assert_bitwise_equal(a[np.ix_(perm, perm)])


def test_diagonal_bitwise_equal():
    assert_bitwise_equal(np.diag([0.25, 1.0, -3.0, 0.25, 0.0, 7.5]))


def test_complex_hermitian_close_to_reference():
    # numpy may fuse the products of a complex multiply (FMA), scalar Python
    # does not, so the two round apart by a few eps * ||a|| per eigenvalue
    rng = np.random.default_rng(6)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = (g + g.conj().T) / 4.0
    lams, v = jacobi_eigh(a)
    assert_values_alone_equal(a, lams)
    ref_lams, _ = loop_jacobi_eigh(a)
    scale = np.max(np.abs(ref_lams))
    assert np.max(np.abs(lams - ref_lams)) <= a.shape[0] * np.finfo(float).eps * scale
    assert np.max(np.abs(a @ v - v * lams)) < 1e-13
    assert np.max(np.abs(v.conj().T @ v - np.eye(a.shape[0]))) < 1e-13


@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_input_rejected(value, vectors):
    a = np.eye(4, dtype=complex)
    a[1, 2] = a[2, 1] = value
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_eigh(a, vectors)


@pytest.mark.parametrize("vectors", [True, False])
def test_unconverged_sweeps_raise(monkeypatch, vectors):
    # one sweep cannot diagonalise a dense 6 x 6 matrix: the next sweep would rotate
    g = np.random.default_rng(9).standard_normal((6, 6))
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    with pytest.raises(ValueError, match="did not converge in 1 sweeps"):
        jacobi_eigh(g + g.T, vectors)
