"""Finite fermionic Fock space over d orbitals.

Slater determinants are occupation bitmasks: orbital i (1-based, i <= d) is
stored at bit i-1.  The determinant |k1,...,kN> with k1 < ... < kN is the
state a_k1^dag ... a_kN^dag |vac>, which fixes every sign in this package:
an operator a_k / a_k^dag acting on a determinant picks up
(-1)^(number of occupied orbitals below k).
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import jacobi_eigh

MAX_ORBITALS = 64
BASIS_CAP = 10 ** 6
NORM_TOL = 1e-12
RDM_NORM_TOL = 1e-8
HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
_MINOR_BLOCK = 1 << 16  # (target, source) minors per block of rotate_orbitals
# minors of one rotate_orbitals call, 180-330 ns each: admits a dense (3,28) state
# (1.07e7 minors, 2.0 s on 2 Xeon vCPUs) and refuses a dense (3,31) one (2.02e7)
MAX_ROTATION_MINORS = 2 * 10 ** 7


class CapacityError(ValueError):
    """Requested Slater basis exceeds the configured size cap."""


@dataclass(frozen=True)
class OrbitalSpace:
    """d-dimensional 1-particle space holding n fermions."""

    d: int
    n: int

    def __post_init__(self):
        if not (1 <= self.n <= self.d):
            raise ValueError(f"need 1 <= n <= d, got n={self.n}, d={self.d}")
        if self.d > MAX_ORBITALS:
            raise ValueError(f"d={self.d} exceeds the bitmask capacity {MAX_ORBITALS}")

    @property
    def basis_size(self) -> int:
        return math.comb(self.d, self.n)


def ket(mask: int) -> str:
    """The determinant of this bitmask as a ket of its orbitals, e.g. |1,2,4>."""
    return "|" + ",".join(str(k + 1) for k in range(mask.bit_length()) if mask >> k & 1) + ">"


def level_table(d: int, n: int) -> np.ndarray:
    """(C(d, n), n) table of the n-subsets of range(d), 1 <= n <= d, each row
    ascending and the rows in the lexicographic order of itertools.combinations."""
    table = np.zeros((1, 0), dtype=np.intp)
    low = np.zeros(1, dtype=np.intp)  # the least next level of each row
    for j in range(n):
        # a row extends by each level low .. d-n+j, leaving room for the rest
        counts = d - n + j + 1 - low
        offsets = np.cumsum(counts) - counts - low
        level = np.arange(counts.sum()) - np.repeat(offsets, counts)
        table = np.column_stack([np.repeat(table, counts, axis=0), level])
        low = level + 1
    return table


def slater_masks(space: OrbitalSpace) -> np.ndarray:
    """All n-fermion determinants as uint64 bitmasks, ascending (deterministic)."""
    size = space.basis_size
    if size > BASIS_CAP:
        raise CapacityError(f"basis size C({space.d},{space.n}) = {size} exceeds cap {BASIS_CAP}")
    return np.sort(level_masks(level_table(space.d, space.n)))


def level_masks(levels: np.ndarray) -> np.ndarray:
    """uint64 bitmask of each row of a table of 0-based levels, in the table's order."""
    return np.bitwise_or.reduce(np.uint64(1) << levels.astype(np.uint64), axis=1)


def occupied(masks, d: int) -> np.ndarray:
    """Boolean (len(masks), d) table: entry [i, k] says whether masks[i] fills orbital k+1."""
    octets = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=d, bitorder="little").view(bool)


def levels(masks, d: int, n: int) -> np.ndarray:
    """(len(masks), n) table of the occupied orbitals of n-fermion masks, 0-based, ascending."""
    return np.nonzero(occupied(masks, d))[1].reshape(-1, n)


@dataclass(frozen=True)
class FermionState:
    """Normalized amplitudes over n-fermion Slater determinants.

    amps[i] is the amplitude of the determinant with bitmask masks[i]; the
    masks are distinct and keep the caller's order.  Treat instances as
    immutable; all operations return new states.
    """

    space: OrbitalSpace
    masks: np.ndarray = field(repr=False)
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "masks", np.asarray(self.masks, dtype=np.uint64))
        object.__setattr__(self, "amps", np.asarray(self.amps, dtype=complex))
        masks, amps, d, n = self.masks, self.amps, self.space.d, self.space.n
        if masks.ndim != 1 or amps.shape != masks.shape:
            raise ValueError(f"need one amplitude per mask, got {amps.shape} and {masks.shape}")
        bad = masks[(masks >> np.uint64(d) != 0) | (occupied(masks, d).sum(axis=1) != n)]
        if bad.size:
            raise ValueError(f"{ket(int(bad[0]))} is no n={n} determinant in d={d}")
        repeated = np.delete(masks, np.unique(masks, return_index=True)[1])
        if repeated.size:
            raise ValueError(f"duplicate determinant {ket(int(repeated[0]))}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("state has a non-finite amplitude")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |c|^2 = {norm_sq!r}")


def _normalized(space: OrbitalSpace, masks, amps) -> FermionState:
    """The state with these amplitudes scaled to unit norm."""
    amps = np.asarray(amps, dtype=complex)
    with np.errstate(over="ignore"):
        norm_sq = np.sum(np.abs(amps) ** 2)
    if np.isinf(norm_sq):
        raise ValueError("amplitude magnitudes overflow when squared")
    if norm_sq < np.finfo(float).tiny:
        raise ValueError("amplitude magnitudes underflow when squared"
                         if amps.any() else "cannot normalize the zero state")
    return FermionState(space, masks, amps / np.sqrt(norm_sq))


def _hole_matrix(masks: np.ndarray, amps: np.ndarray, d: int, n: int) -> np.ndarray:
    """The hole matrix A of ``one_rdm`` for these determinants and amplitudes."""
    # levels ascend, so column i of j holds the orbital with i occupied below it
    j = levels(masks, d, n)                                     # (m, n)
    bits = np.left_shift(np.uint64(1), np.arange(d, dtype=np.uint64))
    rows, index = np.unique(masks[:, None] ^ bits[j], return_inverse=True)
    a = np.zeros((rows.size, d), dtype=complex)
    # numpy 2.0.0 returns the inverse flat, later releases in the input's shape
    a[index.reshape(masks.size, n), j] = amps[:, None] * (1.0 - 2.0 * (np.arange(n) % 2))
    return a


def one_rdm(state: FermionState) -> np.ndarray:
    """1-particle reduced density matrix, rho[j-1, k-1] = <a_k^dag a_j>.

    Hermitian, positive semidefinite, trace n.  It is Löwdin's contraction over
    the n-1 fermions left after one is removed, one matrix product
    rho = A^T conj(A) over the hole matrix A: a row per distinct (n-1)-fermion
    mask R, with A[R, j-1] = (-1)^i c_K for each determinant K = R + {j} in
    which j is the i-th occupied orbital (i from 0, orbitals ascending).
    """
    d, n = state.space.d, state.space.n
    if not abs(np.vdot(state.amps, state.amps).real - 1.0) <= RDM_NORM_TOL:
        raise ValueError("state norm deviates from 1 beyond tolerance")
    # a zero amplitude would only add terms of +-0 to rho
    nonzero = state.amps != 0
    # A is built in a frame of its own, so its (dets, n) index tables are
    # freed before the product and its conjugate copy
    a = _hole_matrix(state.masks[nonzero], state.amps[nonzero], d, n)
    rho = a.T @ a.conj()
    # exactly Hermitian; where the product already is (real amplitudes), no
    # bit changes
    return (rho + rho.conj().T) / 2


def natural_occupations(rdm: np.ndarray,
                        vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Decreasing eigenvalues of a 1-RDM and the natural orbitals (columns).

    Within a degenerate block the orbital order is whatever the eigensolver
    produces; only the occupation values are contractual.  With
    ``vectors=False`` the orbitals are not formed and come back as None; the
    occupations are the same bit for bit.
    """
    rdm = np.asarray(rdm)
    if not np.all(np.isfinite(rdm)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(rdm - rdm.conj().T)) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return jacobi_eigh(rdm, vectors)


def rotate_orbitals(state: FermionState, u: np.ndarray) -> FermionState:
    """Transform amplitudes under the 1-particle basis change u.

    The wedge-space action sends c_J to sum_I det(u[J, I]) c_I over the
    occupied row/column index sets.  Norm is preserved (checked)."""
    d = state.space.d
    n = state.space.n
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix, got {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > UNITARY_TOL:
        raise ValueError("matrix is not unitary within tolerance")

    nonzero = state.amps != 0
    amps = state.amps[nonzero]
    if state.space.basis_size * amps.size > MAX_ROTATION_MINORS:
        raise CapacityError(f"rotating {amps.size} amplitudes onto C({d},{n}) determinants "
                            f"needs more than the {MAX_ROTATION_MINORS:.0e} minors allowed")
    cols = levels(state.masks[nonzero], d, n)                   # (nsrc, n)
    targets = slater_masks(state.space)
    rows = levels(targets, d, n)
    values = np.empty(targets.size, dtype=complex)
    # blocks of targets bound the (targets, sources, n, n) minors; a batched
    # matmul sums each row as the 1-D dot of one target does, a 2-D one does not
    step = max(1, _MINOR_BLOCK // cols.shape[0])
    for start in range(0, targets.size, step):
        dets = np.linalg.det(u[rows[start:start + step, None, :, None], cols[None, :, None, :]])
        values[start:start + step] = np.matmul(dets[:, None, :], amps[:, None])[:, 0, 0]
    targets, values = targets[values != 0], values[values != 0]
    total = np.sum(np.abs(values) ** 2)
    if abs(total - 1.0) > UNITARY_TOL:
        raise ValueError(f"rotation failed to preserve the norm: |c|^2 = {float(total)!r}")
    return FermionState(state.space, targets, values / np.sqrt(total))


def _entry_error(index: int, entry, reason: str) -> ValueError:
    """The error for a rejected state-file entry; the entry is quoted only here."""
    return ValueError(f"amplitude entry {index} ({json.dumps(entry)[:80]}): {reason}")


def _read_entry(index: int, entry) -> tuple[int, complex]:
    """Bitmask and amplitude of the index-th state-file entry."""
    if not isinstance(entry, dict) or not {"orbitals", "re"} <= entry.keys():
        raise _entry_error(index, entry, 'need an object with "orbitals", "re" and optionally "im"')
    orbitals = entry["orbitals"]
    if (not isinstance(orbitals, list) or any(type(k) is not int for k in orbitals)
            or any(a >= b for a, b in zip([0, *orbitals], [*orbitals, MAX_ORBITALS + 1]))):
        raise _entry_error(index, entry, f"need strictly increasing orbitals in [1, {MAX_ORBITALS}]")
    re, im = entry["re"], entry.get("im", 0.0)
    try:
        # JSON numbers load as int or float; a string or a boolean is no amplitude
        if type(re) not in (int, float) or type(im) not in (int, float):
            raise TypeError
        c = complex(re, im)
    except (TypeError, OverflowError):
        raise _entry_error(index, entry, "re and im must be numbers in the float range") from None
    if not cmath.isfinite(c):
        raise _entry_error(index, entry, f"amplitude is not finite: {c!r}")
    return sum(1 << (k - 1) for k in orbitals), c


def read_state_json(fp) -> FermionState:
    """Load, validate and renormalize a state file."""
    if hasattr(fp, "read"):
        doc = json.load(fp)
    else:
        with open(fp, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    if not (isinstance(doc, dict) and {"d", "n", "amplitudes"} <= doc.keys()
            and type(doc["d"]) is type(doc["n"]) is int and isinstance(doc["amplitudes"], list)):
        raise ValueError('a state file needs integers "d", "n" and a list "amplitudes"')
    entries = [_read_entry(i, entry) for i, entry in enumerate(doc["amplitudes"], start=1)]
    return _normalized(OrbitalSpace(d=doc["d"], n=doc["n"]), [mask for mask, _ in entries],
                       [c for _, c in entries])
