"""Finite fermionic Fock space over d orbitals.

Slater determinants are occupation bitmasks: orbital i (1-based, i <= d) is
stored at bit i-1.  The determinant |k1,...,kN> with k1 < ... < kN is the
state a_k1^dag ... a_kN^dag |vac>, which fixes every sign in this package:
an operator a_k / a_k^dag acting on a determinant picks up
(-1)^(number of occupied orbitals below k).
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .linalg import jacobi_eigh

MAX_ORBITALS = 64
BASIS_CAP = 10 ** 6
NORM_TOL = 1e-12
RDM_NORM_TOL = 1e-8
HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
STATE_AMPLITUDE_CUTOFF = 1e-14
_RDM_BLOCK = 1 << 16  # one_rdm excitations, or rotate_orbitals minors, per block


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


@dataclass(frozen=True, order=True)
class SlaterDeterminant:
    """Occupation bitmask; orbital i sits at bit i-1."""

    mask: int

    @classmethod
    def from_orbitals(cls, orbitals: Iterable[int]) -> "SlaterDeterminant":
        mask = 0
        for k in orbitals:
            if k < 1 or k > MAX_ORBITALS:
                raise ValueError(f"orbital index {k} outside [1, {MAX_ORBITALS}]")
            bit = 1 << (k - 1)
            if mask & bit:
                raise ValueError(f"orbital {k} listed twice")
            mask |= bit
        return cls(mask)

    @property
    def orbitals(self) -> tuple[int, ...]:
        return tuple(k + 1 for k in range(self.mask.bit_length()) if self.mask >> k & 1)

    def __str__(self) -> str:
        return "|" + ",".join(str(k) for k in self.orbitals) + ">"


def slater_masks(space: OrbitalSpace) -> np.ndarray:
    """All n-fermion determinants as uint64 bitmasks, ascending (deterministic)."""
    size = space.basis_size
    if size > BASIS_CAP:
        raise CapacityError(f"basis size C({space.d},{space.n}) = {size} exceeds cap {BASIS_CAP}")
    levels = np.array(list(itertools.combinations(range(space.d), space.n)), dtype=np.uint64)
    return np.sort(np.bitwise_or.reduce(np.uint64(1) << levels, axis=1))


def occupied(masks, d: int) -> np.ndarray:
    """Boolean (len(masks), d) table: entry [i, k] says whether masks[i] fills orbital k+1."""
    bits = np.left_shift(np.uint64(1), np.arange(d, dtype=np.uint64))
    return (np.asarray(masks, dtype=np.uint64)[:, None] & bits) != 0


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
            raise ValueError(f"{SlaterDeterminant(int(bad[0]))} is no n={n} determinant in d={d}")
        repeated = np.delete(masks, np.unique(masks, return_index=True)[1])
        if repeated.size:
            raise ValueError(f"duplicate determinant {SlaterDeterminant(int(repeated[0]))}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("state has a non-finite amplitude")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |c|^2 = {norm_sq!r}")

    @classmethod
    def from_amplitudes(cls, space: OrbitalSpace, amplitudes: Mapping) -> "FermionState":
        """The normalized state with these amplitudes, keyed by SlaterDeterminant."""
        return _normalized(space, [det.mask for det in amplitudes], list(amplitudes.values()))


def _normalized(space: OrbitalSpace, masks, amps) -> FermionState:
    """The state with these amplitudes scaled to unit norm."""
    amps = np.asarray(amps, dtype=complex)
    # Python's complex abs and float power: numpy's differ in the last bit
    try:
        norm_sq = sum(abs(c) ** 2 for c in amps.tolist())
        if math.isinf(norm_sq):
            raise OverflowError
    except OverflowError:
        raise ValueError("amplitude magnitudes overflow when squared") from None
    if norm_sq < np.finfo(float).tiny:
        raise ValueError("amplitude magnitudes underflow when squared"
                         if amps.any() else "cannot normalize the zero state")
    # each part divided on its own, as Python divides a complex by a float
    return FermionState(space, masks, (amps.view(float) / math.sqrt(norm_sq)).view(complex))


def random_state(space: OrbitalSpace, rng: np.random.Generator) -> FermionState:
    """Haar-like random state: i.i.d. standard complex normal amplitudes, normalized."""
    masks = slater_masks(space)
    c = rng.standard_normal(masks.size) + 1j * rng.standard_normal(masks.size)
    c /= np.linalg.norm(c)
    return FermionState(space, masks, c)


def one_rdm(state: FermionState) -> np.ndarray:
    """1-particle reduced density matrix, rho[j-1, k-1] = <a_k^dag a_j>.

    Hermitian, positive semidefinite, trace n.
    """
    d, n = state.space.d, state.space.n
    if not abs(np.vdot(state.amps, state.amps).real - 1.0) <= RDM_NORM_TOL:
        raise ValueError("state norm deviates from 1 beyond tolerance")
    # a zero amplitude only adds terms of +-0 to rho, so dropping it leaves
    # rho bit for bit the same
    nonzero = state.amps != 0
    masks, amps = state.masks[nonzero], state.amps[nonzero]
    m = masks.size
    order = np.argsort(masks)
    sorted_masks = masks[order]
    bits = np.left_shift(np.uint64(1), np.arange(d, dtype=np.uint64))

    # Every (determinant, j, k) excitation a_k^dag a_j, laid out determinant-
    # major, then j and k ascending: np.add.at adds in that order, the order
    # of the plain loop over determinants, so each entry sums its terms in
    # the same sequence.  Blocks bound the (dets, n, d) temporaries.
    rho = np.zeros(d * d, dtype=complex)
    step = max(1, _RDM_BLOCK // (n * d))
    for start in range(0, m, step):
        block = masks[start:start + step]
        occ = occupied(block, d)                                # (b, d)
        below = np.cumsum(occ, axis=1) - occ                    # occupied strictly below
        j = levels(block, d, n)                                 # (b, n)
        reduced = block[:, None] & ~bits[j]                     # a_j |det>
        # where k is occupied in reduced, a_k^dag gives 0 and the target holds
        # n-1 fermions, so it matches no determinant of the state
        targets = reduced[:, :, None] | bits                    # (b, n, d)
        # sign of a_j on det, then of a_k^dag on the reduced determinant
        parity = (np.take_along_axis(below, j, axis=1)[:, :, None]
                  + below[:, None, :] - (np.arange(d) > j[:, :, None]))
        pos = np.minimum(np.searchsorted(sorted_masks, targets), m - 1)
        hit = sorted_masks[pos] == targets
        sign = 1.0 - 2.0 * (parity[hit] & 1)
        c_target = amps[order[pos[hit]]]
        c = np.broadcast_to(amps[start:start + step, None, None], hit.shape)[hit]
        # sign * conj(c_target) * c, spelled out in real arithmetic: numpy's
        # vectorised complex product may round differently from a scalar one
        term = np.empty(c.shape, dtype=complex)
        term.real = sign * (c_target.real * c.real + c_target.imag * c.imag)
        term.imag = sign * (c_target.real * c.imag - c_target.imag * c.real)
        np.add.at(rho, (j[:, :, None] * d + np.arange(d))[hit], term)
    return rho.reshape(d, d)


def natural_occupations(rdm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decreasing eigenvalues of a 1-RDM and the natural orbitals (columns).

    Within a degenerate block the orbital order is whatever the eigensolver
    produces; only the occupation values are contractual.
    """
    rdm = np.asarray(rdm)
    if not np.all(np.isfinite(rdm)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(rdm - rdm.conj().T)) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return jacobi_eigh(rdm)


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
    cols = levels(state.masks[nonzero], d, n)                   # (nsrc, n)
    amps = state.amps[nonzero]
    targets = slater_masks(state.space)
    rows = levels(targets, d, n)
    values = np.empty(targets.size, dtype=complex)
    # blocks of targets bound the (targets, sources, n, n) minors; a batched
    # matmul sums each row as the 1-D dot of one target does, a 2-D one does not
    step = max(1, _RDM_BLOCK // cols.shape[0])
    for start in range(0, targets.size, step):
        dets = np.linalg.det(u[rows[start:start + step, None, :, None], cols[None, :, None, :]])
        values[start:start + step] = np.matmul(dets[:, None, :], amps[:, None])[:, 0, 0]
    targets, values = targets[values != 0], values[values != 0]
    total = sum(abs(c) ** 2 for c in values.tolist())
    if abs(total - 1.0) > UNITARY_TOL:
        raise ValueError(f"rotation failed to preserve the norm: |c|^2 = {total!r}")
    return FermionState(state.space, targets, values * (1.0 / math.sqrt(total)))


def write_state_json(state: FermionState, fp) -> None:
    """Serialize a state; amplitudes below STATE_AMPLITUDE_CUTOFF in magnitude are dropped."""
    entries = [{"orbitals": list(SlaterDeterminant(mask).orbitals), "re": c.real, "im": c.imag}
               for mask, c in sorted(zip(state.masks.tolist(), state.amps.tolist()))
               if abs(c) > STATE_AMPLITUDE_CUTOFF]
    doc = {"d": state.space.d, "n": state.space.n, "amplitudes": entries}
    if hasattr(fp, "write"):
        json.dump(doc, fp)
    else:
        with open(fp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _read_entry(index: int, entry) -> tuple[int, complex]:
    """Bitmask and amplitude of the index-th state-file entry."""
    where = f"amplitude entry {index} ({json.dumps(entry)[:80]})"
    if not isinstance(entry, dict) or not {"orbitals", "re"} <= entry.keys():
        raise ValueError(f'{where}: need an object with "orbitals", "re" and optionally "im"')
    orbitals = entry["orbitals"]
    if (not isinstance(orbitals, list) or any(type(k) is not int for k in orbitals)
            or any(a >= b for a, b in zip([0, *orbitals], [*orbitals, MAX_ORBITALS + 1]))):
        raise ValueError(f"{where}: need strictly increasing orbitals in [1, {MAX_ORBITALS}]")
    try:
        c = complex(float(entry["re"]), float(entry.get("im", 0.0)))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where}: re and im must be numbers in the float range") from None
    if not cmath.isfinite(c):
        raise ValueError(f"{where}: amplitude is not finite: {c!r}")
    return SlaterDeterminant.from_orbitals(orbitals).mask, c


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
