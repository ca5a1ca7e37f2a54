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
_RDM_BLOCK = 1 << 16  # (determinant, j, k) excitations per one_rdm block


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
        mask, out, k = self.mask, [], 1
        while mask:
            if mask & 1:
                out.append(k)
            mask >>= 1
            k += 1
        return tuple(out)

    @property
    def n_occupied(self) -> int:
        return self.mask.bit_count()

    def has(self, k: int) -> bool:
        return bool((self.mask >> (k - 1)) & 1)

    def __str__(self) -> str:
        return "|" + ",".join(str(k) for k in self.orbitals) + ">"


def enumerate_slaters(space: OrbitalSpace) -> list[SlaterDeterminant]:
    """All n-fermion determinants, ascending by bitmask value (deterministic)."""
    size = space.basis_size
    if size > BASIS_CAP:
        raise CapacityError(f"basis size C({space.d},{space.n}) = {size} exceeds cap {BASIS_CAP}")
    out = []
    v = (1 << space.n) - 1
    limit = 1 << space.d
    while v < limit:
        out.append(SlaterDeterminant(v))
        c = v & -v
        r = v + c
        v = r | (((v ^ r) >> 2) // c)
    return out


def _sign_below(mask: int, k: int) -> int:
    return -1 if (mask & ((1 << (k - 1)) - 1)).bit_count() & 1 else 1


def apply_annihilator(det: SlaterDeterminant, k: int):
    """a_k |det>.  Returns (sign, new det) or None if orbital k is empty."""
    if k < 1 or k > MAX_ORBITALS:
        raise ValueError(f"orbital index {k} outside [1, {MAX_ORBITALS}]")
    bit = 1 << (k - 1)
    if not det.mask & bit:
        return None
    return _sign_below(det.mask, k), SlaterDeterminant(det.mask & ~bit)


def apply_creator(det: SlaterDeterminant, k: int):
    """a_k^dag |det>.  Returns (sign, new det) or None if orbital k is filled."""
    if k < 1 or k > MAX_ORBITALS:
        raise ValueError(f"orbital index {k} outside [1, {MAX_ORBITALS}]")
    bit = 1 << (k - 1)
    if det.mask & bit:
        return None
    return _sign_below(det.mask, k), SlaterDeterminant(det.mask | bit)


@dataclass(frozen=True)
class FermionState:
    """Normalized amplitudes over the n-fermion Slater basis.

    Treat instances as immutable; all operations return new states.
    """

    space: OrbitalSpace
    amplitudes: dict = field(repr=False)

    def __post_init__(self):
        limit = 1 << self.space.d
        for det in self.amplitudes:
            if det.mask >= limit:
                raise ValueError(f"{det} uses orbitals beyond d={self.space.d}")
            if det.n_occupied != self.space.n:
                raise ValueError(f"{det} does not hold n={self.space.n} fermions")
        norm_sq = self.norm_squared()
        # |c|^2 sums to a finite value only if every amplitude is finite
        if not math.isfinite(norm_sq):
            raise ValueError("state has a non-finite amplitude")
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |c|^2 = {norm_sq!r}")

    @classmethod
    def from_amplitudes(cls, space: OrbitalSpace, amplitudes: Mapping) -> "FermionState":
        """The normalized state with these (nonzero) amplitudes."""
        amps = {det: complex(c) for det, c in amplitudes.items() if c != 0}
        norm = math.sqrt(sum(abs(c) ** 2 for c in amps.values()))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return cls(space, {det: c / norm for det, c in amps.items()})

    def norm_squared(self) -> float:
        return sum(abs(c) ** 2 for c in self.amplitudes.values())

    def amplitude(self, det: SlaterDeterminant) -> complex:
        return self.amplitudes.get(det, 0.0 + 0.0j)


def random_state(space: OrbitalSpace, rng: np.random.Generator) -> FermionState:
    """Haar-like random state: i.i.d. standard complex normal amplitudes, normalized."""
    basis = enumerate_slaters(space)
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    c /= np.linalg.norm(c)
    return FermionState(space, dict(zip(basis, c)))


def one_rdm(state: FermionState) -> np.ndarray:
    """1-particle reduced density matrix, rho[j-1, k-1] = <a_k^dag a_j>.

    Hermitian, positive semidefinite, trace n.
    """
    d, n = state.space.d, state.space.n
    m = len(state.amplitudes)
    masks = np.fromiter((det.mask for det in state.amplitudes), dtype=np.uint64, count=m)
    amps = np.fromiter(state.amplitudes.values(), dtype=complex, count=m)
    if not abs(np.vdot(amps, amps).real - 1.0) <= RDM_NORM_TOL:
        raise ValueError("state norm deviates from 1 beyond tolerance")
    # a zero amplitude only adds terms of +-0 to rho, so dropping it leaves
    # rho bit for bit the same
    nonzero = amps != 0
    masks, amps = masks[nonzero], amps[nonzero]
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
        occ = (block[:, None] & bits) != 0                      # (b, d)
        below = np.cumsum(occ, axis=1) - occ                    # occupied strictly below
        j = np.nonzero(occ)[1].reshape(-1, n)                   # (b, n), ascending
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

    src = [(det, c) for det, c in state.amplitudes.items() if c != 0]
    cols = np.array([[k - 1 for k in det.orbitals] for det, _ in src])  # (nsrc, n)
    amps = np.array([c for _, c in src])
    out = {}
    for target in enumerate_slaters(state.space):
        rows = [k - 1 for k in target.orbitals]
        sub = u[rows, :]                        # (n, d)
        minors = sub[:, cols].transpose(1, 0, 2)  # (nsrc, n, n)
        value = np.linalg.det(minors) @ amps
        if value != 0:
            out[target] = complex(value)
    total = sum(abs(c) ** 2 for c in out.values())
    if abs(total - 1.0) > UNITARY_TOL:
        raise ValueError(f"rotation failed to preserve the norm: |c|^2 = {total!r}")
    scale = 1.0 / math.sqrt(total)
    return FermionState(state.space, {det: c * scale for det, c in out.items()})


def write_state_json(state: FermionState, fp) -> None:
    """Serialize a state; amplitudes below STATE_AMPLITUDE_CUTOFF in magnitude are dropped."""
    entries = []
    for det in sorted(state.amplitudes):
        c = state.amplitudes[det]
        if abs(c) > STATE_AMPLITUDE_CUTOFF:
            entries.append({"orbitals": list(det.orbitals),
                            "re": float(np.real(c)), "im": float(np.imag(c))})
    doc = {"d": state.space.d, "n": state.space.n, "amplitudes": entries}
    if hasattr(fp, "write"):
        json.dump(doc, fp)
    else:
        with open(fp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def read_state_json(fp) -> FermionState:
    """Load, validate and renormalize a state file."""
    if hasattr(fp, "read"):
        doc = json.load(fp)
    else:
        with open(fp, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    try:
        space = OrbitalSpace(d=int(doc["d"]), n=int(doc["n"]))
        raw = doc["amplitudes"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"state file missing field: {exc}") from exc
    amps = {}
    for entry in raw:
        orbitals = entry["orbitals"]
        if sorted(orbitals) != list(orbitals):
            raise ValueError(f"orbital list {orbitals} is not strictly increasing")
        det = SlaterDeterminant.from_orbitals(orbitals)
        if det in amps:
            raise ValueError(f"duplicate determinant {det}")
        c = complex(float(entry["re"]), float(entry.get("im", 0.0)))
        if not cmath.isfinite(c):
            raise ValueError(f"amplitude of {det} is not finite: {c!r}")
        amps[det] = c
    return FermionState.from_amplitudes(space, amps)
