"""Helpers shared by the test modules.

Importable without pytest (``PYTHONPATH=tests``, ``from conftest import ...``),
so a runtime with numpy alone can write state files with it.
"""
import json

import numpy as np

from qmarginal.fock import FermionState, OrbitalSpace, slater_masks

STATE_AMPLITUDE_CUTOFF = 1e-14


def det(*occupied: int) -> int:
    """Bitmask of the determinant of these distinct 1-based orbitals."""
    return sum(1 << (k - 1) for k in occupied)


def orbitals(mask: int) -> tuple[int, ...]:
    """The 1-based occupied orbitals of a determinant bitmask, ascending."""
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def amplitudes(state) -> dict:
    """The state's amplitudes keyed by determinant bitmask, in the state's order."""
    return dict(zip(state.masks.tolist(), state.amps.tolist()))


def make_state(space: OrbitalSpace, amps: dict) -> FermionState:
    """The state with these amplitudes, keyed by determinant bitmask, scaled to unit norm."""
    values = np.array(list(amps.values()), dtype=complex)
    return FermionState(space, list(amps), values / np.sqrt(np.sum(np.abs(values) ** 2)))


def pinned_ansatz_state(rng: np.random.Generator) -> FermionState:
    """A random alpha|1,2,3> + beta|1,4,5> + gamma|2,4,6>, a pinned (3,6) state.

    Complex amplitudes are drawn until |alpha|^2 >= |beta|^2 + |gamma|^2 and
    |beta| >= |gamma|, the orderings under which orbitals 1..6 are the natural
    orbitals in decreasing occupation.
    """
    while True:
        raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        alpha, beta, gamma = raw / np.linalg.norm(raw)
        if abs(alpha) ** 2 >= abs(beta) ** 2 + abs(gamma) ** 2 and abs(beta) >= abs(gamma):
            return make_state(OrbitalSpace(d=6, n=3),
                              {det(1, 2, 3): alpha, det(1, 4, 5): beta, det(2, 4, 6): gamma})


def random_state(space: OrbitalSpace, rng: np.random.Generator) -> FermionState:
    """Haar-like random state: i.i.d. standard complex normal amplitudes, normalized."""
    masks = slater_masks(space)
    c = rng.standard_normal(masks.size) + 1j * rng.standard_normal(masks.size)
    c /= np.linalg.norm(c)
    return FermionState(space, masks, c)


def write_state_json(state: FermionState, fp) -> None:
    """Serialize a state; amplitudes below STATE_AMPLITUDE_CUTOFF in magnitude are dropped."""
    entries = [{"orbitals": list(orbitals(mask)), "re": c.real, "im": c.imag}
               for mask, c in sorted(zip(state.masks.tolist(), state.amps.tolist()))
               if abs(c) > STATE_AMPLITUDE_CUTOFF]
    doc = {"d": state.space.d, "n": state.space.n, "amplitudes": entries}
    if hasattr(fp, "write"):
        json.dump(doc, fp)
    else:
        with open(fp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def random_pure_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Projector on a normalized complex Gaussian vector."""
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_mixed_density(d: int, rng: np.random.Generator,
                         rank: int | None = None) -> np.ndarray:
    """Wishart-type GG^dag / Tr, with configurable rank."""
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))
