"""Helpers shared by the test modules.

Importable without pytest (``PYTHONPATH=tests``, ``from conftest import ...``),
so a runtime with numpy alone can write state files with it.
"""
import json

import numpy as np

from qmarginal.fock import FermionState, OrbitalSpace, SlaterDeterminant, slater_masks
from qmarginal.gpc import ConstraintCatalog

STATE_AMPLITUDE_CUTOFF = 1e-14


def amplitudes(state) -> dict:
    """The state's amplitudes keyed by determinant, in the state's order."""
    return {SlaterDeterminant(mask): c
            for mask, c in zip(state.masks.tolist(), state.amps.tolist())}


def random_state(space: OrbitalSpace, rng: np.random.Generator) -> FermionState:
    """Haar-like random state: i.i.d. standard complex normal amplitudes, normalized."""
    masks = slater_masks(space)
    c = rng.standard_normal(masks.size) + 1j * rng.standard_normal(masks.size)
    c /= np.linalg.norm(c)
    return FermionState(space, masks, c)


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


def catalog_to_json(cat: ConstraintCatalog) -> dict:
    """The catalog as the document catalog_from_json reads."""
    return {
        "n": cat.n,
        "d": cat.d,
        "completeness": cat.completeness,
        "constraints": [
            {"kappa0": c.kappa0, "kappas": list(c.kappas), "kind": c.kind,
             "label": c.label, "chamber": c.chamber}
            for c in cat.constraints
        ],
    }


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
