"""Helpers shared by the test modules."""
import numpy as np

from qmarginal.fock import SlaterDeterminant


def amplitudes(state) -> dict:
    """The state's amplitudes keyed by determinant, in the state's order."""
    return {SlaterDeterminant(mask): c
            for mask, c in zip(state.masks.tolist(), state.amps.tolist())}


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
