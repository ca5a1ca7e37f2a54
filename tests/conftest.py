"""Helpers shared by the test modules."""
from qmarginal.fock import SlaterDeterminant


def amplitudes(state) -> dict:
    """The state's amplitudes keyed by determinant, in the state's order."""
    return {SlaterDeterminant(mask): c
            for mask, c in zip(state.masks.tolist(), state.amps.tolist())}
