"""Selection rule for pinned states.

Every generalized Pauli constraint defines a number operator polynomial that
is diagonal in the Slater basis built from the natural orbitals, with integer
eigenvalues.  States whose occupations saturate the constraint live entirely
in its zero eigenspace, so pinning dictates which determinants may appear in
the expansion.  Verification always rotates the state into its own
natural-orbital basis first; applying the operator in any other basis
falsifies the statement being checked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (FermionState, OrbitalSpace, SlaterDeterminant, natural_occupations,
                   occupied, one_rdm, rotate_orbitals, slater_masks)
from .gpc import evaluate

DEGENERACY_GAP = 1e-10


def _check_dims(constraints, d: int) -> list:
    constraints = list(constraints)
    for c in constraints:
        if c.dim != d:
            raise ValueError(f"constraint over d={c.dim}, space has d={d}")
    return constraints


def zero_eigenspace_slaters(constraints, space: OrbitalSpace) -> np.ndarray:
    """Ascending bitmasks of the determinants annihilated by every constraint operator.

    With no constraint that is the whole basis.
    """
    constraints = _check_dims(constraints, space.d)
    kappa0 = np.array([c.kappa0 for c in constraints], dtype=np.int64)
    kappas = np.array([c.kappas for c in constraints], dtype=np.int64).reshape(-1, space.d)
    masks = slater_masks(space)
    return masks[~(kappa0 + occupied(masks, space.d) @ kappas.T).any(axis=1)]


def out_of_support_weight(state: FermionState, support: np.ndarray) -> float:
    """Weight of the state outside the given determinant bitmasks."""
    outside = ~np.isin(state.masks, support)
    return float(sum(abs(c) ** 2 for c in state.amps[outside].tolist()))


@dataclass(frozen=True)
class PinningLemmaReport:
    constraint_value: float      # value on the sorted occupation spectrum
    residual_norm: float         # ||D_hat psi|| in the natural-orbital basis
    residual_bound: float        # spectral radius of D_hat times tol
    pinned: bool                 # constraint_value <= tol
    degenerate: bool             # NO basis ambiguous across constraint coefficients
    note: str = ""


def verify_pinning_lemma(state: FermionState, constraints,
                         tol: float = 1e-8) -> list[PinningLemmaReport]:
    """Check, per constraint, that pinning of the occupations kills the operator residual.

    The state is rotated into its natural-orbital basis once, internally.
    When a degenerate occupation block spans unequal constraint coefficients
    the natural-orbital basis is not unique and that check is reported as
    skipped rather than asserted.
    """
    d, n = state.space.d, state.space.n
    constraints = _check_dims(constraints, d)
    if not constraints:
        return []
    lams, orbitals = natural_occupations(one_rdm(state))
    # blocks of occupations within DEGENERACY_GAP of the block's first one
    blocks, start = [], 0
    for i in range(1, d + 1):
        if i == d or lams[start] - lams[i] > DEGENERACY_GAP:
            blocks.append(slice(start, i))
            start = i
    rotated = rotate_orbitals(state, orbitals.conj().T)
    occ = occupied(rotated.masks, d)
    reports = []
    for c in constraints:
        value = evaluate(c, lams)
        degenerate = any(len(set(c.kappas[block])) > 1 for block in blocks)
        values = c.kappa0 + occ @ c.kappas
        residual_sq = sum(v ** 2 * abs(a) ** 2
                          for v, a in zip(values.tolist(), rotated.amps.tolist()))
        # the operator's extreme eigenvalues fill the n smallest or n largest kappas
        kappas = sorted(c.kappas)
        spectral_radius = max(abs(c.kappa0 + sum(kappas[:n])), abs(c.kappa0 + sum(kappas[-n:])))
        reports.append(PinningLemmaReport(
            constraint_value=value,
            residual_norm=math.sqrt(residual_sq),
            residual_bound=spectral_radius * tol,
            pinned=bool(value <= tol),
            degenerate=degenerate,
            note="degenerate occupations across constraint coefficients; lemma check skipped"
            if degenerate else "",
        ))
    return reports


def bd_ansatz_state(space: OrbitalSpace, alpha: complex, beta: complex,
                    gamma: complex) -> FermionState:
    """Three-determinant pinned state alpha|1,2,3> + beta|1,4,5> + gamma|2,4,6>.

    The occupation spectrum is sorted iff |alpha|^2 >= |beta|^2 + |gamma|^2 and
    |beta| >= |gamma|; amplitudes violating that are rejected, since the
    constraint applies to sorted spectra.
    """
    if space.d != 6 or space.n != 3:
        raise ValueError("the three-determinant ansatz lives in d=6, n=3")
    a2, b2, g2 = abs(alpha) ** 2, abs(beta) ** 2, abs(gamma) ** 2
    if a2 < b2 + g2 or b2 < g2:
        raise ValueError("amplitudes do not produce a decreasing occupation spectrum")
    return FermionState.from_amplitudes(space, {
        SlaterDeterminant.from_orbitals((1, 2, 3)): alpha,
        SlaterDeterminant.from_orbitals((1, 4, 5)): beta,
        SlaterDeterminant.from_orbitals((2, 4, 6)): gamma,
    })
