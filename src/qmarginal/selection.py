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

from .fock import (FermionState, OrbitalSpace, natural_occupations, occupied, one_rdm,
                   rotate_orbitals, slater_masks)
from .gpc import evaluate

DEGENERACY_GAP = 1e-10


def _check_dims(constraints, d: int) -> list:
    constraints = list(constraints)
    for c in constraints:
        if c.dim != d:
            raise ValueError(f"constraint over d={c.dim}, space has d={d}")
    return constraints


def _operator_values(constraints: list, masks: np.ndarray, d: int) -> np.ndarray:
    """(constraints, determinants) integer eigenvalues of the constraint operators."""
    kappa0 = np.array([c.kappa0 for c in constraints], dtype=np.int64)
    kappas = np.array([c.kappas for c in constraints], dtype=np.int64).reshape(-1, d)
    return kappa0[:, None] + kappas @ occupied(masks, d).T


def zero_eigenspace_slaters(constraints, space: OrbitalSpace) -> np.ndarray:
    """Ascending bitmasks of the determinants annihilated by every constraint operator.

    With no constraint that is the whole basis.
    """
    constraints = _check_dims(constraints, space.d)
    masks = slater_masks(space)
    return masks[~_operator_values(constraints, masks, space.d).any(axis=0)]


def out_of_support_weight(state: FermionState, support: np.ndarray) -> float:
    """Weight of the state outside the given determinant bitmasks, in the state's own basis.

    An ansatz of the selection rule is meant in the natural-orbital basis: pass
    the state of natural_frame().
    """
    return float(np.sum(np.abs(state.amps[~np.isin(state.masks, support)]) ** 2))


@dataclass(frozen=True)
class PinningLemmaReport:
    """One row of `qmarg selection --json`'s lemma_residuals, fields in key order."""
    label: str
    constraint_value: float      # value on the sorted occupation spectrum
    residual_norm: float         # ||D_hat psi|| in the natural-orbital basis
    degenerate: bool             # NO basis ambiguous across constraint coefficients


def natural_frame(state: FermionState) -> tuple[np.ndarray, FermionState]:
    """Decreasing occupations and the state rotated into its natural-orbital basis."""
    lams, orbitals = natural_occupations(one_rdm(state))
    return lams, rotate_orbitals(state, orbitals.conj().T)


def verify_pinning_lemma(frame, constraints) -> list[PinningLemmaReport]:
    """Check, per constraint, that pinning of the occupations kills the operator residual.

    ``frame`` is the pair natural_frame(state): the occupations and the state
    in its natural-orbital basis.  When a degenerate occupation block spans
    unequal constraint coefficients the natural-orbital basis is not unique
    and that check is reported as skipped rather than asserted.
    """
    lams, rotated = frame
    d = rotated.space.d
    constraints = _check_dims(constraints, d)
    # blocks of occupations within DEGENERACY_GAP of the block's first one
    blocks, start = [], 0
    for i in range(1, d + 1):
        if i == d or lams[start] - lams[i] > DEGENERACY_GAP:
            blocks.append(slice(start, i))
            start = i
    values = _operator_values(constraints, rotated.masks, d)
    residual_sq = (values ** 2 * np.abs(rotated.amps) ** 2).sum(axis=1)
    reports = []
    for c, res_sq in zip(constraints, residual_sq.tolist()):
        reports.append(PinningLemmaReport(
            label=c.label, constraint_value=evaluate(c, lams), residual_norm=math.sqrt(res_sq),
            degenerate=any(len(set(c.kappas[block])) > 1 for block in blocks)))
    return reports
