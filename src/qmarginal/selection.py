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

from .fock import (FermionState, OrbitalSpace, SlaterDeterminant, enumerate_slaters,
                   natural_occupations, occupied, one_rdm, rotate_orbitals, slater_masks)
from .gpc import PauliConstraint, PinningReport, evaluate

DEGENERACY_GAP = 1e-10


def slater_value(constraint: PauliConstraint, det: SlaterDeterminant) -> int:
    """Integer eigenvalue of the constraint operator on one determinant."""
    return constraint.kappa0 + sum(constraint.kappas[k - 1] for k in det.orbitals)


def zero_eigenspace_slaters(constraints, space: OrbitalSpace) -> list[SlaterDeterminant]:
    """Determinants annihilated by every constraint operator in the list."""
    constraints = list(constraints)
    if not constraints:
        raise ValueError("need at least one constraint")
    for c in constraints:
        if c.dim != space.d:
            raise ValueError(f"constraint over d={c.dim}, space has d={space.d}")
    return [det for det in enumerate_slaters(space)
            if all(slater_value(c, det) == 0 for c in constraints)]


def reconstruct_ansatz(report: PinningReport, space: OrbitalSpace) -> list[SlaterDeterminant]:
    """Support allowed for a state whose occupations produced the report.

    With no saturated facet constraint there is no restriction and the full
    basis is returned.
    """
    if not report.saturated:
        return enumerate_slaters(space)
    return zero_eigenspace_slaters(report.saturated, space)


def out_of_support_weight(state: FermionState, support) -> float:
    """Weight of the state outside the given determinant list."""
    outside = ~np.isin(state.masks, np.array([det.mask for det in support], dtype=np.uint64))
    return float(sum(abs(c) ** 2 for c in state.amps[outside].tolist()))


@dataclass(frozen=True)
class PinningLemmaReport:
    constraint_value: float      # value on the sorted occupation spectrum
    residual_norm: float         # ||D_hat psi|| in the natural-orbital basis
    residual_bound: float        # spectral radius of D_hat times tol
    pinned: bool                 # constraint_value <= tol
    degenerate: bool             # NO basis ambiguous across constraint coefficients
    note: str = ""


def verify_pinning_lemma(state: FermionState, constraint: PauliConstraint,
                         tol: float = 1e-8) -> PinningLemmaReport:
    """Check that pinning of the occupations kills the operator residual.

    The state is rotated into its natural-orbital basis internally.  When a
    degenerate occupation block spans unequal constraint coefficients the
    natural-orbital basis is not unique and the check is reported as skipped
    rather than asserted.
    """
    if constraint.dim != state.space.d:
        raise ValueError("constraint dimension does not match the state space")
    rho = one_rdm(state)
    lams, orbitals = natural_occupations(rho)
    value = evaluate(constraint, lams)

    degenerate = False
    start = 0
    for i in range(1, state.space.d + 1):
        if i == state.space.d or lams[start] - lams[i] > DEGENERACY_GAP:
            degenerate = degenerate or len(set(constraint.kappas[start:i])) > 1
            start = i

    rotated = rotate_orbitals(state, orbitals.conj().T)
    values = constraint.kappa0 + occupied(rotated.masks, state.space.d) @ constraint.kappas
    residual_sq = sum(v ** 2 * abs(c) ** 2 for v, c in zip(values.tolist(), rotated.amps.tolist()))
    spectral_radius = int(np.max(np.abs(constraint.kappa0 + occupied(
        slater_masks(state.space), state.space.d) @ constraint.kappas)))
    note = "degenerate occupations across constraint coefficients; lemma check skipped" \
        if degenerate else ""
    return PinningLemmaReport(
        constraint_value=value,
        residual_norm=math.sqrt(residual_sq),
        residual_bound=spectral_radius * tol,
        pinned=bool(value <= tol),
        degenerate=degenerate,
        note=note,
    )


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
