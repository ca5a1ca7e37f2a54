"""Generalized Pauli constraints: catalogs, evaluation, pinning analysis.

A constraint is the affine functional kappa0 + sum_i kappa_i * lam_i with
integer coefficients over a decreasingly ordered occupation vector.  The
Borland-Dennis setting (3 fermions, 6 orbitals) carries the complete catalog,
whose constraints cut out exactly the occupation spectra of pure states, and
``realise`` builds a state for each of them; all other settings ship the
Pauli hypercube plus ordering conditions only and are flagged partial.

Ordering conditions lam_i >= lam_{i+1} are chart conditions of the ordered
parameterization, not polytope facets; they are carried with chamber=True and
excluded from the minimum facet distance and from the saturated facet set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import FermionState, OrbitalSpace, level_masks

DEFAULT_PIN_TOL = 1e-8
EQ_TOL = 1e-6
QUASIPINNING_THRESHOLDS = (1e-2, 1e-4, 1e-6)


@dataclass(frozen=True)
class PauliConstraint:
    kappa0: int
    kappas: tuple[int, ...]
    kind: str  # "eq" or "ineq"
    label: str
    chamber: bool = False  # ordering condition, not a polytope facet

    def __post_init__(self):
        if self.kind not in ("eq", "ineq"):
            raise ValueError(f"kind must be 'eq' or 'ineq', got {self.kind!r}")
        if self.kappa0 == 0 and not any(self.kappas):
            raise ValueError("all coefficients vanish")

    @property
    def dim(self) -> int:
        return len(self.kappas)


def evaluate(constraint: PauliConstraint, lams: Sequence[float]) -> float:
    """kappa0 + kappas . lams"""
    lams = np.asarray(lams, dtype=float)
    if lams.shape != (constraint.dim,):
        raise ValueError(
            f"constraint over d={constraint.dim} evaluated on length-{lams.size} vector")
    return float(constraint.kappa0 + np.dot(constraint.kappas, lams))


@dataclass(frozen=True)
class ConstraintCatalog:
    n: int
    d: int
    constraints: tuple[PauliConstraint, ...]
    completeness: str  # "complete": the constraints cut out the pure-state polytope; else "partial"

    def by_label(self, label: str) -> PauliConstraint:
        for c in self.constraints:
            if c.label == label:
                return c
        raise ValueError(f"no constraint labeled {label!r}")


def _unit(d: int, *positions: int) -> tuple[int, ...]:
    v = [0] * d
    for p in positions:
        v[p - 1] = 1
    return tuple(v)


def _bd36_constraints() -> tuple[PauliConstraint, ...]:
    d = 6
    return (
        PauliConstraint(-1, _unit(d, 1, 6), "eq", "bd-eq1"),
        PauliConstraint(-1, _unit(d, 2, 5), "eq", "bd-eq2"),
        PauliConstraint(-1, _unit(d, 3, 4), "eq", "bd-eq3"),
        PauliConstraint(2, (-1, -1, 0, -1, 0, 0), "ineq", "bd-ineq"),
    )


# settings with constraints beyond the hypercube, keyed by (n, d); extend by
# adding data here, no code changes needed
_EXTRA_CONSTRAINTS = {
    (3, 6): _bd36_constraints(),
}

_COMPLETE_SETTINGS = {(3, 6)}


def catalog(n: int, d: int) -> ConstraintCatalog:
    """Constraint catalog for n fermions in d orbitals.

    Always contains normalization (equality), the Pauli bounds 1 - lam_1 >= 0
    and lam_d >= 0, and the ordering chamber conditions.  Settings present in
    the embedded table add their specific constraints.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if n > d:
        raise ValueError(f"need n <= d, got n={n}, d={d}")
    constraints = [
        PauliConstraint(-n, tuple([1] * d), "eq", "norm"),
        PauliConstraint(1, tuple(-v for v in _unit(d, 1)), "ineq", "pauli-top"),
        PauliConstraint(0, _unit(d, d), "ineq", "pauli-bottom"),
    ]
    for i in range(1, d):
        kappas = [0] * d
        kappas[i - 1] = 1
        kappas[i] = -1
        constraints.append(
            PauliConstraint(0, tuple(kappas), "ineq", f"ord-{i}", chamber=True))
    constraints.extend(_EXTRA_CONSTRAINTS.get((n, d), ()))
    return ConstraintCatalog(n, d, tuple(constraints),
                             "complete" if (n, d) in _COMPLETE_SETTINGS else "partial")


def truncate_spectrum(lams: Sequence[float], d_target: int) -> tuple[np.ndarray, float]:
    """First d_target entries, unrenormalized; eps is the dropped tail weight.

    No renormalization: rescaling would silently shift every constraint value.
    A caller can bound the induced error of a constraint by |kappa|_1 * eps.
    """
    lams = np.asarray(lams, dtype=float)
    if d_target > lams.size:
        raise ValueError(f"cannot truncate length {lams.size} to {d_target}")
    return lams[:d_target].copy(), float(lams[d_target:].sum())


def hf_distance(lams: Sequence[float], n: int) -> float:
    """l2 distance of decreasing occupations to the Hartree-Fock point: n ones, then zeros."""
    hf = np.array(lams, dtype=float)
    hf[:n] -= 1.0
    return float(np.linalg.norm(hf))


@dataclass(frozen=True)
class PinningReport:
    """The pinning verdict; its fields, in order, are the keys of `qmarg gpc --json`."""
    n: int
    d: int
    values: tuple[dict, ...]  # {"label", "kind", "value"} per catalog constraint
    d_min: float
    d_min_label: str
    saturated: tuple[str, ...]  # labels of the facet constraints within pin_tol
    equality_residuals: dict
    equality_violations: tuple[str, ...]
    hf_distance: float
    pin_tol: float
    truncation_weight: float | None
    quasipinning: tuple[tuple[float, bool], ...]


def pinning_report(lams: Sequence[float], cat: ConstraintCatalog,
                   pin_tol: float = DEFAULT_PIN_TOL,
                   truncation_weight: float | None = None) -> PinningReport:
    """Evaluate every catalog constraint on lams and flag (quasi)pinning.

    d_min is the smallest facet-inequality value, the distance-to-boundary
    measure of the quasipinning analysis.  Equalities violated beyond EQ_TOL
    are flagged, never rejected, so truncated spectra remain analyzable.  An
    unsorted lams is refused: the catalog is written for decreasing occupations.
    """
    if not (np.isfinite(pin_tol) and pin_tol >= 0):
        raise ValueError(f"pin_tol must be a finite number >= 0, got {pin_tol!r}")
    lams = np.asarray(lams, dtype=float)
    if lams.shape != (cat.d,):
        raise ValueError(f"catalog is for d={cat.d}, got length-{lams.size} vector")
    if np.any(np.diff(lams) > 0):
        raise ValueError("occupations must be in decreasing order")
    values = []
    saturated = []
    eq_residuals = {}
    eq_violations = []
    d_min = None
    d_min_label = ""
    for c in cat.constraints:
        v = evaluate(c, lams)
        values.append({"label": c.label, "kind": c.kind, "value": v})
        if c.kind == "eq":
            eq_residuals[c.label] = v
            if abs(v) > EQ_TOL:
                eq_violations.append(c.label)
            elif abs(v) <= pin_tol and c.label != "norm":
                saturated.append(c.label)
        elif not c.chamber:
            if d_min is None or v < d_min:
                d_min, d_min_label = v, c.label
            if abs(v) <= pin_tol:
                saturated.append(c.label)
    return PinningReport(
        n=cat.n,
        d=cat.d,
        values=tuple(values),
        d_min=float(d_min),
        d_min_label=d_min_label,
        saturated=tuple(saturated),
        equality_residuals=eq_residuals,
        equality_violations=tuple(eq_violations),
        hf_distance=hf_distance(lams, cat.n),
        pin_tol=pin_tol,
        truncation_weight=truncation_weight,
        quasipinning=tuple((float(t), bool(d_min <= t)) for t in QUASIPINNING_THRESHOLDS),
    )


# Borland-Dennis realiser: a|1,2,3> + b|1,4,5> + c|2,4,6> + delta|3,5,6>; any two
# of its determinants differ in two orbitals, so its 1-RDM is diagonal
_BD_LEVELS = np.array([[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]])
# each squared amplitude is half a signed sum of three occupations in [0, 1] and
# at most the constant 2, so its rounding error stays below a few eps
_SQUARE_ROUNDING = 4 * np.finfo(float).eps


def realise(lams: Sequence[float]) -> FermionState:
    """A (3,6) state whose decreasing occupations are lams.

    The squared amplitudes of the four Borland-Dennis determinants are
    a^2 = (lam1+lam2-lam4)/2, b^2 = (lam1-lam2+lam4)/2, c^2 = (lam2-lam1+lam4)/2
    and delta^2 = (2-lam1-lam2-lam4)/2 = D/2, D the bd-ineq value (Borland and
    Dennis, J. Phys. B 5, 7 (1972)).  Refused: an unsorted lams, an equality
    residual above EQ_TOL or a square below -EQ_TOL.  Squares below
    _SQUARE_ROUNDING are taken as 0, since the square root would turn a rounding
    error of eps into an amplitude of sqrt(eps).
    """
    cat = catalog(3, 6)
    lams = np.asarray(lams, dtype=float)
    if np.any(np.diff(lams) > 0):
        raise ValueError("occupations must be in decreasing order")
    # evaluate also refuses a vector of the wrong length
    for c in cat.constraints:
        if c.kind == "eq" and abs(evaluate(c, lams)) > EQ_TOL:
            raise ValueError(f"{c.label} residual {evaluate(c, lams)!r} exceeds {EQ_TOL:g}")
    l1, l2, l4 = lams[0], lams[1], lams[3]
    squares = np.array([l1 + l2 - l4, l1 - l2 + l4, l2 - l1 + l4, 2.0 - l1 - l2 - l4]) / 2.0
    if squares.min() < -EQ_TOL:
        raise ValueError(f"spectrum outside the polytope: a squared amplitude is {squares.min()!r}")
    amps = np.sqrt(np.where(squares > _SQUARE_ROUNDING, squares, 0.0))
    # the squares sum to 1 up to rounding; zeroing can add up to 4 * EQ_TOL
    return FermionState(OrbitalSpace(d=6, n=3), level_masks(_BD_LEVELS),
                        amps / np.linalg.norm(amps))
