"""Generalized Pauli constraints: catalogs, evaluation, pinning analysis.

A constraint is the affine functional kappa0 + sum_i kappa_i * lam_i with
integer coefficients over a decreasingly ordered occupation vector.  The
Borland-Dennis setting (3 fermions, 6 orbitals) carries the complete catalog;
all other settings ship the Pauli hypercube plus ordering conditions only and
are flagged partial.

Ordering conditions lam_i >= lam_{i+1} are chart conditions of the ordered
parameterization, not polytope facets; they are carried with chamber=True and
excluded from the minimum facet distance and from the saturated facet set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    completeness: str  # "complete" or "partial"

    def by_label(self, label: str) -> PauliConstraint:
        for c in self.constraints:
            if c.label == label:
                return c
        raise KeyError(f"no constraint labeled {label!r}")

    def equalities(self) -> tuple[PauliConstraint, ...]:
        return tuple(c for c in self.constraints if c.kind == "eq")


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
    complete = (n, d) in _COMPLETE_SETTINGS or n == 1
    return ConstraintCatalog(n, d, tuple(constraints),
                             "complete" if complete else "partial")


def truncate_spectrum(lams: Sequence[float], d_target: int) -> tuple[np.ndarray, float]:
    """First d_target entries, unrenormalized; eps is the dropped tail weight.

    No renormalization: rescaling would silently shift every constraint value.
    A caller can bound the induced error of a constraint by |kappa|_1 * eps.
    """
    lams = np.asarray(lams, dtype=float)
    if d_target > lams.size:
        raise ValueError(f"cannot truncate length {lams.size} to {d_target}")
    return lams[:d_target].copy(), float(lams[d_target:].sum())


@dataclass(frozen=True)
class PinningReport:
    n: int
    d: int
    values: tuple[tuple[str, str, float], ...]  # (label, kind, value)
    d_min: float
    d_min_label: str
    saturated: tuple[PauliConstraint, ...]  # facet constraints within pin_tol
    equality_residuals: dict
    equality_violations: tuple[str, ...]
    hf_distance: float
    pin_tol: float
    truncation_weight: float | None
    quasipinning: tuple[tuple[float, bool], ...]

    def saturated_labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.saturated)


def pinning_report(lams: Sequence[float], cat: ConstraintCatalog,
                   pin_tol: float = DEFAULT_PIN_TOL,
                   truncation_weight: float | None = None) -> PinningReport:
    """Evaluate every catalog constraint on lams and flag (quasi)pinning.

    d_min is the smallest facet-inequality value, the distance-to-boundary
    measure of the quasipinning analysis.  Equalities violated beyond EQ_TOL
    are flagged, never rejected, so truncated spectra remain analyzable.
    """
    if not (np.isfinite(pin_tol) and pin_tol >= 0):
        raise ValueError(f"pin_tol must be a finite number >= 0, got {pin_tol!r}")
    lams = np.asarray(lams, dtype=float)
    if lams.shape != (cat.d,):
        raise ValueError(f"catalog is for d={cat.d}, got length-{lams.size} vector")
    values = []
    saturated = []
    eq_residuals = {}
    eq_violations = []
    d_min = None
    d_min_label = ""
    for c in cat.constraints:
        v = evaluate(c, lams)
        values.append((c.label, c.kind, v))
        if c.kind == "eq":
            eq_residuals[c.label] = v
            if abs(v) > EQ_TOL:
                eq_violations.append(c.label)
            elif abs(v) <= pin_tol and c.label != "norm":
                saturated.append(c)
        elif not c.chamber:
            if d_min is None or v < d_min:
                d_min, d_min_label = v, c.label
            if abs(v) <= pin_tol:
                saturated.append(c)
    hf = lams.copy()
    hf[:cat.n] -= 1.0
    return PinningReport(
        n=cat.n,
        d=cat.d,
        values=tuple(values),
        d_min=float(d_min),
        d_min_label=d_min_label,
        saturated=tuple(saturated),
        equality_residuals=eq_residuals,
        equality_violations=tuple(eq_violations),
        hf_distance=float(np.linalg.norm(hf)),
        pin_tol=pin_tol,
        truncation_weight=truncation_weight,
        quasipinning=tuple((float(t), bool(d_min <= t)) for t in QUASIPINNING_THRESHOLDS),
    )


def catalog_to_json(cat: ConstraintCatalog) -> dict:
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


def catalog_from_json(doc: dict) -> ConstraintCatalog:
    constraints = tuple(
        PauliConstraint(int(e["kappa0"]), tuple(int(k) for k in e["kappas"]),
                        e["kind"], e["label"], bool(e.get("chamber", False)))
        for e in doc["constraints"]
    )
    return ConstraintCatalog(int(doc["n"]), int(doc["d"]), constraints,
                             doc.get("completeness", "partial"))
