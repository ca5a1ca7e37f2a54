"""Flags, Schubert cells and empirical spectral-inequality testing.

A non-degenerate Hermitian operator orders its eigenvectors into a complete
flag; a binary sequence pi marks the positions where the intersection of a
subspace with the flag jumps dimension, which indexes a Schubert cell.  The
Hersch-Zwahlen variational principle writes any eigenvalue subset sum as the
minimum of Tr[P_V rho] over the corresponding open cell.  Candidate spectral
inequalities between a bipartite state and its marginal are tested by Monte
Carlo sampling; a clean verdict is evidence rather than proof, since the
cohomological intersection criterion that would decide validity exactly is
not implemented here.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ORTHO_TOL = 1e-10
GAP_TOL = 1e-10
RANK_TOL_FACTOR = 1e-8
# singular values within a decade of the threshold are reported, not guessed
RANK_GUARD = 10.0
HZ_VALUE_TOL = 1e-10
HZ_SAMPLE_TOL = 1e-9
INEQUALITY_MARGIN = 1e-10
# trials sampled and reduced as one stack; bounds the memory of a check
TRIAL_BLOCK = 256
_SCREEN_SLACK = 1e-12


class DegenerateSpectrumError(ValueError):
    """The operation requires a non-degenerate spectrum."""


class IndeterminateRankError(ValueError):
    """A singular value sits too close to the rank threshold to decide."""


@dataclass(frozen=True)
class Flag:
    """Complete flag: F_i is the span of the first i columns of basis."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("flag basis must be a square matrix")
        if np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))) > ORTHO_TOL:
            raise ValueError("flag basis is not orthonormal within tolerance")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def subspace(self, i: int) -> np.ndarray:
        """Orthonormal frame of F_i."""
        return self.basis[:, :i]


def induced_flag(a: np.ndarray) -> Flag:
    """Flag of eigenvectors ordered by decreasing eigenvalue.

    Requires a non-degenerate spectrum (minimal gap above GAP_TOL); the
    ordering, hence the flag, is undefined otherwise.
    """
    a = np.asarray(a)
    if np.max(np.abs(a - a.conj().T)) > ORTHO_TOL:
        raise ValueError("expected a Hermitian matrix")
    lams, vecs = np.linalg.eigh(a)
    lams, vecs = lams[::-1], vecs[:, ::-1]
    gaps = -np.diff(lams)
    if gaps.size and np.min(gaps) <= GAP_TOL:
        raise DegenerateSpectrumError(
            f"spectral gap {np.min(gaps):.3e} at or below {GAP_TOL:.1e}")
    return Flag(vecs.astype(complex))


def _check_frame(frame: np.ndarray, d: int) -> np.ndarray:
    frame = np.asarray(frame, dtype=complex)
    if frame.ndim != 2 or frame.shape[0] != d:
        raise ValueError(f"expected a frame of {d}-vectors, got shape {frame.shape}")
    k = frame.shape[1]
    if k and np.max(np.abs(frame.conj().T @ frame - np.eye(k))) > ORTHO_TOL:
        raise ValueError("frame is not orthonormal within tolerance")
    return frame


def _rank(matrix: np.ndarray) -> int:
    if matrix.shape[1] == 0:
        return 0
    sing = np.linalg.svd(matrix, compute_uv=False)
    threshold = RANK_TOL_FACTOR * sing[0] if sing[0] > 0 else RANK_TOL_FACTOR
    near = (sing > threshold / RANK_GUARD) & (sing < threshold * RANK_GUARD)
    if np.any(near):
        raise IndeterminateRankError(
            "singular value within a decade of the rank threshold")
    return int(np.sum(sing > threshold))


def _validate_pi(pi: Sequence[int], d: int) -> tuple[int, ...]:
    pi = tuple(int(b) for b in pi)
    if len(pi) != d:
        raise ValueError(f"binary sequence length {len(pi)} does not match d={d}")
    if any(b not in (0, 1) for b in pi):
        raise ValueError("binary sequence entries must be 0 or 1")
    return pi


def schubert_membership(frame: np.ndarray, flag: Flag, pi: Sequence[int]) -> bool:
    """Whether span(frame) has the intersection-jump pattern pi against flag.

    dim(V intersect F_i) is computed as dim V + i - rank([frame | F_i]); rank
    decisions sit on a singular-value threshold, so borderline inputs raise
    IndeterminateRankError instead of guessing.
    """
    d = flag.dim
    pi = _validate_pi(pi, d)
    frame = _check_frame(frame, d)
    k = frame.shape[1]
    if sum(pi) != k:
        raise ValueError(f"weight of pi is {sum(pi)}, subspace dimension is {k}")
    previous = 0
    for i in range(1, d + 1):
        stacked = np.hstack([frame, flag.subspace(i)])
        dim_cap = k + i - _rank(stacked)
        if dim_cap - previous != pi[i - 1]:
            return False
        previous = dim_cap
    return True


@dataclass(frozen=True)
class HZReport:
    pi: tuple[int, ...]
    target: float            # sum of the pi-marked eigenvalues
    candidate_value: float   # Tr[P_V rho] at the eigenvector candidate
    candidate_in_cell: bool
    min_sampled: float       # smallest Tr[P_V rho] over the sampled cell members
    trials: int

    def passed(self) -> bool:
        return (self.candidate_in_cell
                and abs(self.candidate_value - self.target) <= HZ_VALUE_TOL
                and self.min_sampled >= self.target - HZ_SAMPLE_TOL)


def _projection_value(rho: np.ndarray, frame: np.ndarray) -> float:
    if frame.shape[1] == 0:
        return 0.0
    return float(np.real(np.trace(frame.conj().T @ rho @ frame)))


@functools.lru_cache(maxsize=8)
def _trial_normals(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Row t - start holds the first `width` standard normals of default_rng([seed, t])."""
    rows = np.array([np.random.default_rng([seed, trial]).standard_normal(width)
                     for trial in range(start, stop)]).reshape(stop - start, width)
    rows.flags.writeable = False
    return rows


def _sample_cell_frames(flag: Flag, pi: tuple[int, ...], trials: range,
                        seed: int) -> np.ndarray:
    """Random members of the open cell, one per trial t, stacked.

    Relative to the flag basis, row r of the echelon parameterization has a
    pivot 1 at the r-th position of a 1 in pi, free complex Gaussian entries
    at earlier non-pivot positions and zeros elsewhere, so the span always
    realizes the jump pattern pi.  Trial t draws its entries from
    default_rng([seed, t]) in the order of a scalar sampler (pivot row r
    ascending, then position j ascending, real part before imaginary): a
    generator's standard_normal(m) yields the numbers of m scalar calls, so
    the prefix of each trial's row holds them.  The rows are drawn once for
    every sequence of the same dimension.
    """
    d = flag.dim
    pivots = [i for i, b in enumerate(pi) if b]
    free = [(j, r) for r, piv in enumerate(pivots) for j in range(piv) if not pi[j]]
    normals = _trial_normals(seed, trials.start, trials.stop, 2 * (d // 2) * ((d + 1) // 2))
    coeff = np.zeros((len(trials), d, len(pivots)), dtype=complex)
    coeff[:, pivots, range(len(pivots))] = 1.0
    if free:
        rows, cols = zip(*free)
        coeff[:, rows, cols] = normals[:, 0:2 * len(free):2] + 1j * normals[:, 1:2 * len(free):2]
    q, _ = np.linalg.qr(flag.basis @ coeff)
    return q


def hersch_zwahlen_check(rho: np.ndarray, pi: Sequence[int], trials: int = 200,
                         seed: int = 0) -> HZReport:
    """Verify the variational principle for one binary sequence.

    The span of the pi-marked eigenvectors must achieve the eigenvalue sum,
    and no sampled cell member may fall below it.  Trial t samples with the
    generator default_rng([seed, t]), so results are reproducible and
    order-independent; trials are sampled and projected a block at a time.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rho = np.asarray(rho)
    flag = induced_flag(rho)
    pi = _validate_pi(pi, flag.dim)
    lams = np.sort(np.linalg.eigvalsh(rho))[::-1]
    target = float(np.dot(pi, lams))

    candidate = flag.basis[:, [i for i, b in enumerate(pi) if b]]
    in_cell = schubert_membership(candidate, flag, pi)
    candidate_value = _projection_value(rho, candidate)

    min_sampled = float("inf")
    for start in range(0, trials, TRIAL_BLOCK):
        q = _sample_cell_frames(flag, pi, range(start, min(start + TRIAL_BLOCK, trials)), seed)
        values = np.real(np.trace(q.conj().swapaxes(1, 2) @ rho @ q, axis1=1, axis2=2))
        min_sampled = min(min_sampled, float(np.min(values)))
    return HZReport(pi=pi, target=target, candidate_value=candidate_value,
                    candidate_in_cell=in_cell, min_sampled=min_sampled,
                    trials=trials)


def partial_trace(rho_ab: np.ndarray, d_a: int, d_b: int, keep: str = "A") -> np.ndarray:
    """Reduce a (d_a*d_b)-dimensional density matrix, or a stack of them, to one factor."""
    rho_ab = np.asarray(rho_ab)
    if rho_ab.ndim < 2 or rho_ab.shape[-2:] != (d_a * d_b, d_a * d_b):
        raise ValueError(f"expected shape (..., {d_a * d_b}, {d_a * d_b}), got {rho_ab.shape}")
    tensor = rho_ab.reshape(rho_ab.shape[:-2] + (d_a, d_b, d_a, d_b))
    if keep == "A":
        return np.einsum("...ibjb->...ij", tensor)
    if keep == "B":
        return np.einsum("...aiaj->...ij", tensor)
    raise ValueError("keep must be 'A' or 'B'")


def random_pure_density(d: int, rng: np.random.Generator) -> np.ndarray:
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


@dataclass(frozen=True)
class InequalityVerdict:
    pi: tuple[int, ...]
    sigma: tuple[int, ...]
    violated: bool
    samples_checked: int
    witness: dict | None  # trial index, state kind, both spectra, both sides


def _sample_state(d: int, trial: int, seed: int) -> tuple[str, np.ndarray]:
    """State kind and density matrix of trial `trial`, drawn from default_rng([seed, trial])."""
    rng = np.random.default_rng([seed, trial])
    kind = ("mixed-full", "pure", "mixed-rank")[trial % 3]
    if kind == "pure":
        return kind, random_pure_density(d, rng)
    if kind == "mixed-rank":
        return kind, random_mixed_density(d, rng, rank=int(rng.integers(1, d + 1)))
    return kind, random_mixed_density(d, rng)


def check_spectral_inequality(pi: Sequence[int], sigma: Sequence[int],
                              d_a: int, d_b: int, samples: int = 1000,
                              seed: int = 0) -> InequalityVerdict:
    """Monte-Carlo falsifier for sum pi_j lam_j(A) <= sum sigma_i lam_i(AB).

    Alternates full-spectrum mixed states, random-rank mixed states and pure
    states.  Returns the first violating witness; a clean pass over all
    samples is evidence, not proof, that the pair satisfies the intersection
    property behind the inequality.  Spectra are computed a block of trials
    at a time; the witness is the violating trial of lowest index.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    d_ab = d_a * d_b
    pi = _validate_pi(pi, d_a)
    sigma = _validate_pi(sigma, d_ab)
    for start in range(0, samples, TRIAL_BLOCK):
        trials = range(start, min(start + TRIAL_BLOCK, samples))
        kinds, rhos = zip(*(_sample_state(d_ab, trial, seed) for trial in trials))
        rho_ab = np.array(rhos)
        lam_ab = np.sort(np.linalg.eigvalsh(rho_ab))[:, ::-1]
        lam_a = np.sort(np.linalg.eigvalsh(partial_trace(rho_ab, d_a, d_b, "A")))[:, ::-1]
        # the stacked products screen with slack far above their rounding;
        # each candidate is decided by the same scalar dot as a single trial
        excess = lam_a @ np.array(pi, float) - lam_ab @ np.array(sigma, float)
        for row in np.flatnonzero(excess > INEQUALITY_MARGIN - _SCREEN_SLACK):
            lhs = float(np.dot(pi, lam_a[row]))
            rhs = float(np.dot(sigma, lam_ab[row]))
            if lhs > rhs + INEQUALITY_MARGIN:
                trial = trials[row]
                witness = {"trial": trial, "kind": kinds[row],
                           "lam_a": [float(v) for v in lam_a[row]],
                           "lam_ab": [float(v) for v in lam_ab[row]],
                           "lhs": lhs, "rhs": rhs}
                return InequalityVerdict(pi, sigma, True, trial + 1, witness)
    return InequalityVerdict(pi, sigma, False, samples, None)
