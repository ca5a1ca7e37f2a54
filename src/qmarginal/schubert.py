"""Schubert cells and empirical spectral-inequality testing.

A binary sequence pi marks the positions i where dim(V intersect F_i) jumps
for a space V against a complete flag F, which indexes a Schubert cell.  The
Hersch-Zwahlen variational principle writes any eigenvalue subset sum of a
non-degenerate Hermitian rho as the minimum of Tr[P_V rho] over the open cell
of the flag of its eigenvectors, ordered by decreasing eigenvalue.  Tr[P_V rho]
is unitarily invariant, so the check works in rho's eigenbasis from the
spectrum alone: there the flag is the standard one and rho = diag(lam).
Candidate spectral inequalities between a bipartite state and its marginal
are tested by Monte Carlo sampling; a clean verdict is evidence rather than
proof, since the cohomological intersection criterion that would decide
validity exactly is not implemented here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERMITIAN_TOL = 1e-10
GAP_TOL = 1e-10
HZ_SAMPLE_TOL = 1e-9
INEQUALITY_MARGIN = 1e-10
# trials sampled and reduced as one stack; bounds the memory of a check
TRIAL_BLOCK = 256


class DegenerateSpectrumError(ValueError):
    """The operation requires a non-degenerate spectrum."""


def _spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix in decreasing order.

    Requires a non-degenerate spectrum (minimal gap above GAP_TOL); the
    eigenvector flag, hence the cell, is undefined otherwise.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITIAN_TOL:
        raise ValueError("expected a Hermitian matrix")
    lams = np.linalg.eigvalsh(rho)[::-1]
    gaps = -np.diff(lams)
    if gaps.size and np.min(gaps) <= GAP_TOL:
        raise DegenerateSpectrumError(
            f"spectral gap {np.min(gaps):.3e} at or below {GAP_TOL:.1e}")
    return lams


def _validate_pi(pi: Sequence[int], d: int) -> tuple[int, ...]:
    pi = tuple(int(b) for b in pi)
    if len(pi) != d:
        raise ValueError(f"binary sequence length {len(pi)} does not match d={d}")
    if any(b not in (0, 1) for b in pi):
        raise ValueError("binary sequence entries must be 0 or 1")
    return pi


@dataclass(frozen=True)
class HZReport:
    pi: tuple[int, ...]
    target: float            # sum of the pi-marked eigenvalues
    min_sampled: float       # smallest Tr[P_V rho] over the sampled cell members
    trials: int

    def passed(self) -> bool:
        return self.min_sampled >= self.target - HZ_SAMPLE_TOL


def _sample_cell_frames(pi: tuple[int, ...], count: int,
                        rng: np.random.Generator) -> np.ndarray:
    """`count` random members of the open cell of the standard flag, stacked.

    Row r of the echelon parameterization has a pivot 1 at the r-th position
    of a 1 in pi, free complex Gaussian entries at earlier non-pivot positions
    and zeros elsewhere, so the span always realizes the jump pattern pi.
    Trial by trial, the free entries take the next normals of rng (pivot row
    r ascending, then position j ascending, real part before imaginary), so
    calls continue one sequence.
    """
    pivots = [i for i, b in enumerate(pi) if b]
    free = [(j, r) for r, piv in enumerate(pivots) for j in range(piv) if not pi[j]]
    coeff = np.zeros((count, len(pi), len(pivots)), dtype=complex)
    coeff[:, pivots, range(len(pivots))] = 1.0
    if free:
        rows, cols = zip(*free)
        normals = rng.standard_normal((count, len(free), 2))
        coeff[:, rows, cols] = normals[..., 0] + 1j * normals[..., 1]
    q, _ = np.linalg.qr(coeff)
    return q


def hersch_zwahlen_check(rho: np.ndarray, pi: Sequence[int], trials: int = 200,
                         seed: int = 0) -> HZReport:
    """Verify the variational principle for one binary sequence.

    No sampled cell member may fall below the pi-marked eigenvalue sum.  The
    cell is sampled in rho's eigenbasis, where a frame Q scores
    Tr[Q^dag diag(lam) Q] = sum_i lam_i |Q[i, :]|^2.  The trials draw in
    order from one generator, a child of SeedSequence(seed), and are sampled
    and scored TRIAL_BLOCK at a time; the result does not depend on
    TRIAL_BLOCK.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    lams = _spectrum(rho)
    pi = _validate_pi(pi, lams.size)
    target = float(np.dot(pi, lams))

    # not default_rng(seed), which callers draw inputs from (qmarg hz draws
    # rho): SeedSequence pads entropy with zeros, so it is default_rng([seed, 0])
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    min_sampled = float("inf")
    for start in range(0, trials, TRIAL_BLOCK):
        q = _sample_cell_frames(pi, min(TRIAL_BLOCK, trials - start), rng)
        values = np.sum(q.real ** 2 + q.imag ** 2, axis=2) @ lams
        min_sampled = min(min_sampled, float(np.min(values)))
    return HZReport(pi=pi, target=target, min_sampled=min_sampled, trials=trials)


def partial_trace(rho_ab: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Reduce a (d_a*d_b)-dimensional density matrix, or a stack of them, to factor A."""
    rho_ab = np.asarray(rho_ab)
    if rho_ab.ndim < 2 or rho_ab.shape[-2:] != (d_a * d_b, d_a * d_b):
        raise ValueError(f"expected shape (..., {d_a * d_b}, {d_a * d_b}), got {rho_ab.shape}")
    tensor = rho_ab.reshape(rho_ab.shape[:-2] + (d_a, d_b, d_a, d_b))
    return np.einsum("...ibjb->...ij", tensor)


@dataclass(frozen=True)
class InequalityVerdict:
    pi: tuple[int, ...]
    sigma: tuple[int, ...]
    violated: bool
    samples_checked: int
    witness: dict | None  # trial index, state kind, both spectra, both sides


def _sample_densities(trials: range, d: int, normal_rng: np.random.Generator,
                      rank_rng: np.random.Generator) -> np.ndarray:
    """Density matrices GG^dag / Tr of the trials, stacked, G complex Gaussian d x r.

    By t % 3, trial t has rank r = d, 1 (a pure state) or uniform in 1..d.
    Trial by trial, G is the first r columns of d x d next normals of
    normal_rng (row-major, real part before imaginary), and every trial takes
    the next uniform of rank_rng, so calls continue both sequences.
    """
    normals = normal_rng.standard_normal((len(trials), d, d, 2))
    drawn = 1 + (rank_rng.random(len(trials)) * d).astype(int)
    ranks = np.choose(np.arange(trials.start, trials.stop) % 3, [d, 1, drawn])
    g = (normals[..., 0] + 1j * normals[..., 1]) * (np.arange(d) < ranks[:, None, None])
    rho = g @ g.conj().swapaxes(1, 2)
    return rho / np.real(np.trace(rho, axis1=1, axis2=2))[:, None, None]


def check_spectral_inequality(pi: Sequence[int], sigma: Sequence[int],
                              d_a: int, d_b: int, samples: int = 1000,
                              seed: int = 0) -> InequalityVerdict:
    """Monte-Carlo falsifier for sum pi_j lam_j(A) <= sum sigma_i lam_i(AB).

    Alternates full-spectrum mixed states, pure states and random-rank mixed
    states.  Returns the first violating witness; a clean pass over all
    samples is evidence, not proof, that the pair satisfies the intersection
    property behind the inequality.  The states come in trial order from two
    children of SeedSequence(seed), TRIAL_BLOCK trials as one stack, and the
    witness is the violating trial of lowest index; neither depends on
    TRIAL_BLOCK.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    d_ab = d_a * d_b
    pi = _validate_pi(pi, d_a)
    sigma = _validate_pi(sigma, d_ab)
    normal_rng, rank_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    for start in range(0, samples, TRIAL_BLOCK):
        trials = range(start, min(start + TRIAL_BLOCK, samples))
        rho_ab = _sample_densities(trials, d_ab, normal_rng, rank_rng)
        lam_ab = np.linalg.eigvalsh(rho_ab)[:, ::-1]
        lam_a = np.linalg.eigvalsh(partial_trace(rho_ab, d_a, d_b))[:, ::-1]
        lhs, rhs = lam_a @ np.array(pi, float), lam_ab @ np.array(sigma, float)
        violated = np.flatnonzero(lhs > rhs + INEQUALITY_MARGIN)
        if violated.size:
            row = violated[0]
            trial = trials[row]
            kind = ("mixed-full", "pure", "mixed-rank")[trial % 3]
            witness = {"trial": trial, "kind": kind,
                       "lam_a": lam_a[row].tolist(), "lam_ab": lam_ab[row].tolist(),
                       "lhs": float(lhs[row]), "rhs": float(rhs[row])}
            return InequalityVerdict(pi, sigma, True, trial + 1, witness)
    return InequalityVerdict(pi, sigma, False, samples, None)
