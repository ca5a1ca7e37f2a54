"""Harmonically interacting fermions in a harmonic trap, solved exactly.

Units are hbar = m = omega = 1 throughout; the only physical knob is the
dimensionless relative interaction strength kappa = N*K/(m*omega^2) of the
pair coupling (K/2) * sum_{i,j} (x_i - x_j)^2.  The center-of-mass mode keeps
frequency 1 while every relative normal mode is stiffened to
omega_rel = sqrt(1 + 2*kappa), and the exact N-fermion ground state is the
Vandermonde factor times the corresponding Gaussian.  Its norm follows from
Mehta's integral int prod_{i<j}(x_i-x_j)^2 exp(-x.x/2) dx = (2 pi)^(N/2)
prod_{j<=N} j! (M. L. Mehta, Random Matrices, 3rd ed., ch. 17) by scaling the
relative modes to omega_rel, so the state is known in closed form and the
basis size is the only numerical input.

The ground state is projected onto Slater determinants of frequency-1
oscillator eigenfunctions (so the non-interacting limit is a single
determinant).  Writing the Vandermonde factor as a determinant and the
centre-of-mass Gaussian as a Gaussian integral over one variable v makes the
projection a one-variable sum of single determinants, c_K ~ sum_v w_v
det M(v)[K, :], where M(v) is the d x N matrix of one-particle integrals (see
expand_in_hermite_basis).  A Laplace expansion along the first N//2
columns of M turns that v-sum, for every determinant at once, into one matrix
product of the minors of the two column blocks.  Both the x-integrals in M
and the v-sum are Gauss-Hermite rules whose node counts make them exact for
the polynomial-times-Gaussian integrands.  The rules are the Golub-Welsch
construction from the Jacobi matrix of the Hermite recurrence, with weights
from the oscillator eigenfunctions themselves (see _gh_nodes), so the module
needs numpy alone.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .fock import (MAX_ORBITALS, FermionState, OrbitalSpace, level_masks, level_table,
                   natural_occupations, one_rdm)
from .gpc import catalog, evaluate, hf_distance, pinning_report, truncate_spectrum

DEFAULT_BASIS_SIZE = 28
DEFICIT_TOL = 1e-6
# the largest kappa a basis holds within DEFICIT_TOL is 114.3 at N=2 (basis
# 64), 45.6 at N=3 (basis 64) and 15.7 at N=4 (basis 49, the cost limit), so
# this bound refuses no kappa that any admitted basis can hold
KAPPA_MAX = 1e3
# multiply-adds |A|*|B|*g of the Laplace product (see _laplace_sums): admits
# N=3 up to d=64 (1.2e7) and N=4 up to d=49 (1.34e8; a cold d=48 or d=49
# point takes 0.16-0.18 s on 2 Xeon vCPUs), rejects N=4 from d=50 (1.49e8)
# before any quadrature node is evaluated
MAX_EXPANSION_COST = 14 * 10 ** 7
# a scan's kappas: below 0.01 D sits at the precision floor; a warm d=28
# point takes 4.3-5.6 ms on 2 Xeon vCPUs, and the longest scan (1000 kappas)
# about 5 s
SCAN_RANGE = (0.01, 0.5)
MAX_SCAN_POINTS = 1000
# quadrature and Jacobi rotations resolve occupations to a few eps in
# absolute terms; facet values below ~100 eps are precision-limited
PRECISION_FLOOR = 100 * np.finfo(float).eps


class BasisDeficitError(ValueError):
    """Hermite basis too small for the requested state."""


@dataclass(frozen=True)
class HarmoniumParams:
    n: int
    kappa: float

    def __post_init__(self):
        if self.n not in (2, 3, 4):
            raise ValueError(f"particle number must be 2, 3 or 4, got {self.n}")
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa!r}")
        if self.kappa < 0:
            raise ValueError("attractive regime kappa < 0 is not supported")
        if self.kappa > KAPPA_MAX:
            raise ValueError(f"kappa={self.kappa!r} above {KAPPA_MAX:g}: no basis of at most "
                             f"{MAX_ORBITALS} orbitals holds that ground state")


@dataclass(frozen=True)
class GroundStateSpec:
    """Closed-form ground state c0 * prod_{i<j}(x_i-x_j) * exp(-c1*(sum x)^2 - c2*x.x)."""

    n: int
    kappa: float
    omega_rel: float
    c0: float
    c1: float
    c2: float


def node_count(n: int, basis_size: int) -> int:
    """Size of the v-rule: the smallest G with 2G-1 >= n(d-1), exact for det M(v)."""
    return n * (basis_size - 1) // 2 + 1


@functools.lru_cache(maxsize=None)
def _gh_nodes(g: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and Gaussian-free weights w*exp(t^2) of the g-point Gauss-Hermite rule.

    Golub-Welsch (Math. Comp. 23, 221 (1969)): the nodes are the eigenvalues
    of the Jacobi matrix of the Hermite recurrence, refined by one Newton step
    on phi_g and symmetrized, and the weight of a node is the Christoffel
    function 1 / sum_k phi_k(t)^2 of the oscillator eigenfunctions, which
    carries no Gaussian factor.  Cached per g; the arrays are read-only.
    """
    off = np.sqrt(np.arange(1, g) / 2.0)
    t = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    phi = hermite_functions(g + 1, t)
    t = t - phi[g] / (math.sqrt(2.0 * g) * phi[g - 1])
    t = (t - t[::-1]) / 2.0
    w = 1.0 / np.sum(hermite_functions(g, t) ** 2, axis=0)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def hermite_functions(count: int, x: np.ndarray) -> np.ndarray:
    """Frequency-1 oscillator eigenfunctions phi_0..phi_{count-1} at x, shape (count, x.size)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((count, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, count - 1):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * x * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def ground_state_spec(params: HarmoniumParams) -> GroundStateSpec:
    """Exponents from the normal-mode split; c0 from Mehta's integral.

    |Psi|^2 / c0^2 is exp(-y_0^2) in the center of mass y_0 = sum(x)/sqrt(n)
    times the translation-invariant Vandermonde square under exp(-omega_rel *
    y_rel.y_rel), so the norm is Mehta's integral with the relative modes
    scaled to omega_rel: their n - 1 Gaussian widths and the degree n(n-1) of
    the Vandermonde square give the factor omega_rel^(-(n^2-1)/2).
    """
    n = params.n
    omega_rel = math.sqrt(1.0 + 2.0 * params.kappa)
    c1 = (1.0 - omega_rel) / (2.0 * n)
    c2 = omega_rel / 2.0
    norm_sq = (math.pi ** (n / 2) * 2.0 ** (-n * (n - 1) / 2)
               * math.prod(math.factorial(j) for j in range(1, n + 1))
               * omega_rel ** (-(n * n - 1) / 2))
    return GroundStateSpec(n=n, kappa=params.kappa, omega_rel=omega_rel,
                           c0=1.0 / math.sqrt(norm_sq), c1=c1, c2=c2)


def _row_integrals(spec: GroundStateSpec, basis_size: int, g: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """M(v) at the g nodes of the v-rule, shape (n, d, g) with m[j][k] = M(v)[k, j],
    and the v-rule's weights, scaled so that c_K ~ sum_v w_v det M(v)[K, :]."""
    n = spec.n
    # Psi = c0 * (-1)^(n(n-1)/2) * det[x_i^j] * exp(beta*S^2 - c2*x.x) with
    # beta = -c1 and S = sum x.  exp(beta*S^2) = int exp(-v^2 + 2*sqrt(beta)*v*S)
    # dv / sqrt(pi) factorises the Gaussian over the particles, so the
    # projection onto the levels K is int exp(-v^2) det M(v)[K, :] dv / sqrt(pi)
    # with M(v)[k, j] = int phi_k(x) x^j exp(-c2*x^2 + 2*sqrt(beta)*v*x) dx.
    # Substitute x = sqrt(beta)*v/p + t/sqrt(p) with p = c2 + 1/2, and
    # v = u*sqrt(p).  Each row of M takes a factor exp(-v^2/n) of the
    # v-Gaussian along; as p = n*beta + 1, the row's whole exponent, phi_k's
    # Gaussian included, is then -t^2 - u^2/n, and M(v)[k, j] is exp(-u^2/n)
    # times a polynomial of degree k + j in t.  det M(v) is exp(-u^2) times a
    # polynomial of degree n*(d-1) in u, so both Gauss-Hermite rules below
    # are exact.
    beta = -spec.c1
    p = (1.0 + spec.omega_rel) / 2.0
    u, wu = _gh_nodes(g)
    v = u * math.sqrt(p)
    t, wt = _gh_nodes((basis_size + n - 2) // 2 + 1)
    x = (math.sqrt(beta) / p) * v[:, None] + t / math.sqrt(p)             # (g, gx)
    # the row exponent less phi_k's own -x^2/2
    fx = (wt / math.sqrt(p)) * np.exp(0.5 * x * x - t * t - (u * u / n)[:, None])
    phi = hermite_functions(basis_size, x.ravel()).reshape(basis_size, g, -1) * fx
    m = np.stack([(phi * x ** j).sum(axis=-1) for j in range(n)])        # (n, d, g)
    return m, wu * math.sqrt(p)


def _minors(cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """det M(v)[B, cols] for each row B of a table of ascending levels, shape
    (len(rows), g), from the (d, g) slices of one or two columns of M."""
    if len(cols) == 1:
        return cols[0][rows[:, 0]]
    a, b = rows.T
    return cols[0][a] * cols[1][b] - cols[0][b] * cols[1][a]


def _subset_rank(rows: np.ndarray, d: int) -> np.ndarray:
    """Dense (d,) * r table of each r-subset's row in a level_table(d, r)."""
    rank = np.zeros((d,) * rows.shape[1], dtype=np.intp)
    rank[tuple(rows.T)] = np.arange(rows.shape[0])
    return rank


def _laplace_sums(m: np.ndarray, wv: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """sum_v w_v det M(v)[K, :] for each row K of levels.

    Laplace expansion along the first h = n//2 columns: det M(v)[K, :] is the
    sum over the h-subsets S of positions in K of (-1)^(sum(S) - h(h-1)/2)
    det M(v)[K_S, :h] det M(v)[K_rest, h:].  The minors of the two column
    blocks over every ascending subset of levels turn the whole v-sum into one
    matrix product, and each determinant adds C(n, h) signed entries of it.
    """
    n, d, _ = m.shape
    h = n // 2
    left_rows, right_rows = level_table(d, h), level_table(d, n - h)
    # both factors C-ordered: the plain dgemm that linalg._blocks runs too, so
    # no further BLAS packing routine is paged in
    right = np.ascontiguousarray(_minors(m[h:], right_rows).T)
    prod = (_minors(m[:h], left_rows) * wv) @ right
    left_rank, right_rank = _subset_rank(left_rows, d), _subset_rank(right_rows, d)
    sums = np.zeros(levels.shape[0])
    for pos in itertools.combinations(range(n), h):
        rest = [i for i in range(n) if i not in pos]
        term = prod[left_rank[tuple(levels[:, pos].T)], right_rank[tuple(levels[:, rest].T)]]
        if (sum(pos) - h * (h - 1) // 2) % 2:
            sums -= term
        else:
            sums += term
    return sums


def expand_in_hermite_basis(params: HarmoniumParams, basis_size: int = DEFAULT_BASIS_SIZE
                            ) -> tuple[FermionState, float]:
    """Wedge amplitudes over the parity-allowed frequency-1 Hermite determinants.

    Returns the normalized state and the norm deficit 1 - |c|^2 measuring the
    weight outside the truncated basis.  The quadrature is exact for the
    polynomial-times-Gaussian integrands, so the deficit is a pure basis
    truncation measurement.  The state holds only the determinants whose
    levels have the parity of n(n-1)/2; every other amplitude vanishes.
    """
    n = params.n
    if not 1 <= basis_size <= MAX_ORBITALS:
        raise ValueError(f"basis_size must lie in [1, {MAX_ORBITALS}], got {basis_size}")
    if basis_size < n:
        raise ValueError(f"basis_size {basis_size} smaller than particle number {n}")
    g = node_count(n, basis_size)
    h = n // 2
    cost = math.comb(basis_size, h) * math.comb(basis_size, n - h) * g
    if cost > MAX_EXPANSION_COST:
        raise ValueError(f"the expansion at n={n}, basis_size={basis_size} with {g} nodes "
                         f"needs about {cost:.1e} multiply-adds, above the limit of "
                         f"{MAX_EXPANSION_COST:.1e}; use a smaller basis")
    spec = ground_state_spec(params)

    m, wv = _row_integrals(spec, basis_size, g)
    # Psi(-x) = (-1)^(n(n-1)/2) Psi(x) and phi_l(-x) = (-1)^l phi_l(x), so only
    # determinants whose levels sum to the parity of n(n-1)/2 can be nonzero.
    # Only those are formed and stored, so rho's two parity blocks stay exact
    # for one_rdm and jacobi_eigh
    levels = level_table(basis_size, n)
    levels = levels[levels.sum(axis=1) % 2 == n * (n - 1) // 2 % 2]
    amplitudes = _laplace_sums(m, wv, levels)
    amplitudes *= (-1) ** (n * (n - 1) // 2) * spec.c0 * math.sqrt(math.factorial(n) / math.pi)

    # np.add.accumulate adds in sequence like a plain loop; np.sum's pairwise
    # order would move the last digits of every amplitude
    weight = float(np.add.accumulate(amplitudes * amplitudes)[-1])
    if weight > 1.0 + DEFICIT_TOL:  # an exact rule keeps |c|^2 <= 1 up to rounding
        raise ValueError(f"|c|^2 = {weight:.3e} exceeds 1 at kappa={params.kappa!r}, "
                         f"basis_size={basis_size}")
    deficit = 1.0 - weight
    if deficit > DEFICIT_TOL:
        raise BasisDeficitError(
            f"norm deficit {deficit:.3e} exceeds {DEFICIT_TOL:.1e} at basis_size={basis_size} "
            f"(at most {MAX_ORBITALS}); use a larger basis or a smaller kappa")
    renorm = 1.0 / math.sqrt(weight)
    state = FermionState(OrbitalSpace(d=basis_size, n=n), level_masks(levels), amplitudes * renorm)
    return state, float(deficit)


@dataclass(frozen=True)
class ScanPoint:
    kappa: float
    d_value: float       # Borland-Dennis facet value on the 6 largest occupations
    hf_distance: float   # l2 distance of the full spectrum to (1,1,1,0,...)
    eps6: float
    norm_deficit: float
    precision_floor: bool


@dataclass(frozen=True)
class ScanResult:
    points: tuple[ScanPoint, ...]
    d_slope: float
    hf_slope: float


def point(kappa: float, n: int = 3, basis_size: int = DEFAULT_BASIS_SIZE) -> ScanPoint:
    """Facet value, Hartree-Fock distance and truncation weights at one kappa.

    For n = 3 in at least 6 orbitals the facet value is the Borland-Dennis
    inequality bd-ineq on the 6 largest occupations; otherwise it is the
    smallest constraint value of the catalog for those occupations.
    """
    state, deficit = expand_in_hermite_basis(HarmoniumParams(n=n, kappa=kappa), basis_size)
    lams, _ = natural_occupations(one_rdm(state), vectors=False)
    lam6, eps6 = truncate_spectrum(lams, min(6, lams.size))
    if n == 3 and lams.size >= 6:
        d_value = evaluate(catalog(3, 6).by_label("bd-ineq"), lam6)
    else:
        d_value = pinning_report(lam6, catalog(n, lam6.size)).d_min
    return ScanPoint(kappa=float(kappa), d_value=float(d_value),
                     hf_distance=hf_distance(lams, n), eps6=eps6,
                     norm_deficit=deficit,
                     precision_floor=bool(abs(d_value) < PRECISION_FLOOR))


def _log_log_slope(pairs: Iterable[tuple[float, float]]) -> float:
    """Least-squares slope of ln y against ln x over the (x, y) pairs with y > 0;
    nan when those pairs hold fewer than two distinct x."""
    pairs = [(x, y) for x, y in pairs if y > 0]
    if len({x for x, _ in pairs}) < 2:
        return float("nan")
    x, y = np.log(np.array(pairs)).T
    return float(np.polyfit(x, y, 1)[0])


def check_scan_grid(count: int, lo: float, hi: float) -> None:
    """Reject a scan of count kappas in [lo, hi] that is empty, longer than
    MAX_SCAN_POINTS or outside SCAN_RANGE, before any grid is built."""
    if not 1 <= count <= MAX_SCAN_POINTS:
        raise ValueError(f"a scan takes 1 to {MAX_SCAN_POINTS} kappas, got {count}")
    if not (SCAN_RANGE[0] <= lo and hi <= SCAN_RANGE[1]):
        raise ValueError(f"scan grid must lie within [{SCAN_RANGE[0]}, {SCAN_RANGE[1]}]")


def quasipinning_scan(kappas: Sequence[float],
                      basis_size: int = DEFAULT_BASIS_SIZE) -> ScanResult:
    """Facet distance and Hartree-Fock distance along a kappa grid.

    d_slope and hf_slope are log-log least-squares exponents against the
    squeeze parameter xi = (omega_rel - 1)/(omega_rel + 1), which is
    proportional to kappa as kappa -> 0 in every normalisation of kappa, so
    they estimate the asymptotic exponents (8 and 4 for N = 3) rather than a
    finite-window kappa-slope.  d_slope fits only the points above the
    precision floor: D there is rounding noise, and one ulp in c0 moves it.
    """
    kappas = [float(k) for k in kappas]
    check_scan_grid(len(kappas), min(kappas, default=0.0), max(kappas, default=0.0))
    points = sorted((point(k, 3, basis_size) for k in kappas), key=lambda p: p.kappa)
    omegas = [ground_state_spec(HarmoniumParams(n=3, kappa=p.kappa)).omega_rel for p in points]
    xis = [(w - 1.0) / (w + 1.0) for w in omegas]
    return ScanResult(points=tuple(points),
                      d_slope=_log_log_slope((xi, p.d_value) for xi, p in zip(xis, points)
                                             if not p.precision_floor),
                      hf_slope=_log_log_slope((xi, p.hf_distance) for xi, p in zip(xis, points)))
