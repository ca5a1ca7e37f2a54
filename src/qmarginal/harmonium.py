"""Harmonically interacting fermions in a harmonic trap, solved exactly.

Units are hbar = m = omega = 1 throughout; the only physical knob is the
dimensionless relative interaction strength kappa = N*K/(m*omega^2) of the
pair coupling (K/2) * sum_{i,j} (x_i - x_j)^2.  The center-of-mass mode keeps
frequency 1 while every relative normal mode is stiffened to
omega_rel = sqrt(1 + 2*kappa), and the exact N-fermion ground state is the
Vandermonde factor times the corresponding Gaussian.

The ground state is projected onto Slater determinants of frequency-1
oscillator eigenfunctions (so the non-interacting limit is a single
determinant).  Writing the Vandermonde factor as a determinant and the
centre-of-mass Gaussian as a Gaussian integral over one variable v makes the
projection a one-variable sum of single determinants, c_K ~ sum_v w_v
det M(v)[K, :], where M(v) is the d x N matrix of one-particle integrals (see
_expand).  Both the x-integrals in M and the v-sum are Gauss-Hermite rules
whose node counts make them exact for the polynomial-times-Gaussian
integrands.  The rule is the Golub-Welsch construction from the Jacobi matrix
of the Hermite recurrence, with weights from the oscillator eigenfunctions
themselves (see _gh_nodes), so the module needs numpy alone.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import (MAX_ORBITALS, FermionState, OrbitalSpace, level_table, natural_occupations,
                   one_rdm)
from .gpc import catalog, evaluate, pinning_report, truncate_spectrum

DEFAULT_BASIS_SIZE = 28
DEFICIT_TOL = 1e-6
# multiply-adds of the Leibniz sums: admits N=3 up to d=64 (3.6e7) and N=4 up
# to d=49 (9.9e8; a d=48 point takes ~4 s on 2 vCPUs), rejects N=4 from d=50
# (1.1e9) before any quadrature node is evaluated
MAX_EXPANSION_COST = 10 ** 9
_DET_BLOCK = 1 << 16  # (determinant, v-node) entries per block of the Leibniz sums
# a scan's kappas: below 0.01 D sits at the precision floor; a warm d=28
# point takes ~8 ms on 2 vCPUs, and the longest scan (1000 kappas) 10 s
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

    @property
    def coupling(self) -> float:
        """Pair coupling K in trap units."""
        return self.kappa / self.n


@dataclass(frozen=True)
class GroundStateSpec:
    """Closed-form ground state c0 * prod_{i<j}(x_i-x_j) * exp(-c1*(sum x)^2 - c2*x.x)."""

    n: int
    kappa: float
    omega_rel: float
    c0: float
    c1: float
    c2: float


@dataclass(frozen=True)
class QuadratureSpec:
    basis_size: int = DEFAULT_BASIS_SIZE
    nodes: int | None = None  # Gauss-Hermite nodes of the v-rule; None = exactness minimum

    def __post_init__(self):
        if not 1 <= self.basis_size <= MAX_ORBITALS:
            raise ValueError(f"basis_size must lie in [1, {MAX_ORBITALS}], got {self.basis_size}")

    def node_count(self, n: int) -> int:
        """Size of the v-rule; the x-rule is always its exactness minimum."""
        exact = n * (self.basis_size - 1) // 2 + 1  # smallest G with 2G-1 >= n(d-1)
        if self.nodes is None:
            return exact
        if self.nodes < exact:
            raise ValueError(f"{self.nodes} nodes are too few for an exact rule "
                             f"at n={n}, basis_size={self.basis_size}; need at least {exact}")
        return self.nodes


def _helmert(n: int) -> np.ndarray:
    """Orthogonal normal-mode matrix; column 0 is the center of mass."""
    q = np.zeros((n, n))
    q[:, 0] = 1.0 / math.sqrt(n)
    for a in range(1, n):
        q[:a, a] = 1.0 / math.sqrt(a * (a + 1))
        q[a, a] = -a / math.sqrt(a * (a + 1))
    return q


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


def _vandermonde(xs: np.ndarray) -> np.ndarray:
    v = np.ones(xs.shape[1])
    for i, j in itertools.combinations(range(xs.shape[0]), 2):
        v = v * (xs[i] - xs[j])
    return v


def _mode_integral(spec_n: int, alphas: np.ndarray, g: int, func) -> float:
    """Integrate func(x) over the full product grid in normal-mode coordinates.

    alphas are the Gaussian exponents per mode of the *integrand*; func
    receives particle coordinates (n, m) and must include every Gaussian
    factor itself.
    """
    q = _helmert(spec_n)
    t, wfree = _gh_nodes(g)
    axes_y = [t / math.sqrt(a) for a in alphas]
    axes_w = [wfree / math.sqrt(a) for a in alphas]
    grids = np.meshgrid(*axes_y, indexing="ij")
    y = np.stack([grid.ravel() for grid in grids])
    weights = np.ones(y.shape[1])
    for wg in np.meshgrid(*axes_w, indexing="ij"):
        weights = weights * wg.ravel()
    return float(weights @ func(q @ y))


def ground_state_spec(params: HarmoniumParams) -> GroundStateSpec:
    """Exponents from the normal-mode split; c0 from numerical normalization."""
    n = params.n
    omega_rel = math.sqrt(1.0 + 2.0 * params.kappa)
    c1 = (1.0 - omega_rel) / (2.0 * n)
    c2 = omega_rel / 2.0

    def integrand(x):
        expo = -2.0 * c1 * x.sum(axis=0) ** 2 - 2.0 * c2 * (x ** 2).sum(axis=0)
        return _vandermonde(x) ** 2 * np.exp(expo)

    alphas = np.array([1.0] + [omega_rel] * (n - 1))  # exponents of |Psi|^2
    g = n * (n - 1) // 2 + 2
    norm_sq = _mode_integral(n, alphas, g, integrand)
    if not 0.0 < norm_sq < math.inf:
        raise FloatingPointError(f"the ground state's norm integral is {norm_sq!r}")
    return GroundStateSpec(n=n, kappa=params.kappa, omega_rel=omega_rel,
                           c0=1.0 / math.sqrt(norm_sq), c1=c1, c2=c2)


def wavefunction(spec: GroundStateSpec, coords: np.ndarray) -> np.ndarray:
    """Ground-state values at coords of shape (..., n)."""
    coords = np.asarray(coords, dtype=float)
    x = np.atleast_2d(coords).reshape(-1, spec.n).T
    expo = -spec.c1 * x.sum(axis=0) ** 2 - spec.c2 * (x ** 2).sum(axis=0)
    values = spec.c0 * _vandermonde(x) * np.exp(expo)
    return values.reshape(coords.shape[:-1])


def expand_in_hermite_basis(params: HarmoniumParams,
                            quad: QuadratureSpec | None = None) -> tuple[FermionState, float]:
    """Wedge amplitudes over frequency-1 Hermite determinants.

    Returns the normalized state and the norm deficit 1 - |c|^2 measuring the
    weight outside the truncated basis.  The quadrature is exact for the
    polynomial-times-Gaussian integrands, so the deficit is a pure basis
    truncation measurement.  A kappa so strong that the expansion leaves the
    float64 range (an overflow, or |c|^2 above 1) is a ValueError.
    """
    quad = quad or QuadratureSpec()
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _expand(params, quad)
    except FloatingPointError as exc:
        raise ValueError(f"the expansion at kappa={params.kappa!r}, basis_size="
                         f"{quad.basis_size} leaves the float64 range: {exc}") from None


def _expand(params: HarmoniumParams, quad: QuadratureSpec) -> tuple[FermionState, float]:
    d_basis, n = quad.basis_size, params.n
    if d_basis < n:
        raise ValueError(f"basis_size {d_basis} smaller than particle number {n}")
    g = quad.node_count(n)
    perms = list(itertools.permutations(range(n)))
    # multiply-adds of the Leibniz sums: n! products of n factors per
    # determinant and v-node, over the half of the determinants kept below
    cost = g * (math.comb(d_basis, n) // 2) * len(perms) * n
    if cost > MAX_EXPANSION_COST:
        raise ValueError(f"the expansion at n={n}, basis_size={d_basis} with {g} nodes "
                         f"needs about {cost:.1e} multiply-adds, above the limit of "
                         f"{MAX_EXPANSION_COST:.0e}; use a smaller basis")
    spec = ground_state_spec(params)

    # Psi = c0 * (-1)^(n(n-1)/2) * det[x_i^j] * exp(beta*S^2 - c2*x.x) with
    # beta = -c1 and S = sum x.  exp(beta*S^2) = int exp(-v^2 + 2*sqrt(beta)*v*S)
    # dv / sqrt(pi) factorises the Gaussian over the particles, so the
    # projection onto the levels K is int exp(-v^2) det M(v)[K, :] dv / sqrt(pi)
    # with M(v)[k, j] = int phi_k(x) x^j exp(-c2*x^2 + 2*sqrt(beta)*v*x) dx.
    # Substitute x = sqrt(beta)*v/p + t/sqrt(p) with p = c2 + 1/2, and
    # v = u*sqrt(p): sqrt(p) is 1/sqrt(1 - xi), formed without the difference
    # 1 - xi, which rounds to 0 at huge kappa.  Each row of M takes a factor
    # exp(-v^2/n) of the v-Gaussian along; as p = n*beta + 1, the row's whole
    # exponent, phi_k's Gaussian included, is then -t^2 - u^2/n, small at any
    # kappa, and M(v)[k, j] is exp(-u^2/n) times a polynomial of degree k + j
    # in t.  det M(v) is exp(-u^2) times a polynomial of degree n*(d-1) in u,
    # so both Gauss-Hermite rules below are exact.
    beta = -spec.c1
    p = (1.0 + spec.omega_rel) / 2.0
    u, wu = _gh_nodes(g)
    v = u * math.sqrt(p)
    t, wt = _gh_nodes((d_basis + n - 2) // 2 + 1)
    x = (math.sqrt(beta) / p) * v[:, None] + t / math.sqrt(p)             # (g, gx)
    # the row exponent less phi_k's own -x^2/2
    fx = (wt / math.sqrt(p)) * np.exp(0.5 * x * x - t * t - (u * u / n)[:, None])
    phi = hermite_functions(d_basis, x.ravel()).reshape(d_basis, g, -1) * fx
    m = np.stack([(phi * x ** j).sum(axis=-1) for j in range(n)])        # (n, d, g)
    wv = wu * math.sqrt(p)

    # Psi(-x) = (-1)^(n(n-1)/2) Psi(x) and phi_l(-x) = (-1)^l phi_l(x), so only
    # determinants whose levels sum to the parity of n(n-1)/2 can be nonzero;
    # the others are stored as exact zeros, which keeps rho's two parity
    # blocks exact for one_rdm and jacobi_eigh
    levels = level_table(d_basis, n)
    kept = np.flatnonzero(levels.sum(axis=1) % 2 == n * (n - 1) // 2 % 2)
    signs = [(-1) ** sum(i > j for i, j in itertools.combinations(perm, 2)) for perm in perms]
    scale = (-1) ** (n * (n - 1) // 2) * spec.c0 * math.sqrt(math.factorial(n) / math.pi)
    amplitudes = np.zeros(levels.shape[0])
    step = max(1, _DET_BLOCK // g)
    for start in range(0, kept.size, step):
        rows = kept[start:start + step]
        block = levels[rows]
        dets = np.zeros((rows.size, g))
        for sign, perm in zip(signs, perms):  # Leibniz: det = sum of signed products
            term = m[perm[0]][block[:, 0]]
            for i in range(1, n):
                term *= m[perm[i]][block[:, i]]
            dets += sign * term
        amplitudes[rows] = scale * (dets * wv).sum(axis=1)

    # np.add.accumulate adds in sequence like a plain loop; np.sum's pairwise
    # order would move the last digits of every amplitude
    weight = float(np.add.accumulate(amplitudes * amplitudes)[-1])
    if weight > 1.0 + DEFICIT_TOL:  # an exact rule keeps |c|^2 <= 1 up to rounding
        raise FloatingPointError(f"|c|^2 = {weight:.3e} exceeds 1")
    deficit = 1.0 - weight
    if deficit > DEFICIT_TOL:
        raise BasisDeficitError(
            f"norm deficit {deficit:.3e} exceeds {DEFICIT_TOL:.1e}; "
            f"increase basis_size beyond {d_basis}")
    renorm = 1.0 / math.sqrt(weight)
    masks = np.bitwise_or.reduce(np.left_shift(np.uint64(1), levels.astype(np.uint64)), axis=1)
    state = FermionState(OrbitalSpace(d=d_basis, n=n), masks, amplitudes * renorm)
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
    basis_size: int
    nodes: int
    floor: float


def point(kappa: float, n: int = 3, quad: QuadratureSpec | None = None) -> ScanPoint:
    """Facet value, Hartree-Fock distance and truncation weights at one kappa.

    For n = 3 in at least 6 orbitals the facet value is the Borland-Dennis
    inequality bd-ineq on the 6 largest occupations; otherwise it is the
    smallest constraint value of the catalog for those occupations.
    """
    quad = quad or QuadratureSpec()
    state, deficit = expand_in_hermite_basis(HarmoniumParams(n=n, kappa=kappa), quad)
    lams, _ = natural_occupations(one_rdm(state), vectors=False)
    lam6, eps6 = truncate_spectrum(lams, min(6, lams.size))
    if n == 3 and lams.size >= 6:
        d_value = evaluate(catalog(3, 6).by_label("bd-ineq"), lam6)
    else:
        d_value = pinning_report(lam6, catalog(n, lam6.size)).d_min
    hf = lams.copy()
    hf[:n] -= 1.0
    return ScanPoint(kappa=float(kappa), d_value=float(d_value),
                     hf_distance=float(np.linalg.norm(hf)), eps6=eps6,
                     norm_deficit=deficit,
                     precision_floor=bool(abs(d_value) < PRECISION_FLOOR))


def _log_log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ln y against ln x over the points with y > 0."""
    pairs = [(x, y) for x, y in zip(xs, ys) if y > 0]
    if len(pairs) < 2:
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
                      quad: QuadratureSpec | None = None) -> ScanResult:
    """Facet distance and Hartree-Fock distance along a kappa grid.

    d_slope and hf_slope are log-log least-squares exponents against the
    squeeze parameter xi = (omega_rel - 1)/(omega_rel + 1), which is
    proportional to kappa as kappa -> 0 in every normalisation of kappa, so
    they estimate the asymptotic exponents (8 and 4 for N = 3) rather than a
    finite-window kappa-slope.
    """
    kappas = [float(k) for k in kappas]
    check_scan_grid(len(kappas), min(kappas, default=0.0), max(kappas, default=0.0))
    quad = quad or QuadratureSpec()
    points = sorted((point(k, 3, quad) for k in kappas), key=lambda p: p.kappa)
    omegas = [ground_state_spec(HarmoniumParams(n=3, kappa=p.kappa)).omega_rel for p in points]
    xis = [(w - 1.0) / (w + 1.0) for w in omegas]
    return ScanResult(points=tuple(points),
                      d_slope=_log_log_slope(xis, [p.d_value for p in points]),
                      hf_slope=_log_log_slope(xis, [p.hf_distance for p in points]),
                      basis_size=quad.basis_size, nodes=quad.node_count(3),
                      floor=PRECISION_FLOOR)
