"""Harmonically interacting fermions in a harmonic trap, solved exactly.

Units are hbar = m = omega = 1 throughout; the only physical knob is the
dimensionless relative interaction strength kappa = N*K/(m*omega^2) of the
pair coupling (K/2) * sum_{i,j} (x_i - x_j)^2.  The center-of-mass mode keeps
frequency 1 while every relative normal mode is stiffened to
omega_rel = sqrt(1 + 2*kappa), and the exact N-fermion ground state is the
Vandermonde factor times the corresponding Gaussian.

The ground state is projected onto Slater determinants of frequency-1
oscillator eigenfunctions (so the non-interacting limit is a single
determinant) with Gauss-Hermite quadrature after rotating to the principal
axes of the combined Gaussian; node counts are chosen so the rule is exact
for the polynomial-times-Gaussian integrands.  The rule is the Golub-Welsch
construction from the Jacobi matrix of the Hermite recurrence, with weights
from the oscillator eigenfunctions themselves (see _gh_nodes), so the module
needs numpy alone.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import MAX_ORBITALS, FermionState, OrbitalSpace, one_rdm, natural_occupations
from .gpc import catalog, evaluate, pinning_report, truncate_spectrum
from .linalg import one_blas_thread

DEFAULT_BASIS_SIZE = 28
DEFICIT_TOL = 1e-6
# multiply-adds of the expansion's products: admits N=3 up to d=64 (3.0e10) and
# N=4 up to d=18, rejects N=4 at d=28 (8.7e11) before the first node
MAX_EXPANSION_COST = 4 * 10 ** 10
_CHUNK = 1 << 13  # quadrature nodes evaluated at once
_BLOCK = 1 << 9  # nodes per matrix product in the expansion
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
    nodes: int | None = None  # per-axis Gauss-Hermite nodes; None = exactness minimum

    def __post_init__(self):
        if not 1 <= self.basis_size <= MAX_ORBITALS:
            raise ValueError(f"basis_size must lie in [1, {MAX_ORBITALS}], got {self.basis_size}")

    def node_count(self, n: int) -> int:
        degree = n * (self.basis_size - 1) + n * (n - 1) // 2
        exact = (degree + 2) // 2  # smallest G with 2G-1 >= degree
        if self.nodes is None:
            return exact
        if self.nodes < exact:
            raise ValueError(f"{self.nodes} nodes per axis are too few for an exact rule "
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


def hermite_functions(count: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Frequency-1 oscillator eigenfunctions phi_0..phi_{count-1} at x.

    Written into `out`, shape (count, x.size), when it is given.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty((count, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    scratch = np.empty_like(x)
    for k in range(1, count - 1):  # out[k+1] = sqrt(2/(k+1))*x*out[k] - sqrt(k/(k+1))*out[k-1]
        np.multiply(math.sqrt(2.0 / (k + 1)), x, out=scratch)
        np.multiply(scratch, out[k], out=out[k + 1])
        np.multiply(math.sqrt(k / (k + 1.0)), out[k - 1], out=scratch)
        np.subtract(out[k + 1], scratch, out=out[k + 1])
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
    d_basis = quad.basis_size
    spec = ground_state_spec(params)
    n = spec.n
    if d_basis < n:
        raise ValueError(f"basis_size {d_basis} smaller than particle number {n}")
    g = quad.node_count(n)

    q = _helmert(n)
    t, wfree = _gh_nodes(g)
    # principal axes of the combined Gaussian: basis functions contribute 1/2,
    # the state contributes (c1, c2); CM exponent 1, relative (1+omega)/2
    alphas = np.array([1.0] + [(1.0 + spec.omega_rel) / 2.0] * (n - 1))
    axes_y = [t / math.sqrt(a) for a in alphas]
    axes_w = [wfree / math.sqrt(a) for a in alphas]

    # Parity fold.  The grid is symmetric, so node i mirrors node g^n - 1 - i
    # through x -> -x, where Psi picks up (-1)^(n(n-1)/2) and phi_l picks up
    # (-1)^l; the centre node of an odd grid sits at x = 0, where Psi = 0.  An
    # amplitude whose levels sum to the parity of n(n-1)/2 is therefore twice
    # its sum over the first g^n // 2 nodes, and every other one is exactly 0.
    parity = n * (n - 1) // 2 % 2
    # The amplitude tensor is antisymmetric, so only entries whose last two
    # levels increase are formed: its last axis runs over the pairs lo < hi,
    # grouped by the parity s of lo + hi.  Each node block multiplies the
    # even and the odd rows of the leading axis by the one pair group that
    # completes the allowed parity, once per level of the leading n - 3 axes.
    # Chunks and blocks keep the arrays of a step in cache.
    groups = [[(lo, hi) for lo in range(d_basis) for hi in range(lo + 2 - s, d_basis, 2)]
              for s in (0, 1)]
    sizes = [len(group) for group in groups]
    cols = [slice(0, sizes[0]), slice(sizes[0], sizes[0] + sizes[1])]
    pair_of = np.full((d_basis, d_basis), -1)
    pair_of[tuple(np.array(groups[0] + groups[1]).T)] = np.arange(sizes[0] + sizes[1])
    needed = (parity,) if n == 2 else (0, 1)
    m_half = g ** n // 2
    # per node: head levels x lead rows (d^(n-2) together) x pair columns
    cost = m_half * d_basis ** (n - 2) * max(sizes)
    if cost > MAX_EXPANSION_COST:
        raise ValueError(f"the expansion at n={n}, basis_size={d_basis} with {g} nodes per "
                         f"axis needs about {cost:.1e} multiply-adds, above the limit of "
                         f"{MAX_EXPANSION_COST:.0e}; use a smaller basis")
    tensor = np.zeros((d_basis,) * (n - 2) + (sizes[0] + sizes[1],))
    width = min(_BLOCK, _CHUNK, m_half)
    # buffers reused by every chunk and block: fresh ones cost a page fault
    # per 4 KiB touched
    phi_buf = np.empty((n, d_basis, min(_CHUNK, m_half)))
    pair_buf = [np.empty((size, width)) for size in sizes]
    lead_buf = np.empty(((d_basis + 1) // 2, width))
    with one_blas_thread():
        for start in range(0, m_half, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, m_half))
            y = np.empty((n, idx.size))
            wnode = np.ones(idx.size)
            rem = idx
            for a in range(n - 1, -1, -1):
                part = rem % g
                rem = rem // g
                y[a] = axes_y[a][part]
                wnode = wnode * axes_w[a][part]
            x = q @ y
            values = wnode * wavefunction(spec, x.T)
            phis = [hermite_functions(d_basis, x[i], out=phi_buf[i, :, :idx.size])
                    for i in range(n)]
            for first in range(0, idx.size, _BLOCK):
                nodes = slice(first, first + _BLOCK)
                nb = min(_BLOCK, idx.size - first)
                phi_lo, phi_hi = phis[n - 2][:, nodes], phis[n - 1][:, nodes]
                pairs = {}
                for s in needed:  # pair products row by row into the buffer
                    buf, row = pair_buf[s][:, :nb], 0
                    for lo in range(d_basis - 1):
                        hi = phi_hi[lo + 2 - s::2]
                        np.multiply(phi_lo[lo], hi, out=buf[row:row + hi.shape[0]])
                        row += hi.shape[0]
                    pairs[s] = buf
                if n == 2:
                    tensor[cols[parity]] += pairs[parity] @ values[nodes]
                    continue
                for head in itertools.product(range(d_basis), repeat=n - 3):
                    partial = values[nodes]
                    for axis, level in enumerate(head):
                        partial = partial * phis[axis][level, nodes]
                    for r in (0, 1):
                        s = (parity - sum(head) - r) % 2
                        rows = phis[n - 3][r::2, nodes]
                        lead = np.multiply(rows, partial, out=lead_buf[:rows.shape[0], :nb])
                        tensor[head][r::2, cols[s]] += lead @ pairs[s].T

    scale = 2.0 * math.sqrt(math.factorial(n))  # the fold's factor 2 is exact
    levels = np.array(list(itertools.combinations(range(d_basis), n)))
    amplitudes = scale * tensor[tuple(levels[:, :-2].T) + (pair_of[levels[:, -2], levels[:, -1]],)]
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
    lams, _ = natural_occupations(one_rdm(state))
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
    if not kappas:
        raise ValueError("empty kappa grid")
    if min(kappas) < 0.01 or max(kappas) > 0.5:
        raise ValueError("scan grid must lie within [0.01, 0.5]")
    quad = quad or QuadratureSpec()
    points = sorted((point(k, 3, quad) for k in kappas), key=lambda p: p.kappa)
    omegas = [ground_state_spec(HarmoniumParams(n=3, kappa=p.kappa)).omega_rel for p in points]
    xis = [(w - 1.0) / (w + 1.0) for w in omegas]
    return ScanResult(points=tuple(points),
                      d_slope=_log_log_slope(xis, [p.d_value for p in points]),
                      hf_slope=_log_log_slope(xis, [p.hf_distance for p in points]),
                      basis_size=quad.basis_size, nodes=quad.node_count(3),
                      floor=PRECISION_FLOOR)
