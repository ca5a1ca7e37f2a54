import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import roots_hermite

from conftest import amplitudes
from qmarginal import harmonium, linalg
from qmarginal.fock import natural_occupations, one_rdm, SlaterDeterminant
from qmarginal.gpc import catalog, evaluate, truncate_spectrum
from qmarginal.harmonium import (BasisDeficitError, HarmoniumParams, expand_in_hermite_basis,
                                 ground_state_spec, hermite_functions, quasipinning_scan)

BD_INEQ = catalog(3, 6).by_label("bd-ineq")


def spectrum(kappa, n=3, basis=16):
    state, deficit = expand_in_hermite_basis(HarmoniumParams(n=n, kappa=kappa), basis)
    lams, _ = natural_occupations(one_rdm(state))
    return state, lams, deficit


def helmert(n):
    """Orthogonal normal-mode matrix; column 0 is the center of mass."""
    q = np.zeros((n, n))
    q[:, 0] = 1.0 / math.sqrt(n)
    for a in range(1, n):
        q[:a, a] = 1.0 / math.sqrt(a * (a + 1))
        q[a, a] = -a / math.sqrt(a * (a + 1))
    return q


def vandermonde(xs):
    v = np.ones(xs.shape[1])
    for i, j in itertools.combinations(range(xs.shape[0]), 2):
        v = v * (xs[i] - xs[j])
    return v


def mode_integral(n, alphas, g, func):
    """Integrate func(x) over the full product grid in normal-mode coordinates.

    alphas are the Gaussian exponents per mode of the *integrand*; func
    receives particle coordinates (n, m) and must include every Gaussian
    factor itself.
    """
    t, wfree = harmonium._gh_nodes(g)
    axes_y = [t / math.sqrt(a) for a in alphas]
    axes_w = [wfree / math.sqrt(a) for a in alphas]
    grids = np.meshgrid(*axes_y, indexing="ij")
    y = np.stack([grid.ravel() for grid in grids])
    weights = np.ones(y.shape[1])
    for wg in np.meshgrid(*axes_w, indexing="ij"):
        weights = weights * wg.ravel()
    return float(weights @ func(helmert(n) @ y))


def wavefunction(spec, coords):
    """Ground-state values at coords of shape (..., n)."""
    coords = np.asarray(coords, dtype=float)
    x = np.atleast_2d(coords).reshape(-1, spec.n).T
    expo = -spec.c1 * x.sum(axis=0) ** 2 - spec.c2 * (x ** 2).sum(axis=0)
    values = spec.c0 * vandermonde(x) * np.exp(expo)
    return values.reshape(coords.shape[:-1])


def grid_norm_sq(spec):
    """int |Psi / c0|^2 over the product grid in normal modes: a polynomial of
    degree n(n-1) times the Gaussian of each mode, so n(n-1)/2 + 1 nodes per
    axis are exact; one more is taken."""
    n = spec.n

    def integrand(x):
        expo = -2.0 * spec.c1 * x.sum(axis=0) ** 2 - 2.0 * spec.c2 * (x ** 2).sum(axis=0)
        return vandermonde(x) ** 2 * np.exp(expo)

    alphas = np.array([1.0] + [spec.omega_rel] * (n - 1))  # exponents of |Psi|^2
    return mode_integral(n, alphas, n * (n - 1) // 2 + 2, integrand)


def full_tensor_amplitudes(params, d, g=None):
    """Reference expansion: the whole d^n projection tensor over the full grid
    of g^n nodes in the principal axes of the combined Gaussian, one matrix
    product per level of its leading n - 2 axes.  g defaults to the smallest
    count exact for the degree n*(d-1) + n*(n-1)/2 integrands."""
    spec = ground_state_spec(params)
    n = spec.n
    g = g or (n * (d - 1) + n * (n - 1) // 2 + 2) // 2
    t, w = roots_hermite(g)
    wfree = w * np.exp(t * t)
    alphas = [1.0] + [(1.0 + spec.omega_rel) / 2.0] * (n - 1)
    parts = np.array(list(itertools.product(range(g), repeat=n))).T
    y = np.array([t[parts[a]] / math.sqrt(alphas[a]) for a in range(n)])
    wnode = np.prod([wfree[parts[a]] / math.sqrt(alphas[a]) for a in range(n)], axis=0)
    x = helmert(n) @ y
    values = wnode * wavefunction(spec, x.T)
    phis = [hermite_functions(d, x[i]) for i in range(n)]
    tensor = np.zeros((d,) * n)
    for head in itertools.product(range(d), repeat=n - 2):
        partial = values
        for axis, level in enumerate(head):
            partial = partial * phis[axis][level]
        tensor[head] += (phis[n - 2] * partial) @ phis[n - 1].T
    amps = {levels: math.sqrt(math.factorial(n)) * tensor[levels]
            for levels in itertools.combinations(range(d), n)}
    norm = math.sqrt(sum(c * c for c in amps.values()))
    return {SlaterDeterminant.from_orbitals([lv + 1 for lv in levels]): c / norm
            for levels, c in amps.items()}


def apply_hamiltonian(spec, coords):
    """(H Psi)(coords) evaluated from the explicit derivatives of Psi."""
    coords = np.asarray(coords, dtype=float)
    x = np.atleast_2d(coords).reshape(-1, spec.n).T
    n, m = x.shape
    pairs = list(itertools.combinations(range(n), 2))
    f = [x[i] - x[j] for i, j in pairs]
    v = np.ones(m)
    for fp in f:
        v = v * fp

    total = x.sum(axis=0)
    expo = -spec.c1 * total ** 2 - spec.c2 * (x ** 2).sum(axis=0)
    gauss = spec.c0 * np.exp(expo)

    lap = np.zeros(m)  # laplacian of Psi divided by the Gaussian factor
    for i in range(n):
        s_i = -2.0 * spec.c1 * total - 2.0 * spec.c2 * x[i]
        s_ii = -2.0 * spec.c1 - 2.0 * spec.c2
        v_i = np.zeros(m)
        v_ii = np.zeros(m)
        mine = [p for p in range(len(pairs)) if i in pairs[p]]
        for p in mine:
            sign_p = 1.0 if pairs[p][0] == i else -1.0
            rest = np.ones(m)
            for q in range(len(pairs)):
                if q != p:
                    rest = rest * f[q]
            v_i += sign_p * rest
            for p2 in mine:
                if p2 == p:
                    continue
                sign_p2 = 1.0 if pairs[p2][0] == i else -1.0
                rest2 = np.ones(m)
                for q in range(len(pairs)):
                    if q != p and q != p2:
                        rest2 = rest2 * f[q]
                v_ii += sign_p * sign_p2 * rest2
        lap += v_ii + 2.0 * v_i * s_i + v * (s_ii + s_i ** 2)

    pair_sq = np.zeros(m)
    for fp in f:
        pair_sq += fp ** 2
    k_const = spec.kappa / n
    potential = 0.5 * (x ** 2).sum(axis=0) + k_const * pair_sq
    values = gauss * (-0.5 * lap + potential * v)
    return values.reshape(coords.shape[:-1])


def ground_state_residual(params):
    """Rayleigh quotient E and <(H-E)^2>/E^2 by exact quadrature.

    The eigenfunction test certifying the normal-mode exponents: residuals at
    rounding level confirm H Psi = E Psi.
    """
    spec = ground_state_spec(params)
    n = spec.n
    alphas = np.array([1.0] + [spec.omega_rel] * (n - 1))
    g = n * (n - 1) // 2 + 3  # degree of (H Psi)^2 over the |Psi|^2 Gaussian

    def quad(func):
        return mode_integral(n, alphas, g, func)

    norm_sq = quad(lambda x: wavefunction(spec, x.T) ** 2)
    energy = quad(lambda x: wavefunction(spec, x.T) * apply_hamiltonian(spec, x.T)) / norm_sq

    def residual_sq(x):
        r = apply_hamiltonian(spec, x.T) - energy * wavefunction(spec, x.T)
        return r * r

    return float(energy), float(quad(residual_sq) / (energy ** 2 * norm_sq))


class TestGroundStateSpec:
    def test_non_interacting_limit(self):
        spec = ground_state_spec(HarmoniumParams(n=3, kappa=0.0))
        assert spec.omega_rel == 1.0
        assert spec.c1 == 0.0
        assert spec.c2 == 0.5

    def test_closed_forms_at_one_third(self):
        spec = ground_state_spec(HarmoniumParams(n=3, kappa=1.0 / 3.0))
        omega = math.sqrt(5.0 / 3.0)
        assert spec.omega_rel == pytest.approx(omega, rel=1e-15)
        assert spec.c2 == pytest.approx(omega / 2.0, rel=1e-15)
        assert spec.c1 == pytest.approx((1.0 - omega) / 6.0, rel=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HarmoniumParams(n=5, kappa=0.1)
        with pytest.raises(ValueError):
            HarmoniumParams(n=3, kappa=-0.1)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_rejected(self, kappa):
        with pytest.raises(ValueError, match="finite"):
            HarmoniumParams(n=3, kappa=kappa)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kappa", [0.0, 0.01, 1.0 / 3.0, 1.0, 50.0])
    def test_closed_form_norm_matches_product_grid(self, n, kappa):
        spec = ground_state_spec(HarmoniumParams(n=n, kappa=kappa))
        assert spec.c0 == pytest.approx(1.0 / math.sqrt(grid_norm_sq(spec)), rel=1e-14, abs=0)

    @pytest.mark.parametrize("n,kappa", [(2, 0.25), (3, 1.0 / 3.0), (3, 0.0), (4, 0.15)])
    def test_eigenfunction_residual(self, n, kappa):
        energy, residual = ground_state_residual(HarmoniumParams(n=n, kappa=kappa))
        omega = math.sqrt(1.0 + 2.0 * kappa)
        assert residual < 1e-18
        # energy of the center-of-mass mode plus the stiffened relative modes
        assert energy == pytest.approx(0.5 + omega * (n * n - 1) / 2.0, rel=1e-13)


class TestExpansion:
    def test_non_interacting_single_determinant(self):
        state, deficit = expand_in_hermite_basis(HarmoniumParams(n=3, kappa=0.0), 10)
        dominant = abs(amplitudes(state)[SlaterDeterminant.from_orbitals((1, 2, 3))]) ** 2
        assert dominant > 1.0 - 1e-12
        assert abs(deficit) < 1e-12

    def test_parity_selection_rule(self):
        state, _ = expand_in_hermite_basis(HarmoniumParams(n=3, kappa=0.1), 12)
        base_parity = (3 * 2 // 2) % 2
        for det, c in amplitudes(state).items():
            if sum(k - 1 for k in det.orbitals) % 2 != base_parity:
                assert abs(c) < 1e-12

    def test_norm_deficit_small_at_moderate_coupling(self):
        _, _, deficit = spectrum(0.1, basis=28)
        assert 0 <= abs(deficit) < 1e-8

    def test_basis_too_small_raises(self):
        with pytest.raises(BasisDeficitError):
            expand_in_hermite_basis(HarmoniumParams(n=3, kappa=0.5), 4)

    def test_node_count_is_the_exactness_minimum(self):
        assert harmonium.node_count(3, 10) == 14
        assert harmonium.node_count(3, 28) == 41
        assert harmonium.node_count(4, 28) == 55

    def test_cost_guard(self, monkeypatch):
        # N=4 at d=64 needs ~3.9e9 multiply-adds: rejected before any work,
        # ground_state_spec included
        monkeypatch.setattr(harmonium, "ground_state_spec", None)
        with pytest.raises(ValueError, match="multiply-adds"):
            expand_in_hermite_basis(HarmoniumParams(n=4, kappa=0.25), 64)

    def test_norm_above_one_rejected(self, monkeypatch):
        # doubled weights scale the sums of each amplitude by 2^(n+1), so
        # |c|^2 grows by 2^(2n+2), to 256 at n=3
        doubled = harmonium._gh_nodes
        monkeypatch.setattr(harmonium, "_gh_nodes", lambda g: (doubled(g)[0], 2 * doubled(g)[1]))
        with pytest.raises(ValueError, match=r"^the expansion at kappa=0\.2, basis_size=10 "
                           r"leaves the float64 range: \|c\|\^2 = 2\.560e\+02 exceeds 1$"):
            expand_in_hermite_basis(HarmoniumParams(n=3, kappa=0.2), 10)

    @pytest.mark.parametrize("basis", [0, -1, 65])
    def test_basis_beyond_bitmask_capacity_rejected(self, basis, monkeypatch):
        # before any work on an expansion that cannot be stored
        monkeypatch.setattr(harmonium, "ground_state_spec", None)
        with pytest.raises(ValueError, match=rf"^basis_size must lie in \[1, 64\], got {basis}$"):
            expand_in_hermite_basis(HarmoniumParams(n=3, kappa=0.2), basis)

    def test_doubling_nodes_changes_nothing(self, monkeypatch):
        params = HarmoniumParams(n=3, kappa=0.2)
        state_a, _ = expand_in_hermite_basis(params, 12)
        exact = harmonium.node_count
        monkeypatch.setattr(harmonium, "node_count", lambda n, d: 2 * exact(n, d))
        state_b, _ = expand_in_hermite_basis(params, 12)
        amps_b = amplitudes(state_b)
        diffs = [abs(c - amps_b[det]) for det, c in amplitudes(state_a).items()]
        assert max(diffs) < 1e-13

    @pytest.mark.parametrize("n,kappa,basis,nodes", [
        (2, 0.25, 10, 10), (2, 0.25, 10, 11), (3, 0.2, 10, 16), (3, 0.2, 10, 17),
        (4, 0.1, 8, 18), (4, 0.1, 8, 19)])
    def test_parity_fold_matches_full_grid(self, n, kappa, basis, nodes, monkeypatch):
        # the parity rule, with an even and an odd v-rule, against the full
        # grid of as many nodes per axis: wrong-parity amplitudes are exact zeros
        params = HarmoniumParams(n=n, kappa=kappa)
        assert nodes >= harmonium.node_count(n, basis)
        monkeypatch.setattr(harmonium, "node_count", lambda *_: nodes)
        state, _ = expand_in_hermite_basis(params, basis)
        reference = full_tensor_amplitudes(params, basis, nodes)
        parity = n * (n - 1) // 2 % 2
        for det, c in amplitudes(state).items():
            if sum(k - 1 for k in det.orbitals) % 2 == parity:
                assert abs(c - reference[det]) < 1e-14
            else:
                assert c == 0.0
                assert abs(reference[det]) < 1e-15

    @pytest.mark.parametrize("g", [1, 2, 19, 42, 43, 57, 150, 151, 160])
    def test_gauss_hermite_grid_is_mirror_symmetric(self, g):
        # symmetrised bit for bit, centre node at 0
        t, w = harmonium._gh_nodes(g)
        assert np.array_equal(t, -t[::-1])
        assert np.array_equal(w, w[::-1])
        if g % 2:
            assert t[g // 2] == 0.0

    @pytest.mark.parametrize("n,kappa,basis", [(2, 0.25, 10), (3, 0.2, 10), (4, 0.15, 9)])
    def test_matches_full_tensor_projection(self, n, kappa, basis):
        params = HarmoniumParams(n=n, kappa=kappa)
        state, _ = expand_in_hermite_basis(params, basis)
        reference = full_tensor_amplitudes(params, basis)
        assert amplitudes(state).keys() == reference.keys()
        assert max(abs(c - reference[det]) for det, c in amplitudes(state).items()) < 1e-13

    def test_determinant_blocks_change_nothing(self, monkeypatch):
        # each amplitude is formed from its own row, whatever the block
        params = HarmoniumParams(n=4, kappa=0.2)
        whole, deficit_whole = expand_in_hermite_basis(params, 10)
        monkeypatch.setattr(harmonium, "_DET_BLOCK", 77)  # 4 determinants a block, the last ragged
        blocked, deficit_blocked = expand_in_hermite_basis(params, 10)
        assert np.array_equal(whole.amps, blocked.amps)
        assert deficit_whole == deficit_blocked

    def test_wavefunction_antisymmetry(self):
        spec = ground_state_spec(HarmoniumParams(n=3, kappa=0.2))
        rng = np.random.default_rng(0)
        points = rng.standard_normal((100, 3))
        swapped = points[:, [1, 0, 2]]
        assert np.max(np.abs(wavefunction(spec, points)
                             + wavefunction(spec, swapped))) < 1e-12


def mp_hermite_rule(g, guesses, dps=40):
    """The g-point Gauss-Hermite rule at dps digits, independent of the
    Jacobi-matrix construction: each guess is polished by Newton steps on the
    physicists' H_g (H_g' = 2g H_{g-1}), and the Gaussian-free weight is the
    classical 2^(g-1) g! sqrt(pi) exp(t^2) / (g H_{g-1}(t))^2."""
    def hermite_pair(x):  # (H_g(x), H_{g-1}(x)) by the three-term recurrence
        below, here = mpmath.mpf(1), 2 * x
        for k in range(1, g):
            below, here = here, 2 * x * here - 2 * k * below
        return here, below

    with mpmath.workdps(dps):
        nodes = []
        for guess in guesses:
            t = mpmath.mpf(float(guess))
            for _ in range(4):
                h_g, h_below = hermite_pair(t)
                t -= h_g / (2 * g * h_below)
            nodes.append(t)
        scale = 2 ** (g - 1) * mpmath.factorial(g) * mpmath.sqrt(mpmath.pi) / g ** 2
        weights = [scale * mpmath.exp(t * t) / hermite_pair(t)[1] ** 2 for t in nodes]
        return nodes, weights


class TestGaussHermiteRule:
    @pytest.mark.parametrize("g", [19, 43, 130])
    def test_matches_40_digit_rule(self, g):
        t, w = harmonium._gh_nodes(g)
        nodes, weights = mp_hermite_rule(g, t)
        assert len(set(nodes)) == g  # every guess polished to its own root
        assert max(abs(float(a - b)) for a, b in zip(t, nodes)) < 2e-15
        assert max(abs(float(a / b - 1)) for a, b in zip(w, weights)) < 5e-14

    @pytest.mark.parametrize("g", [19, 43, 130])
    def test_even_moments_exact(self, g):
        # sum_i w_i t_i^(2k) = Gamma(k + 1/2) for k <= g - 1, the sum taken
        # at 40 digits over the float nodes and weights exactly as returned
        t, w = harmonium._gh_nodes(g)
        with mpmath.workdps(40):
            terms = [mpmath.mpf(float(wi)) * mpmath.exp(-mpmath.mpf(float(ti)) ** 2)
                     for ti, wi in zip(t, w)]
            squares = [mpmath.mpf(float(ti)) ** 2 for ti in t]
            for k in range(g):
                moment = mpmath.fsum(term * sq ** k for term, sq in zip(terms, squares))
                assert abs(float(moment / mpmath.gamma(k + mpmath.mpf(0.5)) - 1)) < 1e-14

    @pytest.mark.parametrize("g", [1, 2, 19, 43, 130])
    def test_matches_scipy_rule(self, g):
        # a second oracle; its own Gaussian-free weights are off by up to
        # 1.3e-12 relative at g = 130 against the 40-digit rule
        t_ref, w_ref = roots_hermite(g)
        t, w = harmonium._gh_nodes(g)
        assert np.max(np.abs(t - t_ref)) < 4e-15
        assert np.max(np.abs(w / np.exp(np.log(w_ref) + t_ref * t_ref) - 1)) < 3e-12

    def test_cached_and_read_only(self):
        t, w = harmonium._gh_nodes(19)
        assert harmonium._gh_nodes(19)[0] is t
        with pytest.raises(ValueError):
            t[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestOccupationSpectra:
    def test_hartree_fock_point_at_zero_coupling(self):
        _, lams, _ = spectrum(0.0, basis=12)
        expected = np.zeros(12)
        expected[:3] = 1.0
        assert np.max(np.abs(lams - expected)) < 1e-10

    def test_largest_seven_carry_everything(self):
        _, lams, _ = spectrum(0.1, basis=28)
        assert lams[6:].sum() < 1e-5
        _, eps6 = truncate_spectrum(lams, 6)
        assert eps6 < 1e-6

    def test_bd_residuals_bounded_by_truncation_weight(self):
        for kappa in (0.1, 0.25, 1.0 / 3.0):
            _, lams, _ = spectrum(kappa, basis=20)
            lam6, eps6 = truncate_spectrum(lams, 6)
            for i in range(3):
                assert abs(lam6[i] + lam6[5 - i] - 1.0) <= eps6 + 1e-9

    def test_occupation_of_lowest_orbital_decreases(self):
        lams_by_kappa = [spectrum(k, basis=16)[1][0] for k in (0.0, 0.1, 0.2, 0.3)]
        assert all(a > b for a, b in zip(lams_by_kappa, lams_by_kappa[1:]))

    def test_n2_pair_degeneracy(self):
        for kappa in (0.1, 0.3):
            _, lams, _ = spectrum(kappa, n=2, basis=14)
            pairs = lams.reshape(-1, 2)
            assert np.max(np.abs(pairs[:, 0] - pairs[:, 1])) < 1e-9

    def test_n4_expansion_runs(self):
        _, lams, deficit = spectrum(0.1, n=4, basis=8)
        assert abs(deficit) < 1e-6
        expected = np.zeros(8)
        expected[:4] = 1.0
        assert np.max(np.abs(lams - expected)) < 0.05


class TestNonCurveAndScan:
    def test_scan_grid_validation(self):
        with pytest.raises(ValueError):
            quasipinning_scan([0.005], 12)
        with pytest.raises(ValueError):
            quasipinning_scan([], 12)

    def test_precision_floor_flagged_at_tiny_coupling(self):
        result = quasipinning_scan([0.01], 12)
        assert result.points[0].precision_floor
        assert result.points[0].d_value < 1e-16
        assert math.isnan(result.d_slope)  # no point above the floor to fit

    @pytest.mark.parametrize("direction", [math.inf, -math.inf])
    def test_one_ulp_in_c0_leaves_the_d_exponent(self, direction, monkeypatch):
        # the smallest kappas of this grid put D below the precision floor,
        # where it is rounding noise that one ulp in c0 reshuffles; the fit
        # skips those points
        kappas = np.geomspace(0.01, 0.5, 20)
        base = quasipinning_scan(kappas)
        assert any(p.precision_floor for p in base.points)
        exact = harmonium.ground_state_spec
        monkeypatch.setattr(harmonium, "ground_state_spec", lambda params: dataclasses.replace(
            exact(params), c0=math.nextafter(exact(params).c0, direction)))
        nudged = quasipinning_scan(kappas)
        assert abs(nudged.d_slope - base.d_slope) <= 0.01
        assert base.d_slope == pytest.approx(8.0, abs=0.05)

    def test_scan_points_are_library_points(self):
        assert quasipinning_scan([0.2], 12).points == (harmonium.point(0.2, 3, 12),)

    def test_scan_points_sorted_and_reproducible(self):
        a = quasipinning_scan([0.3, 0.1], 12)
        b = quasipinning_scan([0.1, 0.3], 12)
        assert [p.kappa for p in a.points] == [0.1, 0.3]
        assert a == b


class TestFrozenReferenceValues:
    """Values certified by the independent diagonalization oracle below."""

    def test_bd_facet_value_at_one_third(self):
        _, lams, deficit = spectrum(1.0 / 3.0, basis=28)
        lam6, eps6 = truncate_spectrum(lams, 6)
        d_value = evaluate(BD_INEQ, lam6)
        assert abs(deficit) < 1e-12
        assert d_value == pytest.approx(5.9112e-9, rel=1e-3)
        assert eps6 == pytest.approx(2.534e-9, rel=1e-2)

    def test_point_at_one_third_within_the_benchmark_anchor(self):
        # the benchmark checks D(1/3, N=3, d=28) against its anchor to 1e-15
        point = harmonium.point(1.0 / 3.0)
        assert abs(point.d_value - 5.9112099659586193e-09) <= 1e-15

    def test_rho_splits_into_two_parity_blocks(self):
        # wrong-parity amplitudes are exact zeros, so rho's parity blocks are
        # exact and jacobi_eigh diagonalises two 14 x 14 blocks
        state, _ = expand_in_hermite_basis(HarmoniumParams(n=3, kappa=1.0 / 3.0))
        rho = one_rdm(state)
        assert linalg._blocks(rho != 0) == [list(range(0, 28, 2)), list(range(1, 28, 2))]

    def test_hf_distance_at_one_third(self):
        _, lams, _ = spectrum(1.0 / 3.0, basis=28)
        hf = lams.copy()
        hf[:3] -= 1.0
        assert np.linalg.norm(hf) == pytest.approx(1.15735e-4, rel=1e-4)


def exact_diagonalization(n, kappa, d_basis):
    """Independent oracle: sparse diagonalization of the trap-plus-coupling
    Hamiltonian in the truncated wedge basis, trusting only matrix elements of
    x and x^2 in the oscillator basis."""
    combos = list(itertools.combinations(range(d_basis), n))
    index = {c: i for i, c in enumerate(combos)}

    def one_body(tmat):
        rows, cols, vals = [], [], []
        for ci, combo in enumerate(combos):
            occ = set(combo)
            for pos, level in enumerate(combo):
                rest = [o for o in combo if o != level]
                sign1 = (-1) ** pos
                for target in range(d_basis):
                    t = tmat[target, level]
                    if t == 0.0 or (target in occ and target != level):
                        continue
                    new = tuple(sorted(rest + [target]))
                    sign2 = (-1) ** sum(1 for o in rest if o < target)
                    rows.append(index[new])
                    cols.append(ci)
                    vals.append(sign1 * sign2 * t)
        size = len(combos)
        return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(size, size)))

    x1 = np.zeros((d_basis, d_basis))
    for m in range(d_basis - 1):
        x1[m, m + 1] = x1[m + 1, m] = math.sqrt((m + 1) / 2.0)
    h = (one_body(np.diag([m + 0.5 for m in range(d_basis)]))
         + (kappa / n) * (n * one_body(x1 @ x1) - one_body(x1) @ one_body(x1)))
    energies, vectors = spla.eigsh(h, k=1, which="SA")
    return float(energies[0]), {c: vectors[i, 0] for i, c in enumerate(combos)}


class TestIndependentDiagonalizationOracle:
    def test_expansion_matches_exact_diagonalization(self):
        # basis large enough that the variational truncated ground state and
        # the projected analytic state agree well below the assertion level
        n, kappa, d_basis = 3, 0.3, 24
        energy, amps = exact_diagonalization(n, kappa, d_basis)
        omega = math.sqrt(1.0 + 2.0 * kappa)
        assert energy == pytest.approx(0.5 + 4.0 * omega, rel=1e-12)
        state, _ = expand_in_hermite_basis(HarmoniumParams(n=n, kappa=kappa), d_basis)
        key = SlaterDeterminant.from_orbitals((1, 2, 3))
        expanded = amplitudes(state)
        sign = math.copysign(1.0, amps[(0, 1, 2)] * expanded[key].real)
        diffs = [abs(amps[tuple(k - 1 for k in det.orbitals)] - sign * c.real)
                 for det, c in expanded.items()]
        assert max(diffs) < 1e-10


def nystrom_occupations(kappa, n_nodes=70, g_inner=5):
    """Independent oracle for n=3: the 1-RDM kernel
    rho(x, y) = 3 * int Psi(x, z) Psi(y, z) dz over z in R^2, with the inner
    integral done exactly by shifted Gauss-Hermite after completing the square,
    then diagonalized on the outer Gauss-Hermite grid."""
    spec = ground_state_spec(HarmoniumParams(n=3, kappa=kappa))
    c1, c2, c0 = spec.c1, spec.c2, spec.c0
    a_mat = np.array([[2 * c1 + 2 * c2, 2 * c1], [2 * c1, 2 * c1 + 2 * c2]])
    evals, evecs = np.linalg.eigh(a_mat)
    t, w = roots_hermite(g_inner)
    tg1, tg2 = np.meshgrid(t, t, indexing="ij")
    inner_w = np.outer(w, w).ravel() / math.sqrt(evals[0] * evals[1])
    centered = evecs @ np.stack([tg1.ravel() / math.sqrt(evals[0]),
                                 tg2.ravel() / math.sqrt(evals[1])])
    a_inv = np.linalg.inv(a_mat)

    def kernel(x, y):
        linear = 2 * c1 * (x + y) * np.ones(2)
        center = -0.5 * (a_inv @ linear)
        z = centered + center[:, None]
        vx = (x - z[0]) * (x - z[1]) * (z[0] - z[1])
        vy = (y - z[0]) * (y - z[1]) * (z[0] - z[1])
        expo = -(c1 + c2) * (x * x + y * y) + float(center @ (a_mat @ center))
        return 3.0 * c0 * c0 * math.exp(expo) * float(inner_w @ (vx * vy))

    nodes, w_free = roots_hermite(n_nodes)
    w_free = np.exp(np.log(w_free) + nodes * nodes)
    grid = np.empty((n_nodes, n_nodes))
    for i in range(n_nodes):
        for j in range(i, n_nodes):
            grid[i, j] = grid[j, i] = kernel(nodes[i], nodes[j])
    sqw = np.sqrt(w_free)
    return np.linalg.eigvalsh(grid * np.outer(sqw, sqw))[::-1]


class TestNystromKernelOracle:
    def test_top_occupations_match(self):
        _, lams, _ = spectrum(0.2, basis=28)
        kernel_lams = nystrom_occupations(0.2)
        assert float(kernel_lams.sum()) == pytest.approx(3.0, abs=1e-10)
        assert np.max(np.abs(kernel_lams[:6] - lams[:6])) < 1e-8


def mp_gauss_hermite(g):
    """Nodes and weights of the g-point Gauss-Hermite rule (weight exp(-t^2))
    from the eigenpairs of its Jacobi matrix, at the working mpmath precision."""
    jac = mpmath.zeros(g, g)
    for k in range(1, g):
        jac[k - 1, k] = jac[k, k - 1] = mpmath.sqrt(mpmath.mpf(k) / 2)
    nodes, vecs = mpmath.eigsy(jac)
    return ([nodes[i] for i in range(g)],
            [mpmath.sqrt(mpmath.pi) * vecs[0, i] ** 2 for i in range(g)])


def mp_hermite_polynomials(count, x):
    """phi_k(x) * exp(x^2 / 2) for k < count, the polynomial parts of the
    oscillator eigenfunctions."""
    out = [mpmath.pi ** mpmath.mpf(-0.25)]
    if count > 1:
        out.append(mpmath.sqrt(2) * x * out[0])
    for k in range(1, count - 1):
        out.append(mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * x * out[k]
                   - mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * out[k - 1])
    return out


def mp_det(rows):
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        term = (-1) ** sum(1 for i, j in itertools.combinations(perm, 2) if i > j)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def mpmath_amplitudes(n, kappa, d_basis, dps=34):
    """Independent oracle with no grid in x_1..x_n.

    Psi = c0 * prod_{i<j}(x_i - x_j) * exp(a*S^2 - c2*x.x) with a = -c1 and
    S = sum x.  exp(a*S^2) = int exp(-u^2 + 2*sqrt(a)*u*S) du / sqrt(pi)
    factorises the Gaussian over particles, and the Vandermonde factor
    (-1)^(n(n-1)/2) * det[x_i^j] turns the projection onto levels K into
    det M(u)[K, :] with M(u)[k, j] = int phi_k(x) x^j exp(-c2*x^2 +
    2*sqrt(a)*u*x) dx.  Completing the square leaves exp(-(1 - xi)*u^2) times
    a polynomial in u, xi = (omega_rel - 1)/(omega_rel + 1), so both the
    u-integral and the x-integrals are exact Gauss-Hermite sums.  Constant
    factors (c0 among them) cancel in the final normalisation.
    """
    with mpmath.workdps(dps):
        omega = mpmath.sqrt(1 + 2 * mpmath.mpf(kappa))
        a = (omega - 1) / (2 * n)
        p = (omega + 1) / 2  # c2 + 1/2, the x-exponent with phi_k's Gaussian
        xi = n * a / p
        tx, wx = mp_gauss_hermite((d_basis + n - 2) // 2 + 1)
        tu, wu = mp_gauss_hermite((n * d_basis - n) // 2 + 1)
        combos = list(itertools.combinations(range(d_basis), n))
        amps = dict.fromkeys(combos, mpmath.mpf(0))
        for v, w_u in zip(tu, wu):
            centre = mpmath.sqrt(a) * v / (mpmath.sqrt(1 - xi) * p)
            m = [[mpmath.mpf(0)] * n for _ in range(d_basis)]
            for t, w_x in zip(tx, wx):
                x = centre + t / mpmath.sqrt(p)
                for k, poly in enumerate(mp_hermite_polynomials(d_basis, x)):
                    for j in range(n):
                        m[k][j] += w_x * poly * x ** j
            for combo in combos:
                amps[combo] += w_u * mp_det([m[k] for k in combo])
        scale = (-1) ** (n * (n - 1) // 2) / mpmath.sqrt(sum(c * c for c in amps.values()))
        return {SlaterDeterminant.from_orbitals([k + 1 for k in combo]): c * scale
                for combo, c in amps.items()}


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("n,kappa,basis", [(3, 1.0 / 3.0, 10), (3, 0.2, 10), (2, 0.25, 12)])
    def test_folded_amplitudes_match_34_digit_oracle(self, n, kappa, basis):
        state, _ = expand_in_hermite_basis(HarmoniumParams(n=n, kappa=kappa), basis)
        reference = mpmath_amplitudes(n, kappa, basis)
        assert amplitudes(state).keys() == reference.keys()
        parity = n * (n - 1) // 2 % 2
        for det, c in amplitudes(state).items():
            assert abs(c - float(reference[det])) < 1e-14
            if sum(k - 1 for k in det.orbitals) % 2 != parity:
                assert c == 0.0
                assert abs(reference[det]) < 1e-30
