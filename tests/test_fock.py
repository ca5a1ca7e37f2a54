import io
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import amplitudes
from qmarginal import linalg
from qmarginal.fock import (MAX_ORBITALS, UNITARY_TOL, CapacityError, FermionState,
                            OrbitalSpace, SlaterDeterminant, level_table, levels,
                            natural_occupations, occupied, one_rdm, random_state,
                            read_state_json, rotate_orbitals, slater_masks, write_state_json)
from qmarginal.harmonium import HarmoniumParams, expand_in_hermite_basis


def det(*orbitals):
    return SlaterDeterminant.from_orbitals(orbitals)


def _flip(det: SlaterDeterminant, k: int, filled: bool):
    """(sign, det with orbital k flipped) if orbital k is filled == filled, else None."""
    if k < 1 or k > MAX_ORBITALS:
        raise ValueError(f"orbital index {k} outside [1, {MAX_ORBITALS}]")
    bit = 1 << (k - 1)
    if bool(det.mask & bit) != filled:
        return None
    return -1 if (det.mask & (bit - 1)).bit_count() & 1 else 1, SlaterDeterminant(det.mask ^ bit)


def apply_annihilator(det: SlaterDeterminant, k: int):
    """a_k |det>.  Returns (sign, new det) or None if orbital k is empty."""
    return _flip(det, k, True)


def apply_creator(det: SlaterDeterminant, k: int):
    """a_k^dag |det>.  Returns (sign, new det) or None if orbital k is filled."""
    return _flip(det, k, False)


def enumerate_slaters(space):
    """All n-fermion determinants, ascending by bitmask value."""
    return [SlaterDeterminant(mask) for mask in slater_masks(space).tolist()]


def loop_one_rdm(state):
    """Reference 1-RDM: the per-determinant loop over a_k^dag a_j."""
    d = state.space.d
    rho = np.zeros((d, d), dtype=complex)
    amps = amplitudes(state)
    for src, c in amps.items():
        for j in src.orbitals:
            s1, reduced = apply_annihilator(src, j)
            for k in range(1, d + 1):
                created = apply_creator(reduced, k)
                if created is None:
                    continue
                s2, target = created
                c_target = amps.get(target)
                if c_target is not None:
                    rho[j - 1, k - 1] += s1 * s2 * np.conj(c_target) * c
    return rho


def loop_rotate_orbitals(state, u):
    """Reference rotation: one minor determinant stack per target determinant."""
    d, n = state.space.d, state.space.n
    nonzero = state.amps != 0
    cols = np.nonzero(occupied(state.masks[nonzero], d))[1].reshape(-1, n)
    amps = state.amps[nonzero]
    targets = slater_masks(state.space)
    values = np.array([np.linalg.det(u[rows, :][:, cols].transpose(1, 0, 2)) @ amps
                       for rows in np.nonzero(occupied(targets, d))[1].reshape(-1, n)])
    targets, values = targets[values != 0], values[values != 0]
    total = sum(abs(c) ** 2 for c in values.tolist())
    assert abs(total - 1.0) <= UNITARY_TOL
    return targets, values * (1.0 / math.sqrt(total))


def sparse_state(space, orbital_sets, rng):
    amps = {det(*orbitals): complex(rng.standard_normal(), rng.standard_normal())
            for orbitals in orbital_sets}
    return FermionState.from_amplitudes(space, amps)


def bd_example_state():
    space = OrbitalSpace(d=6, n=3)
    return FermionState.from_amplitudes(space, {
        det(1, 2, 3): math.sqrt(0.6),
        det(1, 4, 5): math.sqrt(0.3),
        det(2, 4, 6): math.sqrt(0.1),
    })


class TestOrbitalSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            OrbitalSpace(d=3, n=4)
        with pytest.raises(ValueError):
            OrbitalSpace(d=0, n=0)
        with pytest.raises(ValueError):
            OrbitalSpace(d=65, n=2)

    def test_basis_size(self):
        assert OrbitalSpace(d=6, n=3).basis_size == 20


class TestEnumeration:
    def test_counts(self):
        assert slater_masks(OrbitalSpace(d=6, n=3)).size == 20
        assert slater_masks(OrbitalSpace(d=4, n=1)).size == 4
        assert slater_masks(OrbitalSpace(d=7, n=3)).size == 35

    def test_single_particle_basis(self):
        masks = slater_masks(OrbitalSpace(d=4, n=1))
        assert levels(masks, 4, 1).tolist() == [[0], [1], [2], [3]]

    def test_deterministic_mask_order(self):
        masks = slater_masks(OrbitalSpace(d=6, n=3)).tolist()
        assert masks == sorted(masks)
        assert all(m.bit_count() == 3 for m in masks)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            slater_masks(OrbitalSpace(d=40, n=20))

    @pytest.mark.parametrize("d,n", [(1, 1), (6, 1), (6, 6), (10, 4), (28, 3), (64, 3), (20, 10)])
    def test_level_table_matches_itertools(self, d, n):
        table = level_table(d, n)
        expected = np.array(list(itertools.combinations(range(d), n)))
        assert table.shape == (math.comb(d, n), n)
        assert table.dtype == expected.dtype
        assert np.array_equal(table, expected)

    def test_levels_list_the_orbitals(self):
        space = OrbitalSpace(d=64, n=3)
        masks = [det(1, 2, 64).mask, det(5, 9, 33).mask, det(62, 63, 64).mask]
        assert (levels(masks, 64, 3) + 1).tolist() == [[1, 2, 64], [5, 9, 33], [62, 63, 64]]
        masks = slater_masks(space)[::997]
        assert [tuple(row) for row in (levels(masks, 64, 3) + 1).tolist()] == \
            [SlaterDeterminant(m).orbitals for m in masks.tolist()]


class TestOperators:
    def test_annihilator_sign(self):
        sign, reduced = apply_annihilator(det(1, 2, 3), 2)
        assert sign == -1 and reduced == det(1, 3)

    def test_annihilator_empty_orbital(self):
        assert apply_annihilator(det(1, 2, 3), 5) is None

    def test_number_operator(self):
        sign1, reduced = apply_annihilator(det(1, 2, 3), 1)
        sign2, restored = apply_creator(reduced, 1)
        assert sign1 * sign2 == 1 and restored == det(1, 2, 3)

    def test_index_range(self):
        with pytest.raises(ValueError):
            apply_annihilator(det(1, 2), 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_anticommutator(self, seed, j, k):
        # <psi| {a_j, a_k^dag} |psi> = delta_jk
        space = OrbitalSpace(d=6, n=3)
        amps = amplitudes(random_state(space, np.random.default_rng(seed)))

        def overlap_after(ops):
            total = 0.0 + 0.0j
            for d0, c in amps.items():
                current, sign = d0, 1
                for name, idx in ops:
                    step = (apply_annihilator if name == "a" else apply_creator)(current, idx)
                    if step is None:
                        sign = 0
                        break
                    sign *= step[0]
                    current = step[1]
                if sign:
                    total += np.conj(amps.get(current, 0.0)) * sign * c
            return total

        value = overlap_after([("adag", k), ("a", j)]) + overlap_after([("a", j), ("adag", k)])
        assert abs(value - (1.0 if j == k else 0.0)) < 1e-12


class TestOneRDM:
    def test_single_determinant(self):
        space = OrbitalSpace(d=6, n=3)
        state = FermionState.from_amplitudes(space, {det(1, 2, 3): 1.0})
        assert np.allclose(one_rdm(state), np.diag([1, 1, 1, 0, 0, 0]))

    def test_ghz_like_superposition(self):
        # oracle: direct computation over the 20-determinant basis gives I/2
        space = OrbitalSpace(d=6, n=3)
        state = FermionState.from_amplitudes(
            space, {det(1, 2, 3): 1.0, det(4, 5, 6): 1.0})
        assert np.allclose(one_rdm(state), np.eye(6) / 2.0, atol=1e-14)

    def test_bd_example_diagonal(self):
        # determinants pairwise differ in two orbitals, so the matrix is diagonal
        rho = one_rdm(bd_example_state())
        assert np.allclose(rho, np.diag([0.9, 0.7, 0.6, 0.4, 0.3, 0.1]), atol=1e-14)

    def test_brute_force_oracle_random_state(self):
        # independent oracle: <a_k^dag a_j> assembled determinant pair by pair
        space = OrbitalSpace(d=5, n=2)
        state = random_state(space, np.random.default_rng(11))
        basis = enumerate_slaters(space)
        amps = amplitudes(state)
        expected = np.zeros((5, 5), dtype=complex)
        for j in range(1, 6):
            for k in range(1, 6):
                for src in basis:
                    step1 = apply_annihilator(src, j)
                    if step1 is None:
                        continue
                    step2 = apply_creator(step1[1], k)
                    if step2 is None:
                        continue
                    expected[j - 1, k - 1] += (step1[0] * step2[0]
                                               * np.conj(amps.get(step2[1], 0.0))
                                               * amps[src])
        assert np.allclose(one_rdm(state), expected, atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_invariants_random_states(self, seed):
        space = OrbitalSpace(d=6, n=3)
        rho = one_rdm(random_state(space, np.random.default_rng(seed)))
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert abs(np.trace(rho).real - 3.0) < 1e-10
        lams = np.linalg.eigvalsh(rho)
        assert lams.min() > -1e-10 and lams.max() < 1 + 1e-10

    @pytest.mark.parametrize("n,d", [(1, 5), (3, 6), (3, 8), (4, 10), (5, 9), (3, 12)])
    def test_matches_loop_on_dense_complex_states(self, n, d):
        state = random_state(OrbitalSpace(d=d, n=n), np.random.default_rng(100 * n + d))
        assert np.max(np.abs(one_rdm(state) - loop_one_rdm(state))) <= 1e-15

    def test_matches_loop_on_sparse_states(self):
        rng = np.random.default_rng(7)
        # single excitations of one another, so off-diagonal terms appear,
        # including moves into and out of orbital 64 (bit 63 of the mask)
        top = sparse_state(OrbitalSpace(d=64, n=3),
                           [(1, 2, 64), (1, 2, 3), (2, 3, 64), (1, 3, 63), (1, 63, 64),
                            (30, 31, 64)], rng)
        orbital_sets = {tuple(sorted(int(k) for k in rng.choice(np.arange(1, 21), 4,
                                                                replace=False)))
                        for _ in range(60)}
        spread = sparse_state(OrbitalSpace(d=20, n=4), sorted(orbital_sets), rng)
        for state in (top, spread):
            assert np.max(np.abs(one_rdm(state) - loop_one_rdm(state))) <= 1e-15
        assert abs(one_rdm(top)[63, 2]) > 0  # |1,2,64> <-> |1,2,3>

    def test_matches_loop_on_harmonium_state(self):
        state, _ = expand_in_hermite_basis(HarmoniumParams(n=3, kappa=1.0 / 3.0), 12)
        rho = one_rdm(state)
        assert np.max(np.abs(rho - loop_one_rdm(state))) <= 1e-15
        assert np.array_equal(rho, rho.conj().T)
        # the wrong-parity amplitudes are exact zeros, so no cross-parity term survives
        assert linalg._blocks(rho != 0) == [list(range(0, 12, 2)), list(range(1, 12, 2))]

    def test_one_fermion_is_the_outer_product(self):
        state = random_state(OrbitalSpace(d=7, n=1), np.random.default_rng(5))
        c = state.amps[np.argsort(state.masks)]
        assert np.max(np.abs(one_rdm(state) - np.outer(c, c.conj()))) <= 1e-15

    def test_full_shell_is_the_identity(self):
        space = OrbitalSpace(d=6, n=6)
        state = FermionState.from_amplitudes(space, {det(*range(1, 7)): 1.0})
        assert np.array_equal(one_rdm(state), np.eye(6))

    @pytest.mark.parametrize("amplitude", [1.0, -1.0, 1j, -1j])
    def test_single_determinant_bit_for_bit(self, amplitude):
        space = OrbitalSpace(d=8, n=3)
        state = FermionState.from_amplitudes(space, {det(2, 5, 8): amplitude})
        assert np.array_equal(one_rdm(state), np.diag([0, 1, 0, 0, 1, 0, 0, 1]))

    @pytest.mark.parametrize("n,d", [(3, 12), (4, 10), (5, 9)])
    def test_exactly_hermitian_on_complex_states(self, n, d):
        for seed in range(5):
            state = random_state(OrbitalSpace(d=d, n=n), np.random.default_rng(seed))
            rho = one_rdm(state)
            assert np.array_equal(rho, rho.conj().T)

    @pytest.mark.parametrize("complex_amps", [False, True])
    def test_zero_amplitudes_change_nothing(self, complex_amps):
        # explicit zeros interleaved with the support, in enumeration order
        space = OrbitalSpace(d=10, n=3)
        rng = np.random.default_rng(11)
        basis = enumerate_slaters(space)
        support = set(rng.choice(len(basis), 40, replace=False).tolist())
        values = rng.standard_normal(len(basis))
        if complex_amps:
            values = values + 1j * rng.standard_normal(len(basis))
        values /= np.linalg.norm(values[sorted(support)])
        zeros = (0.0, -0.0, 0j)
        masks = [det.mask for det in basis]
        padded = FermionState(space, masks, [values[i] if i in support else zeros[i % 3]
                                             for i in range(len(basis))])
        kept = sorted(support)
        bare = FermionState(space, [masks[i] for i in kept], values[kept])
        assert np.array_equal(one_rdm(padded), one_rdm(bare))

    def test_unnormalized_rejected(self):
        space = OrbitalSpace(d=4, n=2)
        state = FermionState.from_amplitudes(space, {det(1, 2): 1.0})
        object.__setattr__(state, "amps", np.array([1.1 + 0j]))
        with pytest.raises(ValueError):
            one_rdm(state)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_norm_rejected(self, value):
        space = OrbitalSpace(d=4, n=2)
        state = FermionState.from_amplitudes(space, {det(1, 2): 1.0})
        object.__setattr__(state, "amps", np.array([complex(value)]))
        with pytest.raises(ValueError, match="norm"):
            one_rdm(state)

    @pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(1.0, math.inf)])
    def test_non_finite_amplitude_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            FermionState(OrbitalSpace(d=4, n=2), [det(1, 2).mask], [value])


class TestStateArrays:
    def test_caller_order_kept(self):
        space = OrbitalSpace(d=6, n=3)
        order = [det(2, 4, 6), det(1, 2, 3), det(1, 4, 5), det(3, 5, 6)]
        state = FermionState.from_amplitudes(space, dict(zip(order, [0.5, 0.5, 0.0, 0.5j])))
        assert state.masks.dtype == np.uint64 and state.amps.dtype == complex
        assert state.masks.tolist() == [d0.mask for d0 in order]
        assert state.amps[2] == 0

    def test_normalization_divides_like_python(self):
        # each amplitude is c / |c|_2 as Python's complex division computes it
        rng = np.random.default_rng(3)
        basis = enumerate_slaters(OrbitalSpace(d=8, n=3))
        values = [complex(*rng.standard_normal(2)) for _ in basis]
        state = FermionState.from_amplitudes(OrbitalSpace(d=8, n=3), dict(zip(basis, values)))
        norm = math.sqrt(sum(abs(c) ** 2 for c in values))
        assert state.amps.tolist() == [c / norm for c in values]

    @pytest.mark.parametrize("masks,message", [
        ([0b0011, 0b0011], "duplicate determinant |1,2>"),
        ([0b0011, 0b10001], "|1,5> is no n=2 determinant in d=4"),
        ([0b0111], "|1,2,3> is no n=2 determinant in d=4"),
    ])
    def test_invalid_masks_rejected(self, masks, message):
        amps = np.full(len(masks), 1.0 / math.sqrt(len(masks)))
        with pytest.raises(ValueError, match=re.escape(message)):
            FermionState(OrbitalSpace(d=4, n=2), masks, amps)

    def test_one_amplitude_per_mask(self):
        with pytest.raises(ValueError, match="one amplitude per mask"):
            FermionState(OrbitalSpace(d=4, n=2), [0b0011], [0.6, 0.8])

    def test_top_orbital(self):
        space = OrbitalSpace(d=64, n=2)
        state = FermionState(space, [(1 << 63) | 1], [1.0])
        assert occupied(state.masks, 64)[0].nonzero()[0].tolist() == [0, 63]
        with pytest.raises(ValueError, match="in d=63"):
            FermionState(OrbitalSpace(d=63, n=2), [(1 << 63) | 1], [1.0])

    def test_slater_masks_match_enumeration(self):
        space = OrbitalSpace(d=7, n=3)
        expected = sorted(det(*orbitals).mask
                          for orbitals in itertools.combinations(range(1, 8), 3))
        assert slater_masks(space).tolist() == expected

    @pytest.mark.parametrize("value,message", [
        (1e200, "overflow when squared"), (complex(1e308, 1e308), "overflow when squared"),
        (1e-200, "underflow when squared"), (1e-160, "underflow when squared")])
    def test_extreme_magnitudes_rejected(self, value, message):
        with pytest.raises(ValueError, match=message):
            FermionState.from_amplitudes(OrbitalSpace(d=4, n=2), {det(1, 2): value})


class TestNaturalOccupations:
    def test_sorting_diagonal(self):
        lams, u = natural_occupations(np.diag([0.4, 0.9, 0.7]))
        assert np.allclose(lams, [0.9, 0.7, 0.4])
        # permutation unitary mapping natural orbitals onto coordinate axes
        assert np.allclose(np.abs(u), np.eye(3)[:, [1, 2, 0]])

    def test_ghz_spectrum_and_bd_equality(self):
        space = OrbitalSpace(d=6, n=3)
        state = FermionState.from_amplitudes(
            space, {det(1, 2, 3): 1.0, det(4, 5, 6): 1.0})
        lams, _ = natural_occupations(one_rdm(state))
        assert np.allclose(lams, 0.5)
        assert abs(lams[0] + lams[5] - 1.0) < 1e-12

    def test_hartree_fock_point(self):
        space = OrbitalSpace(d=6, n=3)
        state = FermionState.from_amplitudes(space, {det(1, 2, 3): 1.0})
        lams, _ = natural_occupations(one_rdm(state))
        assert np.allclose(lams, [1, 1, 1, 0, 0, 0])

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            natural_occupations(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_occupations_alone_match(self):
        rdm = one_rdm(random_state(OrbitalSpace(d=8, n=3), np.random.default_rng(38)))
        lams, orbitals = natural_occupations(rdm, vectors=False)
        assert orbitals is None
        assert np.array_equal(lams, natural_occupations(rdm)[0])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            natural_occupations(np.diag([value, 1.0]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 10))
    def test_matches_lapack_on_random_hermitian(self, seed, d):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2.0
        lams, u = natural_occupations(h)
        assert np.allclose(lams, np.sort(np.linalg.eigvalsh(h))[::-1], atol=1e-12)
        assert np.max(np.abs(h @ u - u @ np.diag(lams))) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12

    def test_relative_accuracy_graded_matrix(self):
        # graded PSD with exactly representable entries: tiny eigenvalues must
        # come out to relative precision (a permutation keeps entries exact)
        def block(a, b, coupling=0.5):
            e = coupling * math.sqrt(a * b)
            trace, determinant = a + b, a * b - e * e
            lam_plus = (trace + math.sqrt(trace * trace - 4 * determinant)) / 2.0
            return np.array([[a, e], [e, b]]), (lam_plus, determinant / lam_plus)

        b1, eig1 = block(1.0, 1e-8)
        b2, eig2 = block(1e-2, 1e-13)
        full = np.zeros((4, 4))
        full[:2, :2], full[2:, 2:] = b1, b2
        perm = np.array([0, 2, 1, 3])
        full = full[np.ix_(perm, perm)]
        exact = np.sort(np.array(eig1 + eig2))[::-1]
        lams, _ = natural_occupations(full)
        assert np.max(np.abs(lams / exact - 1.0)) < 1e-12

    def test_n2_states_pair_degenerate(self):
        for seed in range(5):
            for d in (4, 5):
                space = OrbitalSpace(d=d, n=2)
                state = random_state(space, np.random.default_rng(seed))
                lams, _ = natural_occupations(one_rdm(state))
                pairs = lams[: 2 * (d // 2)].reshape(-1, 2)
                assert np.max(np.abs(pairs[:, 0] - pairs[:, 1])) < 1e-9
                if d % 2:
                    assert abs(lams[-1]) < 1e-9


class TestRotateOrbitals:
    def test_identity(self):
        state = bd_example_state()
        rotated = rotate_orbitals(state, np.eye(6))
        after = amplitudes(rotated)
        for key, value in amplitudes(state).items():
            assert abs(after.get(key, 0.0) - value) < 1e-14

    def test_permutation_minor_sign(self):
        space = OrbitalSpace(d=3, n=2)
        state = FermionState.from_amplitudes(space, {det(1, 2): 1.0})
        swap = np.eye(3)[:, [2, 1, 0]]
        rotated = rotate_orbitals(state, swap)
        assert abs(abs(amplitudes(rotated)[det(2, 3)]) - 1.0) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            rotate_orbitals(bd_example_state(), np.eye(6) * 1.01)

    @pytest.mark.parametrize("make", ["haar-3-12", "haar-4-10", "bd-3-6", "sparse-3-64"])
    def test_bit_identical_to_the_per_target_loop(self, make):
        rng = np.random.default_rng(12)
        if make == "bd-3-6":
            state = bd_example_state()
        elif make == "sparse-3-64":
            state = sparse_state(OrbitalSpace(d=64, n=3),
                                 [(1, 2, 64), (1, 2, 3), (30, 31, 64)], rng)
        else:
            n, d = map(int, make.split("-")[1:])
            state = random_state(OrbitalSpace(d=d, n=n), rng)
        d = state.space.d
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        haar, _ = np.linalg.qr(g)
        natural = natural_occupations(one_rdm(state))[1].conj().T
        for u in (natural, haar):
            rotated = rotate_orbitals(state, u)
            masks, amps = loop_rotate_orbitals(state, u)
            assert np.array_equal(rotated.masks, masks)
            assert np.array_equal(rotated.amps, amps)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_spectrum_invariant_under_rotation(self, seed):
        rng = np.random.default_rng(seed)
        space = OrbitalSpace(d=5, n=2)
        state = random_state(space, rng)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u, _ = np.linalg.qr(g)
        lams_before, _ = natural_occupations(one_rdm(state))
        lams_after, _ = natural_occupations(one_rdm(rotate_orbitals(state, u)))
        assert np.max(np.abs(lams_before - lams_after)) < 1e-9


class TestBorlandDennisEqualities:
    def test_equalities_hold_for_random_states(self):
        space = OrbitalSpace(d=6, n=3)
        rng = np.random.default_rng(7)
        for _ in range(100):
            lams, _ = natural_occupations(one_rdm(random_state(space, rng)))
            for i in range(3):
                assert abs(lams[i] + lams[5 - i] - 1.0) < 1e-9


class TestStateIO:
    def test_round_trip(self):
        state = bd_example_state()
        buffer = io.StringIO()
        write_state_json(state, buffer)
        buffer.seek(0)
        loaded = read_state_json(buffer)
        assert loaded.space == state.space
        after = amplitudes(loaded)
        for key, value in amplitudes(state).items():
            assert abs(after[key] - value) < 1e-12

    def test_reader_normalizes(self):
        raw = io.StringIO(
            '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [1, 2], "re": 2.0, "im": 0.0}]}')
        state = read_state_json(raw)
        assert abs(amplitudes(state)[det(1, 2)] - 1.0) < 1e-14

    def test_reader_rejects_unsorted_orbitals(self):
        raw = io.StringIO(
            '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [2, 1], "re": 1.0, "im": 0.0}]}')
        with pytest.raises(ValueError):
            read_state_json(raw)

    @pytest.mark.parametrize("entries,message", [
        ([{"orbitals": [1, 2], "re": 1.0}, {"orbitals": [2, 1], "re": 1.0, "im": 0.0}],
         'amplitude entry 2 ({"orbitals": [2, 1], "re": 1.0, "im": 0.0}): '
         'need strictly increasing orbitals in [1, 64]'),
        ([["not", "an", "object"]],
         'amplitude entry 1 (["not", "an", "object"]): '
         'need an object with "orbitals", "re" and optionally "im"'),
        ([{"orbitals": [1, 2], "re": "x", "note": "a long note that pushes the entry past 80"}],
         'amplitude entry 1 ({"orbitals": [1, 2], "re": "x", "note": "a long note that pushes '
         'the entry past ): re and im must be numbers in the float range'),
        ([{"orbitals": [1, 2], "re": 1e308, "im": math.inf}],
         'amplitude entry 1 ({"orbitals": [1, 2], "re": 1e+308, "im": Infinity}): '
         'amplitude is not finite: (1e+308+infj)')],
        ids=["orbitals", "object", "number", "finite"])
    def test_reader_rejection_message_verbatim(self, entries, message):
        raw = io.StringIO(json.dumps({"d": 4, "n": 2, "amplitudes": entries}))
        with pytest.raises(ValueError) as excinfo:
            read_state_json(raw)
        assert str(excinfo.value) == message

    def test_reader_rejects_wrong_particle_count(self):
        raw = io.StringIO(
            '{"d": 4, "n": 3, "amplitudes": [{"orbitals": [1, 2], "re": 1.0, "im": 0.0}]}')
        with pytest.raises(ValueError):
            read_state_json(raw)

    def test_writer_drops_negligible_amplitudes(self):
        space = OrbitalSpace(d=4, n=2)
        state = FermionState(space, [det(1, 2).mask, det(3, 4).mask],
                             [math.sqrt(1 - 1e-30), 1e-15])
        buffer = io.StringIO()
        write_state_json(state, buffer)
        assert '"orbitals": [3, 4]' not in buffer.getvalue()
