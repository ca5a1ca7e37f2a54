import math

import numpy as np
import pytest

from conftest import amplitudes
from qmarginal.fock import (FermionState, OrbitalSpace, SlaterDeterminant,
                            natural_occupations, one_rdm, random_state, slater_masks)
from qmarginal.gpc import PauliConstraint, catalog, evaluate, pinning_report
from qmarginal.selection import (bd_ansatz_state, out_of_support_weight,
                                 verify_pinning_lemma, zero_eigenspace_slaters)

SPACE = OrbitalSpace(d=6, n=3)
CAT = catalog(3, 6)
BD_EQS = tuple(CAT.by_label(label) for label in ("bd-eq1", "bd-eq2", "bd-eq3"))
BD_INEQ = CAT.by_label("bd-ineq")

EIGHT = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5), (2, 3, 6), (2, 4, 6),
         (3, 5, 6), (4, 5, 6)]
THREE = [(1, 2, 3), (1, 4, 5), (2, 4, 6)]


def det(*orbitals):
    return SlaterDeterminant.from_orbitals(orbitals)


def slater_value(constraint, det0: SlaterDeterminant) -> int:
    """Integer eigenvalue of the constraint operator on one determinant."""
    return constraint.kappa0 + sum(constraint.kappas[k - 1] for k in det0.orbitals)


def basis(space):
    return [SlaterDeterminant(mask) for mask in slater_masks(space).tolist()]


def orbital_sets(masks):
    return sorted(SlaterDeterminant(mask).orbitals for mask in masks.tolist())


def lemma(state, constraint, tol=1e-8):
    report, = verify_pinning_lemma(state, [constraint], tol=tol)
    return report


class TestDOperator:
    """The constraint operator, diagonal over the Slater basis."""

    def test_bd_values(self):
        assert slater_value(BD_INEQ, det(1, 2, 3)) == 0
        assert slater_value(BD_INEQ, det(1, 2, 4)) == -1

    def test_pauli_top_counts_first_orbital(self):
        top = CAT.by_label("pauli-top")
        masks = zero_eigenspace_slaters([top], SPACE)
        assert orbital_sets(masks) == sorted(d0.orbitals for d0 in basis(SPACE) if 1 in d0.orbitals)

    def test_kernel_matches_per_determinant_values(self):
        # every catalog constraint, alone and together with bd-ineq
        for constraint in CAT.constraints:
            for group in ([constraint], [constraint, BD_INEQ]):
                expected = [d0.mask for d0 in basis(SPACE)
                            if all(slater_value(c, d0) == 0 for c in group)]
                assert zero_eigenspace_slaters(group, SPACE).tolist() == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            zero_eigenspace_slaters([PauliConstraint(1, (-1, 0), "ineq", "x")], SPACE)


class TestZeroEigenspace:
    def test_equalities_give_eight_determinants(self):
        masks = zero_eigenspace_slaters(BD_EQS, SPACE)
        assert masks.dtype == np.uint64
        assert orbital_sets(masks) == sorted(EIGHT)

    def test_adding_facet_gives_three(self):
        masks = zero_eigenspace_slaters(BD_EQS + (BD_INEQ,), SPACE)
        assert orbital_sets(masks) == sorted(THREE)

    def test_normalization_keeps_everything(self):
        norm = CAT.by_label("norm")
        assert len(zero_eigenspace_slaters([norm], SPACE)) == 20

    def test_empty_constraint_list_keeps_full_basis(self):
        assert np.array_equal(zero_eigenspace_slaters([], SPACE), slater_masks(SPACE))

    def test_ascending_masks_at_64_orbitals(self):
        space = OrbitalSpace(d=64, n=3)
        masks = zero_eigenspace_slaters([catalog(3, 64).by_label("ord-1")], space)
        assert np.all(masks[1:] > masks[:-1])
        # ord-1 = lam_1 - lam_2 >= 0 vanishes when orbitals 1 and 2 are both filled or both empty
        assert orbital_sets(masks) == sorted(
            d0.orbitals for d0 in basis(space) if (1 in d0.orbitals) == (2 in d0.orbitals))

    def test_kernel_states_are_annihilated_exactly(self):
        masks = zero_eigenspace_slaters(BD_EQS, SPACE)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(len(masks)) + 1j * rng.standard_normal(len(masks))
        c /= np.linalg.norm(c)
        state = FermionState(SPACE, masks, c)
        for constraint in BD_EQS:
            residual = sum(slater_value(constraint, d0) ** 2 * abs(a) ** 2
                           for d0, a in amplitudes(state).items())
            assert residual == 0.0


class TestAnsatzFromReport:
    def test_all_four_saturated(self):
        report = pinning_report(np.array([0.9, 0.7, 0.6, 0.4, 0.3, 0.1]), CAT)
        masks = zero_eigenspace_slaters(report.saturated, SPACE)
        assert orbital_sets(masks) == sorted(THREE)

    def test_only_equalities_saturated(self):
        report = pinning_report(np.full(6, 0.5), CAT)
        masks = zero_eigenspace_slaters(report.saturated, SPACE)
        assert orbital_sets(masks) == sorted(EIGHT)

    def test_nothing_saturated_keeps_full_basis(self):
        # off the equality manifold on purpose: nothing saturates
        lams = np.array([0.9, 0.85, 0.8, 0.22, 0.18, 0.05])
        report = pinning_report(lams, CAT)
        assert not report.saturated
        assert len(zero_eigenspace_slaters(report.saturated, SPACE)) == 20


class TestPinningLemma:
    def test_pinned_three_determinant_state(self):
        state = bd_ansatz_state(SPACE, math.sqrt(0.6), math.sqrt(0.3), math.sqrt(0.1))
        report = lemma(state, BD_INEQ)
        assert abs(report.constraint_value) < 1e-12
        assert report.residual_norm < 1e-12
        assert report.pinned and not report.degenerate

    def test_single_determinant_relabels_to_hartree_fock(self):
        state = FermionState.from_amplitudes(SPACE, {det(1, 2, 4): 1.0})
        report = lemma(state, BD_INEQ)
        assert report.constraint_value == 0.0
        assert report.residual_norm == 0.0
        # fully degenerate occupations across unequal coefficients: flagged
        assert report.degenerate

    def test_unpinned_state_reports_both_numbers(self):
        state = random_state(SPACE, np.random.default_rng(123))
        report = lemma(state, BD_INEQ)
        assert report.constraint_value > 1e-3
        assert report.residual_norm > 0.0
        assert not report.pinned

    def test_residual_bound_scales_with_tol(self):
        state = bd_ansatz_state(SPACE, math.sqrt(0.6), math.sqrt(0.3), math.sqrt(0.1))
        report = lemma(state, BD_INEQ, tol=1e-4)
        assert report.residual_bound == pytest.approx(2 * 1e-4)  # spectral radius 2

    def test_lemma_over_pinned_ensemble(self):
        rng = np.random.default_rng(42)
        produced = 0
        while produced < 50:
            raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            raw /= np.linalg.norm(raw)
            alpha, beta, gamma = raw
            if abs(alpha) ** 2 < abs(beta) ** 2 + abs(gamma) ** 2 or abs(beta) < abs(gamma):
                continue
            produced += 1
            state = bd_ansatz_state(SPACE, alpha, beta, gamma)
            report = lemma(state, BD_INEQ)
            if report.degenerate:
                continue
            assert report.residual_norm < 1e-10
            assert abs(report.constraint_value) < 1e-10


    @pytest.mark.parametrize("make", ["bd", "haar", "single"])
    def test_list_form_equals_one_constraint_calls(self, make):
        if make == "bd":
            state = bd_ansatz_state(SPACE, 0.8 + 0.1j, 0.45 - 0.2j, 0.2j)
        elif make == "haar":
            state = random_state(SPACE, np.random.default_rng(5))
        else:
            state = FermionState.from_amplitudes(SPACE, {det(1, 2, 4): 1.0})
        constraints = list(CAT.constraints)
        reports = verify_pinning_lemma(state, constraints, tol=1e-6)
        assert reports == [lemma(state, c, tol=1e-6) for c in constraints]
        assert verify_pinning_lemma(state, []) == []

    def test_dimension_mismatch(self):
        state = random_state(SPACE, np.random.default_rng(1))
        with pytest.raises(ValueError):
            verify_pinning_lemma(state, [BD_INEQ, PauliConstraint(1, (-1, 0), "ineq", "x")])

    @pytest.mark.parametrize("n,d", [(3, 6), (3, 12), (4, 10), (2, 5)])
    def test_spectral_radius_matches_enumeration(self, n, d):
        space = OrbitalSpace(d=d, n=n)
        state = random_state(space, np.random.default_rng(d))
        rng = np.random.default_rng(n)
        constraints = [PauliConstraint(int(rng.integers(-3, 4)),
                                       tuple(int(k) for k in rng.integers(-4, 5, d)), "ineq",
                                       f"random-{i}") for i in range(6)]
        constraints += list(catalog(n, d).constraints)
        for c, report in zip(constraints, verify_pinning_lemma(state, constraints, tol=1.0)):
            radius = max(abs(slater_value(c, d0)) for d0 in basis(space))
            assert report.residual_bound == radius


class TestAnsatzConverse:
    def test_random_ordered_amplitudes_land_on_facet(self):
        rng = np.random.default_rng(9)
        count = 0
        while count < 100:
            raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            raw /= np.linalg.norm(raw)
            alpha, beta, gamma = raw
            if abs(alpha) ** 2 < abs(beta) ** 2 + abs(gamma) ** 2 or abs(beta) < abs(gamma):
                continue
            count += 1
            state = bd_ansatz_state(SPACE, alpha, beta, gamma)
            lams, _ = natural_occupations(one_rdm(state))
            assert np.all(np.diff(lams) <= 1e-12)
            assert abs(evaluate(BD_INEQ, lams)) < 1e-12

    def test_unordered_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            bd_ansatz_state(SPACE, math.sqrt(0.2), math.sqrt(0.5), math.sqrt(0.3))
        with pytest.raises(ValueError):
            bd_ansatz_state(SPACE, math.sqrt(0.6), math.sqrt(0.1), math.sqrt(0.3))


class TestOutOfSupportWeight:
    def test_weight_split(self):
        state = FermionState.from_amplitudes(
            SPACE, {det(1, 2, 3): math.sqrt(0.7), det(1, 2, 5): math.sqrt(0.3)})
        support = np.array([det(1, 2, 3).mask], dtype=np.uint64)
        assert out_of_support_weight(state, support) == pytest.approx(0.3)
