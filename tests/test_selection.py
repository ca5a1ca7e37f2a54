import math

import numpy as np
import pytest

from conftest import amplitudes, det, make_state, orbitals, pinned_ansatz_state, random_state
from qmarginal.fock import FermionState, OrbitalSpace, natural_occupations, one_rdm, slater_masks
from qmarginal.gpc import PauliConstraint, catalog, evaluate, pinning_report
from qmarginal.selection import (natural_frame, out_of_support_weight, verify_pinning_lemma,
                                 zero_eigenspace_slaters)

SPACE = OrbitalSpace(d=6, n=3)
CAT = catalog(3, 6)
BD_EQS = tuple(CAT.by_label(label) for label in ("bd-eq1", "bd-eq2", "bd-eq3"))
BD_INEQ = CAT.by_label("bd-ineq")

EIGHT = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5), (2, 3, 6), (2, 4, 6),
         (3, 5, 6), (4, 5, 6)]
THREE = [(1, 2, 3), (1, 4, 5), (2, 4, 6)]
PINNED = {det(1, 2, 3): math.sqrt(0.6), det(1, 4, 5): math.sqrt(0.3), det(2, 4, 6): math.sqrt(0.1)}


def slater_value(constraint, mask: int) -> int:
    """Integer eigenvalue of the constraint operator on one determinant."""
    return constraint.kappa0 + sum(constraint.kappas[k - 1] for k in orbitals(mask))


def basis(space):
    return slater_masks(space).tolist()


def orbital_sets(masks):
    return sorted(orbitals(mask) for mask in masks.tolist())


def lemma(state, constraint):
    report, = verify_pinning_lemma(natural_frame(state), [constraint])
    return report


class TestDOperator:
    """The constraint operator, diagonal over the Slater basis."""

    def test_bd_values(self):
        assert slater_value(BD_INEQ, det(1, 2, 3)) == 0
        assert slater_value(BD_INEQ, det(1, 2, 4)) == -1

    def test_pauli_top_counts_first_orbital(self):
        top = CAT.by_label("pauli-top")
        masks = zero_eigenspace_slaters([top], SPACE)
        assert orbital_sets(masks) == sorted(orbitals(m) for m in basis(SPACE) if 1 in orbitals(m))

    def test_kernel_matches_per_determinant_values(self):
        # every catalog constraint, alone and together with bd-ineq
        for constraint in CAT.constraints:
            for group in ([constraint], [constraint, BD_INEQ]):
                expected = [d0 for d0 in basis(SPACE)
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
            orbitals(m) for m in basis(space) if (1 in orbitals(m)) == (2 in orbitals(m)))

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
        masks = zero_eigenspace_slaters(map(CAT.by_label, report.saturated), SPACE)
        assert orbital_sets(masks) == sorted(THREE)

    def test_only_equalities_saturated(self):
        report = pinning_report(np.full(6, 0.5), CAT)
        masks = zero_eigenspace_slaters(map(CAT.by_label, report.saturated), SPACE)
        assert orbital_sets(masks) == sorted(EIGHT)

    def test_nothing_saturated_keeps_full_basis(self):
        # off the equality manifold on purpose: nothing saturates
        lams = np.array([0.9, 0.85, 0.8, 0.22, 0.18, 0.05])
        report = pinning_report(lams, CAT)
        assert not report.saturated
        assert len(zero_eigenspace_slaters(report.saturated, SPACE)) == 20


class TestPinningLemma:
    def test_pinned_three_determinant_state(self):
        state = make_state(SPACE, PINNED)
        report = lemma(state, BD_INEQ)
        assert abs(report.constraint_value) < 1e-12
        assert report.residual_norm < 1e-12
        assert not report.degenerate

    def test_single_determinant_relabels_to_hartree_fock(self):
        state = make_state(SPACE, {det(1, 2, 4): 1.0})
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

    def test_lemma_over_pinned_ensemble(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            report = lemma(pinned_ansatz_state(rng), BD_INEQ)
            if report.degenerate:
                continue
            assert report.residual_norm < 1e-10
            assert abs(report.constraint_value) < 1e-10


    @pytest.mark.parametrize("make", ["bd", "haar", "single"])
    def test_list_form_equals_one_constraint_calls(self, make):
        if make == "bd":
            state = make_state(SPACE, {det(1, 2, 3): 0.8 + 0.1j, det(1, 4, 5): 0.45 - 0.2j,
                                       det(2, 4, 6): 0.2j})
        elif make == "haar":
            state = random_state(SPACE, np.random.default_rng(5))
        else:
            state = make_state(SPACE, {det(1, 2, 4): 1.0})
        constraints = list(CAT.constraints)
        frame = natural_frame(state)
        reports = verify_pinning_lemma(frame, constraints)
        assert reports == [lemma(state, c) for c in constraints]
        assert verify_pinning_lemma(frame, []) == []

    def test_dimension_mismatch(self):
        state = random_state(SPACE, np.random.default_rng(1))
        with pytest.raises(ValueError):
            verify_pinning_lemma(natural_frame(state),
                                 [BD_INEQ, PauliConstraint(1, (-1, 0), "ineq", "x")])

    @pytest.mark.parametrize("n,d", [(3, 6), (3, 12), (4, 10), (2, 5)])
    def test_residual_matches_enumeration(self, n, d):
        space = OrbitalSpace(d=d, n=n)
        state = random_state(space, np.random.default_rng(d))
        rng = np.random.default_rng(n)
        constraints = [PauliConstraint(int(rng.integers(-3, 4)),
                                       tuple(int(k) for k in rng.integers(-4, 5, d)), "ineq",
                                       f"random-{i}") for i in range(6)]
        constraints += list(catalog(n, d).constraints)
        lams, rotated = frame = natural_frame(state)
        reports = verify_pinning_lemma(frame, constraints)
        for c, report in zip(constraints, reports):
            # ||D_hat psi||^2 summed determinant by determinant in the natural-orbital basis
            res_sq = sum(slater_value(c, mask) ** 2 * abs(amp) ** 2
                         for mask, amp in zip(rotated.masks.tolist(), rotated.amps.tolist()))
            assert report.residual_norm == pytest.approx(math.sqrt(res_sq), rel=1e-12)
            assert report.constraint_value == evaluate(c, lams)


class TestAnsatzConverse:
    def test_random_ordered_amplitudes_land_on_facet(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            state = pinned_ansatz_state(rng)
            lams, _ = natural_occupations(one_rdm(state))
            assert np.all(np.diff(lams) <= 1e-12)
            assert abs(evaluate(BD_INEQ, lams)) < 1e-12


class TestOutOfSupportWeight:
    def test_weight_split(self):
        state = make_state(
            SPACE, {det(1, 2, 3): math.sqrt(0.7), det(1, 2, 5): math.sqrt(0.3)})
        support = np.array([det(1, 2, 3)], dtype=np.uint64)
        assert out_of_support_weight(state, support) == pytest.approx(0.3)
