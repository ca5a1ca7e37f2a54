import math

import numpy as np
import pytest

from conftest import amplitudes
from qmarginal.fock import (FermionState, OrbitalSpace, SlaterDeterminant,
                            enumerate_slaters, natural_occupations, one_rdm,
                            random_state)
from qmarginal.gpc import PauliConstraint, catalog, evaluate, pinning_report
from qmarginal.selection import (bd_ansatz_state, out_of_support_weight,
                                 reconstruct_ansatz, slater_value,
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


class TestDOperator:
    """The constraint operator, diagonal over the Slater basis."""

    def test_bd_values(self):
        assert slater_value(BD_INEQ, det(1, 2, 3)) == 0
        assert slater_value(BD_INEQ, det(1, 2, 4)) == -1

    def test_pauli_top_counts_first_orbital(self):
        top = CAT.by_label("pauli-top")
        for d0 in enumerate_slaters(SPACE):
            assert slater_value(top, d0) == (0 if d0.has(1) else 1)

    def test_integer_spectrum(self):
        assert all(isinstance(slater_value(BD_INEQ, d0), int)
                   for d0 in enumerate_slaters(SPACE))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            zero_eigenspace_slaters([PauliConstraint(1, (-1, 0), "ineq", "x")], SPACE)


class TestZeroEigenspace:
    def test_equalities_give_eight_determinants(self):
        dets = zero_eigenspace_slaters(BD_EQS, SPACE)
        assert sorted(d.orbitals for d in dets) == sorted(EIGHT)

    def test_adding_facet_gives_three(self):
        dets = zero_eigenspace_slaters(BD_EQS + (BD_INEQ,), SPACE)
        assert sorted(d.orbitals for d in dets) == sorted(THREE)

    def test_normalization_keeps_everything(self):
        norm = CAT.by_label("norm")
        assert len(zero_eigenspace_slaters([norm], SPACE)) == 20

    def test_empty_constraint_list_rejected(self):
        with pytest.raises(ValueError):
            zero_eigenspace_slaters([], SPACE)

    def test_kernel_states_are_annihilated_exactly(self):
        dets = zero_eigenspace_slaters(BD_EQS, SPACE)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(len(dets)) + 1j * rng.standard_normal(len(dets))
        c /= np.linalg.norm(c)
        state = FermionState(SPACE, [d0.mask for d0 in dets], c)
        for constraint in BD_EQS:
            residual = sum(slater_value(constraint, d0) ** 2 * abs(a) ** 2
                           for d0, a in amplitudes(state).items())
            assert residual == 0.0


class TestReconstructAnsatz:
    def test_all_four_saturated(self):
        report = pinning_report(np.array([0.9, 0.7, 0.6, 0.4, 0.3, 0.1]), CAT)
        dets = reconstruct_ansatz(report, SPACE)
        assert sorted(d.orbitals for d in dets) == sorted(THREE)

    def test_only_equalities_saturated(self):
        report = pinning_report(np.full(6, 0.5), CAT)
        dets = reconstruct_ansatz(report, SPACE)
        assert sorted(d.orbitals for d in dets) == sorted(EIGHT)

    def test_nothing_saturated_keeps_full_basis(self):
        # off the equality manifold on purpose: nothing saturates
        lams = np.array([0.9, 0.85, 0.8, 0.22, 0.18, 0.05])
        report = pinning_report(lams, CAT)
        assert not report.saturated
        assert len(reconstruct_ansatz(report, SPACE)) == 20


class TestPinningLemma:
    def test_pinned_three_determinant_state(self):
        state = bd_ansatz_state(SPACE, math.sqrt(0.6), math.sqrt(0.3), math.sqrt(0.1))
        report = verify_pinning_lemma(state, BD_INEQ)
        assert abs(report.constraint_value) < 1e-12
        assert report.residual_norm < 1e-12
        assert report.pinned and not report.degenerate

    def test_single_determinant_relabels_to_hartree_fock(self):
        state = FermionState.from_amplitudes(SPACE, {det(1, 2, 4): 1.0})
        report = verify_pinning_lemma(state, BD_INEQ)
        assert report.constraint_value == 0.0
        assert report.residual_norm == 0.0
        # fully degenerate occupations across unequal coefficients: flagged
        assert report.degenerate

    def test_unpinned_state_reports_both_numbers(self):
        state = random_state(SPACE, np.random.default_rng(123))
        report = verify_pinning_lemma(state, BD_INEQ)
        assert report.constraint_value > 1e-3
        assert report.residual_norm > 0.0
        assert not report.pinned

    def test_residual_bound_scales_with_tol(self):
        state = bd_ansatz_state(SPACE, math.sqrt(0.6), math.sqrt(0.3), math.sqrt(0.1))
        report = verify_pinning_lemma(state, BD_INEQ, tol=1e-4)
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
            report = verify_pinning_lemma(state, BD_INEQ)
            if report.degenerate:
                continue
            assert report.residual_norm < 1e-10
            assert abs(report.constraint_value) < 1e-10


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
        support = [det(1, 2, 3)]
        assert out_of_support_weight(state, support) == pytest.approx(0.3)
