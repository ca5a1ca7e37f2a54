import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import amplitudes
from qmarginal.fock import (FermionState, OrbitalSpace, SlaterDeterminant,
                            natural_occupations, one_rdm, random_state)
from qmarginal.gpc import (PauliConstraint, catalog, catalog_from_json,
                           catalog_to_json, evaluate, pinning_report,
                           truncate_spectrum)

BD_EXAMPLE = np.array([0.9, 0.7, 0.6, 0.4, 0.3, 0.1])


def det(*orbitals):
    return SlaterDeterminant.from_orbitals(orbitals)


class TestConstraint:
    def test_rejects_zero_functional(self):
        with pytest.raises(ValueError):
            PauliConstraint(0, (0, 0), "ineq", "null")

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            PauliConstraint(1, (1, 0), "maybe", "x")


class TestCatalog:
    def test_bd_setting_complete(self):
        cat = catalog(3, 6)
        assert cat.completeness == "complete"
        labels = [c.label for c in cat.constraints]
        for expected in ("bd-eq1", "bd-eq2", "bd-eq3", "bd-ineq"):
            assert expected in labels
        bd = cat.by_label("bd-ineq")
        assert bd.kappa0 == 2 and bd.kappas == (-1, -1, 0, -1, 0, 0)
        assert cat.by_label("bd-eq1").kappas == (1, 0, 0, 0, 0, 1)

    def test_single_particle_complete(self):
        cat = catalog(1, 5)
        assert cat.completeness == "complete"
        assert all(c.label.startswith(("norm", "pauli", "ord")) for c in cat.constraints)

    def test_unknown_setting_partial(self):
        cat = catalog(3, 7)
        assert cat.completeness == "partial"
        facets = [c.label for c in cat.constraints if c.kind == "ineq" and not c.chamber]
        assert facets == ["pauli-top", "pauli-bottom"]

    def test_rejects_n_above_d(self):
        with pytest.raises(ValueError):
            catalog(4, 3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match=f"^need n >= 1, got n={n}$"):
            catalog(n, 6)

    def test_json_round_trip(self):
        cat = catalog(3, 6)
        assert catalog_from_json(catalog_to_json(cat)) == cat


class TestEvaluate:
    def test_hf_point_on_boundary(self):
        bd = catalog(3, 6).by_label("bd-ineq")
        assert evaluate(bd, [1, 1, 1, 0, 0, 0]) == 0.0

    def test_bd_example_pinned(self):
        bd = catalog(3, 6).by_label("bd-ineq")
        assert abs(evaluate(bd, BD_EXAMPLE)) < 1e-15

    def test_violation_detected(self):
        bd = catalog(3, 6).by_label("bd-ineq")
        assert evaluate(bd, [1, 1, 0.5, 0.5, 0, 0]) == -0.5

    def test_stronger_than_pauli_bound(self):
        # witness satisfies the plain Pauli bound but violates the facet
        lams = np.array([1, 1, 0.5, 0.5, 0, 0], dtype=float)
        assert lams[0] + lams[1] <= 2.0
        assert evaluate(catalog(3, 6).by_label("bd-ineq"), lams) < 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(catalog(3, 6).by_label("bd-ineq"), [1, 0, 0])


class TestTruncation:
    def test_pads_nothing_at_exact_length(self):
        lams = np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=float)
        truncated, eps = truncate_spectrum(lams, 6)
        assert np.array_equal(truncated, lams[:6]) and eps == 0.0

    def test_identity(self):
        truncated, eps = truncate_spectrum(BD_EXAMPLE, 6)
        assert np.array_equal(truncated, BD_EXAMPLE) and eps == 0.0

    def test_tail_weight(self):
        truncated, eps = truncate_spectrum([1.0, 0.9, 0.6, 0.4, 0.1], 3)
        assert np.allclose(truncated, [1.0, 0.9, 0.6])
        assert abs(eps - 0.5) < 1e-15

    def test_rejects_growth(self):
        with pytest.raises(ValueError):
            truncate_spectrum([1.0, 0.5], 3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
    def test_report_invariant_under_zero_padding(self, seed, pad):
        space = OrbitalSpace(d=6, n=3)
        lams, _ = natural_occupations(one_rdm(random_state(space, np.random.default_rng(seed))))
        padded = np.concatenate([lams, np.zeros(pad)])
        back, eps = truncate_spectrum(padded, 6)
        assert eps == 0.0
        cat = catalog(3, 6)
        a = pinning_report(lams, cat)
        b = pinning_report(back, cat)
        assert a.d_min == b.d_min
        assert a.saturated_labels() == b.saturated_labels()
        assert a.hf_distance == b.hf_distance


class TestPinningReport:
    def test_hf_point(self):
        report = pinning_report(np.array([1, 1, 1, 0, 0, 0], float), catalog(3, 6))
        assert report.d_min == 0.0
        assert "bd-ineq" in report.saturated_labels()
        assert report.hf_distance == 0.0
        assert not report.equality_violations

    def test_bd_example_pinned_to_facet(self):
        report = pinning_report(BD_EXAMPLE, catalog(3, 6))
        assert abs(report.d_min) < 1e-14
        assert "bd-ineq" in report.saturated_labels()

    def test_hypercube_center_unpinned(self):
        report = pinning_report(np.full(6, 0.5), catalog(3, 6))
        # ordering chamber conditions are all tight but they are not facets
        assert abs(report.d_min - 0.5) < 1e-15
        assert report.saturated_labels() == ("bd-eq1", "bd-eq2", "bd-eq3")
        assert not report.equality_violations

    def test_equality_violation_flagged_not_rejected(self):
        report = pinning_report(np.array([1, 1, 0.5, 0.4, 0.05, 0.05]), catalog(3, 6))
        assert "bd-eq3" in report.equality_violations

    def test_quasipinning_thresholds(self):
        a = 1e-3
        lams = np.array([1 - a, 1 - a, 1 - a, a, a, a])
        report = pinning_report(lams, catalog(3, 6))
        assert abs(report.d_min - a) < 1e-15
        flags = dict(report.quasipinning)
        assert flags[1e-2] and not flags[1e-4] and not flags[1e-6]

    def test_truncation_weight_carried(self):
        report = pinning_report(BD_EXAMPLE, catalog(3, 6), truncation_weight=1e-7)
        assert report.truncation_weight == 1e-7

    @pytest.mark.parametrize("pin_tol", [math.nan, math.inf, -1.0])
    def test_bad_pin_tol_rejected(self, pin_tol):
        with pytest.raises(ValueError, match="pin_tol"):
            pinning_report(BD_EXAMPLE, catalog(3, 6), pin_tol=pin_tol)

    def test_zero_pin_tol_accepted(self):
        assert pinning_report(BD_EXAMPLE, catalog(3, 6), pin_tol=0.0).pin_tol == 0.0


def realize_bd_point(lams):
    """Any point of the d=6 polytope is reached by four determinants.

    With weights a,b,c,e on |1,2,3>, |1,4,5>, |2,4,6>, |3,5,6> the occupation
    vector is (a+b, a+c, a+e, b+c, b+e, c+e) of the squared amplitudes, the
    equalities hold automatically, and the facet value is twice the |3,5,6>
    weight; solving the linear system gives the amplitudes directly.
    """
    lams = np.asarray(lams, dtype=float)
    a_sq = (lams[0] + lams[1] + lams[2] - 1.0) / 2.0
    weights = np.array([a_sq, lams[0] - a_sq, lams[1] - a_sq, lams[2] - a_sq])
    if weights.min() < -1e-12:
        raise ValueError("point outside the polytope")
    weights = np.clip(weights, 0.0, None)
    space = OrbitalSpace(d=6, n=3)
    supports = [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)]
    return FermionState.from_amplitudes(
        space, {det(*orbitals): math.sqrt(w) for orbitals, w in zip(supports, weights)})


class TestSufficiency:
    def sample_polytope_point(self, rng):
        # decreasing top half with the equalities imposed and the facet respected
        while True:
            lams = np.sort(rng.uniform(0.5, 1.0, size=3))[::-1]
            full = np.concatenate([lams, 1.0 - lams[::-1]])
            if np.all(np.diff(full) <= 1e-12) and evaluate(
                    catalog(3, 6).by_label("bd-ineq"), full) >= 0:
                return full

    def test_interior_points_are_reachable(self):
        rng = np.random.default_rng(5)
        cat = catalog(3, 6)
        for _ in range(25):
            target = self.sample_polytope_point(rng)
            state = realize_bd_point(target)
            lams, _ = natural_occupations(one_rdm(state))
            assert np.max(np.abs(lams - target)) < 1e-8
            report = pinning_report(lams, cat)
            assert not report.equality_violations

    def test_facet_value_equals_twice_last_weight(self):
        target = np.array([0.9, 0.8, 0.75, 0.25, 0.2, 0.1])
        state = realize_bd_point(target)
        weight = abs(amplitudes(state)[det(3, 5, 6)]) ** 2
        value = evaluate(catalog(3, 6).by_label("bd-ineq"), target)
        assert abs(value - 2.0 * weight) < 1e-12
