"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

The program's coupling is kappa with omega_rel**2 = 1 + 2*kappa.  Criteria 4
and 5 are stated so that they do not depend on how kappa is normalised:

* criterion 4 names its reference point by omega_rel**2 = 2 (kappa = 1/3 in
  the convention kappa = K/(m*omega**2) with pair potential
  (K/2) * sum_{i<j} (x_i - x_j)**2) and converts it to the program's kappa;
* criterion 5 fits its exponents against the squeeze parameter
  xi = (omega_rel - 1)/(omega_rel + 1), which is proportional to kappa as
  kappa -> 0 in any normalisation, so the xi-slopes are the asymptotic
  kappa-exponents 8 and 4.  The kappa-slopes of a finite window are printed
  for information only: d ln xi / d ln kappa = 1/omega_rel, so they read
  smaller.
"""
import io
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from conftest import amplitudes
from qmarginal.cli import main as cli_main
from qmarginal.fock import (FermionState, OrbitalSpace, SlaterDeterminant,
                            natural_occupations, one_rdm, random_state)
from qmarginal.gpc import catalog, evaluate, truncate_spectrum
from qmarginal import harmonium
from qmarginal.harmonium import (HarmoniumParams, expand_in_hermite_basis, ground_state_spec,
                                 quasipinning_scan)
from qmarginal.schubert import (check_spectral_inequality, hersch_zwahlen_check,
                                partial_trace, random_mixed_density)
from qmarginal.selection import bd_ansatz_state, verify_pinning_lemma, \
    zero_eigenspace_slaters

SPACE36 = OrbitalSpace(d=6, n=3)
CAT36 = catalog(3, 6)
BD_INEQ = CAT36.by_label("bd-ineq")
BD_EQS = tuple(CAT36.by_label(f"bd-eq{i}") for i in (1, 2, 3))


def report(number, ok, description, detail):
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {description}: {detail}")
    return ok


def test_criterion_01_borland_dennis_necessity():
    rng = np.random.default_rng(20260809)
    t0 = time.time()
    worst_eq, worst_ineq = 0.0, 0.0
    for _ in range(1000):
        lams, _ = natural_occupations(one_rdm(random_state(SPACE36, rng)))
        for i in range(3):
            worst_eq = max(worst_eq, abs(lams[i] + lams[5 - i] - 1.0))
        worst_ineq = min(worst_ineq, evaluate(BD_INEQ, lams))
    elapsed = time.time() - t0
    ok = worst_eq < 1e-9 and worst_ineq >= -1e-9 and elapsed < 10.0
    assert report(1, ok, "equality/facet necessity on 1000 random states",
                  f"max equality residual {worst_eq:.2e}, min facet value "
                  f"{worst_ineq:.2e}, {elapsed:.1f}s")


def test_criterion_02_selection_rule_enumeration():
    eight = zero_eigenspace_slaters(BD_EQS, SPACE36)
    three = zero_eigenspace_slaters(BD_EQS + (BD_INEQ,), SPACE36)
    expected_eight = {(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5),
                      (2, 3, 6), (2, 4, 6), (3, 5, 6), (4, 5, 6)}
    expected_three = {(1, 2, 3), (1, 4, 5), (2, 4, 6)}
    ok = ({SlaterDeterminant(m).orbitals for m in eight.tolist()} == expected_eight
          and {SlaterDeterminant(m).orbitals for m in three.tolist()} == expected_three)
    assert report(2, ok, "zero-eigenspace determinant sets",
                  f"{len(eight)} and {len(three)} determinants, exact set equality")


def test_criterion_03_pinning_lemma_on_ansatz_states():
    rng = np.random.default_rng(77)
    produced, worst_residual, worst_value = 0, 0.0, 0.0
    while produced < 500:
        raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        raw /= np.linalg.norm(raw)
        alpha, beta, gamma = raw
        if abs(alpha) ** 2 < abs(beta) ** 2 + abs(gamma) ** 2 or abs(beta) < abs(gamma):
            continue
        produced += 1
        state = bd_ansatz_state(SPACE36, alpha, beta, gamma)
        rep, = verify_pinning_lemma(state, [BD_INEQ])
        worst_residual = max(worst_residual, rep.residual_norm)
        worst_value = max(worst_value, abs(rep.constraint_value))
    ok = worst_residual < 1e-10 and worst_value < 1e-10
    assert report(3, ok, "operator residual on 500 pinned states",
                  f"max residual {worst_residual:.2e}, max facet value {worst_value:.2e}")


def _spectrum28(kappa, basis=28):
    state, deficit = expand_in_hermite_basis(HarmoniumParams(n=3, kappa=kappa), basis)
    lams, _ = natural_occupations(one_rdm(state))
    return state, lams, deficit


def test_criterion_04_harmonium_point_value():
    # reference point omega_rel**2 = 2, converted to the program's kappa
    omega_rel_sq = 2.0
    kappa = (omega_rel_sq - 1.0) / 2.0
    assert ground_state_spec(HarmoniumParams(n=3, kappa=kappa)).omega_rel ** 2 \
        == pytest.approx(omega_rel_sq, rel=1e-14)
    t0 = time.time()
    _, lams, _ = _spectrum28(kappa)
    lam6, _ = truncate_spectrum(lams, 6)
    d_value = evaluate(BD_INEQ, lam6)
    elapsed = time.time() - t0
    ok = 1.9e-8 <= d_value <= 1.8e-7 and elapsed < 300.0
    assert report(4, ok, "facet value at omega_rel^2 = 2 (program kappa = "
                  f"{kappa:g}) within [1.9e-8, 1.8e-7]",
                  f"computed D = {d_value:.4e}, {elapsed:.1f}s")


def _log_log_slope(x, y):
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def test_criterion_05_harmonium_scaling_exponents():
    result = quasipinning_scan(np.geomspace(0.05, 0.3, 8))
    kappas = [p.kappa for p in result.points]
    omegas = [ground_state_spec(HarmoniumParams(n=3, kappa=k)).omega_rel for k in kappas]
    xis = [(w - 1.0) / (w + 1.0) for w in omegas]
    d_values = [p.d_value for p in result.points]
    hf_values = [p.hf_distance for p in result.points]
    positive = min(d_values) > 0 and min(hf_values) > 0
    d_slope = _log_log_slope(xis, d_values) if positive else float("nan")
    hf_slope = _log_log_slope(xis, hf_values) if positive else float("nan")
    d_kappa_slope = _log_log_slope(kappas, d_values) if positive else float("nan")
    hf_kappa_slope = _log_log_slope(kappas, hf_values) if positive else float("nan")
    ok_d = abs(d_slope - 8.0) <= 0.75
    ok_hf = abs(hf_slope - 4.0) <= 0.5
    assert report(5, ok_d and ok_hf, "log-log exponents in xi over kappa in [0.05, 0.3]",
                  f"facet-distance xi-slope {d_slope:.3f} (want 8 +/- 0.75), "
                  f"HF-distance xi-slope {hf_slope:.3f} (want 4 +/- 0.5); "
                  f"kappa-slopes {d_kappa_slope:.3f} and {hf_kappa_slope:.3f} "
                  "(finite-window, not asserted)")


def test_criterion_06_non_interacting_limit():
    state, lams, _ = _spectrum28(0.0)
    expected = np.zeros(28)
    expected[:3] = 1.0
    deviation = float(np.max(np.abs(lams - expected)))
    weight = abs(amplitudes(state)[SlaterDeterminant.from_orbitals((1, 2, 3))]) ** 2
    ok = deviation < 1e-10 and weight > 1.0 - 1e-12
    assert report(6, ok, "kappa=0 reproduces the single-determinant point",
                  f"max occupation deviation {deviation:.2e}, weight {weight:.15f}")


def test_criterion_07_quadrature_and_basis_stability(monkeypatch):
    params = HarmoniumParams(n=3, kappa=1.0 / 3.0)
    state_a, _ = expand_in_hermite_basis(params, 28)
    exact = harmonium.node_count
    with monkeypatch.context() as patch:
        patch.setattr(harmonium, "node_count", lambda n, d: 2 * exact(n, d))
        state_b, _ = expand_in_hermite_basis(params, 28)
    amps_b = amplitudes(state_b)
    amp_change = max(abs(c - amps_b[det]) for det, c in amplitudes(state_a).items())

    def d_at(basis):
        _, lams, _ = _spectrum28(1.0 / 3.0, basis=basis)
        return evaluate(BD_INEQ, truncate_spectrum(lams, 6)[0])

    d24, d32 = d_at(24), d_at(32)
    rel_change = abs(d32 - d24) / abs(d32)
    ok = amp_change < 1e-13 and rel_change < 0.10
    assert report(7, ok, "node doubling and basis growth stability",
                  f"max amplitude change {amp_change:.2e}, D(24 -> 32) relative "
                  f"change {rel_change:.2e}")


def test_criterion_08_hersch_zwahlen_suite():
    t0 = time.time()
    worst_candidate, worst_sample = 0.0, 0.0
    for d, seed in ((4, 101), (5, 102)):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = (g + g.conj().T) / 2.0
        for mask in range(2 ** d):
            pi = tuple(int(b) for b in format(mask, f"0{d}b"))
            rep = hersch_zwahlen_check(rho, pi, trials=200, seed=seed)
            assert rep.candidate_in_cell
            worst_candidate = max(worst_candidate, abs(rep.candidate_value - rep.target))
            worst_sample = max(worst_sample, rep.target - rep.min_sampled)
    elapsed = time.time() - t0
    ok = worst_candidate <= 1e-10 and worst_sample <= 1e-9 and elapsed < 60.0
    assert report(8, ok, "eigenvalue-sum variational principle, d=4 and 5",
                  f"candidate mismatch {worst_candidate:.2e}, worst sample deficit "
                  f"{worst_sample:.2e}, {elapsed:.1f}s")


def test_criterion_09_partial_trace_identity():
    worst, worst_trace, worst_negative = 0.0, 0.0, 0.0
    for d, seed in ((2, 11), (3, 12)):
        rng = np.random.default_rng(seed)
        for _ in range(500):
            rho = random_mixed_density(d * d, rng, rank=int(rng.integers(1, d * d + 1)))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = (g + g.conj().T) / 2.0
            reduced = partial_trace(rho, d, d, "A")
            lhs = np.trace(reduced @ x)
            rhs = np.trace(rho @ np.kron(x, np.eye(d)))
            worst = max(worst, abs(lhs - rhs))
            worst_trace = max(worst_trace, abs(np.trace(reduced).real - 1.0))
            worst_negative = min(worst_negative, float(np.linalg.eigvalsh(reduced)[0]))
    ok = worst < 1e-10 and worst_trace < 1e-10 and worst_negative > -1e-10
    assert report(9, ok, "marginal expectation identity on 1000 pairs",
                  f"max deviation {worst:.2e}, trace drift {worst_trace:.2e}, "
                  f"min eigenvalue {worst_negative:.2e}")


def test_criterion_10_spectral_inequality_falsifier():
    bad = check_spectral_inequality((1, 0), (0, 0, 0, 1), 2, 2, samples=100, seed=0)
    good = check_spectral_inequality((1, 1), (1, 1, 1, 1), 2, 2, samples=10000, seed=0)
    ok = bad.violated and bad.samples_checked <= 100 and not good.violated
    assert report(10, ok, "witness search and trace-identity pair",
                  f"witness at sample {bad.samples_checked - 1 if bad.violated else -1}, "
                  f"trace identity clean over {good.samples_checked} samples")


def test_criterion_11_cli_reproducibility():
    commands = [
        ["gpc", "--non", "0.9,0.7,0.6,0.4,0.3,0.1", "--setting", "3,6", "--json"],
        ["harmonium", "--kappa", "0.25", "--basis", "12", "--json"],
        ["hz", "--dim", "4", "--trials", "50", "--seed", "9", "--json"],
        ["ineq", "--da", "2", "--db", "2", "--pi", "10", "--sigma", "1100",
         "--samples", "500", "--seed", "3", "--json"],
        ["selection", "--setting", "3,6",
         "--saturated", "bd-eq1,bd-eq2,bd-eq3,bd-ineq"],
    ]
    identical = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                cli_main(argv)
            outputs.append(buffer.getvalue())
        identical = identical and outputs[0] == outputs[1]
    assert report(11, identical, "byte-identical CLI output for fixed seeds",
                  f"{len(commands)} commands, two runs each")
