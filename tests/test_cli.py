import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmarginal
from conftest import det, make_state, random_state, write_state_json
from qmarginal.cli import EXIT_BROKEN_PIPE, main
from qmarginal.fock import OrbitalSpace, natural_occupations, one_rdm, rotate_orbitals
from qmarginal.gpc import realise
from qmarginal.schubert import hersch_zwahlen_check


# `gpc --non` on the pinned dyadic spectrum: every value is a dyadic rational, so
# these bytes depend on no BLAS build
DYADIC_PINNED = "0.875,0.75,0.625,0.375,0.25,0.125"
DYADIC_PINNED_TEXT = (
    'setting: n=3 d=6\n'
    'norm (eq): 0\n'
    'pauli-top (ineq): 0.125\n'
    'pauli-bottom (ineq): 0.125\n'
    'ord-1 (ineq): 0.125\n'
    'ord-2 (ineq): 0.125\n'
    'ord-3 (ineq): 0.25\n'
    'ord-4 (ineq): 0.125\n'
    'ord-5 (ineq): 0.125\n'
    'bd-eq1 (eq): 0\n'
    'bd-eq2 (eq): 0\n'
    'bd-eq3 (eq): 0\n'
    'bd-ineq (ineq): 0\n'
    'D_min: 0 (bd-ineq)\n'
    'saturated: bd-eq1,bd-eq2,bd-eq3,bd-ineq\n'
    'hf_distance: 0.66143782776614768\n'
    'quasipinned@0.01: yes\n'
    'quasipinned@0.0001: yes\n'
    'quasipinned@1e-06: yes\n'
)
DYADIC_PINNED_JSON = (
    '{"n": 3, "d": 6, "values": ['
    '{"label": "norm", "kind": "eq", "value": 0}, '
    '{"label": "pauli-top", "kind": "ineq", "value": 0.125}, '
    '{"label": "pauli-bottom", "kind": "ineq", "value": 0.125}, '
    '{"label": "ord-1", "kind": "ineq", "value": 0.125}, '
    '{"label": "ord-2", "kind": "ineq", "value": 0.125}, '
    '{"label": "ord-3", "kind": "ineq", "value": 0.25}, '
    '{"label": "ord-4", "kind": "ineq", "value": 0.125}, '
    '{"label": "ord-5", "kind": "ineq", "value": 0.125}, '
    '{"label": "bd-eq1", "kind": "eq", "value": 0}, '
    '{"label": "bd-eq2", "kind": "eq", "value": 0}, '
    '{"label": "bd-eq3", "kind": "eq", "value": 0}, '
    '{"label": "bd-ineq", "kind": "ineq", "value": 0}], '
    '"d_min": 0, "d_min_label": "bd-ineq", '
    '"saturated": ["bd-eq1", "bd-eq2", "bd-eq3", "bd-ineq"], '
    '"equality_residuals": {"norm": 0, "bd-eq1": 0, "bd-eq2": 0, "bd-eq3": 0}, '
    '"equality_violations": [], "hf_distance": 0.66143782776614768, "pin_tol": 1e-08, '
    '"truncation_weight": null, '
    '"quasipinning": [[0.01, true], [0.0001, true], [9.9999999999999995e-07, true]]}\n'
)


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.fixture
def bd_state_file(tmp_path):
    space = OrbitalSpace(d=6, n=3)
    state = make_state(space, {
        det(1, 2, 3): math.sqrt(0.6),
        det(1, 4, 5): math.sqrt(0.3),
        det(2, 4, 6): math.sqrt(0.1),
    })
    path = tmp_path / "state.json"
    write_state_json(state, str(path))
    return str(path)


class TestNon:
    def test_bd_example_occupations(self, bd_state_file):
        code, out = run_cli(["non", bd_state_file, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["occupations"] == pytest.approx([0.9, 0.7, 0.6, 0.4, 0.3, 0.1],
                                                   abs=1e-12)

    def test_single_determinant(self, tmp_path):
        space = OrbitalSpace(d=6, n=3)
        state = make_state(space, {det(1, 2, 3): 1.0})
        path = tmp_path / "det.json"
        write_state_json(state, str(path))
        code, out = run_cli(["non", str(path), "--json"])
        assert code == 0
        assert json.loads(out)["occupations"] == pytest.approx([1, 1, 1, 0, 0, 0],
                                                               abs=1e-14)

    def test_orbitals_flag(self, bd_state_file):
        code, out = run_cli(["non", bd_state_file, "--orbitals", "--json"])
        assert code == 0
        doc = json.loads(out)
        matrix = doc["natural_orbitals_re"]
        assert len(matrix) == 6 and len(matrix[0]) == 6
        # the example state is diagonal, so natural orbitals are coordinate axes
        column_sums = [sum(abs(matrix[i][j]) for i in range(6)) for j in range(6)]
        assert all(abs(s - 1.0) < 1e-10 for s in column_sums)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"d": 6, "n": 3, "amplitudes": [')
        code, _ = run_cli(["non", str(path)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        code, _ = run_cli(["non", "/nonexistent/state.json"])
        assert code == 2

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_realised_spectrum_read_back(self, seed):
        # a random four-determinant state's spectrum, realised, written and read
        a, b, c, e = np.random.default_rng(seed).dirichlet(np.ones(4))
        lams = np.sort([a + b, a + c, a + e, b + c, b + e, c + e])[::-1]
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "realised.json")
            write_state_json(realise(lams), path)
            code, out = run_cli(["non", path, "--json"])
        assert code == 0
        assert np.max(np.abs(np.array(json.loads(out)["occupations"]) - lams)) <= 1e-14


class TestGpc:
    def test_hartree_fock_point(self):
        code, out = run_cli(["gpc", "--non", "1,1,1,0,0,0", "--setting", "3,6", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["d_min"] == 0.0
        assert "bd-ineq" in doc["saturated"]
        assert doc["hf_distance"] == 0.0

    def test_violation_flagged(self):
        code, out = run_cli(["gpc", "--non", "1,1,0.5,0.5,0,0", "--setting", "3,6", "--json"])
        assert code == 0
        doc = json.loads(out)
        values = {row["label"]: row["value"] for row in doc["values"]}
        assert values["bd-ineq"] == pytest.approx(-0.5)
        assert doc["d_min"] == pytest.approx(-0.5)

    def test_hypercube_center(self):
        code, out = run_cli(["gpc", "--non", ",".join(["0.5"] * 6),
                             "--setting", "3,6", "--json"])
        assert code == 0
        assert json.loads(out)["d_min"] == pytest.approx(0.5)

    def test_state_file_with_truncation(self, bd_state_file):
        code, out = run_cli(["gpc", "--state", bd_state_file, "--json"])
        assert code == 0
        assert json.loads(out)["d"] == 6

    @pytest.mark.parametrize("setting,message", [
        ("5,8", "--setting N=5 does not match the state file's n=3"),
        ("2,6", "--setting N=2 does not match the state file's n=3"),
        ("4,8", "--setting N=4 does not match the state file's n=3"),
        ("3,10", "need at least d=10 occupation values, got 8")],
        ids=["5,8", "2,6", "4,8", "3,10"])
    def test_state_file_setting_must_fit(self, setting, message, tmp_path, capsys):
        path = tmp_path / "s38.json"
        write_state_json(random_state(OrbitalSpace(d=8, n=3), np.random.default_rng(38)),
                         str(path))
        code, out = run_cli(["gpc", "--state", str(path), "--setting", setting, "--json"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_state_file_truncated_to_a_smaller_d(self, tmp_path):
        path = tmp_path / "s38.json"
        write_state_json(random_state(OrbitalSpace(d=8, n=3), np.random.default_rng(38)),
                         str(path))
        code, out = run_cli(["gpc", "--state", str(path), "--setting", "3,6", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["n"], doc["d"]) == (3, 6) and doc["truncation_weight"] > 0

    def test_requires_exactly_one_source(self, bd_state_file):
        assert run_cli(["gpc", "--setting", "3,6"])[0] == 2
        assert run_cli(["gpc", "--non", "1,0", "--state", bd_state_file])[0] == 2

    @pytest.mark.parametrize("flag,expected", [([], DYADIC_PINNED_TEXT),
                                               (["--json"], DYADIC_PINNED_JSON)])
    def test_printed_report_byte_for_byte(self, flag, expected):
        assert run_cli(["gpc", "--non", DYADIC_PINNED, "--setting", "3,6", *flag]) \
            == (0, expected)

    @pytest.mark.parametrize("argv,message", [
        (["--non", "0.1,0.3,0.4,0.6,0.7,0.9"], "occupations must be in decreasing order"),
        # longer than d: truncation must not drop the unsorted entry unseen
        (["--non", "0.9,0.7,0.6,0.4,0.3,0.1,0.95"], "occupations must be in decreasing order"),
        (["--non", DYADIC_PINNED, "--pin-tol", "-1"],
         "pin_tol must be a finite number >= 0, got -1.0")],
        ids=["unsorted", "unsorted-tail", "pin-tol"])
    def test_refused_by_the_report(self, argv, message, capsys):
        code, out = run_cli(["gpc", *argv, "--setting", "3,6"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_particle_number_below_one_exits_2(self, n, capsys):
        code, out = run_cli(["gpc", "--non", "1,1,1,0,0,0", f"--setting={n},6"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: need n >= 1, got n={n}\n"

    @pytest.mark.parametrize("setting", ["1,x", "3", "3,6,1", ""])
    def test_malformed_setting_named(self, setting, capsys):
        code, out = run_cli(["gpc", "--non", "1", "--setting", setting])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: setting must be 'N,d', got {setting!r}\n"


class TestSelection:
    def test_equalities_give_eight(self):
        code, out = run_cli(["selection", "--setting", "3,6",
                             "--saturated", "bd-eq1,bd-eq2,bd-eq3", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ansatz_size"] == 8

    def test_adding_facet_gives_three(self):
        code, out = run_cli(["selection", "--setting", "3,6",
                             "--saturated", "bd-eq1,bd-eq2,bd-eq3,bd-ineq", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ansatz"] == [[1, 2, 3], [1, 4, 5], [2, 4, 6]]

    def test_none_keeps_full_basis(self):
        code, out = run_cli(["selection", "--setting", "3,6", "--saturated", "none",
                             "--json"])
        assert code == 0
        assert json.loads(out)["ansatz_size"] == 20

    def test_state_residuals_reported(self, bd_state_file):
        code, out = run_cli(["selection", "--setting", "3,6",
                             "--saturated", "bd-eq1,bd-eq2,bd-eq3,bd-ineq",
                             "--state", bd_state_file, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["weight_outside_ansatz"] == pytest.approx(0.0, abs=1e-12)
        for row in doc["lemma_residuals"]:
            assert row["residual_norm"] < 1e-10

    def test_lemma_row_keys_in_order(self, bd_state_file):
        code, out = run_cli(["selection", "--setting", "3,6", "--saturated", "bd-ineq",
                             "--state", bd_state_file, "--json"])
        assert code == 0
        row, = json.loads(out)["lemma_residuals"]
        assert list(row) == ["label", "constraint_value", "residual_norm", "degenerate"]

    def test_ansatz_weight_of_a_rotated_pinned_state(self, tmp_path):
        # the pinned state in a random orbital basis: the ansatz holds in its
        # natural-orbital basis, not in the basis the file is written in
        state = make_state(OrbitalSpace(d=6, n=3), {
            det(1, 2, 3): math.sqrt(0.6), det(1, 4, 5): math.sqrt(0.3), det(2, 4, 6): math.sqrt(0.1)})
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        path = tmp_path / "rot.json"
        write_state_json(rotate_orbitals(state, q), str(path))
        code, out = run_cli(["selection", "--setting", "3,6",
                             "--saturated", "bd-eq1,bd-eq2,bd-eq3,bd-ineq",
                             "--state", str(path), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert all(row["residual_norm"] < 1e-12 for row in doc["lemma_residuals"])
        assert doc["weight_outside_ansatz"] < 1e-12

    def test_ansatz_weight_of_a_haar_state_is_one_minus_lam1(self, tmp_path):
        # pauli-top keeps the determinants holding natural orbital 1, so the
        # weight outside is 1 - lam_1 (0.6037 in the file's basis)
        state = random_state(OrbitalSpace(d=8, n=3), np.random.default_rng(5))
        path = tmp_path / "haar.json"
        write_state_json(state, str(path))
        code, out = run_cli(["selection", "--setting", "3,8", "--saturated", "pauli-top",
                             "--state", str(path), "--json"])
        assert code == 0
        lam1 = natural_occupations(one_rdm(state))[0][0]
        assert json.loads(out)["weight_outside_ansatz"] == pytest.approx(1.0 - lam1, abs=1e-12)
        assert 1.0 - lam1 == pytest.approx(0.33743, abs=1e-5)

    def test_rotation_over_the_minor_bound_exits_2(self, bd_state_file, monkeypatch, capsys):
        # three amplitudes onto the 20 determinants of (3,6) form 60 minors
        monkeypatch.setattr("qmarginal.fock.MAX_ROTATION_MINORS", 59)
        code, out = run_cli(["selection", "--setting", "3,6", "--saturated", "bd-ineq",
                             "--state", bd_state_file, "--json"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == ("error: rotating 3 amplitudes onto C(6,3) "
                                           "determinants needs more than the 6e+01 minors "
                                           "allowed\n")

    def test_unknown_label_exits_2(self, capsys):
        assert run_cli(["selection", "--setting", "3,6", "--saturated", "bogus"])[0] == 2
        assert capsys.readouterr().err == "error: no constraint labeled 'bogus'\n"

    def test_one_lemma_row_per_label_in_order(self, bd_state_file):
        labels = ["bd-ineq", "bd-eq1", "ord-2", "bd-ineq"]
        code, out = run_cli(["selection", "--setting", "3,6", "--saturated", ",".join(labels),
                             "--state", bd_state_file, "--json"])
        assert code == 0
        assert [row["label"] for row in json.loads(out)["lemma_residuals"]] == labels

    def test_no_pin_tol_flag(self, capsys):
        # the lemma reports a residual and a facet value; no tolerance enters either
        with pytest.raises(SystemExit) as exc:
            run_cli(["selection", "--setting", "3,6", "--saturated", "none", "--pin-tol", "1e-8"])
        assert exc.value.code == 2
        assert "--pin-tol" in capsys.readouterr().err


class TestHarmonium:
    def test_zero_coupling_point(self):
        code, out = run_cli(["harmonium", "--kappa", "0", "--n", "3",
                             "--basis", "10", "--json"])
        # exact pinning: D = 0 sits below the precision floor, exit code 3
        assert code == 3
        doc = json.loads(out)
        assert abs(doc["D"]) < 1e-12
        assert abs(doc["hf_dist"]) < 1e-10
        assert doc["precision_floor"] is True

    def test_scan_csv_and_summary(self, tmp_path):
        csv_path = tmp_path / "scan.csv"
        code, out = run_cli(["harmonium", "--scan", "0.2:0.3:2", "--basis", "12",
                             "--csv", str(csv_path), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["points"]) == 2
        header = csv_path.read_text().splitlines()[0]
        assert header == "kappa,D,hf_dist,eps6,norm_deficit"
        assert (doc["basis_size"], doc["nodes"]) == (12, 17)
        assert doc["precision_floor"] == 100 * sys.float_info.epsilon

    def test_scan_of_one_repeated_kappa_fits_no_exponent(self):
        # three equal kappas give one distinct xi: no slope is fitted, so
        # numpy's poorly-conditioned-fit warning never fires
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(["harmonium", "--scan", "0.1:0.1:3", "--basis", "12",
                                 "--json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["points"]) == 3
        assert doc["d_exponent"] is None and doc["hf_exponent"] is None

    def test_scan_exponents_are_the_xi_exponents(self):
        # fitted against xi = (omega_rel-1)/(omega_rel+1), not kappa: the
        # kappa-slopes of this window are ~7.1 and ~3.6
        code, out = run_cli(["harmonium", "--scan", "0.05:0.3:8", "--basis", "12",
                             "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["d_exponent"] == pytest.approx(8.0, abs=0.1)
        assert doc["hf_exponent"] == pytest.approx(4.0, abs=0.01)

    def test_requires_kappa_or_scan(self):
        assert run_cli(["harmonium", "--n", "3"])[0] == 2

    @pytest.mark.parametrize("spec", ["0.1:0.2", "0.1:0.2:3:4", "a:0.2:3", "0.1:0.2:2.5",
                                      "0.1:inf:2", "nan:0.2:2"])
    def test_scan_spec_named(self, spec, capsys):
        code, out = run_cli(["harmonium", "--scan", spec, "--basis", "8"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == \
            f"error: --scan takes start:stop:count, got {spec!r}\n"

    @pytest.mark.parametrize("kappa,basis", [("1e4", "28"), ("1e28", "28"), ("1e35", "4"),
                                             ("1e300", "28"), ("1.7e308", "28"), ("1e300", "0")])
    def test_kappa_above_the_bound_refused_before_any_work(self, kappa, basis, monkeypatch,
                                                           capsys):
        # one message with a stated reason, before the ground state is formed
        # and before the basis size is checked
        monkeypatch.setattr("qmarginal.harmonium.ground_state_spec", None)
        code, out = run_cli(["harmonium", "--kappa", kappa, "--basis", basis, "--json"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == \
            (f"error: kappa={float(kappa)!r} above 1000: no basis of at most 64 orbitals "
             "holds that ground state\n")

    def test_deficit_at_the_largest_basis(self, capsys):
        # the advice names no basis beyond the 64 orbitals a state can hold
        code, out = run_cli(["harmonium", "--n", "3", "--basis", "64", "--kappa", "100"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == \
            ("error: norm deficit 2.387e-04 exceeds 1.0e-06 at basis_size=64 (at most 64); "
             "use a larger basis or a smaller kappa\n")

    def test_largest_held_coupling_at_the_largest_basis(self):
        # the bound refuses nothing a basis holds: N=2 keeps kappa=100 in 64 orbitals
        code, out = run_cli(["harmonium", "--n", "2", "--basis", "64", "--kappa", "100",
                             "--json"])
        assert code == 0
        assert abs(json.loads(out)["norm_deficit"]) <= 1e-6

    def test_four_particles_in_28_orbitals(self):
        code, out = run_cli(["harmonium", "--n", "4", "--basis", "28", "--kappa", "0.25",
                             "--json"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["norm_deficit"]) <= 1e-6
        assert doc["nodes"] == 55

    @pytest.mark.parametrize("spec", ["0.1:0.2:1001", "0.1:0.2:1000000",
                                      "0.1:0.2:10000000000000000000", "0.1:0.2:0"])
    def test_scan_count_capped_before_the_grid(self, spec, capsys):
        code, out = run_cli(["harmonium", "--scan", spec, "--basis", "8"])
        assert code == 2 and out == ""
        count = spec.split(":")[2]
        assert capsys.readouterr().err == f"error: a scan takes 1 to 1000 kappas, got {count}\n"

    @pytest.mark.parametrize("spec", ["0.005:0.2:3", "0.1:0.6:3", "0.6:0.1:3", "0:0.2:3",
                                      "1e-300:0.2:1000"])
    def test_scan_range_checked_before_the_grid(self, spec, capsys):
        code, out = run_cli(["harmonium", "--scan", spec, "--basis", "8"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: scan grid must lie within [0.01, 0.5]\n"

    @pytest.mark.parametrize("argv,message", [
        (["--kappa", "0.3", "--basis", "0"], "basis_size must lie in [1, 64], got 0"),
        (["--kappa", "0.3", "--basis", "65"], "basis_size must lie in [1, 64], got 65"),
        (["--kappa", "0.3", "--n", "4", "--basis", "3"],
         "basis_size 3 smaller than particle number 4"),
        (["--kappa", "0.3", "--n", "4", "--basis", "50"],
         "the expansion at n=4, basis_size=50 with 99 nodes needs about 1.5e+08 "
         "multiply-adds, above the limit of 1.4e+08; use a smaller basis"),
        (["--kappa", "nan"], "kappa must be finite, got nan"),
        (["--kappa=-1"], "attractive regime kappa < 0 is not supported"),
        (["--kappa", "1e300"], "kappa=1e+300 above 1000: no basis of at most 64 orbitals "
         "holds that ground state"),
        (["--scan", "0.05:0.3:3", "--n", "4"], "scans are defined for n=3"),
    ])
    def test_single_fault_message(self, argv, message, capsys):
        code, out = run_cli(["harmonium", *argv])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_no_nodes_flag(self, capsys):
        # the node count follows from --n and --basis
        with pytest.raises(SystemExit) as exc:
            run_cli(["harmonium", "--kappa", "0.2", "--basis", "10", "--nodes", "3"])
        assert exc.value.code == 2
        assert "--nodes" in capsys.readouterr().err


class TestSchubertCommands:
    def test_hz_all_patterns_pass(self):
        code, out = run_cli(["hz", "--dim", "3", "--trials", "20", "--seed", "7",
                             "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert len(doc["reports"]) == 8

    def test_hz_row_keys_in_order(self):
        code, out = run_cli(["hz", "--dim", "3", "--pi", "101", "--trials", "20", "--json"])
        assert code == 0
        row, = json.loads(out)["reports"]
        assert list(row) == ["pi", "target", "min_sampled", "trials", "passed"]
        assert row["pi"] == "101" and row["passed"] is True

    def test_hz_text_bytes(self):
        # target and min_sampled of the check on the rho hz draws from
        # default_rng([seed, 0]); their last digits depend on the LAPACK
        # build, so they are recomputed here rather than written out
        code, out = run_cli(["hz", "--dim", "3", "--pi", "101", "--trials", "20"])
        rng = np.random.default_rng([42, 0])
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rep = hersch_zwahlen_check((g + g.conj().T) / 2.0, (1, 0, 1), trials=20, seed=42)
        assert code == 0
        assert out == (f"pi=101 target={rep.target:.17g} min_sampled={rep.min_sampled:.17g} "
                       "ok\nall passed\n")

    def test_ineq_valid_pair(self):
        code, out = run_cli(["ineq", "--da", "2", "--db", "2", "--pi", "10",
                             "--sigma", "1100", "--samples", "300", "--json"])
        assert code == 0
        assert json.loads(out)["violated"] is False

    def test_ineq_witness_emitted(self):
        code, out = run_cli(["ineq", "--da", "2", "--db", "2", "--pi", "10",
                             "--sigma", "0001", "--samples", "100", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["violated"] is True
        assert doc["witness"]["lhs"] > doc["witness"]["rhs"]

    @pytest.mark.parametrize("argv,message", [
        (["hz", "--dim", "100000", "--pi", "1"], "--dim must lie in [1, 64], got 100000"),
        (["hz", "--dim", "64", "--pi", "1"], "--pi has 1 entries, --dim is 64"),
        (["hz", "--dim", "65", "--pi", "1" * 65], "--dim must lie in [1, 64], got 65"),
        (["hz", "--dim", "3", "--trials", "2001"], "--trials must be at most 2000, got 2001"),
        (["ineq", "--da", "40", "--db", "40", "--pi", "1" + "0" * 39, "--sigma", "1" * 1600],
         "--da times --db must be at most 64, got 1600"),
        (["ineq", "--da", "2", "--db", "2", "--pi", "10", "--sigma", "1100",
          "--samples", "50001"], "--samples must be at most 50000, got 50001"),
    ])
    def test_sizes_bounded_before_any_draw(self, argv, message, monkeypatch, capsys):
        monkeypatch.setattr(np.random, "default_rng", None)
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["hz", "--dim", "64", "--pi", "10" * 32, "--trials", "1"],
        ["hz", "--dim", "3", "--pi", "101", "--trials", "2000"],
        ["ineq", "--da", "8", "--db", "8", "--pi", "1" + "0" * 7, "--sigma", "1" * 64,
         "--samples", "1"],
        ["ineq", "--da", "1", "--db", "1", "--pi", "1", "--sigma", "1", "--samples", "50000"],
    ])
    def test_sizes_at_the_bounds_admitted(self, argv):
        assert run_cli(argv + ["--json"])[0] == 0

    def test_bad_binary_string_exits_2(self):
        assert run_cli(["ineq", "--da", "2", "--db", "2", "--pi", "12",
                        "--sigma", "0001"])[0] == 2


class TestInputsCheckedAtTheBoundary:
    @pytest.mark.parametrize("argv", [
        ["harmonium", "--kappa", "nan", "--basis", "8", "--json"],
        ["harmonium", "--kappa", "inf", "--basis", "8", "--json"],
        ["harmonium", "--kappa=-inf", "--basis", "8", "--json"],
        ["gpc", "--non", "nan,0.7,0.6,0.4,0.3,0.1", "--setting", "3,6", "--json"],
        ["gpc", "--non", "0.9,0.7,0.6,0.4,0.3,inf", "--setting", "3,6", "--json"],
        ["gpc", "--non", "0.9,0.7,0.6,0.4,0.3,0.1", "--setting", "3,6", "--pin-tol", "-1"],
        ["gpc", "--non", "0.9,0.7,0.6,0.4,0.3,0.1", "--setting", "3,6", "--pin-tol", "nan"],
        ["gpc", "--non", "0.9,0.7,0.6,0.4,0.3,0.1", "--setting", "3,6", "--pin-tol", "inf"],
        ["hz", "--dim", "0", "--json"],
        ["hz", "--dim=-2", "--json"],
        ["harmonium", "--kappa", "0.2", "--basis", "65", "--json"],
        ["hz", "--dim", "13", "--json"],
        ["hz", "--dim", "3", "--trials", "-2"],
        ["ineq", "--da", "2", "--db", "2", "--pi", "10", "--sigma", "0001", "--samples", "-5"],
        ["harmonium", "--n", "4", "--basis", "64", "--kappa", "0.25"],
        ["gpc", "--non", "nan,0.5", "--setting", "1,2"],
    ])
    def test_rejected_with_exit_2(self, argv, capsys):
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "zero-size array" not in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize("command", [
        ["non"], ["gpc", "--state"],
        ["selection", "--setting", "3,6", "--saturated", "bd-eq1", "--state"]])
    def test_non_finite_state_file_rejected(self, command, value, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text('{"d": 6, "n": 3, "amplitudes": [{"orbitals": [1, 2, 3], "re": 0.8}, '
                        '{"orbitals": [1, 4, 5], "re": ' + value + '}]}')
        code, out = run_cli(command + [str(path), "--json"])
        err = capsys.readouterr().err
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not finite" in err


    @pytest.mark.parametrize("amplitudes,message", [
        ('[{"orbitals": [1, 2, 3], "re": 1e200}]', "overflow when squared"),
        ('[{"orbitals": [1, 2, 3], "re": 1e-200}, {"orbitals": [1, 4, 5], "im": 1e-200, '
         '"re": 1e-200}]', "underflow when squared"),
    ])
    @pytest.mark.parametrize("command", [
        ["non"], ["gpc", "--state"],
        ["selection", "--setting", "3,6", "--saturated", "bd-eq1", "--state"]])
    def test_extreme_magnitudes_rejected(self, command, amplitudes, message, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text('{"d": 6, "n": 3, "amplitudes": ' + amplitudes + '}')
        code, out = run_cli(command + [str(path), "--json"])
        err = capsys.readouterr().err
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("doc,message", [
        ('{"d": 6, "n": 3, "amplitudes": [{"orbitals": 5, "re": 1.0}]}', "entry 1"),
        ('{"d": 6, "n": 3, "amplitudes": [{"orbitals": [1.5, 2, 3], "re": 1.0}]}', "entry 1"),
        ('{"d": 6, "n": 3, "amplitudes": [{"orbitals": [1, 2, 3], "re": 1.0}, '
         '{"orbitals": [1, 4, 5], "re": null}]}', "entry 2"),
        ('{"d": 6, "n": 3, "amplitudes": [{"orbitals": [1, 2, 3], "re": "1e0"}]}',
         "re and im must be numbers"),
        ('{"d": 6, "n": 3, "amplitudes": [{"orbitals": [1, 2, 3], "re": true}]}',
         "re and im must be numbers"),
        ('{"d": 6, "n": 3, "amplitudes": [{"orbitals": [1, 2, 3], "re": 1.0, "im": false}]}',
         "re and im must be numbers"),
        ('{"d": 6, "n": 3, "amplitudes": {"a": 1}}', 'a list "amplitudes"'),
        ('{"d": 6, "n": 3, "amplitudes": [[1, 2, 3]]}', "entry 1"),
        ('{"d": 6.7, "n": 3, "amplitudes": [{"orbitals": [1, 2, 3], "re": 1.0}]}',
         'integers "d", "n"'),
        ('{"d": 6, "n": 3, "amplitudes": [{"orbitals": [1, 2, 3], "im": 1.0}]}',
         'entry 1 ({"orbitals": [1, 2, 3], "im": 1.0}): need an object with "orbitals"'),
        ('{"d": 6, "n": 3, "amplitudes": [{"orbitals": [1, 2, 3], "re": 0.6}, '
         '{"orbitals": [1, 2, 3], "re": 0.8}]}', "duplicate determinant |1,2,3>"),
        ('[{"orbitals": [1, 2, 3], "re": 1.0}]', "a state file needs"),
    ])
    def test_malformed_state_file_rejected(self, doc, message, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(doc)
        code, out = run_cli(["non", str(path), "--json"])
        err = capsys.readouterr().err
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


# Amplitude parts at the edges of the float range: squares that overflow,
# squares that underflow to zero or to subnormals, and non-finite values.
EXTREME_PARTS = st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e-160, 1.3e154, 1e154, 1e200,
                                 1.7e308, math.inf, -math.inf, math.nan])
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-2, 70),
                 st.floats(), st.just(10 ** 400), st.lists(st.integers(-1, 9), max_size=4),
                 st.dictionaries(st.sampled_from(["orbitals", "re", "a"]), st.integers(),
                                 max_size=2))


@st.composite
def state_documents(draw):
    """A well-formed state document, with extreme amplitudes at times, or one
    with a single field replaced by junk or an entry repeated."""
    d = draw(st.integers(1, 7))
    n = draw(st.integers(1, d))
    extreme = draw(st.booleans())
    part = st.one_of(st.floats(-2.0, 2.0), EXTREME_PARTS) if extreme else st.floats(-2.0, 2.0)
    supports = draw(st.lists(st.lists(st.integers(1, d), min_size=n, max_size=n, unique=True)
                             .map(sorted), min_size=1, max_size=6, unique_by=tuple))
    entries = [{"orbitals": orbitals, "re": draw(part), "im": draw(part)}
               for orbitals in supports]
    if not extreme:  # a nonzero state
        entries[0]["re"] = draw(st.floats(0.25, 2.0))
    doc = {"d": d, "n": n, "amplitudes": entries}
    # "none" twice: about one document in five has no fault
    fault = draw(st.sampled_from(["none", "none", "d", "n", "amplitudes", "entry",
                                  "orbitals", "re", "im", "repeat"]))
    if fault in ("d", "n", "amplitudes"):
        doc[fault] = draw(JUNK)
    elif fault == "entry":
        entries[0] = draw(JUNK)
    elif fault in ("orbitals", "re", "im"):
        entries[-1][fault] = draw(JUNK)
    elif fault == "repeat":
        entries.append(entries[0])
    return doc


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestStateFileFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(state_documents())
    def test_state_commands_exit_0_or_2_with_json_or_an_error(self, doc):
        # a file per example: hypothesis runs a function-scoped fixture only once
        n, d = doc["n"], doc["d"]
        setting = f"{n},{d}" if type(n) is int and type(d) is int else "3,6"
        payload = json.dumps(doc)
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "state.json")
            Path(path).write_text(payload, encoding="utf-8")
            for command in (["non", path, "--orbitals"], ["gpc", "--state", path],
                            ["selection", "--setting", setting, "--saturated", "ord-1",
                             "--state", path]):
                err = io.StringIO()
                with redirect_stderr(err):
                    code, out = run_cli(command + ["--json"])
                assert code in (0, 2), (command, payload, err.getvalue())
                if code == 0:
                    strict_json(out)
                else:
                    assert out == ""
                    assert err.getvalue().startswith(("error: ", "invalid JSON"))


EXTREME_KAPPAS = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.01, 1 / 3, 0.5, 2.0, 10.0, 1e3,
                                  1e35, 1e60, 1e200, 1e300, 1.7e308, -1.0, math.nan, math.inf,
                                  -math.inf])
SCAN_SPECS = st.sampled_from(["0.1:0.2:2", "0.1:0.2", "a:b:c", "0.05:0.3:0", "0:0.3:2",
                              "0.1:0.2:-1", "1e-300:0.2:2", "nan:0.2:2", "0.2:inf:2",
                              "0.1:0.2:2:3", "", "0.2:0.9:2"])
BITS = st.text("012", max_size=6)


@st.composite
def argvs(draw):
    """harmonium, hz or ineq argv: small sizes, extreme or malformed values."""
    command = draw(st.sampled_from(["harmonium", "hz", "ineq"]))
    def sequence(length):  # of the right length at times
        return draw(st.one_of(st.text("01", min_size=max(length, 0), max_size=max(length, 0)),
                              BITS))

    if command == "harmonium":
        source = (f"--kappa={draw(EXTREME_KAPPAS)!r}" if draw(st.booleans())
                  else f"--scan={draw(SCAN_SPECS)}")
        argv = [command, source, "--basis", str(draw(st.integers(-1, 12))),
                "--n", str(draw(st.sampled_from([3, 3, 2, 4, 0, 5])))]
    elif command == "hz":
        dim = draw(st.integers(-1, 4))
        argv = [command, f"--dim={dim}", f"--trials={draw(st.integers(-1, 5))}",
                f"--seed={draw(st.integers(-1, 2 ** 64))}"]
        if draw(st.booleans()):
            argv.append(f"--pi={sequence(dim)}")
    else:
        d_a, d_b = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
        argv = [command, f"--da={d_a}", f"--db={d_b}", f"--pi={sequence(d_a)}",
                f"--sigma={sequence(d_a * d_b)}", f"--samples={draw(st.integers(-1, 5))}",
                f"--seed={draw(st.integers(-1, 99))}"]
    return argv + (["--json"] if draw(st.booleans()) else [])


class TestArgvFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(argvs())
    def test_exit_0_2_or_3_with_json_or_an_error(self, argv):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(argv)
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out == ""
            assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        elif "--json" in argv:
            strict_json(out)


class TestReproducibility:
    @pytest.mark.parametrize("argv", [
        ["gpc", "--non", "0.9,0.7,0.6,0.4,0.3,0.1", "--setting", "3,6", "--json"],
        ["hz", "--dim", "3", "--trials", "25", "--seed", "11", "--json"],
        ["ineq", "--da", "2", "--db", "2", "--pi", "10", "--sigma", "1100",
         "--samples", "200", "--seed", "5", "--json"],
        ["selection", "--setting", "3,6", "--saturated", "bd-eq1,bd-eq2,bd-eq3"],
        ["harmonium", "--kappa", "0.25", "--basis", "12", "--json"],
    ])
    def test_identical_invocations_byte_identical(self, argv):
        code_a, out_a = run_cli(argv)
        code_b, out_b = run_cli(argv)
        assert code_a == code_b
        assert out_a == out_b


def checkout_env():
    """Environment under which a fresh interpreter imports this checkout's package."""
    src = str(Path(qmarginal.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_python(args):
    """Run a fresh interpreter that imports this checkout's package."""
    return subprocess.run([sys.executable, *args], env=checkout_env(),
                          capture_output=True, text=True, timeout=60)


def test_cli_import_does_not_load_scipy_special():
    # a fresh interpreter: this one has scipy loaded by other test modules.
    # The runtime needs numpy alone, so no command may import any scipy module.
    probe = """
import contextlib, io, sys
import qmarginal.cli
for argv in (["harmonium", "--kappa", "0.2", "--basis", "12", "--json"],
             ["hz", "--dim", "3", "--trials", "5", "--json"],
             ["ineq", "--da", "2", "--db", "2", "--pi", "10", "--sigma", "1100",
              "--samples", "30", "--json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qmarginal.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    result = run_python(["-c", probe])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_closed_stdout_ends_quietly():
    # the reader closes the pipe before the command writes: no error message,
    # and not the validation exit code
    argv = [sys.executable, "-m", "qmarginal.cli", "selection", "--setting", "3,6",
            "--saturated", "none", "--json"]
    proc = subprocess.Popen(argv, env=checkout_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert stderr == ""


def test_pinned_state_demo_script():
    script = Path(__file__).resolve().parents[1] / "scripts" / "pinned_state_demo.py"
    result = run_python([str(script)])
    assert result.returncode == 0, result.stderr
    assert "(8 determinants)" in result.stdout
    assert "(3 determinants)" in result.stdout
