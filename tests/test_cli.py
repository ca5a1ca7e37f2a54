import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmarginal
from qmarginal.cli import EXIT_BROKEN_PIPE, main
from qmarginal.fock import FermionState, OrbitalSpace, SlaterDeterminant, write_state_json


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.fixture
def bd_state_file(tmp_path):
    space = OrbitalSpace(d=6, n=3)
    state = FermionState.from_amplitudes(space, {
        SlaterDeterminant.from_orbitals((1, 2, 3)): math.sqrt(0.6),
        SlaterDeterminant.from_orbitals((1, 4, 5)): math.sqrt(0.3),
        SlaterDeterminant.from_orbitals((2, 4, 6)): math.sqrt(0.1),
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
        state = FermionState.from_amplitudes(
            space, {SlaterDeterminant.from_orbitals((1, 2, 3)): 1.0})
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

    def test_requires_exactly_one_source(self, bd_state_file):
        assert run_cli(["gpc", "--setting", "3,6"])[0] == 2
        assert run_cli(["gpc", "--non", "1,0", "--state", bd_state_file])[0] == 2

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

    def test_unknown_label_exits_2(self, capsys):
        assert run_cli(["selection", "--setting", "3,6", "--saturated", "bogus"])[0] == 2
        assert capsys.readouterr().err == "error: no constraint labeled 'bogus'\n"

    def test_one_lemma_row_per_label_in_order(self, bd_state_file):
        labels = ["bd-ineq", "bd-eq1", "ord-2", "bd-ineq"]
        code, out = run_cli(["selection", "--setting", "3,6", "--saturated", ",".join(labels),
                             "--state", bd_state_file, "--json"])
        assert code == 0
        assert [row["label"] for row in json.loads(out)["lemma_residuals"]] == labels


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

    @pytest.mark.parametrize("kappa", ["1e60", "1e200", "1e300"])
    @pytest.mark.parametrize("basis", ["4", "28"])
    def test_huge_kappa_exits_2_naming_kappa_and_basis(self, kappa, basis, capsys):
        code, out = run_cli(["harmonium", "--kappa", kappa, "--basis", basis, "--json"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith(f"error: the expansion at kappa={float(kappa)!r}, "
                              f"basis_size={basis} leaves the float64 range: ")
        assert err.count("\n") == 1

    def test_norm_above_one_rejected(self, capsys):
        # at kappa=1e35 in 4 orbitals the amplitudes are rounding noise, which
        # once gave |c|^2 = 1e78 and exit 3; the |c|^2 > 1 guard itself is
        # tested in test_harmonium
        code, out = run_cli(["harmonium", "--kappa", "1e35", "--basis", "4", "--json"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == \
            ("error: the expansion at kappa=1e+35, basis_size=4 leaves the float64 range: "
             "|c|^2 = 4.003e+00 exceeds 1\n")

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
         "the expansion at n=4, basis_size=50 with 99 nodes needs about 1.1e+09 "
         "multiply-adds, above the limit of 1e+09; use a smaller basis"),
        (["--kappa", "nan"], "kappa must be finite, got nan"),
        (["--kappa=-1"], "attractive regime kappa < 0 is not supported"),
        (["--kappa", "1e300"], "the expansion at kappa=1e+300, basis_size=28 leaves the "
         "float64 range: the ground state's norm integral is 0.0"),
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
        ["selection", "--setting", "3,6", "--saturated", "none", "--pin-tol", "-1"],
        ["hz", "--dim", "0", "--json"],
        ["hz", "--dim=-2", "--json"],
        ["harmonium", "--kappa", "0.2", "--basis", "65", "--json"],
        ["hz", "--dim", "13", "--json"],
        ["hz", "--dim", "3", "--trials", "-2"],
        ["ineq", "--da", "2", "--db", "2", "--pi", "10", "--sigma", "0001", "--samples", "-5"],
        ["harmonium", "--n", "4", "--basis", "64", "--kappa", "0.25"],
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
