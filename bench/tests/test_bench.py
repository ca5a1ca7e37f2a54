"""Tests of the benchmark itself: python3 -m pytest bench/tests -q

The smoke and coverage tests run every workload for one cycle (--seconds 0)
in a subprocess, as the benchmark is run for real; together they take about
a minute on two cores.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# layers each workload was chosen to exercise; a span missing here means a
# binding the tracer failed to wrap
EXPECTED_SPANS = {
    "point-n3": {"cli.main", "harmonium.expand_in_hermite_basis", "harmonium.ground_state_spec",
                 "fock.one_rdm", "fock.natural_occupations", "linalg.jacobi_eigh",
                 "gpc.truncate_spectrum", "gpc.catalog", "gpc.evaluate"},
    "point-n4": {"cli.main", "harmonium.expand_in_hermite_basis", "harmonium.ground_state_spec",
                 "fock.one_rdm", "fock.natural_occupations", "linalg.jacobi_eigh",
                 "gpc.truncate_spectrum", "gpc.catalog", "gpc.pinning_report", "gpc.evaluate"},
    "state-analysis": {"cli.main", "fock.read_state_json", "fock.one_rdm",
                       "fock.natural_occupations", "linalg.jacobi_eigh", "fock.rotate_orbitals",
                       "gpc.pinning_report", "gpc.catalog", "gpc.evaluate",
                       "selection.verify_pinning_lemma", "selection.zero_eigenspace_slaters",
                       "selection.out_of_support_weight"},
    "cli-cold": {"cli.main", "fock.read_state_json", "fock.one_rdm", "fock.natural_occupations",
                 "linalg.jacobi_eigh", "fock.rotate_orbitals", "harmonium.expand_in_hermite_basis",
                 "gpc.pinning_report", "selection.verify_pinning_lemma",
                 "selection.zero_eigenspace_slaters", "selection.out_of_support_weight",
                 "schubert.hersch_zwahlen_check", "schubert.check_spectral_inequality"},
}


def run_bench(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_spec_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke(workload):
    proc = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_covers_the_workload_layers(workload):
    proc = run_bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    facts = json.loads((OUT / f"result-{workload}-seed3-trace1.json").read_text())["facts"]
    assert EXPECTED_SPANS[workload] <= set(facts["spans"])
    if workload == "state-analysis":
        assert not any(name.startswith("harmonium.") for name in facts["spans"])


def test_rebound_names_are_wrapped():
    import qmarginal.cli  # noqa: F401  loads every module the CLI binds
    bindings = set(tracing.Tracer().bindings)
    for binding in ("harmonium.one_rdm", "selection.one_rdm", "fock.jacobi_eigh",
                    "harmonium.catalog", "harmonium.evaluate", "harmonium.truncate_spectrum",
                    "linalg.jacobi_eigh", "fock.one_rdm", "cli.main"):
        assert f"qmarginal.{binding}" in bindings


def _inputs(workload, seed, workdir):
    cycle = workloads.build(workload, seed, workdir, ROOT)
    prefix = str(workdir.relative_to(ROOT))
    argvs = [[a.replace(prefix, "<dir>") for a in op.argv]
             for i in range(4) for op in cycle(i)]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return argvs, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    base = OUT / f"test-inputs-{workload}"
    shutil.rmtree(base, ignore_errors=True)
    dirs = [base / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir(parents=True)
    try:
        first, second, other = (_inputs(workload, seed, d) for seed, d in zip((5, 5, 6), dirs))
        assert first == second
        assert first != other
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_checks_reject_wrong_outputs():
    anchor = workloads.harmonium_op(workloads.ANCHOR_KAPPA, 3, None)
    good = {"kappa": workloads.ANCHOR_KAPPA, "D": workloads.ANCHOR_D, "hf_dist": 1e-4,
            "eps6": 2e-9, "norm_deficit": 0.0, "precision_floor": False, "basis_size": 28,
            "nodes": 43}
    anchor.check(0, json.dumps(good))
    for bad, code in (({"D": workloads.ANCHOR_D + 1e-14}, 0), ({"norm_deficit": 2e-6}, 0),
                      ({}, 3), ({}, 2)):
        with pytest.raises(workloads.CheckFailed):
            anchor.check(code, json.dumps({**good, **bad}))


def test_reference_occupations_of_a_pinned_state():
    import numpy as np
    amps = workloads.bd_pinned_state(np.random.default_rng(0))
    f = workloads.StateFile("unused", 3, 6, amps, sparse=True)
    a, b, g = (abs(amps[k]) ** 2 for k in ((1, 2, 3), (1, 4, 5), (2, 4, 6)))
    assert np.allclose(f.occupations(), [a + b, a + g, a, b + g, b, g], atol=1e-14)


def test_fails_without_the_program():
    stripped = OUT / "test-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(BENCH, stripped / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", "tests"))
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        proc = run_bench("point-n3", trace=0, cwd=stripped)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(stripped, ignore_errors=True)


def test_tail_is_read_at_the_same_percentile_whatever_the_sample_count():
    for n in (30, 33, 40):
        values = [i / (n - 1) for i in range(n)]  # evenly spaced on [0, 1]
        value, beyond = run.tail(values, 67)
        assert value == pytest.approx(0.67)
        assert beyond == sum(v > value for v in values)


def test_tail_with_too_few_samples_is_the_maximum():
    values = [0.5, 0.1, 0.9, 0.3]
    assert run.tail(values, 67) == (0.9, 0)


def test_every_workload_has_a_tail_percentile():
    assert set(workloads.TAIL_PERCENTILE) == set(workloads.WORKLOADS)
    assert all(50 < p < 100 for p in workloads.TAIL_PERCENTILE.values())
