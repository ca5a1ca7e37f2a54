"""Workloads of the qmarginal benchmark: inputs made from a seed, and output checks.

The program sees only the argv lists and state files made here.  Every op is
one `qmarg` invocation; a workload is an endless sequence of cycles of ops,
and the harness always runs whole cycles, so every run of a workload has the
same mix of ops whatever its length or speed.

Checks compare each output with values this module computes independently:
occupation spectra from a dense antisymmetric tensor, constraint values from
the catalog coefficients written out below, determinant supports by direct
enumeration.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("point-n3", "point-n4", "state-analysis", "cli-cold")
IN_PROCESS = {"point-n3": True, "point-n4": True, "state-analysis": True, "cli-cold": False}
# latency_tail_s percentile, fixed per workload so every commit is read at the
# same one: chosen so a 45 s run of the seed code has >= 10 samples beyond it
# (point-n3 ~33 samples, point-n4 ~28, cli-cold 56-63, state-analysis ~1800)
TAIL_PERCENTILE = {"point-n3": 67, "point-n4": 63, "state-analysis": 95, "cli-cold": 80}

KAPPA_RANGE = (0.05, 0.3)
ANCHOR_KAPPA = 1.0 / 3.0
# the implementation's own value of D(1/3, N=3, d=28), not the paper's band
ANCHOR_D = 5.9112099659586193e-09
ANCHOR_TOL = 1e-15
DEFICIT_TOL = 1e-6
DEFAULT_BASIS = 28  # the CLI's --basis default
# harmonium.PRECISION_FLOOR: below it the CLI exits 3 by contract
PRECISION_FLOOR = 100 * sys.float_info.epsilon
PIN_TOL = 1e-8  # the CLI's default --pin-tol
OCC_TOL = 1e-10
BD_WEIGHT_TOL = 1e-12

DENSE_SETTINGS = ((3, 8), (3, 10), (4, 10), (3, 12))
DENSE_PER_SETTING = 2
BD_FILES = 4
CLI_STATE_FILES = 4
BD_LABELS = ("bd-eq1", "bd-eq2", "bd-eq3", "bd-ineq")
COUNT_KEYS = ("harmonium.quad_points", "harmonium.amplitudes_kept_ratio",
              "fock.one_rdm.dets", "fock.rotate_orbitals.minors", "gpc.evaluate.calls")


class CheckFailed(Exception):
    """An output disagrees with the benchmark's expectation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class StateFile:
    path: str  # relative to the checkout root, as passed on the command line
    n: int
    d: int
    amps: dict  # tuple of 1-based orbitals -> complex
    sparse: bool
    _occupations: np.ndarray | None = field(default=None, repr=False)

    def occupations(self) -> np.ndarray:
        """Decreasing occupations from N * M M^dag, M the d x d^(N-1) unfolding."""
        if self._occupations is None:
            tensor = np.zeros((self.d,) * self.n, dtype=complex)
            scale = 1.0 / math.sqrt(math.factorial(self.n))
            for orbitals, c in self.amps.items():
                idx = [k - 1 for k in orbitals]
                for perm in itertools.permutations(range(self.n)):
                    tensor[tuple(idx[p] for p in perm)] = _parity(perm) * c * scale
            m = tensor.reshape(self.d, -1)
            rho = self.n * (m @ m.conj().T)
            self._occupations = np.sort(np.linalg.eigvalsh(rho))[::-1]
        return self._occupations


@dataclass
class Op:
    kind: str
    argv: list
    check: Callable  # (exit_code, stdout) -> None, raises CheckFailed
    counts: dict
    sparse: bool = False


def _parity(perm) -> int:
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _slaters(n: int, d: int) -> list:
    """n-subsets of 1..d ascending by bitmask value, the program's basis order."""
    subsets = itertools.combinations(range(1, d + 1), n)
    return sorted(subsets, key=lambda orb: sum(1 << (k - 1) for k in orb))


# ---------------------------------------------------------------- catalogs

def reference_catalog(n: int, d: int) -> list:
    """(label, kind, kappa0, kappas, chamber) rows in the program's order."""
    def unit(*positions, value=1):
        v = [0] * d
        for p in positions:
            v[p - 1] = value
        return v

    rows = [("norm", "eq", -n, [1] * d, False),
            ("pauli-top", "ineq", 1, unit(1, value=-1), False),
            ("pauli-bottom", "ineq", 0, unit(d), False)]
    for i in range(1, d):
        kappas = [0] * d
        kappas[i - 1], kappas[i] = 1, -1
        rows.append((f"ord-{i}", "ineq", 0, kappas, True))
    if (n, d) == (3, 6):
        rows += [("bd-eq1", "eq", -1, unit(1, 6), False),
                 ("bd-eq2", "eq", -1, unit(2, 5), False),
                 ("bd-eq3", "eq", -1, unit(3, 4), False),
                 ("bd-ineq", "ineq", 2, [-1, -1, 0, -1, 0, 0], False)]
    return rows


def _row(n: int, d: int, label: str):
    return next(r for r in reference_catalog(n, d) if r[0] == label)


def _slater_value(row, orbitals) -> int:
    return row[2] + sum(row[3][k - 1] for k in orbitals)


def _check_report(doc: dict, n: int, d: int, lams) -> None:
    """A `gpc --json` payload against the reference catalog evaluated on lams."""
    rows = reference_catalog(n, d)
    expect(doc["n"] == n and doc["d"] == d, "setting echoed wrongly")
    expect([v["label"] for v in doc["values"]] == [r[0] for r in rows], "catalog labels differ")
    facets = {}
    for value, (label, kind, k0, kappas, chamber) in zip(doc["values"], rows):
        ref = k0 + float(np.dot(kappas, lams))
        expect(value["kind"] == kind, f"{label}: kind {value['kind']}")
        expect(abs(value["value"] - ref) <= OCC_TOL, f"{label}: {value['value']!r} != {ref!r}")
        if kind == "ineq" and not chamber:
            facets[label] = value["value"]
    expect(doc["d_min"] == min(facets.values()), "d_min is not the smallest facet value")
    expect(doc["d_min_label"] in facets and facets[doc["d_min_label"]] == doc["d_min"],
           "d_min_label does not name d_min")


# ---------------------------------------------------------------- work counts

def _counts(values: dict | None = None) -> dict:
    counts = dict.fromkeys(COUNT_KEYS, 0)
    counts.update(values or {})
    return counts


def harmonium_counts(n: int, d: int) -> dict:
    degree = n * (d - 1) + n * (n - 1) // 2
    nodes = (degree + 2) // 2  # QuadratureSpec.node_count: smallest G with 2G-1 >= degree
    evaluations = 1 if n == 3 else len(reference_catalog(n, 6))
    return _counts({"harmonium.quad_points": nodes ** n,
                    "harmonium.amplitudes_kept_ratio": math.comb(d, n) / d ** n,
                    "fock.one_rdm.dets": math.comb(d, n),
                    "gpc.evaluate.calls": evaluations})


def state_counts(f: StateFile, command: str, constraints: int = 0) -> dict:
    nnz = len(f.amps)
    if command == "non":
        return _counts({"fock.one_rdm.dets": nnz})
    if command == "gpc":
        return _counts({"fock.one_rdm.dets": nnz,
                        "gpc.evaluate.calls": len(reference_catalog(f.n, f.d))})
    # selection --state: verify_pinning_lemma per constraint, each one RDM
    # and one rotation of every target determinant against every amplitude
    return _counts({"fock.one_rdm.dets": constraints * nnz,
                    "fock.rotate_orbitals.minors": constraints * math.comb(f.d, f.n) * nnz,
                    "gpc.evaluate.calls": constraints})


# ---------------------------------------------------------------- state files

def _write_state(workdir: Path, root: Path, name: str, n: int, d: int, amps: dict,
                 sparse: bool) -> StateFile:
    entries = [{"orbitals": list(orb), "re": float(c.real), "im": float(c.imag)}
               for orb, c in amps.items()]
    path = workdir / name
    path.write_text(json.dumps({"d": d, "n": n, "amplitudes": entries}), encoding="utf-8")
    return StateFile(str(path.relative_to(root)), n, d, amps, sparse)


def haar_state(rng: np.random.Generator, n: int, d: int) -> dict:
    basis = _slaters(n, d)
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    c /= np.linalg.norm(c)
    return {orb: complex(v) for orb, v in zip(basis, c)}


def bd_pinned_state(rng: np.random.Generator) -> dict:
    """alpha|1,2,3> + beta|1,4,5> + gamma|2,4,6> with a strictly decreasing spectrum.

    Occupations are (a+b, a+g, a, b+g, b, g) for weights a > b + g, b > g,
    all gaps well above the lemma check's degeneracy gap of 1e-10.
    """
    a = rng.uniform(0.55, 0.9)
    share = rng.uniform(0.6, 0.85)
    b, g = (1.0 - a) * share, (1.0 - a) * (1.0 - share)
    phases = np.exp(2j * np.pi * rng.uniform(size=3))
    amps = np.sqrt([a, b, g]) * phases
    return {(1, 2, 3): complex(amps[0]), (1, 4, 5): complex(amps[1]),
            (2, 4, 6): complex(amps[2])}


# ---------------------------------------------------------------- op checks

def _load(code: int, stdout: str) -> dict:
    expect(code == 0, f"exit code {code}")
    return json.loads(stdout)


def harmonium_op(kappa: float, n: int, basis: int | None) -> Op:
    argv = ["harmonium", "--kappa", repr(kappa)]
    if n != 3:
        argv += ["--n", str(n)]
    if basis is not None:
        argv += ["--basis", str(basis)]
    argv.append("--json")
    d = basis or DEFAULT_BASIS

    def check(code, stdout):
        doc = json.loads(stdout)
        floor = abs(doc["D"]) < PRECISION_FLOOR
        expect(doc["precision_floor"] is floor, "precision_floor flag disagrees with |D|")
        # exit 3 is the CLI's contract for a facet value below the floor
        expect(code == (3 if floor else 0), f"exit code {code} with precision_floor={floor}")
        expect(doc["kappa"] == kappa, "kappa echoed wrongly")
        expect(doc["basis_size"] == d, "basis size echoed wrongly")
        expect(doc["norm_deficit"] <= DEFICIT_TOL, f"norm deficit {doc['norm_deficit']!r}")
        expect(floor or doc["D"] > 0, f"negative facet value {doc['D']!r}")
        if kappa == ANCHOR_KAPPA and n == 3 and d == 28:
            expect(abs(doc["D"] - ANCHOR_D) <= ANCHOR_TOL,
                   f"anchor D {doc['D']!r} != {ANCHOR_D!r}")

    return Op("harmonium", argv, check, harmonium_counts(n, d))


def non_op(f: StateFile) -> Op:
    def check(code, stdout):
        doc = _load(code, stdout)
        occ = np.array(doc["occupations"])
        expect(doc["n"] == f.n and doc["d"] == f.d and occ.size == f.d, "shape echoed wrongly")
        expect(abs(occ.sum() - f.n) <= OCC_TOL, f"occupations sum to {occ.sum()!r}")
        expect(np.max(np.abs(occ - f.occupations())) <= OCC_TOL, "occupations differ")
        if (f.n, f.d) == (3, 6):  # Borland-Dennis equalities hold for every pure state
            expect(np.max(np.abs(occ[:3] + occ[::-1][:3] - 1.0)) <= OCC_TOL,
                   "Borland-Dennis equalities violated")

    return Op("non", ["non", f.path, "--json"], check, state_counts(f, "non"), f.sparse)


def gpc_state_op(f: StateFile) -> Op:
    def check(code, stdout):
        doc = _load(code, stdout)
        _check_report(doc, f.n, f.d, f.occupations())
        if f.sparse:
            expect(set(BD_LABELS) <= set(doc["saturated"]), "pinned state not saturated")
        else:
            expect(doc["saturated"] == [], "Haar-random state reported pinned")

    return Op("gpc-state", ["gpc", "--state", f.path, "--json"], check,
              state_counts(f, "gpc"), f.sparse)


def selection_state_op(f: StateFile, labels: list | None = None) -> Op:
    """`selection --state`; pinned states default to every BD label, Haar states to pauli-top."""
    labels = labels or (list(BD_LABELS) if f.sparse else ["pauli-top"])
    rows = [_row(f.n, f.d, label) for label in labels]
    support = [orb for orb in _slaters(f.n, f.d)
               if all(_slater_value(r, orb) == 0 for r in rows)]
    argv = ["selection", "--setting", f"{f.n},{f.d}", "--saturated", ",".join(labels),
            "--state", f.path, "--json"]

    def check(code, stdout):
        doc = _load(code, stdout)
        expect([tuple(o) for o in doc["ansatz"]] == support, "ansatz differs from enumeration")
        expect(doc["ansatz_size"] == len(support), "ansatz size")
        lemma = doc["lemma_residuals"]
        expect([r["label"] for r in lemma] == labels, "lemma rows")
        lam1 = f.occupations()[0]
        for row, ref in zip(lemma, rows):
            expect(not row["degenerate"], f"{row['label']}: degenerate")
            if f.sparse:
                radius = max(abs(_slater_value(ref, orb)) for orb in _slaters(f.n, f.d))
                expect(row["residual_norm"] <= radius * PIN_TOL,
                       f"{row['label']}: residual {row['residual_norm']!r} above bound")
                expect(abs(row["constraint_value"]) <= PIN_TOL, f"{row['label']}: not pinned")
            else:
                # D = 1 - n_1 in the natural-orbital basis: ||D psi||^2 = 1 - lam_1
                expect(abs(row["constraint_value"] - (1.0 - lam1)) <= OCC_TOL, "1 - lam_1")
                expect(abs(row["residual_norm"] ** 2 - (1.0 - lam1)) <= OCC_TOL,
                       "residual^2 != 1 - lam_1")
        weight = doc["weight_outside_ansatz"]
        if f.sparse:
            expect(weight <= BD_WEIGHT_TOL, f"weight outside ansatz {weight!r}")
        else:
            expect(1.0 - lam1 - OCC_TOL <= weight <= 1.0 + OCC_TOL, f"weight {weight!r}")

    return Op("selection-state", argv, check, state_counts(f, "selection", len(labels)),
              f.sparse)


def gpc_non_op(lams: list) -> Op:
    def check(code, stdout):
        _check_report(_load(code, stdout), 3, 6, np.array(lams))

    argv = ["gpc", "--non", ",".join(repr(v) for v in lams), "--setting", "3,6", "--json"]
    return Op("gpc-non", argv, check,
              _counts({"gpc.evaluate.calls": len(reference_catalog(3, 6))}))


def hz_op(dim: int, seed: int) -> Op:
    def check(code, stdout):
        doc = _load(code, stdout)
        expect(doc["all_passed"] is True, "Hersch-Zwahlen check failed")
        expect(len(doc["reports"]) == 2 ** dim, "one report per binary sequence")

    return Op(f"hz-{dim}", ["hz", "--dim", str(dim), "--seed", str(seed), "--json"], check,
              _counts())


def ineq_op(seed: int) -> Op:
    def check(code, stdout):
        doc = _load(code, stdout)
        expect(doc["violated"] is False, "inequality (10, 1100) reported violated")
        expect(doc["samples_checked"] == 1000, "sample count")

    argv = ["ineq", "--da", "2", "--db", "2", "--pi", "10", "--sigma", "1100",
            "--seed", str(seed), "--json"]
    return Op("ineq", argv, check, _counts())


# ---------------------------------------------------------------- workloads

def _point_n3(seed: int, workdir: Path, root: Path):
    def cycle(i):
        kappa = ANCHOR_KAPPA if i == 0 else _log_uniform(
            np.random.default_rng([seed, i]), *KAPPA_RANGE)
        return [harmonium_op(kappa, 3, None)]
    return cycle


def _point_n4(seed: int, workdir: Path, root: Path):
    def cycle(i):
        return [harmonium_op(_log_uniform(np.random.default_rng([seed, i]), *KAPPA_RANGE),
                             4, 10)]
    return cycle


def _state_analysis(seed: int, workdir: Path, root: Path):
    rng = np.random.default_rng([seed, 0])
    files = []
    for n, d in DENSE_SETTINGS:
        for k in range(DENSE_PER_SETTING):
            files.append(_write_state(workdir, root, f"haar-{n}-{d}-{k}.json", n, d,
                                      haar_state(rng, n, d), sparse=False))
    for k in range(BD_FILES):
        files.append(_write_state(workdir, root, f"bd-{k}.json", 3, 6, bd_pinned_state(rng),
                                  sparse=True))
    ops = [make(f) for f in files for make in (non_op, gpc_state_op, selection_state_op)]
    return lambda i: ops


def _cli_cold(seed: int, workdir: Path, root: Path):
    rng = np.random.default_rng([seed, 0])
    haar = [_write_state(workdir, root, f"haar-3-6-{k}.json", 3, 6, haar_state(rng, 3, 6),
                         sparse=False) for k in range(CLI_STATE_FILES)]
    pinned = [_write_state(workdir, root, f"bd-{k}.json", 3, 6, bd_pinned_state(rng),
                           sparse=True) for k in range(CLI_STATE_FILES)]

    def fresh(k):
        r = np.random.default_rng([seed, k + 1])
        lams = sorted((float(v) for v in r.uniform(size=6)), reverse=True)
        mask = int(r.integers(1, 2 ** len(BD_LABELS)))  # a nonempty subset
        chosen = [label for j, label in enumerate(BD_LABELS) if mask >> j & 1]
        ops = [gpc_non_op(lams), selection_state_op(pinned[k % len(pinned)], chosen),
               hz_op(4, int(r.integers(2 ** 31))), hz_op(5, int(r.integers(2 ** 31))),
               ineq_op(int(r.integers(2 ** 31))), non_op(haar[k % len(haar)]),
               harmonium_op(_log_uniform(r, *KAPPA_RANGE), 3, 12)]
        return [ops[j] for j in r.permutation(len(ops))]

    # odd cycles rerun the previous cycle's argvs in reverse order, so every
    # argv runs twice and its two outputs must be byte-identical
    return lambda i: fresh(i // 2) if i % 2 == 0 else fresh(i // 2)[::-1]


_GENERATORS = {"point-n3": _point_n3, "point-n4": _point_n4,
               "state-analysis": _state_analysis, "cli-cold": _cli_cold}


def build(workload: str, seed: int, workdir: Path, root: Path) -> Callable:
    """Write the workload's state files under workdir; return cycle index -> ops."""
    return _GENERATORS[workload](seed, Path(workdir), Path(root))
