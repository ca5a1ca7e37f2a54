"""Command-line front end.

Every command is deterministic: seeds default to a fixed constant, floats are
emitted with 17 significant digits, and identical invocations produce
byte-identical output.  Machine-readable JSON goes to stdout under --json
with any logging kept on stderr.  Exit codes: 0 success, 2 validation error,
3 numerical-precision floor reached, 141 (128 + SIGPIPE, as a shell reports a
process that SIGPIPE ended) when the reader closed stdout early.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import fock, gpc, harmonium, selection, schubert

DEFAULT_SEED = 42
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECISION_FLOOR = 3
EXIT_BROKEN_PIPE = 141
# hz without --pi checks all 2^dim sequences; the time doubles with each dimension
HZ_ALL_SEQUENCES_MAX_DIM = 12
# size bounds, timed cold on 2 Xeon vCPUs; a stack of 256 trials at dim 64 is 17 MB
HZ_MAX_DIM = 64  # one all-ones --pi at dim 64 takes 0.2-0.35 s
HZ_MAX_TRIALS = 2000  # all 4096 sequences of dim 12 with 2000 trials each: 35 s
INEQ_MAX_DIM = 64  # --da times --db; --da 8 --db 8 with the default 1000 samples: 0.5 s
INEQ_MAX_SAMPLES = 5 * 10 ** 4  # --da 64 --db 1 with no violation in 5e4 samples: 28 s


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return _fmt(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _parse_bits(text: str) -> tuple[int, ...]:
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"binary sequence must be nonempty over 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def _parse_setting(text: str) -> tuple[int, int]:
    try:
        n, d = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"setting must be 'N,d', got {text!r}") from None
    return n, d


def _emit(out, text: str) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _print_report_text(out, report: gpc.PinningReport) -> None:
    _emit(out, f"setting: n={report.n} d={report.d}")
    for row in report.values:
        _emit(out, f"{row['label']} ({row['kind']}): {_fmt(row['value'])}")
    _emit(out, f"D_min: {_fmt(report.d_min)} ({report.d_min_label})")
    _emit(out, "saturated: " + (",".join(report.saturated) or "none"))
    if report.equality_violations:
        _emit(out, "equality violations: " + ",".join(report.equality_violations))
    _emit(out, f"hf_distance: {_fmt(report.hf_distance)}")
    if report.truncation_weight is not None:
        _emit(out, f"truncation_weight: {_fmt(report.truncation_weight)}")
    for thr, hit in report.quasipinning:
        _emit(out, f"quasipinned@{thr:g}: {'yes' if hit else 'no'}")


def cmd_non(args, out) -> int:
    state = fock.read_state_json(args.state)
    lams, orbitals = fock.natural_occupations(fock.one_rdm(state), vectors=args.orbitals)
    if args.json:
        payload = {"d": state.space.d, "n": state.space.n,
                   "occupations": [float(v) for v in lams]}
        if args.orbitals:
            payload["natural_orbitals_re"] = [[float(v) for v in row] for row in orbitals.real]
            payload["natural_orbitals_im"] = [[float(v) for v in row] for row in orbitals.imag]
        _emit(out, dumps(payload))
    else:
        _emit(out, "occupations: " + " ".join(_fmt(v) for v in lams))
        if args.orbitals:
            for i, row in enumerate(np.asarray(orbitals).T, start=1):
                _emit(out, f"orbital {i}: " + " ".join(
                    f"{_fmt(v.real)}{v.imag:+.17g}j" for v in row))
    return EXIT_OK


def cmd_gpc(args, out) -> int:
    if (args.non is None) == (args.state is None):
        raise ValueError("provide exactly one of --non or --state")
    if args.non is not None:
        lams = np.array([float(v) for v in args.non.split(",")])
        if not np.all(np.isfinite(lams)):
            raise ValueError(f"--non values must be finite, got {args.non!r}")
        if args.setting is None:
            raise ValueError("--setting N,d is required with --non")
        n, d = _parse_setting(args.setting)
    else:
        state = fock.read_state_json(args.state)
        n, d = (state.space.n, state.space.d) if args.setting is None \
            else _parse_setting(args.setting)
        if n != state.space.n:
            raise ValueError(f"--setting N={n} does not match the state file's n={state.space.n}")
        lams, _ = fock.natural_occupations(fock.one_rdm(state), vectors=False)
    truncation_weight = None
    if lams.size > d:
        lams, truncation_weight = gpc.truncate_spectrum(lams, d)
    elif lams.size < d:
        raise ValueError(f"need at least d={d} occupation values, got {lams.size}")
    report = gpc.pinning_report(lams, gpc.catalog(n, d), pin_tol=args.pin_tol,
                                truncation_weight=truncation_weight)
    if args.json:
        _emit(out, dumps(vars(report)))
    else:
        _print_report_text(out, report)
    return EXIT_OK


def _point_row(p: harmonium.ScanPoint) -> dict:
    return {"kappa": p.kappa, "D": p.d_value, "hf_dist": p.hf_distance,
            "eps6": p.eps6, "norm_deficit": p.norm_deficit,
            "precision_floor": p.precision_floor}


def _scan_csv(rows: list[dict]) -> str:
    """The scan table: every column of _point_row but the precision_floor flag."""
    columns = [key for key in rows[0] if key != "precision_floor"]
    lines = [",".join(columns)] + [",".join(_fmt(row[key]) for key in columns) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_harmonium(args, out) -> int:
    if (args.kappa is None) == (args.scan is None):
        raise ValueError("provide exactly one of --kappa or --scan")
    if args.kappa is not None:
        point = harmonium.point(args.kappa, args.n, args.basis)
        payload = {**_point_row(point),
                   "basis_size": args.basis, "nodes": harmonium.node_count(args.n, args.basis)}
        if args.json:
            _emit(out, dumps(payload))
        else:
            for key, value in payload.items():
                _emit(out, f"{key}: {value if isinstance(value, (bool, int)) else _fmt(value)}")
        if point.precision_floor:
            print("facet value below the numerical precision floor", file=sys.stderr)
            return EXIT_PRECISION_FLOOR
        return EXIT_OK

    try:
        start, stop, num = args.scan.split(":")
        start, stop, num = float(start), float(stop), int(num)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError
    except ValueError:
        raise ValueError(f"--scan takes start:stop:count, got {args.scan!r}") from None
    if args.n != 3:
        raise ValueError("scans are defined for n=3")
    harmonium.check_scan_grid(num, min(start, stop), max(start, stop))
    result = harmonium.quasipinning_scan(np.geomspace(start, stop, num), args.basis)
    rows = [_point_row(p) for p in result.points]
    csv_text = _scan_csv(rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
    summary = {"points": rows,
               "d_exponent": result.d_slope, "hf_exponent": result.hf_slope,
               "basis_size": args.basis, "nodes": harmonium.node_count(3, args.basis),
               "precision_floor": harmonium.PRECISION_FLOOR}
    if args.json:
        _emit(out, dumps(summary))
    else:
        out.write(csv_text)
        _emit(out, f"# d_exponent: {_fmt(result.d_slope)}")
        _emit(out, f"# hf_exponent: {_fmt(result.hf_slope)}")
    if all(p.precision_floor for p in result.points):
        print("every facet value sits below the numerical precision floor", file=sys.stderr)
        return EXIT_PRECISION_FLOOR
    return EXIT_OK


def cmd_selection(args, out) -> int:
    n, d = _parse_setting(args.setting)
    space = fock.OrbitalSpace(d=d, n=n)
    cat = gpc.catalog(n, d)
    if args.saturated == "none":
        labels = []
    else:
        labels = [label.strip() for label in args.saturated.split(",") if label.strip()]
    constraints = [cat.by_label(label) for label in labels]
    masks = selection.zero_eigenspace_slaters(constraints, space)

    lemma_rows = []
    weight_outside = None
    if args.state:
        state = fock.read_state_json(args.state)
        if state.space != space:
            raise ValueError("state file does not match --setting")
        # the lemma and the ansatz weight both hold in the natural-orbital basis
        frame = selection.natural_frame(state)
        lemma_rows = [vars(rep) for rep in selection.verify_pinning_lemma(frame, constraints)]
        weight_outside = selection.out_of_support_weight(frame[1], masks)

    payload = {
        "setting": {"n": n, "d": d},
        "saturated": labels,
        "ansatz_size": masks.size,
        "ansatz": (fock.levels(masks, d, n) + 1).tolist(),
        "lemma_residuals": lemma_rows,
        "weight_outside_ansatz": weight_outside,
    }
    if args.json:
        _emit(out, dumps(payload))
    else:
        _emit(out, f"saturated: {','.join(labels) or 'none'}")
        _emit(out, f"ansatz ({masks.size} determinants):")
        for mask in masks.tolist():
            _emit(out, f"  {fock.ket(mask)}")
        for row in lemma_rows:
            _emit(out, f"lemma {row['label']}: value={_fmt(row['constraint_value'])} "
                       f"residual={_fmt(row['residual_norm'])}"
                       + (" (degenerate, check skipped)" if row["degenerate"] else ""))
        if weight_outside is not None:
            _emit(out, f"weight outside ansatz: {_fmt(weight_outside)}")
    return EXIT_OK


def cmd_hz(args, out) -> int:
    d = args.dim
    if not 1 <= d <= HZ_MAX_DIM:
        raise ValueError(f"--dim must lie in [1, {HZ_MAX_DIM}], got {d}")
    if args.pi and len(args.pi) != d:
        raise ValueError(f"--pi has {len(args.pi)} entries, --dim is {d}")
    if not args.pi and d > HZ_ALL_SEQUENCES_MAX_DIM:
        raise ValueError(f"checking all 2^{d} binary sequences is too costly; "
                         f"give one with --pi or use --dim <= {HZ_ALL_SEQUENCES_MAX_DIM}")
    if args.trials > HZ_MAX_TRIALS:
        raise ValueError(f"--trials must be at most {HZ_MAX_TRIALS}, got {args.trials}")
    sequences = ([_parse_bits(args.pi)] if args.pi
                 else [tuple(int(b) for b in format(m, f"0{d}b")) for m in range(2 ** d)])
    rng = np.random.default_rng([args.seed, 0])
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = (g + g.conj().T) / 2.0
    reports = [schubert.hersch_zwahlen_check(rho, pi, trials=args.trials, seed=args.seed)
               for pi in sequences]
    # overriding a key keeps its place, so pi stays first and passed comes last
    rows = [{**vars(r), "pi": "".join(map(str, r.pi)), "passed": r.passed()} for r in reports]
    all_ok = all(row["passed"] for row in rows)
    payload = {"dim": d, "seed": args.seed, "reports": rows, "all_passed": all_ok}
    if args.json:
        _emit(out, dumps(payload))
    else:
        for row in rows:
            _emit(out, f"pi={row['pi']} target={_fmt(row['target'])} "
                       f"candidate={_fmt(row['candidate_value'])} "
                       f"min_sampled={_fmt(row['min_sampled'])} "
                       f"{'ok' if row['passed'] else 'FAIL'}")
        _emit(out, "all passed" if all_ok else "FAILURES present")
    return EXIT_OK


def cmd_ineq(args, out) -> int:
    if args.da * args.db > INEQ_MAX_DIM:
        raise ValueError(f"--da times --db must be at most {INEQ_MAX_DIM}, got {args.da*args.db}")
    if args.samples > INEQ_MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {INEQ_MAX_SAMPLES}, got {args.samples}")
    verdict = schubert.check_spectral_inequality(
        _parse_bits(args.pi), _parse_bits(args.sigma), args.da, args.db,
        samples=args.samples, seed=args.seed)
    payload = {"pi": args.pi, "sigma": args.sigma, "d_a": args.da, "d_b": args.db,
               "samples_checked": verdict.samples_checked,
               "violated": verdict.violated, "witness": verdict.witness}
    if args.json:
        _emit(out, dumps(payload))
    else:
        if verdict.violated:
            _emit(out, f"violated at sample {verdict.witness['trial']} "
                       f"({verdict.witness['kind']}): lhs={_fmt(verdict.witness['lhs'])} "
                       f"> rhs={_fmt(verdict.witness['rhs'])}")
        else:
            _emit(out, f"never violated over {verdict.samples_checked} samples")
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qmarg",
        description="occupation spectra, generalized Pauli constraints, pinning analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("non", help="natural occupations of a state file")
    p.add_argument("state", help="state JSON file")
    p.add_argument("--orbitals", action="store_true", help="also print natural orbitals")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_non)

    p = sub.add_parser("gpc", help="pinning report for an occupation vector")
    p.add_argument("--non", help="comma-separated occupation values")
    p.add_argument("--state", help="state JSON file")
    p.add_argument("--setting", help="N,d of the constraint catalog")
    p.add_argument("--pin-tol", type=float, default=gpc.DEFAULT_PIN_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gpc)

    p = sub.add_parser("harmonium", help="trapped interacting fermions")
    p.add_argument("--kappa", type=float, help="single interaction strength")
    p.add_argument("--scan", help="a:b:n geometric kappa grid")
    p.add_argument("--n", type=int, default=3, help="particle number")
    p.add_argument("--basis", type=int, default=harmonium.DEFAULT_BASIS_SIZE,
                   help="1-particle basis size")
    p.add_argument("--csv", help="also write the scan table to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_harmonium)

    p = sub.add_parser("selection", help="determinants allowed by saturated constraints")
    p.add_argument("--setting", required=True, help="N,d")
    p.add_argument("--saturated", required=True,
                   help="comma-separated constraint labels, or 'none'")
    p.add_argument("--state", help="optional state file for residual checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selection)

    p = sub.add_parser("hz", help="eigenvalue-sum variational principle checks")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--pi", help="single binary sequence; default: all 2^dim of them, "
                   f"for --dim <= {HZ_ALL_SEQUENCES_MAX_DIM}")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hz)

    p = sub.add_parser("ineq", help="Monte-Carlo spectral inequality test")
    p.add_argument("--da", type=int, required=True)
    p.add_argument("--db", type=int, required=True)
    p.add_argument("--pi", required=True, help="binary sequence on the marginal")
    p.add_argument("--sigma", required=True, help="binary sequence on the joint state")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ineq)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early, which is no input error: end quietly, with
        # stdout on devnull so the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except json.JSONDecodeError as exc:
        print(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
