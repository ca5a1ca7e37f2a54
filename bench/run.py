#!/usr/bin/env python3
"""Benchmark of the qmarginal command line, end to end and per layer.

    python3 bench/run.py --workload point-n3 --seed 1 --seconds 55 --trace 0

Run from anywhere; the program is loaded from `src/` next to this directory.
One client runs one op at a time (closed loop).  Each op is a `qmarg`
invocation: `qmarginal.cli.main(argv)` in this process for point-n3,
point-n4 and state-analysis, a fresh `python -m qmarginal.cli` process for
cli-cold.  The run measures whole cycles of ops until --seconds have passed,
then checks every output.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the program's layer
functions (see tracing.py), runs every op both traced and untraced, and
prints the per-layer metrics.  The last line of stdout is the result JSON;
earlier lines name each metric with its unit and record the environment.
Spans and results are also written under `.bench_out/` in the checkout.
"""
import time

_START = time.perf_counter()  # benchmark start: set-up is timed from here

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402  (sibling modules; they need nothing from src)
import workloads  # noqa: E402

# a stray value would switch on the thread pool in quasipinning_scan
QMARG_THREADS = os.environ.pop("QMARG_THREADS", None)
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

OP_TIMEOUT_S = 120
SETUP_PROBES = 4        # extra fresh set-ups per run; setup_s is the median of 1 + these
IMPORT_PROBES = 3       # subprocess timings behind cli.interp_start_s and cli.import_s
TAIL_BEYOND = 10        # with this many samples or fewer, latency_tail_s is the maximum

END_TO_END = (("latency_p50_s", "s"), ("latency_tail_s", "s"), ("throughput_ops_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("success_rate", "ratio"))
MODULES = ("harmonium", "fock", "linalg", "gpc", "selection", "schubert", "cli")

PER_LAYER = tuple(
    [(f"{span}.self_s", "s", "lower") for span in tracing.SPAN_NAMES]
    + [(f"{m}.share", "ratio", "lower") for m in MODULES]
    + [("cli.interp_start_s", "s", "lower"), ("cli.import_s", "s", "lower"),
       ("trace.op_s", "s", "lower"), ("trace.unattributed_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower"),
       ("harmonium.quad_points", "count", "lower"),
       ("harmonium.amplitudes_kept_ratio", "ratio", "higher"),
       ("fock.one_rdm.dets", "count", "lower"),
       ("fock.rotate_orbitals.minors", "count", "lower"),
       ("gpc.evaluate.calls", "count", "lower")])


@dataclass
class Outcome:
    op: workloads.Op
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None
    traced: bool = False
    child: bool = False  # ran as a fresh `python -m qmarginal.cli` process


# ------------------------------------------------------------------ running ops

def run_in_process(cli, op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # one failed op must not end the run
        error = f"{type(exc).__name__}: {exc}"
    return Outcome(op, time.perf_counter() - start, code, out.getvalue(), error)


def run_subprocess(op) -> Outcome:
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "qmarginal.cli", *op.argv], cwd=ROOT,
                              env=CHILD_ENV, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(op, time.perf_counter() - start, None, "",
                       f"timed out after {OP_TIMEOUT_S} s", child=True)
    seconds = time.perf_counter() - start
    error = None
    if proc.returncode not in (0, 3):
        error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return Outcome(op, seconds, proc.returncode, proc.stdout, error, child=True)


def run_cycles(cycle, seconds: float, execute):
    """Whole cycles of ops until `seconds` have passed: (outcomes, wall, cycles)."""
    outcomes = []
    start = time.perf_counter()
    deadline = start + seconds
    cycles = 0
    while True:
        for op in cycle(cycles):
            outcomes.extend(execute(op))
        cycles += 1
        if time.perf_counter() >= deadline:
            return outcomes, time.perf_counter() - start, cycles


def check_outcomes(outcomes) -> list:
    """(outcome, message) for every failed op; identical argvs need identical stdout."""
    first_stdout, failures = {}, []
    for o in outcomes:
        message = o.error
        if message is None:
            try:
                o.op.check(o.code, o.stdout)
            except Exception as exc:  # any malformed output is a failed op
                message = f"{type(exc).__name__}: {exc}"
        if message is None and first_stdout.setdefault(tuple(o.op.argv), o.stdout) != o.stdout:
            message = "stdout differs from an earlier run of the same argv"
        if message is not None:
            failures.append((o, message))
    return failures


# ------------------------------------------------------------------ set-up

def setup(workload: str, seed: int, workdir: Path, in_process: bool):
    """Inputs, state files and the program loaded; returns (cycle, cli module or None)."""
    cycle = workloads.build(workload, seed, workdir, ROOT)
    cli = None
    if in_process:
        import qmarginal.cli as cli
    if not workloads.IN_PROCESS[workload]:
        # the first CLI start writes bytecode and fills the file cache; a user
        # pays that once per install, not per command
        proc = subprocess.run([sys.executable, "-m", "qmarginal.cli", "--help"], cwd=ROOT,
                              env=CHILD_ENV, capture_output=True, timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"qmarg --help exited {proc.returncode}: {proc.stderr[-300:]!r}")
    return cycle, cli


def setup_probes(args) -> list:
    """Set-up times of fresh benchmark processes that stop before the first op."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                               args.workload, "--seed", str(args.seed), "--seconds", "0",
                               "--trace", "0", "--setup-probe"], cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-300:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def median_wall(argv, count: int) -> float:
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, check=True, capture_output=True,
                       timeout=OP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                      capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            revision = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qmarginal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "git_revision": revision,
            "source_sha256": digest.hexdigest(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
            "qmarg_threads_was_set": QMARG_THREADS is not None,
            "qmarg_threads_value": QMARG_THREADS}


# ------------------------------------------------------------------ statistics

def tail(values, percentile: int) -> tuple:
    """(value, beyond): the `percentile`-th percentile of `values`, interpolated,
    and how many samples lie above it; with TAIL_BEYOND or fewer samples, the
    maximum."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 0
    value = statistics.quantiles(ordered, n=100, method="inclusive")[percentile - 1]
    return value, sum(v > value for v in ordered)


def end_to_end_metrics(outcomes, wall, setup_samples, failures, peak_rss_mb,
                       tail_percentile) -> dict:
    latencies = [o.seconds for o in outcomes]
    values = {"latency_p50_s": statistics.median(latencies),
              "latency_tail_s": tail(latencies, tail_percentile)[0],
              "throughput_ops_s": len(outcomes) / wall,
              "setup_s": statistics.median(setup_samples),
              "peak_rss_mb": peak_rss_mb,
              "success_rate": 1.0 - len(failures) / len(outcomes)}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(tracer, outcomes, interp_s, import_s) -> tuple:
    """(metrics, share by span name) from the traced and untraced outcomes."""
    traced = [o for o in outcomes if o.traced]
    plain = [o for o in outcomes if not o.traced and not o.child]
    per_op = tracer.self_times()
    total = sum(o.seconds for o in traced)
    values = {}
    share = {}
    for name in tracing.SPAN_NAMES:
        spent = [per_op[i][name] for i in range(len(traced)) if name in per_op[i]]
        values[f"{name}.self_s"] = statistics.median(spent) if spent else 0.0
        share[name] = sum(spent) / total
    for module in MODULES:
        values[f"{module}.share"] = sum(v for k, v in share.items()
                                        if k.startswith(module + "."))
    values["cli.interp_start_s"] = interp_s
    values["cli.import_s"] = import_s
    values["trace.op_s"] = statistics.median(o.seconds for o in traced)
    values["trace.unattributed_s"] = statistics.median(
        o.seconds - sum(per_op[i].values()) for i, o in enumerate(traced))
    # the i-th traced and untraced outcomes ran the same argv back to back
    values["trace.overhead_ratio"] = statistics.median(
        t.seconds / u.seconds for t, u in zip(traced, plain))
    for key in workloads.COUNT_KEYS:
        counted = [o.op.counts[key] for o in traced if o.op.counts[key]]
        values[key] = statistics.median(counted) if counted else 0
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}, share


def isolation(workload, share, spans_seen, import_s, outcomes) -> str:
    """The layer split each workload was chosen for, as measured by this run."""
    if workload == "point-n4":
        got = share["harmonium.expand_in_hermite_basis"]
        return f"expansion {got:.1%} of the op (chosen for >= 80%): " + \
            ("met" if got >= 0.8 else "not met")
    if workload == "point-n3":
        rdm, exp = share["fock.one_rdm"], share["harmonium.expand_in_hermite_basis"]
        return f"one_rdm {rdm:.1%} (>= 40%), expansion {exp:.1%} (>= 20%): " + \
            ("met" if rdm >= 0.4 and exp >= 0.2 else "not met")
    if workload == "state-analysis":
        got = share["fock.one_rdm"] + share["linalg.jacobi_eigh"] + share["fock.rotate_orbitals"]
        harmonium_spans = sum(count for name, count in spans_seen.items()
                              if name.startswith("harmonium."))
        return (f"one_rdm + jacobi_eigh + rotate_orbitals {got:.1%} (>= 60%), "
                f"{harmonium_spans} harmonium spans (0): "
                + ("met" if got >= 0.6 and harmonium_spans == 0 else "not met"))
    got = import_s / statistics.median(o.seconds for o in outcomes if o.child)
    return f"cli.import_s {got:.1%} of latency_p50_s (>= 50%): " + \
        ("met" if got >= 0.5 else "not met")


# ------------------------------------------------------------------ main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help="stop after set-up and print its duration")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qmarginal" / "cli.py").is_file():
        print(f"error: no qmarginal sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    traced_run = bool(args.trace)
    in_process = workloads.IN_PROCESS[args.workload]
    cycle, cli = setup(args.workload, args.seed, workdir, in_process or traced_run)
    own_setup = time.perf_counter() - _START
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    if cli is not None:
        # untimed: the first call of a process pays for lazy loading, first-touch
        # page faults and the BLAS thread pool; ops after it do not
        run_in_process(cli, cycle(0)[0])

    if traced_run:
        tracer = tracing.Tracer()
        traced_ops = []

        def execute(op):
            # cli-cold also runs the real subprocess op; the in-process pair
            # alternates which of traced and untraced goes first
            done = [] if in_process else [run_subprocess(op)]
            first = len(traced_ops) % 2 == 0
            for traced in (first, not first):
                if traced:
                    tracer.enable(len(traced_ops))
                outcome = run_in_process(cli, op)
                outcome.traced = traced
                if traced:
                    tracer.disable()
                    traced_ops.append(outcome)
                done.append(outcome)
            return done
    elif in_process:
        def execute(op):
            return [run_in_process(cli, op)]
    else:
        def execute(op):
            return [run_subprocess(op)]

    outcomes, wall, cycles = run_cycles(cycle, args.seconds, execute)
    usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    failures = check_outcomes(outcomes)
    env = environment()
    kinds = {}
    for o in outcomes:
        kinds[o.op.kind] = kinds.get(o.op.kind, 0) + 1
    floor_ops = sum(1 for o in outcomes if o.op.kind == "harmonium" and o.code == 3)
    facts = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "ops": len(outcomes), "cycles": cycles, "timed_wall_s": wall, "kinds": kinds,
             "sparse_share": sum(o.op.sparse for o in outcomes) / len(outcomes),
             "precision_floor_ops": floor_ops,
             "latencies": [[o.op.kind, o.traced, o.seconds] for o in outcomes],
             "failures": [f"{' '.join(o.op.argv)}: {msg}" for o, msg in failures[:20]]}
    print("env: " + json.dumps(env))
    print("workload: " + json.dumps({k: v for k, v in facts.items()
                                     if k not in ("failures", "latencies")}))
    for line in facts["failures"]:
        print("FAILED: " + line)

    if traced_run:
        spans_seen = {}
        for span in tracer.spans:
            spans_seen[span[0]] = spans_seen.get(span[0], 0) + 1
        interp_s = median_wall([sys.executable, "-c", "pass"], IMPORT_PROBES)
        import_s = median_wall([sys.executable, "-c", "import qmarginal.cli"], IMPORT_PROBES)
        metrics, share = per_layer_metrics(tracer, outcomes, interp_s, import_s)
        verdict = isolation(args.workload, share, spans_seen, import_s, outcomes)
        facts.update(spans=spans_seen, missing_functions=tracer.missing,
                     bindings=tracer.bindings, isolation=verdict)
        for name, span_share in share.items():
            print(f"share {name}: {span_share:.4f}")
        print(f"spans: {json.dumps(spans_seen)}")
        if tracer.missing:
            print(f"functions gone from the program: {', '.join(tracer.missing)}")
        print("isolation: " + verdict)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        samples = [own_setup] + setup_probes(args)
        pct = workloads.TAIL_PERCENTILE[args.workload]
        metrics = end_to_end_metrics(outcomes, wall, samples, failures, peak_rss_mb, pct)
        beyond = tail([o.seconds for o in outcomes], pct)[1]
        facts.update(setup_samples_s=samples, tail_percentile=pct, tail_beyond=beyond,
                     error_rate=len(failures) / len(outcomes))
        print(f"latency_tail_s is p{pct} of {len(outcomes)} samples, {beyond} beyond it"
              + ("" if len(outcomes) > TAIL_BEYOND else " (too few samples: the maximum)"))
        print(f"error_rate: {len(failures) / len(outcomes)} ({len(failures)}/{len(outcomes)})")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']!r} {metric['unit']}")

    result = {"correct": not failures, "attempted": len(outcomes), "failed": len(failures),
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "facts": facts, **result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
