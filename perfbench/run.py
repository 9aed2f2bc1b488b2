"""negcurve benchmark: groupoid sweep, (k, j, m) ladder and CLI latency.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|ladder|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # every workload, full report
    python3 perfbench/run.py --self-test

One process drives one workload as a single closed-loop caller.  It
imports negcurve from ``src/`` of the checkout, builds the inputs from
the seed during set-up, measures whole passes over them for about
``--seconds``, checks every result, prints a report and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run is repeated under the tracer and the metrics
are per layer.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("sweep", "ladder", "cli")
SETUP_REPS = 5
CLI_START_REPS = 10

# The gated metrics, the same on every workload.  Latency percentiles over
# the ladder's mix of calls (0.1 ms to 2 s) move with the seed's sparse
# draws, so they are printed in the report but not gated.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from tracer import COUNTERS, SPANS

    units = {}
    for key in list(COUNTERS) + list(SPANS):
        units[key + ".calls"] = "count"
        units[key + ".self_ms"] = "ms"
    units.update({
        "ring.mul.term_pairs": "count", "ring.mul.keep_ratio": "ratio",
        "ring.coeff_bits_max": "bits",
        "linalg.echelon.rows_in": "count", "linalg.echelon.pivot_ratio": "ratio",
        "linalg.nullspace.cols_max": "count",
        "groupoid.act_per_sample": "calls/op", "groupoid.product_per_sample": "calls/op",
        "homspaces.nullspace_per_bruteforce": "calls/op",
        "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
        "trace.overhead_ratio": "ratio",
    })
    return units


# -- measuring -----------------------------------------------------------------


@dataclass
class Measurement:
    latencies: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    pass_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)

    def all_latencies(self) -> list[float]:
        return [x for xs in self.latencies.values() for x in xs]


def _signature(outcome):
    if isinstance(outcome, BaseException):
        return ("raised", type(outcome).__name__, str(outcome))
    return outcome


def _verdict(op, outcome, verdicts: dict) -> str | None:
    """Check an outcome; a repeat of an already-checked result reuses its verdict."""
    sig = _signature(outcome)
    if op.key is not None and op.key in verdicts and verdicts[op.key][0] == sig:
        return verdicts[op.key][1]
    try:
        reason = op.check(outcome)
    except Exception as exc:  # a check that cannot run counts the op as failed
        reason = f"check raised {type(exc).__name__}: {exc}"
    if op.key is not None:
        verdicts[op.key] = (sig, reason)
    return reason


def measure(workload, seconds: float, tracer=None, min_passes: int | None = None) -> Measurement:
    """Whole passes while another fits in ``seconds``; results are checked after each pass."""
    min_passes = workload.min_passes if min_passes is None else min_passes
    res = Measurement()
    verdicts: dict = {}
    clock = time.perf_counter
    start = clock()
    n = 0
    while True:
        ops = workload.ops(n)
        outcomes = []
        t_pass = clock()
        for op in ops:
            if tracer is not None:
                tracer.op_id = tracer.ops
                tracer.ops += 1
                tracer.on = True
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # a raised error is the op's outcome, checked below
                out = exc
            dt = clock() - t0
            if tracer is not None:
                tracer.on = False
            res.latencies[op.label].append(dt)
            outcomes.append(out)
        res.pass_s.append(clock() - t_pass)
        for op, out in zip(ops, outcomes):
            res.attempted += 1
            reason = _verdict(op, out, verdicts)
            if reason is not None:
                res.failed += 1
                res.failures[f"{op.key or op.label}: {reason}"] += 1
        n += 1
        elapsed = clock() - start
        if n >= min_passes and elapsed + elapsed / n > seconds:
            return res


def _time_python(code: str, reps: int) -> list[float]:
    """Wall time of fresh interpreters running ``code``, spawn to exit."""
    from clicases import child_env

    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(ROOT), check=True,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def timed_setup(workload, seed: int, reps: int) -> list[float]:
    """Set-up time: importing negcurve in a fresh interpreter, then inputs and warm-up."""
    times = []
    for _ in range(reps):
        t_import = _time_python("import negcurve, negcurve.cli", 1)[0]
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(t_import + time.perf_counter() - t0)
    return times


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[8] if len(xs) >= 2 else xs[0]


def peak_rss_mib(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# -- workloads -----------------------------------------------------------------


def make_workload(name: str, in_process: bool = False, quick: bool = False):
    import clicases
    import workloads

    if name == "sweep":
        return workloads.Sweep()
    if name == "ladder":
        return workloads.Ladder(workloads.LADDER_RUNGS[:2] if quick else None)
    return clicases.Cli(ROOT, in_process=in_process)


def sentinel_flags(workload) -> bool:
    """The workload's check must flag a deliberately corrupted result."""
    op, bad = workload.corrupted()
    return _verdict(op, bad, {}) is not None


# -- run record ----------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "negcurve").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_record(args, samples: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": platform.machine(), "system": platform.platform(), "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": git_commit(), "src_sha256": source_digest(), "samples": samples,
    }


# -- modes ---------------------------------------------------------------------


def run_untraced(args) -> tuple[dict, dict]:
    wl = make_workload(args.workload)
    setup_times = timed_setup(wl, args.seed, SETUP_REPS)
    res = measure(wl, args.seconds)
    correct = sentinel_flags(wl)
    lat = res.all_latencies()
    metrics = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "pass_s": (statistics.median(res.pass_s), len(res.pass_s)),
        "peak_rss_mib": (peak_rss_mib(with_children=args.workload == "cli"), 1),
    }
    # The per-workload view of the same run, printed but not gated.
    extra = {
        "failed_share": (res.failed / res.attempted, res.attempted, "ratio"),
        "latency_ms_p50": (statistics.median(lat) * 1000.0, len(lat), "ms"),
        "latency_ms_p90": (p90(lat) * 1000.0, len(lat), "ms"),
    }
    if args.workload == "sweep":
        extra["sweep_samples_per_s"] = (len(lat) / sum(lat), len(lat), "samples/s")
    elif args.workload == "ladder":
        for label in ("act", "product", "inverse", "isom", "dims", "bruteforce"):
            xs = res.latencies[label]
            extra[f"{label}_ms_p50"] = (statistics.median(xs) * 1000.0, len(xs), "ms")
        extra["ladder_pass_s"] = (metrics["pass_s"][0], len(res.pass_s), "s")
    else:
        extra["cli_ms_p50"] = extra["latency_ms_p50"]
        extra["cli_ms_p90"] = extra["latency_ms_p90"]

    print(f"# untraced run: workload={args.workload} seed={args.seed} unit={wl.unit} "
          f"passes={len(res.pass_s)}")
    for name, (value, n) in metrics.items():
        print(f"{name:<22} {value:>14.6f} {END_TO_END[name]:<9} n={n}")
    for name, (value, n, unit) in extra.items():
        print(f"{name:<22} {value:>14.6f} {unit:<9} n={n}")
    _print_failures(res)
    record = run_record(args, {name: n for name, (_, n) in metrics.items()}
                        | {name: n for name, (_, n, _) in extra.items()})
    result = {"correct": correct, "attempted": res.attempted, "failed": res.failed,
              "metrics": {name: {"value": value, "unit": END_TO_END[name]}
                          for name, (value, _) in metrics.items()}}
    return record, result


def run_traced(args) -> tuple[dict, dict]:
    from tracer import Tracer

    wl = make_workload(args.workload, in_process=args.workload == "cli")
    wl.setup(args.seed)
    values = {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.main_ms": 0.0}
    if args.workload == "cli":
        bare = statistics.median(_time_python("pass", CLI_START_REPS))
        imported = statistics.median(_time_python("import negcurve.cli", CLI_START_REPS))
        values["cli.interpreter_ms"] = bare * 1000.0
        values["cli.import_ms"] = (imported - bare) * 1000.0

    # Untraced then traced passes over the same inputs; their ratio is the
    # tracing overhead, which is why end-to-end numbers come from untraced runs.
    plain = measure(wl, args.seconds / 3, min_passes=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(wl, args.seconds * 2 / 3, tracer=tracer, min_passes=1)
    finally:
        tracer.uninstall()
    correct = sentinel_flags(wl)
    if args.workload == "cli":
        values["cli.main_ms"] = statistics.median(plain.all_latencies()) * 1000.0
    overhead = statistics.median(traced.pass_s) / statistics.median(plain.pass_s)
    values["trace.overhead_ratio"] = overhead
    values.update(tracer.metrics())
    units = per_layer_units()
    assert set(values) == set(units), set(values) ^ set(units)

    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    print(f"# traced run: workload={args.workload} seed={args.seed} traced ops={tracer.ops} "
          f"spans={len(tracer.spans)} (dropped {tracer.dropped_spans}) -> "
          f"{spans_path.relative_to(ROOT)}")
    print(f"# tracing overhead: traced pass {statistics.median(traced.pass_s):.4f} s vs untraced "
          f"{statistics.median(plain.pass_s):.4f} s (x{overhead:.2f})")
    for name in units:
        print(f"{name:<40} {values[name]:>16.6f} {units[name]}")
    _print_failures(traced)
    record = run_record(args, {"traced_ops": tracer.ops, "untraced_passes": len(plain.pass_s),
                               "traced_passes": len(traced.pass_s)})
    result = {"correct": correct, "attempted": traced.attempted, "failed": traced.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}
    return record, result


def _print_failures(res: Measurement) -> None:
    print(f"# failed {res.failed} of {res.attempted} attempted")
    for reason, count in sorted(res.failures.items()):
        print(f"#   x{count} {reason}")


def run_all(args) -> int:
    """Every workload in its own process, then the end-to-end table."""
    table = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        table[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(table, sort_keys=True))
    return 0


def self_test() -> int:
    """Short runs of every workload, and corrupted results that must count as failed."""
    import clicases
    import workloads
    from negcurve import extensions, groupoid, homspaces, ring

    results = []

    def report(name, ok, detail=""):
        results.append(ok)
        print(f"SELF-TEST {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report("BENCHMARK.json end_to_end names",
           [m["name"] for m in bench["end_to_end"]] == list(END_TO_END))
    report("BENCHMARK.json per_layer names",
           {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer_units())

    for name in WORKLOADS:
        wl = make_workload(name, quick=True)
        wl.setup(7)
        res = measure(wl, 0.5, min_passes=1)
        report(f"{name}: short untraced run", res.attempted >= 1 and len(res.pass_s) >= 1,
               f"{res.attempted} attempted, {res.failed} failed")
        op, bad = wl.corrupted()
        report(f"{name}: corrupted result counted as failed",
               _verdict(op, bad, {}) is not None)

    from tracer import Tracer
    for name in WORKLOADS:
        wl = make_workload(name, in_process=True, quick=True)
        wl.setup(7)
        tracer = Tracer()
        tracer.install()
        try:
            measure(wl, 0.5, tracer=tracer, min_passes=1)
        finally:
            tracer.uninstall()
        m = tracer.metrics()
        if name == "sweep":
            report("sweep: no linalg calls", m["linalg.echelon.calls"] == 0
                   and m["linalg.nullspace.calls"] == 0)
            report("sweep: 28 act and 10 product calls per sample",
                   m["groupoid.act_per_sample"] == 28 and m["groupoid.product_per_sample"] == 10,
                   f"{m['groupoid.act_per_sample']}, {m['groupoid.product_per_sample']}")
        elif name == "ladder":
            report("ladder: 2 nullspaces per brute force", m["homspaces.nullspace_per_bruteforce"] == 2)
        else:
            report("cli: in-process main traced", m["cli.main.calls"] >= 1)
        report(f"{name}: tracer restores every binding",
               groupoid.act.__module__ == "negcurve.groupoid"
               and homspaces.act is groupoid.act and ring.RingElem.__mul__.__module__ == "negcurve.ring")

    # More corruptions of ladder results, one per check.
    lad = workloads.Ladder(workloads.LADDER_RUNGS[:2])
    lad.setup(7)
    cell = next(c for c in lad.cells if c.density == "dense")
    one = ring.RingElem.monomial(cell.params.ring, cell.params.j - 1, 1)
    q_bad = extensions.ExtClass(cell.params, cell.q_iso.p + one)
    report("act: perturbed result flagged", workloads.check_act(cell.g, cell.p, q_bad) is not None)
    report("product: wrong element flagged",
           workloads.check_product(cell.g, cell.h, cell.p, cell.g) is not None)
    profile = homspaces.hom_ext_dims(cell.p, cell.q_iso)
    bad_profile = homspaces.HomProfile(profile.dim_hom, profile.dim_ext1 + 1, profile.dim_ker_d1,
                                       profile.dim_ker_d2, profile.dim_hom_L2L1)
    report("dims: perturbed Ext dimension flagged",
           workloads.check_dims(cell.params, bad_profile) is not None)
    sparse = lad.cells[0]
    dim, pairs = homspaces.brute_force_hom(sparse.p, sparse.p)
    report("bruteforce: dimension off by one flagged",
           workloads.check_bruteforce(sparse.p, sparse.p, (dim + 1, pairs + pairs[:1])) is not None)
    report("isom: missing witness for an isomorphic pair flagged",
           workloads.check_isom(cell.p, cell.q_iso, None, isomorphic=True) is not None)
    case = clicases.Case("x", ["basis"], None, 0, '{"dim":3}\n')
    report("cli: traceback flagged",
           clicases.check_cli(case, (0, '{"dim":3}\n', "Traceback (most recent call last):\n")) is not None)
    ok = all(results)
    print(f"SELF-TEST {'PASS' if ok else 'FAIL'}: {sum(results)} of {len(results)} checks passed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "negcurve" / "__init__.py").is_file():
        print(f"perfbench: no negcurve package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import negcurve

    if Path(negcurve.__file__).resolve().parent != (SRC / "negcurve").resolve():
        print(f"perfbench: imported negcurve from {negcurve.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    record, result = run_traced(args) if args.trace else run_untraced(args)
    for metric in result["metrics"].values():
        if not math.isfinite(metric["value"]):
            print(f"perfbench: non-finite metric in {result}", file=sys.stderr)
            return 2
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
