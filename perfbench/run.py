"""Benchmark of the char2subword package on seeded synthetic workloads.

    python3 perfbench/run.py --workload toy --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ./src. Inputs are
generated from --seed into a scratch directory under ./.bench_work and deleted
afterwards. With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it runs one round of the session untraced and one with timing
spans around the package's public functions, checks that both give
bit-identical outputs, and reports the per-layer metrics. Every metric is
printed as "name value unit"; the last line is one JSON object. The exit code
is 1 if any operation failed or any correctness check did not hold.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

# Single-threaded BLAS (at most nproc): steadier timings on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def import_package():
    """Import char2subword from this checkout's ./src, never from elsewhere."""
    if not (SRC / "char2subword" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'char2subword'}; "
                 "run from the root of a char2subword checkout")
    sys.path.insert(0, str(SRC))
    import char2subword
    if Path(char2subword.__file__).resolve().parent != SRC / "char2subword":
        sys.exit(f"error: imported char2subword from {char2subword.__file__}, not {SRC}")


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "numpy": np.__version__, "python": platform.python_version()}


def emit(name, value, unit):
    print(f"{name} {value!r} {unit}")
    return name, {"value": value, "unit": unit}


def run_all(workloads, args):
    """Each workload in its own process (so peak memory is its own), one
    after another; the last line merges their results, metric names prefixed
    by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        p = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           capture_output=True, text=True)
        sys.stdout.write(p.stdout)
        sys.stderr.write(p.stderr)
        try:
            result = json.loads(p.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            sys.exit(f"error: workload {w} printed no result (exit {p.returncode})")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update((f"{w}.{k}", v) for k, v in result["metrics"].items())
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import gen
    import session
    import tracing

    if args.workload == "all":
        return run_all(session.SPECS, args)
    if args.workload not in session.SPECS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from all, {', '.join(session.SPECS)}")
    spec = session.SPECS[args.workload]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        paths = gen.generate(spec, args.seed, work)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "inputs": {k: gen.sha256_file(p) for k, p in sorted(paths.items())},
                          "env": environment()}, sort_keys=True))
        with open(paths["queries.txt"], encoding="utf-8") as fh:
            queries = fh.read().split()
        before = tracing.snapshot()

        def run_session(seconds, min_rounds):
            s = session.Session(spec, paths, args.seed, queries)
            s.run(seconds, min_rounds)
            return s, s.clock.elapsed()

        if args.trace == 0:
            s, _ = run_session(args.seconds, spec["min_rounds"])
            ledger = s.ledger
            ledger.check(not tracing.changed_bindings(before, tracing.snapshot()),
                         "untraced run leaves every package binding untouched")
            s.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = session.END_TO_END_UNITS
            metrics = dict(emit(k, s.values[k], u) for k, u in units.items() if k in s.values)
            ledger.check(set(metrics) == set(units), f"every metric measured: {sorted(metrics)}")
        else:
            plain, plain_s = run_session(0, 1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, traced_s = run_session(0, 1)
            finally:
                tracer.restore()
            ledger = plain.ledger
            ledger.attempted += traced.ledger.attempted
            ledger.failed += traced.ledger.failed
            ledger.check(not tracing.changed_bindings(before, tracing.snapshot()),
                         "tracer restores every package binding")
            ledger.check(plain.outputs is not None and traced.outputs == plain.outputs,
                         "traced outputs bit-identical to untraced outputs")
            layer = tracing.summarize(tracer)
            # both times rescaled, so host drift between the two rounds cancels
            layer["trace_overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")
            metrics = dict(emit(k, v, u) for k, (v, u) in layer.items())
            s = plain
        for k, v in sorted(s.info.items()):
            print(f"{k} {v!r} info")
        emit("error_rate", ledger.failed / max(ledger.attempted, 1), "fraction")
        correct = ledger.failed == 0
        print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                          "failed": ledger.failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
