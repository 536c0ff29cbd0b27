"""steklovsvd benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # every workload in turn

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds
the per-layer metrics of a traced pass.  Lines before it are a readable
summary.  A run record (versions, git sha, per-operation times, spans) is
written under ``.perfbench/records/``.  Workloads, metrics and the layer
predictions are described in ``perfbench/predictions.json``.
"""

import os
import sys
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("basis_write", "fine_spectra", "basis_queries", "verify_polygon")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up in a fresh process, then time the set-up or measure
    # the memory of a few operations, print the result and exit.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--memory-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--params", default="{}", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]  # fmt: skip
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "steklovsvd" / "__init__.py").is_file():
        print(f"error: no steklovsvd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One client, one operation in flight: BLAS is pinned to one thread (at
    # or below nproc) before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.setup_probe or args.memory_probe:
        params = json.loads(args.params)
        workload, workdir, setup_s, _ = harness.setup(args.workload, args.seed, T0, params)
        try:
            if args.memory_probe:
                out = {"ops": harness.memory_pass(workload)}
            else:
                out = {"setup_s": setup_s}
        finally:
            harness.shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(out))
        return 0
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), T0)
    record = harness.write_record(result)
    print("\n".join(harness.summary_lines(result)))
    print(f"  record file: {record.relative_to(ROOT)}")
    print(harness.final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
