"""Closed-loop runner: set-up, timed operations, metrics and the run record."""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
MB = 1e6


# Memory pass: a separate process sets up the workload and runs
# MEMORY_OPS untimed operations while a thread samples the resident set;
# peak_rss_mb is the largest peak.  The first operations after the warm-up
# repeat their peak to within 1-2% across runs; later ones vary by up to 15%
# with how earlier operations left Python's small-object heap.
# glibc's mmap threshold is fixed at 128 KiB there, so every freed large
# array leaves the resident set; under glibc's default the threshold rises
# as the program runs, and the resident set then depends on heap history
# rather than on live data.  Timed operations and set-ups run under glibc's
# default settings, as users run them.
MEMORY_OPS = 2
MMAP_THRESHOLD = 128 * 1024
RSS_INTERVAL_S = 0.001


class RssSampler:
    """Peak resident memory of this process during one operation.

    A thread samples the resident set every ``RSS_INTERVAL_S`` between
    :meth:`begin` and :meth:`end`; :meth:`end` returns the peak above the
    resident set at :meth:`begin`.  Relative to the start of each operation,
    so memory kept by earlier operations (the per-mesh operator cache keeps
    every mesh alive) does not make the figure grow with the number of
    operations run.
    """

    def __init__(self):
        self.base = self.peak = 0
        self.active = False
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _resident(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _sample(self):
        resident = self._resident()
        with self._lock:
            self.peak = max(self.peak, resident)

    def _run(self):
        while not self._stop.wait(RSS_INTERVAL_S):
            if self.active:
                self._sample()

    def begin(self):
        self.base = self.peak = self._resident()
        self.active = True

    def end(self) -> int:
        self.active = False
        self._sample()
        return self.peak - self.base

    def close(self):
        self._stop.set()
        self._thread.join()
        os.close(self._fd)


def _median(values):
    return float(statistics.median(values))


def _untraced(layer):
    return contextlib.nullcontext()


# The benchmark host's speed drifts by tens of percent over seconds to
# minutes, and CPU time drifts with wall time, so the slowdown is in
# instruction rate, not scheduling.  Each operation's time is divided by the
# time of a fixed probe measured just before and after it and multiplied by
# REF_S, the probe's time when the benchmark machine (Intel Xeon VM, 2 vCPU,
# Python 3.11) runs at full speed.  The probe mixes the kinds of work the
# workloads do, because they slow by different amounts: interpreter loops,
# float formatting, BLAS and memory traffic.
REF_S = 0.0165


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._floats = rng.standard_normal(8_000).tolist()
        self._matrix = rng.standard_normal((160, 160))
        self._array = rng.standard_normal(2_000_000)

    def _loop(self):
        acc = 0
        for i in range(50_000):
            acc += i * i % 7

    def _format(self):
        ",".join([format(x, ".17g") for x in self._floats])

    def _blas(self):
        x = self._matrix
        for _ in range(4):
            x = x @ self._matrix * 0.01

    def _memory(self):
        (self._array * 1.5).sum()

    def seconds(self) -> float:
        """Sum over the four parts of the fastest of three timings, so a
        single descheduling does not count as a slow machine."""
        total = 0.0
        for part in (self._loop, self._format, self._blas, self._memory):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - start)
            total += best
        return total


def _rescaled(op) -> float:
    return op["seconds"] * REF_S / op["ref"]


def _checked(workload, result, error) -> workloads.Outcome:
    """The outcome of one operation; an exception in it or in its check fails it."""
    if error is not None:
        return workloads.Outcome(False, None, 0, f"raised {error!r}")
    try:
        return workload.check(result)
    except Exception as exc:
        return workloads.Outcome(False, None, 0, f"check raised {exc!r}")


def _attempt(workload, region=_untraced, before=None):
    """Run one operation on fresh output paths; return (seconds, result, error).

    Outputs of the previous operation are removed first, outside the timed
    interval, so an operation that writes nothing fails its check.
    ``before`` is called last, just before the operation starts.
    """
    for path in workload.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    gc.collect()
    if before:
        before()
    start = time.perf_counter()
    try:
        result, error = workload.op(region), None
    except Exception as exc:  # a failed operation is counted, not fatal
        result, error = None, exc
    return time.perf_counter() - start, result, error


def _op_record(workload, kind, seconds, result, error, **extra) -> dict:
    outcome = _checked(workload, result, error)
    return dict(kind=kind, seconds=seconds, ok=outcome.ok, err=outcome.oracle_err,
                bytes=outcome.bytes_out, why=outcome.why, **extra)  # fmt: skip


def memory_pass(workload) -> list[dict]:
    """``MEMORY_OPS`` operations with their peak memory.

    Before each one, glibc's ``malloc_trim`` returns the free heap pages to
    the system, so the peak above the operation's start counts the pages
    the operation itself touches, not free space left by earlier ones.
    """
    libc = ctypes.CDLL("libc.so.6")
    sampler = RssSampler()

    def begin():
        libc.malloc_trim(0)
        sampler.begin()

    ops = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(RSS_INTERVAL_S / 5)  # let the sampler in during pure-Python work
    try:
        for _ in range(MEMORY_OPS):
            seconds, result, error = _attempt(workload, before=begin)
            rss = sampler.end()
            ops.append(_op_record(workload, "memory", seconds, result, error, rss=rss))
    finally:
        sys.setswitchinterval(switch)
        sampler.close()
    return ops


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run operations back to back for ``seconds``; check each one.

    Untraced, every operation counts toward ``op_s``.  Traced, operations
    alternate between untraced and traced, so the tracing overhead is
    measured in the same process.
    """
    tracer = spans.Tracer() if trace else None
    probe = SpeedProbe()
    ref_before = probe.seconds()
    ops = []  # per operation: dict(kind, seconds, ok, err, bytes, why[, ref, rss])
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(ops) % 2 == 1
        if traced:
            tracer.begin_op()
            tracer.install()
        try:
            elapsed, result, error = _attempt(workload, tracer.region if traced else _untraced)
        finally:
            if traced:
                tracer.uninstall()
                tracer.end_op()
        ref_after = probe.seconds()
        ref, ref_before = 0.5 * (ref_before + ref_after), ref_after
        kind = "traced" if traced else "timed"
        ops.append(_op_record(workload, kind, elapsed, result, error, ref=ref))
        if time.perf_counter() >= deadline and (not trace or len(ops) >= 2):
            break
    timed = [o for o in ops if o["kind"] == "timed"]
    out = {"ops": ops, "wall_op_s": _median([o["seconds"] for o in timed])}
    if trace:
        out.update(_layer_metrics(tracer, ops))
        out["spans"] = tracer.dump()
        out["missing_targets"] = tracer.missing
    else:
        errs = [o["err"] for o in ops if o["err"] is not None]
        out["metrics"] = {
            "op_s": (_median([_rescaled(o) for o in timed]), "s"),
            "output_mb": (_median([o["bytes"] for o in timed]) / MB, "MB"),
            # 1.0 (no correct digit) when no operation produced a checkable output.
            "oracle_rel_err": (max(errs) if errs else 1.0, "ratio"),
        }
    return out


def _layer_metrics(tracer, ops) -> dict:
    traced = [o for o in ops if o["kind"] == "traced"]
    plain = [o for o in ops if o["kind"] == "timed"]
    per_op, coverage = [], []
    for op_index, o in enumerate(traced):
        totals, top = tracer.layer_totals(op_index)
        totals.update(tracer.counts[op_index])
        per_op.append(totals)
        coverage.append(top / o["seconds"])
    metrics = {}
    for name in spans.LAYERS:
        metrics[name] = (_median([t[name] for t in per_op]), "s")
    for name, unit in spans.COUNTS.items():
        metrics[name] = (_median([t[name] for t in per_op]), unit)
    traced_s = _median([_rescaled(o) for o in traced])
    metrics["trace.op_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - _median([_rescaled(o) for o in plain]), "s")
    metrics["trace.coverage"] = (_median(coverage), "frac")
    return {"metrics": metrics, "solves": tracer.solves(0) if traced else []}


# -- set-up ---------------------------------------------------------------------------


def setup(name: str, seed: int, t0: float, params: dict | None = None):
    """Inputs from the seed, then one untimed warm-up operation.

    Returns the workload, its work directory, the set-up seconds since
    ``t0`` (taken before ``steklovsvd`` was imported) rescaled to the
    reference speed like ``op_s``, and the warm-up result.
    """
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, **(params or {}))
        warm = workload.op(_untraced)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    seconds = time.perf_counter() - t0
    return workload, workdir, seconds * REF_S / SpeedProbe().seconds(), warm


def probe(flag: str, name: str, seed: int, params=None, env=None) -> dict:
    """The result line of a fresh process that sets up the workload and then
    does what ``flag`` (``--setup-probe`` or ``--memory-probe``) asks."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         flag, "--params", json.dumps(params or {})],
        capture_output=True, text=True, timeout=170, cwd=ROOT, env=env,
    )  # fmt: skip
    if proc.returncode != 0:
        raise RuntimeError(f"{flag} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- run record ----------------------------------------------------------------------


def run_record(seed: int) -> dict:
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "seed": seed,
        "src_lines": src_lines,
    }


def run(name: str, seed: int, seconds: float, trace: bool, t0: float, params=None) -> dict:
    workload, workdir, setup_s, warm = setup(name, seed, t0, params)
    try:
        warm_outcome = _checked(workload, warm, None)
        setups = [setup_s]
        if not trace:
            setups += [
                probe("--setup-probe", name, seed, params)["setup_s"]
                for _ in range(SETUP_REPEATS - 1)
            ]
        result = measure(workload, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(MMAP_THRESHOLD))
        memory = probe("--memory-probe", name, seed, params, env)["ops"]
        result["ops"] += memory
        result["metrics"]["peak_rss_mb"] = (max(o["rss"] for o in memory) / MB, "MB")
        result["metrics"]["setup_s"] = (_median(setups), "s")
    ops = result["ops"]
    result.update(attempted=len(ops), failed=sum(not o["ok"] for o in ops))
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=trace, inputs=workload.inputs(),
        setup_times=setups, warmup_ok=warm_outcome.ok, record=run_record(seed),
    )  # fmt: skip
    return result


def summary_lines(result: dict) -> list[str]:
    ops = result["ops"]
    lines = [
        f"perfbench {result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
        f"{result['attempted']} ops, {result['failed']} failed "
        f"(failed_frac {result['failed'] / result['attempted']:.4g} frac)"
    ]
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"  {name:26s} {value:.6g} {unit}")
    lines.append(
        f"  {sum(o['kind'] == 'timed' for o in ops)} timed untraced operations, "
        f"median wall time {result['wall_op_s']:.6g} s"
    )
    for o in ops:
        if not o["ok"]:
            lines.append(f"  failed: {o['why']}")
    if result.get("missing_targets"):
        lines.append(f"  not traced (missing in src): {', '.join(result['missing_targets'])}")
    for solve in result.get("solves", []):
        lines.append(f"  solve: {json.dumps(solve, sort_keys=True)}")
    lines.append(f"  record: {json.dumps(result['record'], sort_keys=True)}")
    return lines


def write_record(result: dict) -> Path:
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(result, indent=1, default=float) + "\n")
    return path


def final_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0 and result["warmup_ok"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in result["metrics"].items()
            },
        }
    )
