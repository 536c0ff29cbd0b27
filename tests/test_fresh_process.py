"""Checks that need a fresh process, each run in a child process.

The size-refusal children run the command-line interface with one BLAS
thread.  The size refusal runs under a 1 GiB address-space limit set in
the child alone, so a builder that allocated before it refused would end in
a ``MemoryError`` traceback, not in one ``error:`` line.  The same-bytes
children run the CLI's commands under two hash seeds, and the test's own
process runs them too, after whatever ran before it.  The
state-sensitive tests run alone in a child pytest, so module state that
earlier tests leave (the Bessel-zero memo, a record logged only on a first
call) cannot hide an order dependence.  The threaded tests run in a child
pytest pinned to one CPU, so user threads interleave only by GIL switching.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import steklovsvd
from steklovsvd.cli import main

SRC = str(Path(steklovsvd.__file__).resolve().parent.parent)
TESTS = Path(__file__).resolve().parent
# One triangle whose area, about 5e399, overflows.
OVERFLOW_MESH = (
    "nodes 3\n0 0 1\n1e200 0 1\n0 1e200 1\ntriangles 1\n0 1 2\nboundary_loops 1\nloop 3\n0 1 2\n"
)
# The 1.5:1 rectangle of area 1.
RECTANGLE = (
    "0 0\n1.2247448713915889 0\n1.2247448713915889 0.81649658092772603\n0 0.81649658092772603\n"
)
# Runs CLI commands in order in one process, refusing a non-zero exit.
RUN_COMMANDS = """
import json, sys
from steklovsvd.cli import main
for args in json.loads(sys.argv[1]):
    if main(args) != 0:
        sys.exit(f"exit status not 0: {args}")
"""


def same_bytes_commands(rect, out) -> list[list[list[str]]]:
    """The CLI commands on the disk and on the rectangle ``rect``, writing into ``out``.

    Their 13 outputs cover every streamed writer, and no output of one
    group is read by the other.  The rectangle at h 0.02 takes Lanczos for
    18 DBS modes by a fraction of an LU solve, chosen from the factor's
    entries.  Both ``steklov`` runs (the disk at h 0.1, nb 63; the
    rectangle, nb 206) take the dense DtN path by cost on a fresh mesh, so
    they cover the Schur form built alone.
    """
    basis = ["--basis", out / "dbs.json"]
    disk = [
        ["dbs", "--h", "0.1", "--modes", 12, "--out", out / "dbs.json",
         "--mesh-out", out / "mesh.txt"],
        ["kernel", *basis, "--x", "0.3,0.1", "--which", "poisson", "--out", out / "poisson.csv"],
        ["kernel", *basis, "--x", "0.3,0.1", "--which", "bergman", "--out", out / "bergman.csv"],
        ["extend", *basis, "--g-const", 1.5, "--modes", 5, "--out", out / "extend.json"],
        ["project", *basis, "--f-const", 2, "--out", out / "project.json"],
        ["steklov", "--h", "0.1", "--modes", 10, "--out", out / "steklov.json"],
        ["laplace-eigs", "--h", "0.1", "--modes", 6, "--out", out / "laplace.json"],
        ["verify", "--suite", "all", "--domain", "disk", "--h", "0.2", "--modes", 8,
         "--out", out / "verify.json"],
    ]  # fmt: skip
    poly = ["--domain", "polygon", "--vertices-file", rect, "--h", "0.02"]
    rectangle = [
        ["dbs", *poly, "--modes", 18, "--out", out / "rect.json"],
        ["steklov", *poly, "--modes", 10, "--out", out / "rect-steklov.json"],
        ["laplace-eigs", *poly, "--modes", 6, "--out", out / "rect-laplace.json"],
        ["verify", "--suite", "all", *poly, "--modes", 40, "--out", out / "rect-verify.json"],
    ]
    return [[[str(a) for a in args] for args in group] for group in (disk, rectangle)]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def cli(args, cwd, preexec_fn=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "steklovsvd.cli", *map(str, args)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn,
    )  # fmt: skip


def assert_one_error_line(proc):
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_a_spacing_too_fine_to_build_is_refused_within_one_gib(tmp_path):
    proc = cli(["mesh", "--h", "1e-30", "--out", tmp_path / "x"], tmp_path, _limit_address_space)
    assert_one_error_line(proc)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("radius, h", [("1e100", "2e99"), ("1e-6", "1e-7")])
def test_disks_far_from_unit_size_build_and_solve(tmp_path, radius, h):
    out = tmp_path / "basis.json"
    proc = cli(["dbs", "--radius", radius, "--h", h, "--modes", 3, "--out", out], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_a_mesh_file_whose_area_overflows_is_one_error_line(tmp_path):
    (tmp_path / "mesh.txt").write_text(OVERFLOW_MESH)
    out = tmp_path / "basis.json"
    proc = cli(["dbs", "--mesh", tmp_path / "mesh.txt", "--modes", 3, "--out", out], tmp_path)
    assert_one_error_line(proc)
    assert not out.exists()


def child_pytest(*nodes, preexec_fn=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(TESTS / node) for node in nodes)],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=TESTS.parent, capture_output=True, text=True,
        timeout=120, preexec_fn=preexec_fn,
    )  # fmt: skip


@pytest.mark.parametrize(
    "node",
    [
        "test_spectra.py::TestMethodChoice::test_choice_is_logged_at_debug",
        "test_analytic_disk.py::TestBessel::test_zeros_do_not_depend_on_call_history",
    ],
)
def test_state_sensitive_test_passes_alone_in_a_fresh_process(node):
    proc = child_pytest(node)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "1 passed" in proc.stdout, proc.stdout[-2000:]


def test_same_bytes_from_fresh_processes_under_two_hash_seeds_and_a_warm_one(tmp_path):
    # The LU's nested-dissection order is computed per mesh: no output may
    # depend on the hash seed or on what ran before in the process.  The
    # children keep this process's BLAS thread setting, which the bytes
    # may follow.  This process runs the rectangle's commands first, so
    # neither group runs after the same history in all three runs.
    rect = tmp_path / "rect.txt"
    rect.write_text(RECTANGLE)
    children = {}
    for seed in ("1", "2"):
        out = tmp_path / f"seed-{seed}"
        out.mkdir()
        disk, rectangle = same_bytes_commands(rect, out)
        children[out] = subprocess.Popen(
            [sys.executable, "-c", RUN_COMMANDS, json.dumps(disk + rectangle)],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC), cwd=tmp_path,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )  # fmt: skip
    warm = tmp_path / "warm"
    warm.mkdir()
    disk, rectangle = same_bytes_commands(rect, warm)
    try:
        for args in rectangle + disk:
            assert main(args) == 0, args
        errors = {out: child.communicate(timeout=120)[1] for out, child in children.items()}
    finally:
        for child in children.values():
            child.kill()  # nothing once it has exited
    outputs = sorted(path.name for path in warm.iterdir())
    assert len(outputs) == 13
    for out, child in children.items():
        assert child.returncode == 0, errors[out][-2000:]
        assert sorted(path.name for path in out.iterdir()) == outputs
        for name in outputs:
            assert (out / name).read_bytes() == (warm / name).read_bytes(), (out.name, name)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_threaded_tests_pass_on_one_cpu():
    # User threads sharing one mesh and the Bessel-zero race, with the
    # block-width test and the working-set bounds of the boundary forms
    # and of the DBS finish.
    cpu = min(os.sched_getaffinity(0))
    proc = child_pytest(
        "test_block_workers.py",
        "test_block_concurrency.py",
        "test_analytic_disk.py::TestBessel::test_concurrent_zero_scans_return_the_serial_values",
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
