"""Checks that need a fresh process, each run in a child process.

The size-refusal children run the command-line interface with one BLAS
thread.  The size refusal runs under a 1 GiB address-space limit set in
the child alone, so a builder that allocated before it refused would end in
a ``MemoryError`` traceback, not in one ``error:`` line.  The
state-sensitive tests run alone in a child pytest, so module state that
earlier tests leave (the Bessel-zero memo, a record logged only on a first
call) cannot hide an order dependence.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import steklovsvd

SRC = str(Path(steklovsvd.__file__).resolve().parent.parent)
TESTS = Path(__file__).resolve().parent
# One triangle whose area, about 5e399, overflows.
OVERFLOW_MESH = (
    "nodes 3\n0 0 1\n1e200 0 1\n0 1e200 1\ntriangles 1\n0 1 2\nboundary_loops 1\nloop 3\n0 1 2\n"
)


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


@pytest.mark.parametrize(
    "node",
    [
        "test_spectra.py::TestMethodChoice::test_choice_is_logged_at_debug",
        "test_analytic_disk.py::TestBessel::test_zeros_do_not_depend_on_call_history",
    ],
)
def test_state_sensitive_test_passes_alone_in_a_fresh_process(node):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(TESTS / node)],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=TESTS.parent, capture_output=True, text=True,
        timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "1 passed" in proc.stdout, proc.stdout[-2000:]
