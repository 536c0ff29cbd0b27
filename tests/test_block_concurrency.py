"""Blocked LU solves under concurrent callers and in a forked child."""

import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from steklovsvd import dbs_eigensolve, disk_mesh, fem
from steklovsvd.fem import operators

TIMEOUT_S = 120
CALLERS = 4  # more user threads than the CPUs of a small host


# "auto" is dense here: the Gram form is built under the instance lock, the
# LU inside it.  Lanczos factorizes on the first matvec of each thread.
@pytest.mark.parametrize("method", ["auto", "lanczos"])
def test_threads_share_one_fresh_mesh(monkeypatch, method):
    serial = dbs_eigensolve(disk_mesh(1.0, 0.05), 30, method=method)

    factorizations = []
    splu = fem.splu

    def slow_splu(*args, **kwargs):
        factorizations.append(threading.current_thread().name)
        time.sleep(0.2)  # every caller reaches the factorization while it runs
        return splu(*args, **kwargs)

    monkeypatch.setattr(fem, "splu", slow_splu)
    mesh = disk_mesh(1.0, 0.05)
    start = threading.Barrier(CALLERS)
    results, errors = [None] * CALLERS, []

    def solve(i):
        try:
            start.wait()
            results[i] = dbs_eigensolve(mesh, 30, method=method)
        except Exception as exc:  # re-raised on the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=solve, args=(i,), daemon=True) for i in range(CALLERS)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the callers' Python steps finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT_S)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads), "concurrent solves did not finish"
    if errors:
        raise errors[0]
    assert len(factorizations) == 1
    for basis in results:
        for name in ("q", "b_matrix", "h_matrix", "w_matrix"):
            assert np.array_equal(getattr(basis, name), getattr(serial, name)), name


def _solve_in_child(mesh, g, expected, conn):
    conn.send(bool(np.array_equal(operators(mesh).extend_boundary_columns(g), expected)))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform has no fork")
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
def test_forked_child_solves_while_a_thread_holds_the_cache_lock():
    mesh = disk_mesh(1.0, 0.1)
    ops = operators(mesh)
    g = np.random.default_rng(3).standard_normal((mesh.boundary_nodes.size, 100))
    expected = ops.extend_boundary_columns(g)
    # A user thread holds the operator cache's lock across the fork: the
    # child has no such thread, so its copy of the lock is never released.
    held, release = threading.Event(), threading.Event()

    def hold():
        with fem._operator_lock:
            held.set()
            release.wait(TIMEOUT_S)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert held.wait(TIMEOUT_S)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_solve_in_child, args=(mesh, g, expected, send))
    try:
        child.start()
    finally:
        release.set()
        holder.join()
    try:
        finished = receive.poll(TIMEOUT_S / 4)
        assert finished, "the forked child's blocked solve did not finish"
        assert receive.recv()
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
