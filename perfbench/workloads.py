"""The benchmark workloads: seeded inputs, one operation, output checks.

Each workload is one closed-loop client: the runner calls :meth:`op`,
waits for it, checks its outputs with :meth:`check`, and only then starts
the next operation.  Every operation builds its own ``Mesh``,
``SpectralBasis`` and ``TruncatedKernel`` (or runs the CLI, which does),
so no per-mesh operator, LU or kernel cache survives from one timed
operation to the next.

Library names are looked up on their modules at call time (``S.disk_mesh``,
``cli.main``, ...) so that the tracer in :mod:`spans` sees the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

import steklovsvd as S
from steklovsvd import _serialize, analytic_disk, cli, spectra

# Oracle gates scale like P1 discretization error, h**2; each constant is
# about three times the largest ratio measured at benchmark and test sizes.
# Eigenvalues: relative error of mode j <= EIG_C * (omega_j * h)**2, with
# omega_j the mode's wavenumber (measured ratios up to 0.13).
EIG_C = 0.4
# Poisson-kernel values at |x| = 0.4 r, relative to max_z P(x, z):
# error <= KERNEL_C * (h / r)**2 (measured up to 8.5).
KERNEL_C = 25.0
# Harmonic cubics on the polygon mesh, relative to max |u|:
# error <= CUBIC_C * h**2 (measured up to 1.1).
CUBIC_C = 3.0


@dataclass
class Outcome:
    ok: bool
    oracle_err: float | None
    bytes_out: int
    why: str = ""


def _fmt(x: float) -> str:
    return repr(float(x))


def _cli(argv) -> tuple[int, str]:
    """Run one CLI command in-process; return its exit code and its output."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sizes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# -- closed-form disk spectra ------------------------------------------------------


def dbs_exact(n: int, radius: float):
    """First ``n`` DBS eigenvalues of the disk and their wavenumbers."""
    q, omega = [], []
    k = 0
    while len(q) < n:
        for parity in ("cos",) if k == 0 else ("cos", "sin"):
            q.append(analytic_disk.disk_dbs_exact(k, parity, radius).q)
            omega.append((k + 1) / radius)
        k += 1
    return np.array(q[:n]), np.array(omega[:n])


def dtn_exact(n: int, radius: float):
    """First ``n`` Dirichlet-to-Neumann eigenvalues of the disk and wavenumbers."""
    d, omega = [], []
    k = 0
    while len(d) < n:
        for parity in ("cos",) if k == 0 else ("cos", "sin"):
            d.append(analytic_disk.disk_steklov_exact(k, parity, radius).delta)
            omega.append(max(k, 1) / radius)
        k += 1
    return np.array(d[:n]), np.array(omega[:n])


def dirichlet_exact(n: int, radius: float):
    """First ``n`` Dirichlet Laplacian eigenvalues of the disk and wavenumbers."""
    lams = []
    k_max = int(2 * math.sqrt(n)) + 4
    for k in range(k_max):
        for m in range(1, k_max // 2 + 2):
            lam = analytic_disk.disk_dirichlet_exact(k, m, "cos", radius).eigenvalue
            lams.extend([lam] if k == 0 else [lam, lam])
    lam = np.sort(np.array(lams))[:n]
    return lam, np.sqrt(lam)


def eig_errors(computed, exact, omega, h: float):
    """Relative errors (zero eigenvalues: absolute) and whether all pass the gate."""
    computed = np.asarray(computed, dtype=float)
    if computed.shape != exact.shape or not np.all(np.isfinite(computed)):
        return np.array([np.inf]), False
    scale = np.where(exact > 0, exact, max(float(exact.max()), 1.0))
    err = np.abs(computed - exact) / scale
    ok = bool(np.all(err <= EIG_C * (omega * h) ** 2 + 1e-9))
    return err, ok


# -- workloads ----------------------------------------------------------------------


class Workload:
    name = ""
    outputs: list[str]  # files an operation writes; removed before each one

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.rng = np.random.default_rng([self.seed, sum(map(ord, self.name))])

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def op(self, region):
        raise NotImplementedError

    def check(self, result) -> Outcome:
        raise NotImplementedError

    def inputs(self) -> dict:
        """Seeded input description for the run record."""
        return {}


class BasisWrite(Workload):
    """``dbs`` on a disk of seeded radius; writes the basis JSON and mesh text."""

    name = "basis_write"

    def __init__(self, seed, workdir, h_frac=0.04, modes=60):
        super().__init__(seed, workdir)
        self.radius = float(self.rng.uniform(0.5, 2.0))
        self.h = h_frac * self.radius
        self.modes = modes
        self.basis_path = self.path("basis.json")
        self.mesh_path = self.path("mesh.txt")
        self.outputs = [self.basis_path, self.mesh_path]
        self.argv = [
            "dbs", "--h", _fmt(self.h), "--radius", _fmt(self.radius),
            "--modes", str(modes), "--out", self.basis_path, "--mesh-out", self.mesh_path,
        ]  # fmt: skip
        self.reference = None  # (sha256, oracle error) of the first output that passed

    def inputs(self):
        return {"radius": self.radius, "h": self.h, "modes": self.modes}

    def op(self, region):
        code, text = _cli(self.argv)
        return {"code": code, "text": text}

    def check(self, result):
        if result["code"] != 0:
            return Outcome(False, None, 0, f"exit {result['code']}: {result['text'][-300:]}")
        size = _sizes(self.basis_path, self.mesh_path)
        sha = _sha256(self.basis_path)
        if self.reference is not None:
            if sha == self.reference[0]:
                return Outcome(True, self.reference[1], size)
            return Outcome(False, None, size, "basis file differs from the run's first output")
        with open(self.basis_path) as fh:
            data = json.load(fh)
        q_exact, omega = dbs_exact(self.modes, self.radius)
        err, ok = eig_errors(data["q"], q_exact, omega, self.h)
        with open(self.mesh_path) as fh:
            head = fh.readline().split()
        n = len(data["b"][0]) if data["b"] else -1
        if head != ["nodes", str(n)] or len(data["w"]) != self.modes:
            return Outcome(False, float(err.max()), size, "basis/mesh shapes disagree")
        if not ok:
            return Outcome(False, float(err.max()), size, "q outside the disk-oracle gate")
        self.reference = (sha, float(err.max()))
        return Outcome(True, float(err.max()), size)


class FineSpectra(Workload):
    """Library refinement ladder on a seeded rigid motion of the unit disk mesh."""

    name = "fine_spectra"

    def __init__(self, seed, workdir, h=0.04, dbs_modes=60, dtn_modes=30, dirichlet_modes=20):
        super().__init__(seed, workdir)
        self.h = h
        self.rotation = float(self.rng.uniform(0.0, 2.0 * math.pi))
        self.offset = tuple(float(v) for v in self.rng.uniform(-1.0, 1.0, 2))
        self.modes = (dbs_modes, dtn_modes, dirichlet_modes)
        self.report_path = self.path("spectra.json")
        self.outputs = [self.report_path]

    def inputs(self):
        return {"h": self.h, "rotation": self.rotation, "offset": self.offset, "modes": self.modes}

    def op(self, region):
        n_dbs, n_dtn, n_dir = self.modes
        coarse_mesh = S.transform(S.disk_mesh(1.0, self.h), self.rotation, self.offset)
        # Lanczos on the coarse level: the default picks dense below 2,000
        # boundary nodes, and this keeps the matrix-free operator path timed.
        coarse = S.dbs_eigensolve(coarse_mesh, n_dbs, method="lanczos")
        fine = S.refine(coarse_mesh)
        result = {
            "q_coarse": coarse.q.tolist(),
            "q": S.dbs_eigensolve(fine, n_dbs).q.tolist(),
            "delta": [p.delta for p in S.harmonic_steklov_eigensolve(fine, n_dtn)],
            "lambda": [p.lam for p in S.dirichlet_laplacian_eigensolve(fine, n_dir)],
        }
        _serialize.atomic_write_text(self.report_path, _serialize.dumps_canonical(result))
        return result

    @cached_property
    def exact(self):
        n_dbs, n_dtn, n_dir = self.modes
        return {
            "q_coarse": (*dbs_exact(n_dbs, 1.0), self.h),
            "q": (*dbs_exact(n_dbs, 1.0), self.h / 2),
            "delta": (*dtn_exact(n_dtn, 1.0), self.h / 2),
            "lambda": (*dirichlet_exact(n_dir, 1.0), self.h / 2),
        }

    def check(self, result):
        size = _sizes(self.report_path)
        worst, failed = 0.0, []
        for key, (exact, omega, h) in self.exact.items():
            err, ok = eig_errors(result[key], exact, omega, h)
            worst = max(worst, float(err.max()))
            if not ok:
                failed.append(key)
        if failed:
            return Outcome(False, worst, size, f"outside the disk-oracle gate: {failed}")
        return Outcome(True, worst, size)


def _ring_points(theta, radius: float) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    return radius * np.column_stack([np.cos(theta), np.sin(theta)])


class BasisQueries(Workload):
    """Kernel, extension and projection queries against a saved disk basis."""

    name = "basis_queries"

    def __init__(
        self, seed, workdir, h_frac=0.04, modes=60, extend_modes=40, gram_points=400,
        kernel_pairs=20,
    ):  # fmt: skip
        super().__init__(seed, workdir)
        rng = self.rng
        self.radius = r = float(rng.uniform(0.5, 2.0))
        self.h = h_frac * r
        self.modes = modes
        self.extend_modes = extend_modes
        mesh = S.disk_mesh(r, self.h)
        self.boundary_xy = mesh.vertices[mesh.boundary_nodes]
        self.n_vertices = mesh.vertices.shape[0]
        # The Poisson-kernel points sit at fixed angles, so the oracle error
        # is a property of the discretization, not of where a seed put them.
        self.x_poisson, self.x_bergman = _ring_points([1.0, 2.0], 0.4 * r)
        angles = 2.0 * math.pi * (np.arange(kernel_pairs) + 0.5) / kernel_pairs
        nb = len(self.boundary_xy)
        self.pairs = [
            (x, self.boundary_xy[(j * nb) // kernel_pairs])
            for j, x in enumerate(_ring_points(angles, 0.4 * r))
        ]
        rho = 0.7 * r * np.sqrt(rng.uniform(0.0, 1.0, gram_points))
        self.gram_points = _ring_points(rng.uniform(0.0, 2.0 * math.pi, gram_points), 1.0)
        self.gram_points *= rho[:, None]
        self.files = {k: self.path(k) for k in ("basis.json", "g.txt", "f.txt")}
        np.savetxt(self.files["g.txt"], rng.standard_normal(len(self.boundary_xy)), fmt="%.17g")
        np.savetxt(self.files["f.txt"], rng.standard_normal(self.n_vertices), fmt="%.17g")
        names = ("poisson.csv", "bergman.csv", "ext.json", "proj.json")
        self.out = {k: self.path(k) for k in names}
        self.outputs = list(self.out.values())
        code, text = _cli([
            "dbs", "--h", _fmt(self.h), "--radius", _fmt(r), "--modes", str(modes),
            "--out", self.files["basis.json"],
        ])  # fmt: skip
        if code != 0:
            raise RuntimeError(f"writing the basis failed: {text}")

    def inputs(self):
        return {
            "radius": self.radius, "h": self.h, "modes": self.modes,
            "x_poisson": self.x_poisson.tolist(), "x_bergman": self.x_bergman.tolist(),
            "gram_points": len(self.gram_points), "kernel_pairs": len(self.pairs),
        }  # fmt: skip

    def op(self, region):
        basis_file, out = self.files["basis.json"], self.out
        x, y = self.x_poisson
        bx, by = self.x_bergman
        codes = [
            # "--x=..." because a point starting with "-" would read as a flag.
            _cli(["kernel", "--basis", basis_file, f"--x={_fmt(x)},{_fmt(y)}",
                  "--which", "poisson", "--out", out["poisson.csv"]]),
            _cli(["kernel", "--basis", basis_file, f"--x={_fmt(bx)},{_fmt(by)}",
                  "--which", "bergman", "--out", out["bergman.csv"]]),
            _cli(["extend", "--basis", basis_file, "--g-file", self.files["g.txt"],
                  "--modes", str(self.extend_modes), "--out", out["ext.json"]]),
            _cli(["project", "--basis", basis_file, "--f-file", self.files["f.txt"],
                  "--out", out["proj.json"]]),
        ]  # fmt: skip
        with region("serialize.loads_s"):
            with open(basis_file) as fh:
                data = json.load(fh)
        basis = spectra.basis_from_json_dict(data, S.disk_mesh(self.radius, self.h))
        gram = S.TruncatedKernel(basis).gram(self.gram_points)
        svd = S.PoissonSvd.from_basis(basis)
        kernel = [S.poisson_kernel_eval(svd, None, x, z) for x, z in self.pairs]
        return {"cli": codes, "gram": gram, "kernel": np.array(kernel)}

    def _kernel_error(self, x, z, values) -> float:
        r = self.radius
        exact = np.array([analytic_disk.disk_poisson_kernel_exact(x, zz, r) for zz in z])
        rx = float(np.hypot(*x))
        peak = (r * r - rx * rx) / (2.0 * math.pi * r * (r - rx) ** 2)
        return float(np.max(np.abs(np.asarray(values) - exact)) / peak)

    def check(self, result):
        out = self.out
        bad = [(i, c, t[-200:]) for i, (c, t) in enumerate(result["cli"]) if c != 0]
        if bad:
            return Outcome(False, None, 0, f"CLI failures: {bad}")
        size = _sizes(*self.outputs)
        why = []
        slice_vals = np.loadtxt(out["poisson.csv"], delimiter=",", skiprows=1, ndmin=2)[:, 1]
        errs = [self._kernel_error(self.x_poisson, self.boundary_xy, slice_vals)]
        errs += [self._kernel_error(x, [z], [v]) for (x, z), v in zip(self.pairs, result["kernel"])]
        if max(errs) > KERNEL_C * (self.h / self.radius) ** 2:
            why.append("Poisson kernel outside the disk-oracle gate")
        grid = np.loadtxt(out["bergman.csv"], delimiter=",", skiprows=1, ndmin=2)
        nearest = np.argmin(np.hypot(*(grid[:, :2] - self.x_bergman).T))
        if grid.shape[0] != self.n_vertices or not np.all(np.isfinite(grid)) or grid[nearest, 2] <= 0:
            why.append("Bergman kernel grid malformed")
        with open(out["ext.json"]) as fh:
            ext = json.load(fh)
        if ext["M"] != self.extend_modes or not ext["ratio"] <= 1.0 + 1e-6:
            why.append(f"truncation bound violated (ratio {ext['ratio']})")
        with open(out["proj.json"]) as fh:
            proj = json.load(fh)
        if not proj["norm_projection"] <= proj["norm_input"] * (1.0 + 1e-12):
            why.append("projection is not a contraction")
        gram = result["gram"]
        scale = float(np.max(np.abs(np.diag(gram))))
        if np.max(np.abs(gram - gram.T)) > 1e-12 * scale or np.linalg.eigvalsh(gram).min() < -1e-8 * scale:
            why.append("kernel Gram matrix not symmetric positive semidefinite")
        return Outcome(not why, max(errs), size, "; ".join(why))


RECT_AREA = 1.0
RECT_ASPECT = 1.5


def rectangle(rng) -> np.ndarray:
    """Axis-aligned rectangle of area ``RECT_AREA`` and side ratio
    ``RECT_ASPECT`` at a seeded offset, counterclockwise.

    Axis-aligned because ``build_polygon_mesh`` rejects most convex polygons
    with slanted edges: Delaunay turns the rounded, nearly collinear edge
    subdivision points into zero-area triangles (21 of 30 seeded 7-gons at
    h = 0.02).  Along an axis-aligned edge those points are exactly collinear.
    The shape is fixed, so mesh size, work and oracle error repeat across
    seeds; only the position moves.
    """
    w, h = math.sqrt(RECT_AREA * RECT_ASPECT), math.sqrt(RECT_AREA / RECT_ASPECT)
    corners = np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]])
    return corners + rng.uniform(-1.0, 1.0, 2)


class VerifyPolygon(Workload):
    """``verify --suite all`` on a rectangle (a strictly convex polygon) at a seeded offset."""

    name = "verify_polygon"

    def __init__(self, seed, workdir, h=0.02, modes=40):
        super().__init__(seed, workdir)
        self.polygon = rectangle(self.rng)
        self.h = h
        self.vertices_path = self.path("polygon.txt")
        self.report_path = self.path("verify.json")
        self.outputs = [self.report_path]
        np.savetxt(self.vertices_path, self.polygon, fmt="%.17g")
        self.argv = [
            "verify", "--suite", "all", "--domain", "polygon",
            "--vertices-file", self.vertices_path, "--h", _fmt(h), "--modes", str(modes),
            "--out", self.report_path,
        ]  # fmt: skip

    def inputs(self):
        return {"polygon": self.polygon.tolist(), "h": self.h}

    def op(self, region):
        code, text = _cli(self.argv)
        return {"code": code, "text": text}

    @cached_property
    def cubic_error(self) -> float:
        """No disk oracle holds on a polygon; the closed form used instead is
        that the harmonic extension of the trace of a harmonic polynomial is
        the polynomial.  Error of Re and Im (z - c)**3 on the polygon mesh.

        The ``verify`` report holds no oracle error, so this is a check of
        the library made once per run by the benchmark (``build_polygon_mesh``
        and ``harmonic_extension`` on the workload's polygon), not a figure
        from each operation's output; every operation reports it."""
        mesh = S.build_polygon_mesh(np.loadtxt(self.vertices_path), self.h)
        z = (mesh.vertices - mesh.vertices.mean(axis=0)) @ np.array([1.0, 1j])
        worst = 0.0
        for u in (z**3).real, (z**3).imag:
            ext = S.harmonic_extension(mesh, S.BoundaryField(mesh, u[mesh.boundary_nodes]))
            worst = max(worst, float(np.max(np.abs(ext.values - u)) / np.max(np.abs(u))))
        return worst

    def check(self, result):
        if result["code"] != 0:
            return Outcome(False, None, 0, f"exit {result['code']}: {result['text'][-300:]}")
        size = _sizes(self.report_path)
        with open(self.report_path) as fh:
            checks = json.load(fh)["checks"]
        failed = [c["name"] for c in checks if not c["passed"]]
        if failed or not checks:
            return Outcome(False, self.cubic_error, size, f"invariants failed: {failed}")
        ok = self.cubic_error <= CUBIC_C * self.h**2
        return Outcome(ok, self.cubic_error, size, "" if ok else "harmonic cubic outside the gate")


WORKLOADS = {w.name: w for w in (BasisWrite, FineSpectra, BasisQueries, VerifyPolygon)}
