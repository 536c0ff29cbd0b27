"""Command-line surface.

Subcommands: ``mesh``, ``dbs``, ``steklov``, ``laplace-eigs``, ``kernel``,
``extend``, ``project``, ``verify``.  All outputs are written atomically
with fixed float formatting (17 significant digits), so identical inputs
produce byte-identical files.  Exit codes: 0 success, 1 input error,
2 verification failure.

Configuration comes from flags or a single optional JSON config file
(``--config``) whose keys match the flag names; flags win.  No
environment variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import __version__
from ._serialize import atomic_write_text, dumps_canonical, fmt_float, format_floats
from .bergman import kernel_grid_csv
from .errors import OutsideDomainError
from .fem import BoundaryField, InteriorField
from .meshing import (
    Mesh,
    build_polygon_mesh,
    disk_mesh,
    mesh_hash,
    read_mesh_text,
    write_mesh_text,
)
from .poisson import (
    PoissonSvd,
    extend_harmonic_svd,
    extension_norm,
    kernel_slice_csv,
    truncation_error_report,
)
from .spectra import (
    basis_from_json_dict,
    basis_to_json_dict,
    dbs_eigensolve,
    dirichlet_laplacian_eigensolve,
    harmonic_steklov_eigensolve,
)
from .bergman import bergman_project
from .verify import SUITE_NAMES, run_suites

DEFAULT_H = 0.02
DEFAULT_MODES = 40


class InputError(Exception):
    pass


def _load_config(argv):
    if "--config" not in argv:
        return {}
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise InputError("--config requires a path")
    try:
        with open(argv[idx + 1]) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config file must contain a JSON object")
    return {str(k).replace("-", "_"): v for k, v in cfg.items()}


def _build_parser(cfg: dict) -> argparse.ArgumentParser:
    def default(key, fallback):
        return cfg.get(key, fallback)

    parser = argparse.ArgumentParser(
        prog="steklovsvd",
        description="Biharmonic Steklov spectra and the SVD of the Poisson operator.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_domain_flags(p):
        p.add_argument("--config", help="optional JSON config file (keys match flags)")
        p.add_argument(
            "--domain",
            choices=["disk", "polygon"],
            default=default("domain", "disk"),
        )
        p.add_argument("--radius", type=float, default=default("radius", 1.0))
        p.add_argument("--h", type=float, default=default("h", DEFAULT_H))
        p.add_argument(
            "--vertices-file", default=default("vertices_file", None), dest="vertices_file"
        )
        p.add_argument("--mesh", default=default("mesh", None), help="reuse a mesh text file")

    p_mesh = sub.add_parser("mesh", help="generate a mesh and write the text format")
    add_domain_flags(p_mesh)
    p_mesh.add_argument("--out", required=True)

    for name, helptext in (
        ("dbs", "biharmonic Steklov eigenpairs (basis JSON)"),
        ("steklov", "Dirichlet-to-Neumann eigenpairs (JSON)"),
        ("laplace-eigs", "Dirichlet Laplacian eigenpairs (JSON)"),
    ):
        p = sub.add_parser(name, help=helptext)
        add_domain_flags(p)
        p.add_argument("--modes", type=int, default=default("modes", DEFAULT_MODES))
        p.add_argument("--out", required=True)
        p.add_argument("--mesh-out", default=default("mesh_out", None), dest="mesh_out")

    p_kernel = sub.add_parser("kernel", help="kernel slice through a saved basis")
    p_kernel.add_argument("--config", help="optional JSON config file")
    p_kernel.add_argument("--basis", required=True)
    p_kernel.add_argument("--mesh", default=default("mesh", None))
    p_kernel.add_argument("--x", required=True, help="interior point 'x,y'")
    p_kernel.add_argument(
        "--which",
        choices=["poisson", "bergman"],
        default=default("which", "poisson"),
    )
    p_kernel.add_argument("--modes", type=int, default=default("modes", None))
    p_kernel.add_argument("--out", required=True)

    p_ext = sub.add_parser("extend", help="truncated harmonic extension + error report")
    p_ext.add_argument("--config", help="optional JSON config file")
    p_ext.add_argument("--basis", required=True)
    p_ext.add_argument("--mesh", default=default("mesh", None))
    p_ext.add_argument("--g-file", dest="g_file", default=default("g_file", None))
    p_ext.add_argument("--g-const", dest="g_const", type=float, default=default("g_const", None))
    p_ext.add_argument("--modes", type=int, default=default("modes", None))
    p_ext.add_argument("--out", required=True)

    p_proj = sub.add_parser("project", help="harmonic Bergman projection of interior data")
    p_proj.add_argument("--config", help="optional JSON config file")
    p_proj.add_argument("--basis", required=True)
    p_proj.add_argument("--mesh", default=default("mesh", None))
    p_proj.add_argument("--f-file", dest="f_file", default=default("f_file", None))
    p_proj.add_argument("--f-const", dest="f_const", type=float, default=default("f_const", None))
    p_proj.add_argument("--modes", type=int, default=default("modes", None))
    p_proj.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run invariant suites, exit 2 on failure")
    add_domain_flags(p_verify)
    p_verify.add_argument(
        "--suite",
        default=default("suite", "all"),
        help=f"comma-separated subset of {', '.join(SUITE_NAMES)} or 'all'",
    )
    p_verify.add_argument("--modes", type=int, default=default("modes", DEFAULT_MODES))
    p_verify.add_argument("--out", default=default("out", None))
    return parser


# -- domain handling ----------------------------------------------------------------


def _load_table(path, what, **kwargs) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # A file without data is an input error, not a warning and an empty table.
            warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(path, **kwargs)
    except UserWarning as exc:
        raise InputError(f"{what} file {path} contains no data") from exc
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} file: {exc}") from exc


def _read_mesh_file(path) -> Mesh:
    try:
        with open(path) as fh:
            return read_mesh_text(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read mesh file: {exc}") from exc


def _domain_mesh(args) -> tuple[Mesh, str]:
    """Build (or load) the mesh and its self-describing domain string."""
    if args.mesh:
        mesh = _read_mesh_file(args.mesh)
        return mesh, f"meshfile;hash={mesh_hash(mesh)}"
    if args.h is None or args.h <= 0:
        raise InputError("mesh spacing --h must be positive")
    if args.domain == "disk":
        mesh = disk_mesh(args.radius, args.h)
        return mesh, f"disk;radius={fmt_float(args.radius)};h={fmt_float(args.h)}"
    if not args.vertices_file:
        raise InputError("--domain polygon requires --vertices-file")
    pts = _load_table(args.vertices_file, "vertices", ndmin=2)
    if pts.shape[1] != 2:
        raise InputError("vertices file must contain two columns (x y)")
    mesh = build_polygon_mesh(pts, args.h)
    packed = ",".join(format_floats(xy, " ") for xy in pts.tolist())
    return mesh, f"polygon;h={fmt_float(args.h)};vertices={packed}"


def _rebuild_from_descriptor(descriptor) -> Mesh | None:
    """The mesh a basis file's ``domain`` entry describes; ``None`` for a mesh file."""
    if not isinstance(descriptor, str):
        raise InputError(f"basis file's 'domain' entry must be a string, got {descriptor!r}")
    fields = dict(
        part.split("=", 1) for part in descriptor.split(";")[1:] if "=" in part
    )
    kind = descriptor.split(";", 1)[0]
    try:
        if kind == "disk":
            return disk_mesh(float(fields["radius"]), float(fields["h"]))
        if kind == "polygon":
            pts = np.array(
                [[float(t) for t in pair.split()] for pair in fields["vertices"].split(",")]
            )
            return build_polygon_mesh(pts, float(fields["h"]))
    except KeyError as exc:
        raise InputError(f"basis file's 'domain' entry {descriptor!r} has no {exc} field") from exc
    except ValueError as exc:
        raise InputError(f"basis file's 'domain' entry {descriptor!r} is invalid: {exc}") from exc
    return None


def _load_basis(args):
    try:
        with open(args.basis) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read basis file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"basis file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("basis file must contain a JSON object")
    if args.mesh:
        mesh = _read_mesh_file(args.mesh)
    elif "domain" not in data:
        raise InputError("basis file has no 'domain' entry")
    else:
        mesh = _rebuild_from_descriptor(data["domain"])
        if mesh is None:
            raise InputError(
                "basis was built from a mesh file; pass the same file via --mesh"
            )
    try:
        return basis_from_json_dict(data, mesh)
    except KeyError as exc:
        raise InputError(f"basis file has no {exc} entry") from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_point(text):
    try:
        x, y = (float(t) for t in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected a point 'x,y', got {text!r}") from exc
    return np.array([x, y])


def _boundary_data(args, mesh) -> BoundaryField:
    if (args.g_file is None) == (args.g_const is None):
        raise InputError("provide exactly one of --g-file / --g-const")
    if args.g_const is not None:
        return BoundaryField.constant(mesh, args.g_const)
    vals = _load_table(args.g_file, "boundary data").ravel()
    if vals.size != mesh.boundary_nodes.size:
        raise InputError(
            f"boundary data has {vals.size} values, mesh has "
            f"{mesh.boundary_nodes.size} boundary nodes"
        )
    return BoundaryField(mesh, vals)


def _interior_data(args, mesh) -> InteriorField:
    if (args.f_file is None) == (args.f_const is None):
        raise InputError("provide exactly one of --f-file / --f-const")
    if args.f_const is not None:
        return InteriorField.constant(mesh, args.f_const)
    vals = _load_table(args.f_file, "interior data").ravel()
    if vals.size != mesh.vertices.shape[0]:
        raise InputError(
            f"interior data has {vals.size} values, mesh has "
            f"{mesh.vertices.shape[0]} vertices"
        )
    return InteriorField(mesh, vals)


# -- command handlers ----------------------------------------------------------------


def _cmd_mesh(args) -> int:
    mesh, _ = _domain_mesh(args)
    atomic_write_text(args.out, write_mesh_text(mesh))
    return 0


def _dbs_payload(mesh, descriptor, basis) -> dict:
    return basis_to_json_dict(basis, descriptor)


def _steklov_payload(mesh, descriptor, pairs) -> dict:
    return {
        "domain": descriptor,
        "boundary_length": mesh.boundary_length,
        "M": len(pairs),
        "delta": [p.delta for p in pairs],
        "s": [p.s.values.tolist() for p in pairs],
        "mesh_hash": mesh_hash(mesh),
    }


def _laplace_payload(mesh, descriptor, pairs) -> dict:
    return {
        "domain": descriptor,
        "M": len(pairs),
        "lambda": [p.lam for p in pairs],
        "e": [p.e.values.tolist() for p in pairs],
        "flux": [p.flux.values.tolist() for p in pairs],
        "mesh_hash": mesh_hash(mesh),
    }


# Eigen command -> (solver, payload builder).  The solvers are looked up
# when called, so a wrapper installed on this module sees them.
_EIGEN_COMMANDS = {
    "dbs": (lambda mesh, m: dbs_eigensolve(mesh, m), _dbs_payload),
    "steklov": (lambda mesh, m: harmonic_steklov_eigensolve(mesh, m), _steklov_payload),
    "laplace-eigs": (lambda mesh, m: dirichlet_laplacian_eigensolve(mesh, m), _laplace_payload),
}


def _cmd_eigen(args) -> int:
    mesh, descriptor = _domain_mesh(args)
    solve, payload = _EIGEN_COMMANDS[args.command]
    result = solve(mesh, args.modes)
    # No name holds the payload, so it is freed before the mesh text is built.
    atomic_write_text(args.out, dumps_canonical(payload(mesh, descriptor, result)))
    if args.mesh_out:
        atomic_write_text(args.mesh_out, write_mesh_text(mesh))
    return 0


def _cmd_kernel(args) -> int:
    basis = _load_basis(args)
    point = _parse_point(args.x)
    if args.which == "poisson":
        csv_text = kernel_slice_csv(PoissonSvd.from_basis(basis), point, args.modes)
    else:
        csv_text = kernel_grid_csv(basis, point, args.modes)
    atomic_write_text(args.out, csv_text)
    return 0


def _cmd_extend(args) -> int:
    basis = _load_basis(args)
    g = _boundary_data(args, basis.mesh)
    svd = PoissonSvd.from_basis(basis)
    m = args.modes if args.modes is not None else min(svd.rank - 1, DEFAULT_MODES)
    report = truncation_error_report(g, svd, m)
    field = extend_harmonic_svd(g, svd, m)
    payload = {
        "M": report.M,
        "error": report.error,
        "bound": report.bound,
        "ratio": report.ratio,
        "norm_convention": report.norm_convention,
        "extension_norm_dsigma": extension_norm(svd),
        "extension_norm_normalized": extension_norm(svd)
        * float(np.sqrt(svd.boundary_length)),
        "coefficients": basis.boundary_coeffs(g)[:m].tolist(),
        "values": field.values.tolist(),
    }
    atomic_write_text(args.out, dumps_canonical(payload))
    return 0


def _cmd_project(args) -> int:
    basis = _load_basis(args)
    f = _interior_data(args, basis.mesh)
    m = args.modes if args.modes is not None else basis.rank
    projection = bergman_project(f, basis, m)
    payload = {
        "M": int(m),
        "coefficients": basis.interior_coeffs(f)[:m].tolist(),
        "norm_input": f.norm_l2(),
        "norm_projection": projection.norm_l2(),
        "values": projection.values.tolist(),
    }
    atomic_write_text(args.out, dumps_canonical(payload))
    return 0


def _cmd_verify(args) -> int:
    mesh, descriptor = _domain_mesh(args)
    suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    try:
        results = run_suites(mesh, suites, n_modes=args.modes)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} invariants passed on {descriptor}")
    if args.out:
        payload = {
            "domain": descriptor,
            "checks": [
                {
                    "name": r.name,
                    "measured": r.measured,
                    "allowed": r.allowed,
                    "passed": r.passed,
                }
                for r in results
            ],
        }
        atomic_write_text(args.out, dumps_canonical(payload))
    return 2 if failed else 0


_HANDLERS = {
    "mesh": _cmd_mesh,
    **dict.fromkeys(_EIGEN_COMMANDS, _cmd_eigen),
    "kernel": _cmd_kernel,
    "extend": _cmd_extend,
    "project": _cmd_project,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--x" in argv[:-1]:
        # Glue the point to its flag, so a leading '-' is not read as an option.
        i = argv.index("--x")
        argv[i : i + 2] = [f"--x={argv[i + 1]}"]
    try:
        cfg = _load_config(argv)
        parser = _build_parser(cfg)
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OutsideDomainError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits with status 2 on usage errors; reserve 2 for
        # verification failures and report input problems as 1.
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
