"""Command-line surface.

Subcommands: ``mesh``, ``dbs``, ``steklov``, ``laplace-eigs``, ``kernel``,
``extend``, ``project``, ``verify``.  All outputs are written atomically
with fixed float formatting, so identical inputs produce byte-identical
files: JSON floats are the shortest decimal that reads back to the same
double (``-0.0`` included), CSVs and mesh text keep ``%.17g``.  Exit
codes: 0 success, 1 input or solver error, 2 verification failure.

Configuration comes from flags or a single optional JSON config file
(``--config``) whose keys match the flag names; flags win.  No
environment variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict

import numpy as np
import orjson

from . import __version__
from ._serialize import atomic_write_text, fmt_float, format_floats, iter_canonical
from .bergman import iter_kernel_grid_csv
from .errors import IterationLimitError, OutsideDomainError
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
    iter_kernel_slice_csv,
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error: one ``error:`` line, exit 1."""

    def error(self, message):
        raise InputError(message)


def _read_json_object(path, what) -> dict:
    """The JSON object in the ``what`` file at ``path``.

    ``orjson`` parses strict JSON to the same correctly rounded floats as
    ``json``, several times faster.  Only text it refuses goes to ``json``,
    which also takes ``NaN``, ``Infinity`` and overflowing numbers.  The file
    is read once, so a pipe works too.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            data = orjson.loads(raw)
        except orjson.JSONDecodeError:
            data = json.loads(raw.decode())
    except OSError as exc:
        raise InputError(f"cannot read {what} file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{what} file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{what} file must contain a JSON object")
    return data


def _with_config(argv, commands) -> list:
    """``argv`` with its ``--config`` entries for the command's flags first, as ``--flag=value``.

    Argparse then checks each value by the flag's type and choices, and the
    flags given later win.  A non-string value enters as its JSON text (``true``,
    ``null`` and lists fail numeric checks); a flag without a type (a path
    or a name) takes strings only.
    """
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    cfg = _read_json_object(path, "config")
    if argv[0] not in commands:
        return argv
    actions = {a.dest: a for a in commands[argv[0]]._actions if a.nargs != 0}
    entries = []
    for key, value in cfg.items():
        action = actions.get(str(key).replace("-", "_"))
        if action is None:
            continue
        if not isinstance(value, str):
            if action.type is None:
                raise InputError(f"config entry {key!r} must be a string, got {json.dumps(value)}")
            value = json.dumps(value)
        entries.append(f"{action.option_strings[-1]}={value}")
    return argv[:1] + entries + argv[1:]


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="steklovsvd",
        description="Biharmonic Steklov spectra and the SVD of the Poisson operator.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, helptext, domain, out_required=True):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="optional JSON config file (keys match flags)")
        p.add_argument("--out", required=out_required)
        p.add_argument("--mesh", help="reuse a mesh text file")
        if domain:
            p.add_argument("--domain", choices=["disk", "polygon"], default="disk")
            p.add_argument("--radius", type=float, default=1.0)
            p.add_argument("--h", type=float, default=DEFAULT_H)
            p.add_argument("--vertices-file")
        return p

    add_parser("mesh", "generate a mesh and write the text format", domain=True)
    for name, helptext in (
        ("dbs", "biharmonic Steklov eigenpairs (basis JSON)"),
        ("steklov", "Dirichlet-to-Neumann eigenpairs (JSON)"),
        ("laplace-eigs", "Dirichlet Laplacian eigenpairs (JSON)"),
    ):
        p = add_parser(name, helptext, domain=True)
        p.add_argument("--modes", type=int, default=DEFAULT_MODES)
        p.add_argument("--mesh-out")

    p_kernel = add_parser("kernel", "kernel slice through a saved basis", domain=False)
    p_kernel.add_argument("--x", required=True, help="interior point 'x,y'")
    p_kernel.add_argument("--which", choices=["poisson", "bergman"], default="poisson")
    p_ext = add_parser("extend", "truncated harmonic extension + error report", domain=False)
    p_ext.add_argument("--g-file")
    p_ext.add_argument("--g-const", type=float)
    p_proj = add_parser("project", "harmonic Bergman projection of interior data", domain=False)
    p_proj.add_argument("--f-file")
    p_proj.add_argument("--f-const", type=float)
    for p in (p_kernel, p_ext, p_proj):
        p.add_argument("--basis", required=True)
        p.add_argument("--modes", type=int)

    p_verify = add_parser(
        "verify", "run invariant suites, exit 2 on failure", domain=True, out_required=False
    )
    p_verify.add_argument(
        "--suite",
        default="all",
        help=f"comma-separated subset of {', '.join(SUITE_NAMES)} or 'all'",
    )
    p_verify.add_argument("--modes", type=int, default=DEFAULT_MODES)
    return parser, sub.choices


# -- domain handling ----------------------------------------------------------------


def _load_table(path, what, **kwargs) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # A file without data is an input error, not a warning and an empty table.
            warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, **kwargs)
    except UserWarning as exc:
        raise InputError(f"{what} file {path} contains no data") from exc
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} file: {exc}") from exc
    if not np.all(np.isfinite(table)):
        raise InputError(f"{what} file {path} contains a non-finite value")
    return table


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
    if args.domain == "disk":
        mesh = disk_mesh(args.radius, args.h)
        return mesh, f"disk;radius={fmt_float(args.radius)};h={fmt_float(args.h)}"
    if not args.vertices_file:
        raise InputError("--domain polygon requires --vertices-file")
    pts = _load_table(args.vertices_file, "vertices", ndmin=2)
    if pts.shape[1] != 2:
        raise InputError("vertices file must contain two columns (x y)")
    mesh = build_polygon_mesh(pts, args.h)
    packed = format_floats(pts, " ", ",")
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
    if kind != "meshfile":
        raise InputError(
            f"basis file's 'domain' entry {descriptor!r} has unknown kind {kind!r}"
            " (known: disk, polygon, meshfile)"
        )
    return None


def _load_basis(args):
    data = _read_json_object(args.basis, "basis")
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


def _parse_point(text):
    try:
        x, y = (float(t) for t in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected a point 'x,y', got {text!r}") from exc
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InputError(f"expected a point 'x,y' with finite coordinates, got {text!r}")
    return np.array([x, y])


def _field_data(mesh, kind, path, const):
    """The field that exactly one of a ``--<kind>-file`` / ``--<kind>-const`` pair gives."""
    if (path is None) == (const is None):
        raise InputError(f"provide exactly one of --{kind}-file / --{kind}-const")
    cls, what, size, unit = {
        "g": (BoundaryField, "boundary data", mesh.boundary_nodes.size, "boundary nodes"),
        "f": (InteriorField, "interior data", mesh.vertices.shape[0], "vertices"),
    }[kind]
    if const is not None:
        if not math.isfinite(const):
            raise InputError(f"--{kind}-const must be finite, got {const}")
        return cls.constant(mesh, const)
    vals = _load_table(path, what).ravel()
    if vals.size != size:
        raise InputError(f"{what} has {vals.size} values, mesh has {size} {unit}")
    return cls(mesh, vals)


# -- command handlers ----------------------------------------------------------------


def _write(path, parts, *more):
    """Write ``parts`` (and each further ``(path, parts)`` pair) all or none;
    a part that fails to format leaves every target as it was."""
    try:
        atomic_write_text(path, parts, *more)
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename}: {exc.strerror or exc}") from exc


def _cmd_mesh(args) -> int:
    mesh, _ = _domain_mesh(args)
    _write(args.out, write_mesh_text(mesh))
    return 0


def _steklov_payload(mesh, descriptor, spectrum) -> dict:
    return {
        "domain": descriptor,
        "boundary_length": mesh.boundary_length,
        "M": spectrum.delta.size,
        "delta": spectrum.delta,
        "s": spectrum.s_matrix.T,
        "mesh_hash": mesh_hash(mesh),
    }


def _laplace_payload(mesh, descriptor, spectrum) -> dict:
    return {
        "domain": descriptor,
        "M": spectrum.lam.size,
        "lambda": spectrum.lam,
        "e": spectrum.e_matrix.T,
        "flux": spectrum.flux_matrix.T,
        "mesh_hash": mesh_hash(mesh),
    }


# Eigen command -> (solver, payload builder).  The solvers are looked up
# when called, so a wrapper installed on this module sees them.
_EIGEN_COMMANDS = {
    "dbs": (
        lambda mesh, m: dbs_eigensolve(mesh, m),
        lambda mesh, descriptor, basis: basis_to_json_dict(basis, descriptor),
    ),
    "steklov": (lambda mesh, m: harmonic_steklov_eigensolve(mesh, m), _steklov_payload),
    "laplace-eigs": (lambda mesh, m: dirichlet_laplacian_eigensolve(mesh, m), _laplace_payload),
}


def _cmd_eigen(args) -> int:
    mesh, descriptor = _domain_mesh(args)
    solve, payload = _EIGEN_COMMANDS[args.command]
    result = solve(mesh, args.modes)
    # The payload holds the solver's arrays, not copies, and the parts are
    # formatted as the file is written: one block's text is alive at a time.
    parts = iter_canonical(payload(mesh, descriptor, result))
    mesh_output = [(args.mesh_out, write_mesh_text(mesh))] if args.mesh_out else []
    _write(args.out, parts, *mesh_output)
    return 0


def _cmd_kernel(args) -> int:
    basis = _load_basis(args)
    point = _parse_point(args.x)
    if args.which == "poisson":
        parts = iter_kernel_slice_csv(PoissonSvd.from_basis(basis), point, args.modes)
    else:
        parts = iter_kernel_grid_csv(basis, point, args.modes)
    _write(args.out, parts)
    return 0


def _cmd_extend(args) -> int:
    basis = _load_basis(args)
    g = _field_data(basis.mesh, "g", args.g_file, args.g_const)
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
        "coefficients": basis.boundary_coeffs(g)[:m],
        "values": field.values,
    }
    _write(args.out, iter_canonical(payload))
    return 0


def _cmd_project(args) -> int:
    basis = _load_basis(args)
    f = _field_data(basis.mesh, "f", args.f_file, args.f_const)
    m = args.modes if args.modes is not None else basis.rank
    projection = bergman_project(f, basis, m)
    payload = {
        "M": int(m),
        "coefficients": basis.interior_coeffs(f)[:m],
        "norm_input": f.norm_l2(),
        "norm_projection": projection.norm_l2(),
        "values": projection.values,
    }
    _write(args.out, iter_canonical(payload))
    return 0


def _cmd_verify(args) -> int:
    mesh, descriptor = _domain_mesh(args)
    suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    if not suites:
        raise InputError(f"--suite {args.suite!r} names no suite")
    results = run_suites(mesh, suites, n_modes=args.modes)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} invariants passed on {descriptor}")
    if args.out:
        payload = {"domain": descriptor, "checks": [asdict(r) for r in results]}
        _write(args.out, iter_canonical(payload))
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
        parser, commands = _build_parser()
        args = parser.parse_args(_with_config(argv, commands))
        return _HANDLERS[args.command](args)
    except (InputError, ValueError, OutsideDomainError, KeyError, IterationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # Only --help and --version leave argparse this way.
        return 1 if exc.code else 0


if __name__ == "__main__":
    raise SystemExit(main())
