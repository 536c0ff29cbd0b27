"""Span tracing of the steklovsvd layers from outside the package.

The tracer wraps public functions and methods of the package and records
one span per call: name, layer metric, start, end, parent span and the
operation it belongs to.  Modules bind names with ``from .x import y``, so
a function is replaced at every module attribute that holds it (for
example ``cli.mesh_hash`` and ``spectra.mesh_hash`` as well as
``meshing.mesh_hash``); methods are replaced on their class.  Spans stay in
memory; :meth:`Tracer.layer_totals` turns one operation's spans into self
times per layer (a span's duration minus that of its child spans).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

PACKAGE = "steklovsvd"


def _points(args, kwargs, result):
    return int(np.atleast_2d(np.asarray(args[2], dtype=float)).shape[0])


def _columns(args, kwargs, result):
    return int(np.atleast_2d(np.asarray(args[1], dtype=float).T).T.shape[1])


def _solve_info(kind):
    def info(args, kwargs):
        mesh = args[0]
        return {
            "solve": kind,
            "vertices": int(mesh.vertices.shape[0]),
            "boundary_nodes": int(mesh.boundary_nodes.size),
            "modes": int(args[1]),
        }

    return info


# Layer metric -> traced callables.  A target is (module, name) for a
# function, or (module, class, method); options: "count" names a counter
# and how much one call adds (1 by default, or a function of the call's
# args, kwargs and result); "keep" stores the call's result for counting
# after the operation; "info" records call details.  The self time of
# every span is charged to its layer metric.
LAYERS = {
    "meshing.build_s": [
        (("meshing", "disk_mesh"), {}),
        (("meshing", "build_polygon_mesh"), {}),
        (("meshing", "transform"), {}),
    ],
    "meshing.refine_s": [(("meshing", "refine"), {})],
    "meshing.hash_s": [(("meshing", "mesh_hash"), {"count": "meshing.hash_calls"})],
    "meshing.text_s": [
        (("meshing", "write_mesh_text"), {}),
        (("meshing", "read_mesh_text"), {}),
    ],
    "meshing.locate_s": [
        (("meshing", "Mesh", "locate"), {"count": "meshing.locate_calls"})
    ],
    "fem.assemble_s": [(("fem", "AssembledOperators", "__init__"), {})],
    "fem.lu_s": [(("fem", "splu"), {"keep": "fem.lu_nnz"})],
    "fem.extend_s": [
        (
            ("fem", "AssembledOperators", "extend_boundary_columns"),
            {"count": ("fem.extend_cols", _columns)},
        )
    ],
    "fem.apply_s": [
        (("fem", "t_apply"), {"count": "fem.apply_calls"}),
        (("fem", "dtn_apply"), {"count": "fem.apply_calls"}),
    ],
    "fem.interp_s": [
        (("fem", "interpolate_values"), {"count": ("fem.interp_points", _points)})
    ],
    "spectra.dbs_self_s": [(("spectra", "dbs_eigensolve"), {"info": _solve_info("dbs")})],
    "spectra.dtn_self_s": [
        (("spectra", "harmonic_steklov_eigensolve"), {"info": _solve_info("dtn")})
    ],
    "spectra.dirichlet_self_s": [
        (("spectra", "dirichlet_laplacian_eigensolve"), {"info": _solve_info("dirichlet")})
    ],
    "spectra.to_json_s": [(("spectra", "basis_to_json_dict"), {})],
    "spectra.from_json_s": [(("spectra", "basis_from_json_dict"), {})],
    "serialize.dumps_s": [
        (("_serialize", "dumps_canonical"), {"count": ("serialize.bytes", lambda a, k, r: len(r))})
    ],
    "serialize.write_s": [(("_serialize", "atomic_write_text"), {})],
    # JSON parsing outside the CLI; inside it, json.load is cli self time.
    "serialize.loads_s": [],
    "bergman.self_s": [
        (("bergman", "TruncatedKernel", "__init__"), {}),
        (("bergman", "TruncatedKernel", "eval"), {}),
        (("bergman", "TruncatedKernel", "gram"), {}),
        (("bergman", "TruncatedKernel", "values_on_vertices"), {}),
        (("bergman", "kernel_grid_csv"), {}),
        (("bergman", "bergman_project"), {}),
    ],
    "poisson.self_s": [
        (("poisson", "kernel_slice_csv"), {}),
        (("poisson", "poisson_kernel_eval"), {}),
        (("poisson", "truncation_error_report"), {}),
        (("poisson", "extend_harmonic_svd"), {}),
    ],
    "verify.self_s": [(("verify", "run_suites"), {})],
    "cli.self_s": [(("cli", "main"), {})],
}

# Counter -> unit.
COUNTS = {
    "meshing.hash_calls": "count",
    "meshing.locate_calls": "count",
    "fem.lu_nnz": "count",
    "fem.extend_cols": "count",
    "fem.apply_calls": "count",
    "fem.interp_points": "count",
    "serialize.bytes": "bytes",
}


def _lu_nnz(lu) -> int:
    return int(lu.L.nnz + lu.U.nnz)


# Counters taken from results kept during the operation, after it ends.
_KEPT_COUNTERS = {"fem.lu_nnz": _lu_nnz}


class Tracer:
    """Records spans and counts; inactive until :meth:`install` is called."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, op, info]
        self.counts: list[dict] = []  # per operation
        self.kept: list[list] = []  # per operation: (counter, result)
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches = self._build_patches()

    # -- patching ---------------------------------------------------------------

    def _modules(self):
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _build_patches(self):
        patches = []  # (owner, attribute, original, wrapper)
        modules = self._modules()
        for layer, targets in LAYERS.items():
            for target, opts in targets:
                owner = sys.modules.get(f"{PACKAGE}.{target[0]}")
                for part in target[1:-1]:
                    owner = getattr(owner, part, None)
                original = getattr(owner, target[-1], None) if owner is not None else None
                if original is None:
                    self.missing.append(".".join(target))
                    continue
                name = ".".join(target)
                wrapper = self._wrap(original, name, layer, opts)
                if len(target) == 3:
                    patches.append((owner, target[-1], original, wrapper))
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original, wrapper))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- recording --------------------------------------------------------------

    def begin_op(self):
        self.op += 1
        self.counts.append({name: 0 for name in COUNTS})
        self.kept.append([])

    def end_op(self):
        counts = self.counts[self.op]
        for counter, result in self.kept[self.op]:
            counts[counter] += _KEPT_COUNTERS[counter](result)
        self.kept[self.op] = []

    def _open(self, name, layer, info=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op, info])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, layer: str):
        """Span for work done by the benchmark itself, charged to ``layer``."""
        idx = self._open(layer, layer)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, layer, opts):
        count = opts.get("count")
        if isinstance(count, str):
            count = (count, None)
        keep = opts.get("keep")
        info = opts.get("info")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, layer, info(args, kwargs) if info else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count:
                counter, amount = count
                tracer.counts[tracer.op][counter] += (
                    1 if amount is None else amount(args, kwargs, result)
                )
            if keep:
                tracer.kept[tracer.op].append((keep, result))
            return result

        return wrapper

    # -- reduction --------------------------------------------------------------

    def layer_totals(self, op: int) -> tuple[dict, float]:
        """Self seconds per layer metric for one operation, and top-level span time."""
        spans = {i: s for i, s in enumerate(self.spans) if s[5] == op}
        child_time = {i: 0.0 for i in spans}
        top = 0.0
        for s in spans.values():
            dur = s[3] - s[2]
            if s[4] in child_time:
                child_time[s[4]] += dur
            else:
                top += dur
        totals = {layer: 0.0 for layer in LAYERS}
        for i, s in spans.items():
            totals[s[1]] += (s[3] - s[2]) - child_time[i]
        return totals, top

    def solves(self, op: int) -> list[dict]:
        """Solve records of one operation.

        A DBS or DtN solve that applied its boundary operator matrix-free
        (``t_apply``/``dtn_apply`` child spans) is Lanczos, otherwise dense.
        The Dirichlet solver's choice is not observable from outside.
        """
        spans = {i: s for i, s in enumerate(self.spans) if s[5] == op}
        applied = {s[4] for s in spans.values() if s[1] == "fem.apply_s"}
        out = []
        for i, s in spans.items():
            if s[6] and "solve" in s[6]:
                rec = dict(s[6])
                if rec["solve"] != "dirichlet":
                    rec["method"] = "lanczos" if i in applied else "dense"
                out.append(rec)
        return out

    def dump(self) -> list[dict]:
        names = ("name", "layer", "start", "end", "parent", "op")
        return [dict(zip(names, s[:6])) for s in self.spans]
