"""Closed-form disk eigendata: the oracle every verification test leans on.

For the radius-``R`` disk the three eigenproblems separate in polar
coordinates and all eigenvalues are elementary:

* biharmonic Steklov (zero trace):  ``q = (2k + 2) / R`` with radial
  profile ``r**(k+2)/R**2 - r**k`` (``r**2 - R**2`` for ``k = 0``),
* harmonic Steklov (Dirichlet-to-Neumann):  ``delta = k / R`` with
  profile ``r**k``,
* Dirichlet Laplacian:  ``lambda = (j_{k,m} / R)**2`` where ``j_{k,m}``
  is the m-th positive zero of the order-k Bessel function ``J_k``.

Bessel functions are implemented here directly (ascending series for small
argument, downward recurrence with series normalization otherwise) so the
oracle has no dependency on the code paths it is used to check; zeros are
found by bracketing plus bisection.  Everything is a pure function: zero
``m`` of ``J_k`` is the first zero after zero ``m - 1`` (after ``k`` for
``m = 1``), so its bits depend neither on earlier calls nor on threads.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ._serialize import format_floats

__all__ = [
    "bessel_j",
    "bessel_j_zero",
    "DiskMode",
    "DiskDbsMode",
    "DiskDirichletMode",
    "disk_dbs_exact",
    "disk_steklov_exact",
    "disk_dirichlet_exact",
    "disk_poisson_kernel_exact",
    "build_oracle_table",
    "oracle_table_csv",
    "load_oracle_table",
]


# -- Bessel functions of the first kind -------------------------------------------


def _bessel_series(order: int, x: float) -> float:
    half = 0.5 * x
    term = 1.0
    for i in range(1, order + 1):
        term *= half / i
    total = term
    m = 1
    while m < 300:
        term *= -(half * half) / (m * (m + order))
        total += term
        if abs(term) <= 1e-18 * max(abs(total), 1e-300):
            break
        m += 1
    return total


def _bessel_miller(order: int, x: float) -> float:
    # Downward recurrence from well above both the order and the argument,
    # normalized with J_0 + 2*sum(J_{2m}) = 1; stable in double precision.
    n_start = max(order, int(x)) + 20 + int(2.0 * math.sqrt(max(x, 1.0)))
    if n_start % 2:
        n_start += 1
    jp = 0.0
    jc = 1e-30
    norm = 0.0
    wanted = 0.0
    for n in range(n_start, 0, -1):
        jm = (2.0 * n / x) * jc - jp
        jp = jc
        jc = jm
        if (n - 1) == order:
            wanted = jc
        if (n - 1) >= 2 and (n - 1) % 2 == 0:
            norm += 2.0 * jc
        if abs(jc) > 1e100:
            jc *= 1e-100
            jp *= 1e-100
            norm *= 1e-100
            wanted *= 1e-100
    norm += jc
    return wanted / norm


def bessel_j(order: int, x) -> float | np.ndarray:
    """Bessel function J_order(x), accurate to about 1e-13 on [0, 40]."""
    if order < 0:
        raise ValueError("order must be a nonnegative integer")
    if np.ndim(x) > 0:
        return np.array([bessel_j(order, float(xi)) for xi in np.ravel(x)]).reshape(
            np.shape(x)
        )
    x = float(x)
    sign = 1.0
    if x < 0:
        x = -x
        sign = -1.0 if order % 2 else 1.0
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    if x <= 10.0:
        return sign * _bessel_series(order, x)
    return sign * _bessel_miller(order, x)


def _zero_after(order: int, start: float) -> float:
    """First zero of J_order after ``start``, bracketed on a 0.25 grid and bisected to 1e-13."""
    # Exactly at a zero the residual's sign is arbitrary: start a little past it.
    x = start + 1e-6
    f_prev = bessel_j(order, x)
    while f_prev != 0.0:
        x_next = x + 0.25
        f_next = bessel_j(order, x_next)
        if f_prev * f_next < 0:
            lo, hi, flo = x, x_next, f_prev
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                fmid = bessel_j(order, mid)
                if flo * fmid <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            return 0.5 * (lo + hi)
        x, f_prev = x_next, f_next
        if x > start + 4.0 * math.pi + 20:
            raise RuntimeError("bracketing failed to locate the requested Bessel zero")
    return x


@functools.cache
def bessel_j_zero(order: int, m: int) -> float:
    """m-th positive zero of J_order: the first zero after zero ``m - 1``, or after ``order``."""
    if m < 1:
        raise ValueError("zero index m must be >= 1")
    return _zero_after(order, float(order) if m == 1 else bessel_j_zero(order, m - 1))


# -- closed-form disk modes --------------------------------------------------------


def _angular(parity: str, k: int):
    if parity not in ("cos", "sin"):
        raise ValueError(f"parity must be 'cos' or 'sin', got {parity!r}")
    if k == 0 and parity == "sin":
        raise ValueError("the radial mode k=0 has no sine branch")
    return np.cos if parity == "cos" else np.sin


@dataclass(frozen=True)
class DiskMode:
    """One row of the frozen oracle table."""

    family: str  # "dbs" | "steklov" | "dirichlet"
    k: int
    m: int  # radial index; 0 where not applicable
    parity: str
    radius: float
    eigenvalue: float


@dataclass(frozen=True)
class DiskDbsMode:
    """Closed-form biharmonic Steklov eigenpair on the disk.

    ``b`` is normalized so its Laplacian ``h`` has unit L2 norm; ``w`` is
    the boundary function ``sqrt(q * |bdy|) * D_nu b`` with unit norm in
    the normalized boundary inner product.  All callables take vectorized
    cartesian coordinates.
    """

    k: int
    parity: str
    radius: float
    q: float
    b: callable
    h: callable
    flux: callable
    w: callable


def disk_dbs_exact(k: int, parity: str = "cos", radius: float = 1.0) -> DiskDbsMode:
    """Exact DBS mode: ``q = (2k + 2) / radius``, fields normalized as above."""
    if k < 0:
        raise ValueError("angular index k must be >= 0")
    if not radius > 0:
        raise ValueError("radius must be positive")
    trig = _angular(parity, k)
    R = float(radius)
    q = (2.0 * k + 2.0) / R
    if k == 0:
        c = 1.0 / (4.0 * R * math.sqrt(math.pi))

        def b(x, y):
            return c * (np.asarray(x) ** 2 + np.asarray(y) ** 2 - R * R)

        def h(x, y):
            return np.full(np.broadcast(x, y).shape, 4.0 * c)

        def flux(x, y):
            return np.full(np.broadcast(x, y).shape, 2.0 * c * R)

    else:
        c = R ** (1 - k) / math.sqrt(8.0 * math.pi * (k + 1))

        def b(x, y):
            r = np.hypot(x, y)
            th = np.arctan2(y, x)
            return c * (r ** (k + 2) / R**2 - r**k) * trig(k * th)

        def h(x, y):
            r = np.hypot(x, y)
            th = np.arctan2(y, x)
            return (4.0 * c * (k + 1) / R**2) * r**k * trig(k * th)

        def flux(x, y):
            th = np.arctan2(y, x)
            return 2.0 * c * R ** (k - 1) * trig(k * th)

    scale = math.sqrt(q * 2.0 * math.pi * R)

    def w(x, y):
        return scale * flux(x, y)

    return DiskDbsMode(k, parity, R, q, b, h, flux, w)


@dataclass(frozen=True)
class DiskSteklovMode:
    k: int
    parity: str
    radius: float
    delta: float
    s: callable


def disk_steklov_exact(k: int, parity: str = "cos", radius: float = 1.0) -> DiskSteklovMode:
    """Exact harmonic Steklov mode: ``delta = k / radius``, unit trace norm."""
    if k < 0:
        raise ValueError("angular index k must be >= 0")
    if not radius > 0:
        raise ValueError("radius must be positive")
    R = float(radius)
    if k == 0:

        def s(x, y):
            return np.ones(np.broadcast(x, y).shape)

    else:
        trig = _angular(parity, k)
        amp = math.sqrt(2.0)

        def s(x, y):
            r = np.hypot(x, y)
            th = np.arctan2(y, x)
            return amp * (r / R) ** k * trig(k * th)

    return DiskSteklovMode(k, parity, R, k / R, s)


@dataclass(frozen=True)
class DiskDirichletMode:
    k: int
    m: int
    parity: str
    radius: float
    eigenvalue: float
    e: callable
    flux: callable


def disk_dirichlet_exact(
    k: int, m: int, parity: str = "cos", radius: float = 1.0
) -> DiskDirichletMode:
    """Exact Dirichlet Laplacian mode: ``lambda = (j_{k,m} / radius)**2``.

    The field is L2-normalized on the disk; the flux is the radial
    derivative on the circle.
    """
    if k < 0 or m < 1:
        raise ValueError("need angular index k >= 0 and radial index m >= 1")
    if not radius > 0:
        raise ValueError("radius must be positive")
    trig = _angular(parity, k)
    R = float(radius)
    j = bessel_j_zero(k, m)
    lam = (j / R) ** 2
    jnext = bessel_j(k + 1, j)
    amp = (1.0 if k == 0 else math.sqrt(2.0)) / (math.sqrt(math.pi) * R * abs(jnext))

    def e(x, y):
        r = np.hypot(x, y)
        th = np.arctan2(y, x)
        return amp * bessel_j(k, j * r / R) * trig(k * th)

    def flux(x, y):
        th = np.arctan2(y, x)
        return -amp * (j / R) * jnext * trig(k * th)

    return DiskDirichletMode(k, m, parity, R, lam, e, flux)


def disk_poisson_kernel_exact(x, z, radius: float = 1.0) -> float:
    """Classical Poisson kernel of the disk, normalized so its boundary
    integral with respect to arclength measure is one."""
    R = float(radius)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    rx = float(np.hypot(*x))
    rz = float(np.hypot(*z))
    if rx >= R:
        raise ValueError(f"evaluation point must be strictly inside the disk, |x| = {rx}")
    if abs(rz - R) > 1e-9 * R:
        raise ValueError(f"z must lie on the circle of radius {R}, |z| = {rz}")
    return (R * R - rx * rx) / (2.0 * math.pi * R * float(np.sum((x - z) ** 2)))


# -- frozen oracle table -----------------------------------------------------------


# Extent of the frozen table: angular orders, Dirichlet radial orders, radii.
_TABLE_MAX_K = 8
_TABLE_MAX_M = 4
_TABLE_RADII = (1.0, 2.0)


def build_oracle_table() -> list[DiskMode]:
    """Recompute the disk eigenvalue table from the closed forms above."""
    rows = []
    for R in _TABLE_RADII:
        for k in range(_TABLE_MAX_K + 1):
            parities = ("cos",) if k == 0 else ("cos", "sin")
            for parity in parities:
                rows.append(DiskMode("dbs", k, 0, parity, R, (2.0 * k + 2.0) / R))
                rows.append(DiskMode("steklov", k, 0, parity, R, k / R))
                for m in range(1, _TABLE_MAX_M + 1):
                    lam = (bessel_j_zero(k, m) / R) ** 2
                    rows.append(DiskMode("dirichlet", k, m, parity, R, lam))
    return rows


def oracle_table_csv(rows: list[DiskMode]) -> str:
    pairs = np.reshape([(r.radius, r.eigenvalue) for r in rows], (-1, 2))
    floats = format_floats(pairs, ",", "\n").split("\n")
    lines = [f"{r.family},{r.k},{r.m},{r.parity},{pair}\n" for r, pair in zip(rows, floats)]
    return "family,k,m,parity,R,eigenvalue\n" + "".join(lines)


def load_oracle_table() -> list[DiskMode]:
    """Load the frozen table shipped with the package."""
    text = resources.files("steklovsvd").joinpath("data/disk_oracle.csv").read_text()
    rows = []
    reader = csv.DictReader(io.StringIO(text))
    for rec in reader:
        rows.append(
            DiskMode(
                rec["family"],
                int(rec["k"]),
                int(rec["m"]),
                rec["parity"],
                float(rec["R"]),
                float(rec["eigenvalue"]),
            )
        )
    return rows
