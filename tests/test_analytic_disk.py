import math
import sys
import threading
from importlib import resources

import numpy as np
import pytest
from scipy.special import jn_zeros, jv

from steklovsvd.analytic_disk import (
    bessel_j,
    bessel_j_zero,
    build_oracle_table,
    disk_dbs_exact,
    disk_dirichlet_exact,
    disk_poisson_kernel_exact,
    disk_steklov_exact,
    load_oracle_table,
    oracle_table_csv,
)

# First Bessel zeros, frozen from bracketing + bisection and cross-checked
# against an independent implementation below.
J01 = 2.404825557695773
J11 = 3.8317059702075125
J21 = 5.135622301840683


def gauss_disk_quadrature(n_r=48, n_t=256, radius=1.0):
    """High-order polar quadrature: Gauss-Legendre radially, uniform in angle."""
    x, w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * radius * (x + 1.0)
    wr = 0.5 * radius * w * r
    t = 2 * math.pi * np.arange(n_t) / n_t
    wt = 2 * math.pi / n_t
    rr, tt = np.meshgrid(r, t, indexing="ij")
    weights = np.outer(wr, np.full(n_t, wt))
    return rr * np.cos(tt), rr * np.sin(tt), weights


class TestBessel:
    def test_values_against_independent_implementation(self):
        xs = np.linspace(0.0, 39.0, 157)
        for k in range(9):
            ours = bessel_j(k, xs)
            assert np.max(np.abs(ours - jv(k, xs))) < 1e-12

    def test_negative_argument_parity(self):
        assert bessel_j(2, -3.0) == pytest.approx(bessel_j(2, 3.0), abs=1e-15)
        assert bessel_j(3, -3.0) == pytest.approx(-bessel_j(3, 3.0), abs=1e-15)

    def test_frozen_first_zeros(self):
        assert bessel_j_zero(0, 1) == pytest.approx(J01, abs=1e-12)
        assert bessel_j_zero(1, 1) == pytest.approx(J11, abs=1e-12)
        assert bessel_j_zero(2, 1) == pytest.approx(J21, abs=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8])
    def test_zero_table_against_independent_implementation(self, k):
        ours = np.array([bessel_j_zero(k, m) for m in range(1, 7)])
        assert np.max(np.abs(ours - jn_zeros(k, 6))) < 1e-11

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_j_zero(0, 0)

    def test_concurrent_zero_scans_return_the_serial_values(self):
        # Four threads fill an empty memo for the same order at once,
        # switching as often as the interpreter allows; each must get the
        # serial zero.
        bessel_j_zero.cache_clear()
        expected = bessel_j_zero(3, 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                bessel_j_zero.cache_clear()
                barrier = threading.Barrier(4)
                results = []

                def scan():
                    barrier.wait(timeout=30)
                    results.append(bessel_j_zero(3, 6))

                threads = [threading.Thread(target=scan) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert results == [expected] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_zeros_do_not_depend_on_call_history(self):
        # Asking for a high zero first must give the same bits as asking in
        # increasing order, so the rebuilt oracle table matches the packaged
        # file whichever zeros were requested before.
        bessel_j_zero.cache_clear()
        increasing = [[bessel_j_zero(k, m) for m in range(1, 9)] for k in range(9)]
        bessel_j_zero.cache_clear()
        for k in range(9):
            bessel_j_zero(k, 6)
        packaged = resources.files("steklovsvd").joinpath("data/disk_oracle.csv").read_text()
        assert oracle_table_csv(build_oracle_table()) == packaged
        assert [[bessel_j_zero(k, m) for m in range(1, 9)] for k in range(9)] == increasing


class TestDbsModes:
    def test_radial_mode_closed_form(self):
        mode = disk_dbs_exact(0, "cos", 1.0)
        assert mode.q == 2.0
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -0.8]])
        b = mode.b(pts[:, 0], pts[:, 1])
        expected = (pts[:, 0] ** 2 + pts[:, 1] ** 2 - 1) / (4 * math.sqrt(math.pi))
        assert b == pytest.approx(expected, rel=1e-14)
        assert mode.h(0.3, 0.4) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-14)
        assert mode.w(1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_eigenvalue_family(self):
        assert disk_dbs_exact(1, "cos", 1.0).q == 4.0
        assert disk_dbs_exact(3, "sin", 1.0).q == 8.0
        assert disk_dbs_exact(0, "cos", 2.0).q == 1.0  # q scales as 1/R

    def test_sine_branch_of_radial_mode_rejected(self):
        with pytest.raises(ValueError):
            disk_dbs_exact(0, "sin", 1.0)

    @pytest.mark.parametrize("k,parity,radius", [(0, "cos", 1.0), (1, "cos", 1.0), (2, "sin", 1.5)])
    def test_normalization_integrals(self, k, parity, radius):
        mode = disk_dbs_exact(k, parity, radius)
        x, y, w = gauss_disk_quadrature(radius=radius)
        h = mode.h(x, y)
        assert float(np.sum(w * h * h)) == pytest.approx(1.0, abs=1e-12)
        # boundary energy of the flux equals 1/q
        t = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        zx, zy = radius * np.cos(t), radius * np.sin(t)
        flux = mode.flux(zx, zy)
        m_bb = float(np.sum(flux * flux) * (2 * math.pi * radius / t.size))
        assert m_bb == pytest.approx(1.0 / mode.q, abs=1e-12)
        ww = mode.w(zx, zy)
        assert float(np.mean(ww * ww)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k,parity", [(0, "cos"), (1, "cos"), (2, "sin")])
    def test_weak_form_residual_with_polynomial_tests(self, k, parity):
        # Plug the closed form into the eigenproblem's weak form against
        # zero-trace polynomial test functions v = (1 - r^2) p(x, y).
        mode = disk_dbs_exact(k, parity, 1.0)
        x, y, w = gauss_disk_quadrature(n_r=64, n_t=512)
        t = np.linspace(0, 2 * math.pi, 8192, endpoint=False)
        zx, zy = np.cos(t), np.sin(t)
        dsig = 2 * math.pi / t.size
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = rng.integers(-3, 4, size=6).astype(float)

            def lap_v(px, py):
                # v = (1 - x^2 - y^2)(c0 + c1 x + c2 y + c3 x^2 + c4 x y + c5 y^2)
                p = c[0] + c[1] * px + c[2] * py + c[3] * px**2 + c[4] * px * py + c[5] * py**2
                px_ = c[1] + 2 * c[3] * px + c[4] * py
                py_ = c[2] + c[4] * px + 2 * c[5] * py
                lap_p = 2 * c[3] + 2 * c[5]
                q_ = 1 - px**2 - py**2
                return q_ * lap_p - 4 * (px * px_ + py * py_) - 4 * p

            def dnu_v(px, py):
                # radial derivative of v at r = 1: -2 p
                p = c[0] + c[1] * px + c[2] * py + c[3] * px**2 + c[4] * px * py + c[5] * py**2
                return -2 * p

            lhs = float(np.sum(w * mode.h(x, y) * lap_v(x, y)))
            rhs = mode.q * float(np.sum(mode.flux(zx, zy) * dnu_v(zx, zy)) * dsig)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestSteklovModes:
    def test_eigenvalues(self):
        assert disk_steklov_exact(0).delta == 0.0
        assert disk_steklov_exact(3).delta == 3.0
        assert disk_steklov_exact(3, radius=2.0).delta == 1.5

    def test_trace_normalization(self):
        t = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        for k, parity in [(0, "cos"), (1, "cos"), (2, "sin")]:
            s = disk_steklov_exact(k, parity, 1.0)
            vals = s.s(np.cos(t), np.sin(t))
            assert float(np.mean(vals**2)) == pytest.approx(1.0, abs=1e-12)


class TestDirichletModes:
    def test_eigenvalues(self):
        assert disk_dirichlet_exact(0, 1).eigenvalue == pytest.approx(J01**2, abs=1e-10)
        assert disk_dirichlet_exact(1, 1).eigenvalue == pytest.approx(J11**2, abs=1e-10)
        assert disk_dirichlet_exact(0, 1, radius=2.0).eigenvalue == pytest.approx(
            J01**2 / 4, abs=1e-10
        )

    @pytest.mark.parametrize("k,m,parity", [(0, 1, "cos"), (1, 1, "cos"), (2, 2, "sin")])
    def test_normalization_and_rellich(self, k, m, parity):
        mode = disk_dirichlet_exact(k, m, parity, 1.0)
        x, y, w = gauss_disk_quadrature(n_r=80, n_t=512)
        e = mode.e(x, y)
        assert float(np.sum(w * e * e)) == pytest.approx(1.0, abs=1e-9)
        # Rellich identity on the unit disk: boundary flux energy is 2 lambda.
        t = np.linspace(0, 2 * math.pi, 8192, endpoint=False)
        flux = mode.flux(np.cos(t), np.sin(t))
        energy = float(np.sum(flux**2) * (2 * math.pi / t.size))
        assert energy == pytest.approx(2 * mode.eigenvalue, rel=1e-12)


class TestPoissonKernel:
    def test_center_is_uniform(self):
        assert disk_poisson_kernel_exact((0, 0), (1, 0)) == pytest.approx(
            1 / (2 * math.pi), rel=1e-14
        )
        assert disk_poisson_kernel_exact((0, 0), (0, 2), radius=2.0) == pytest.approx(
            1 / (4 * math.pi), rel=1e-14
        )

    def test_half_radius_value(self):
        assert disk_poisson_kernel_exact((0.5, 0), (1, 0)) == pytest.approx(
            1.5 / math.pi, rel=1e-14
        )

    def test_unit_mass_and_harmonic_reproduction(self):
        t = np.linspace(0, 2 * math.pi, 8192, endpoint=False)
        dsig = 2 * math.pi / t.size
        polys = [
            lambda x, y: np.ones_like(x),
            lambda x, y: x,
            lambda x, y: y,
            lambda x, y: x * x - y * y,
            lambda x, y: x * y,
        ]
        for point in [(0.0, 0.0), (0.3, 0.1), (-0.5, 0.6)]:
            kernel = np.array(
                [disk_poisson_kernel_exact(point, (math.cos(a), math.sin(a))) for a in t]
            )
            assert float(np.sum(kernel) * dsig) == pytest.approx(1.0, abs=1e-12)
            for p in polys:
                integral = float(np.sum(kernel * p(np.cos(t), np.sin(t))) * dsig)
                assert integral == pytest.approx(
                    float(p(np.array(point[0]), np.array(point[1]))), abs=1e-12
                )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            disk_poisson_kernel_exact((1.0, 0.0), (1, 0))
        with pytest.raises(ValueError):
            disk_poisson_kernel_exact((0.2, 0.0), (0.5, 0))


class TestOracleTable:
    def test_frozen_table_matches_regeneration(self):
        frozen = load_oracle_table()
        rebuilt = build_oracle_table()
        assert frozen == rebuilt
        assert oracle_table_csv(frozen) == oracle_table_csv(rebuilt)

    def test_table_contents(self):
        rows = load_oracle_table()
        dbs1 = [r for r in rows if r.family == "dbs" and r.radius == 1.0 and r.parity == "cos"]
        assert [r.eigenvalue for r in sorted(dbs1, key=lambda r: r.k)[:4]] == [2, 4, 6, 8]
        lam = [
            r.eigenvalue
            for r in rows
            if r.family == "dirichlet" and r.k == 0 and r.m == 1 and r.radius == 1.0
        ]
        assert lam[0] == pytest.approx(J01**2, abs=1e-10)
