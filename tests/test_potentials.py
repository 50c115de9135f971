"""Layer-potential machinery against independent quadrature, finite
differences and entrywise closed-form expressions."""
import cmath
import math

import numpy as np
import pytest
import scipy.special as sp

from block_reference import assert_within_cylinder_gap
from conftest import (
    KINDS,
    fd_lame_residual,
    fd_traction,
    polar_to_cartesian,
    quad_scalar,
    quad_vector_converged,
    slp_displacement,
    wave_entries,
)
from elastodisk.media import LameParams, wavenumbers
from elastodisk.potentials import (
    layered_system,
    region_energy,
    scalar_slp_mode,
    slp_trace,
    traction_matrix,
)
from library_helpers import mode_matrix_boundary, two_radius_coupling

P11 = LameParams(1.0, 1.0)


def wave_field(shear: bool, interior: bool, n: int, k: complex):
    """Pointwise displacement of the single cylinder wave Q_n or P_n."""
    return lambda x: polar_to_cartesian(
        wave_entries(shear, interior, n, k, math.hypot(x[0], x[1])), n, x
    )


class TestScalarSlp:
    def test_direct_formula_n0(self):
        ref = -0.5j * np.pi * sp.jv(0, 1.0) * sp.hankel1(0, 2.0)
        assert scalar_slp_mode(1.0, 1.0, 0, (2.0, 0.0)) == pytest.approx(ref, rel=1e-14)

    def test_quadrature_oracle(self):
        got = scalar_slp_mode(1.5, 0.8, 3, (1.4, 0.7))
        ref = quad_scalar(1.5, 0.8, 3, (1.4, 0.7), panels=2048)
        assert abs(got - ref) < 1e-8

    def test_interior_swap(self):
        got = scalar_slp_mode(1.2, 1.0, 2, (0.4, 0.3))
        ref = quad_scalar(1.2, 1.0, 2, (0.4, 0.3), panels=2048)
        assert abs(got - ref) < 1e-8

    def test_opposite_order_theta_parity(self):
        # real k, R: the radial part is even in n, so flipping the order
        # only conjugates the angular factor: S_{-n}(x) = S_n(x mirrored)
        x = (2.0, 1.0)
        a = scalar_slp_mode(1.1, 0.9, 2, (x[0], -x[1]))
        b = scalar_slp_mode(1.1, 0.9, -2, x)
        assert b == pytest.approx(a, rel=1e-13)

    def test_boundary_continuity(self):
        k, R, n = 1.3, 1.0, 4
        inner = scalar_slp_mode(k, R, n, (R * (1 - 1e-12), 0.0))
        outer = scalar_slp_mode(k, R, n, (R * (1 + 1e-12), 0.0))
        assert inner == pytest.approx(outer, rel=1e-9)

    def test_rejects_static(self):
        with pytest.raises(ValueError):
            scalar_slp_mode(0.0, 1.0, 0, (2.0, 0.0))

    def test_graf_consistency_random(self, rng):
        # 20 random tuples against the kernel quadrature
        for _ in range(20):
            n = int(rng.integers(-5, 8))
            k = complex(rng.uniform(0.5, 3.0), rng.uniform(0.0, 0.4))
            R = float(rng.uniform(0.5, 1.5))
            r = R * (rng.uniform(1.15, 2.0) if rng.random() < 0.5 else rng.uniform(0.2, 0.85))
            th = rng.uniform(0, 2 * np.pi)
            x = (r * math.cos(th), r * math.sin(th))
            got = scalar_slp_mode(k, R, n, x)
            ref = quad_scalar(k, R, n, x, panels=4096)
            assert abs(got - ref) < 1e-8


class TestVectorSlp:
    def test_boundary_limits_match_mode_matrix(self):
        m = mode_matrix_boundary(P11, 1.0, 1.0, 5)
        th = 0.3
        x = (math.cos(th), math.sin(th))
        for col, dens in ((0, "nu"), (1, "t")):
            u = slp_displacement(P11, 1.0, 1.0, 5, dens, x, exterior=True)
            pred = polar_to_cartesian(m[:, col], 5, x)
            assert np.max(np.abs(u - pred)) < 1e-10 * np.max(np.abs(u))

    def test_kernel_quadrature_nu(self):
        got = slp_displacement(P11, 1.0, 1.0, 5, "nu", (1.7, 0.4))
        ref = quad_vector_converged(1.0, 1.0, 1.0, 1.0, 5, "nu", (1.7, 0.4))
        assert np.max(np.abs(got - ref)) < 1e-6

    def test_continuity_across_boundary(self):
        x_in = (1.0 - 1e-11, 0.4)
        x_out = (1.0 + 1e-11, 0.4)
        r_in = math.hypot(*x_in) / math.hypot(*x_out)
        for dens in ("nu", "t"):
            ui = slp_displacement(P11, 1.0, 1.0, 5, dens, x_in)
            uo = slp_displacement(P11, 1.0, 1.0, 5, dens, x_out)
            assert np.max(np.abs(ui - uo)) < 1e-9 * max(1e-12, np.max(np.abs(uo)))

    def test_quadrature_random_configs(self, rng):
        for _ in range(8):
            lam = float(rng.uniform(0.5, 2.0))
            mu = float(rng.uniform(0.5, 2.0))
            omega = float(rng.uniform(0.5, 2.0))
            n = int(rng.integers(0, 7))
            R = float(rng.uniform(0.7, 1.3))
            r = R * (rng.uniform(1.2, 1.8) if rng.random() < 0.5 else rng.uniform(0.3, 0.8))
            th = rng.uniform(0, 2 * np.pi)
            x = (r * math.cos(th), r * math.sin(th))
            dens = "nu" if rng.random() < 0.5 else "t"
            got = slp_displacement(LameParams(lam, mu), omega, R, n, dens, x)
            ref = quad_vector_converged(lam, mu, omega, R, n, dens, x)
            assert np.max(np.abs(got - ref)) < 1e-6

    def test_raw_sideband_expression(self):
        # The two-sideband closed form of the exterior vector potential,
        # written out once here as an independent cross-check of the
        # shear/pressure decomposition path.
        p, omega, R, n = P11, 1.3, 0.9, 4
        wn = wavenumbers(p, omega)
        ks, kp = wn.ks, wn.kp
        r, th = 1.6, 0.7
        x = (r * math.cos(th), r * math.sin(th))

        def J(m, z):
            return sp.jv(m, z)

        def Jp(m, z):
            return sp.jvp(m, z)

        def H(m, z):
            return sp.hankel1(m, z)

        em = cmath.exp(1j * (n - 1) * th)
        ep = cmath.exp(1j * (n + 1) * th)
        pref = -1j * np.pi / (4 * omega**2 * R)
        lo = pref * em * (
            n * H(n - 1, ks * r) * ((n - 1) * J(n - 1, ks * R) - ks * R * Jp(n - 1, ks * R))
            + H(n - 1, kp * r)
            * (((kp * R) ** 2 - n**2 + n) * J(n - 1, kp * R) + n * kp * R * Jp(n - 1, kp * R))
        )
        hi = pref * ep * (
            n * H(n + 1, ks * r) * ((n + 1) * J(n + 1, ks * R) + ks * R * Jp(n + 1, ks * R))
            + H(n + 1, kp * r)
            * (((kp * R) ** 2 - n**2 - n) * J(n + 1, kp * R) - n * kp * R * Jp(n + 1, kp * R))
        )
        ref = lo * np.array([1.0, 1j]) + hi * np.array([1.0, -1j])
        got = slp_displacement(p, omega, R, n, "nu", x)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


class TestTraction:
    def test_zero_mode_trace_off_diagonals(self):
        m = mode_matrix_boundary(P11, 1.0, 1.0, 0)
        assert m[1, 0] == 0 and m[0, 1] == 0

    def test_jump_is_identity(self):
        ge = traction_matrix(P11, 1.0, 1.0, 4, "exterior_limit")
        gi = traction_matrix(P11, 1.0, 1.0, 4, "interior_limit")
        assert np.array_equal(ge - gi, np.eye(2))

    @pytest.mark.parametrize("side", ["interior", "exterior", "inside"])
    def test_only_the_limit_names_are_sides(self, side):
        with pytest.raises(ValueError, match="unknown side"):
            traction_matrix(P11, 1.0, 1.0, 4, side)

    def test_zero_mode_off_diagonals(self):
        g = traction_matrix(P11, 1.0, 1.0, 0)
        assert g[1, 0] == 0 and g[0, 1] == 0

    def test_one_sided_fd_oracle(self):
        # one-sided finite differences at R (1 +- 1e-5)
        R, n, omega = 1.0, 5, 1.0
        ge = traction_matrix(P11, omega, R, n, "exterior_limit")
        gi = traction_matrix(P11, omega, R, n, "interior_limit")
        th = 0.61
        x0 = (R * math.cos(th), R * math.sin(th))
        for col, dens in ((0, "nu"), (1, "t")):
            disp = lambda x: slp_displacement(P11, omega, R, n, dens, x)
            t_out = fd_traction(disp, 1.0, 1.0, R * (1 + 1e-5), th, h=1e-7)
            t_in = fd_traction(disp, 1.0, 1.0, R * (1 - 1e-5), th, h=1e-7)
            assert np.max(np.abs(t_out - polar_to_cartesian(ge[:, col], n, x0))) < 1e-4
            assert np.max(np.abs(t_in - polar_to_cartesian(gi[:, col], n, x0))) < 1e-4

    def test_verbatim_boundary_forms(self):
        # entrywise closed forms of the trace and traction matrices,
        # written out independently as cross-checks
        p, omega, R, n = LameParams(1.4, 0.8), 1.7, 1.1, 6
        wn = wavenumbers(p, omega)
        ks, kp = wn.ks, wn.kp
        js, jps = sp.jv(n, ks * R), sp.jvp(n, ks * R)
        hs, hps = sp.hankel1(n, ks * R), sp.h1vp(n, ks * R)
        jp_, jpp = sp.jv(n, kp * R), sp.jvp(n, kp * R)
        hp_, hpp = sp.hankel1(n, kp * R), sp.h1vp(n, kp * R)
        om2 = omega**2
        mu = p.mu
        a1 = -1j * np.pi / (2 * om2 * R) * (n**2 * js * hs + (kp * R) ** 2 * jpp * hpp)
        a2 = n * np.pi / (2 * om2) * (ks * js * hps + kp * jpp * hp_)
        a3 = -n * np.pi / (2 * om2) * (ks * jps * hs + kp * jp_ * hpp)
        a4 = -1j * np.pi / (2 * om2 * R) * ((ks * R) ** 2 * jps * hps + n**2 * jp_ * hp_)
        alpha = np.array([[a1, a3], [a2, a4]])
        assert np.max(np.abs(alpha - mode_matrix_boundary(p, omega, R, n))) < 1e-12

        g1 = 1j * np.pi / (2 * om2 * R**2) * (
            2 * mu * n**2 * js * (hs - ks * R * hps)
            + jpp * kp * R * (hp_ * (om2 * R**2 - 2 * mu * n**2) + 2 * kp * mu * R * hpp)
        )
        g2 = -n * mu * np.pi / (2 * om2 * R**2) * (
            js * hs * ((ks * R) ** 2 - 2 * n**2)
            + 2 * R * (ks * js * hps + kp * jpp * (hp_ - kp * R * hpp))
        )
        g3 = n * np.pi / (2 * om2 * R**2) * (
            jp_ * hp_ * ((p.lam + 2 * mu) * (kp * R) ** 2 - 2 * mu * n**2)
            + 2 * mu * R * (kp * jp_ * hpp + ks * jps * (hs - ks * R * hps))
        )
        g4 = 1j * mu * np.pi / (2 * om2 * R**2) * (
            2 * n**2 * jp_ * (hp_ - kp * R * hpp)
            + jps * ks * R * ((ks * R) ** 2 * hs + 2 * ks * R * hps - 2 * n**2 * hs)
        )
        g = np.array([[g1, g3], [g2, g4]])
        assert np.max(np.abs(g - traction_matrix(p, omega, R, n))) < 1e-12


class TestQpTraction:
    def test_zero_mode(self):
        wn = wavenumbers(P11, 1.0)
        g1, _ = wave_entries(True, True, 0, wn.ks, 1.0, P11)
        _, g4 = wave_entries(False, True, 0, wn.kp, 1.0, P11)
        assert g1 == 0 and g4 == 0

    def test_fd_oracle(self):
        omega, R, n = 1.0, 1.0, 5
        wn = wavenumbers(P11, omega)
        for shear, k in ((True, wn.ks), (False, wn.kp)):
            th = 0.37
            got = wave_entries(shear, True, n, k, R, P11)
            pred = polar_to_cartesian(got, n, (R * math.cos(th), R * math.sin(th)))
            ref = fd_traction(wave_field(shear, True, n, k), 1.0, 1.0, R, th, h=1e-6)
            assert np.max(np.abs(pred - ref)) < 1e-6


class TestWaveBasis:
    @pytest.mark.parametrize("kind", KINDS.values(), ids=list(KINDS))
    def test_lame_solution(self, kind):
        shear, interior = kind
        wn = wavenumbers(P11, 1.0)
        k = wn.ks if shear else wn.kp
        f = wave_field(shear, interior, 4, k)
        r = 0.6 if interior else 1.7
        x = (r * math.cos(0.9), r * math.sin(0.9))
        res = fd_lame_residual(f, 1.0, 1.0, 1.0, x, h=1e-3)
        scale = float(np.max(np.abs(f(x))))
        assert res < 1e-4 * (scale + 1.0)

    @pytest.mark.parametrize("kind", KINDS.values(), ids=list(KINDS))
    def test_divergence_curl_split(self, kind):
        # exterior kinds are probed farther out so the h^2 stencil error of
        # the (n/r)^3-sized third derivative stays under the 1e-5 bound
        shear, interior = kind
        wn = wavenumbers(P11, 1.0)
        k = wn.ks if shear else wn.kp
        f = wave_field(shear, interior, 4, k)
        r = 0.6 if interior else 3.0
        x = np.array([r * math.cos(0.4), r * math.sin(0.4)])
        h = 1e-3
        ex, ey = np.array([h, 0]), np.array([0, h])
        dux = (f(x + ex) - f(x - ex)) / (2 * h)
        duy = (f(x + ey) - f(x - ey)) / (2 * h)
        div = abs(dux[0] + duy[1])
        curl = abs(dux[1] - duy[0])
        scale = float(np.max(np.abs(f(x)))) + 1e-30
        if shear:
            assert div < 1e-5 * scale and curl > 1e-2 * scale
        else:
            assert curl < 1e-5 * scale and div > 1e-2 * scale

    def test_radiation_decay(self):
        # outgoing kinds with real k: amplitude * sqrt(r) stays bounded
        wn = wavenumbers(P11, 1.0)
        for shear, k in ((True, wn.ks), (False, wn.kp)):
            f = wave_field(shear, False, 3, k)
            vals = []
            for r in np.linspace(2.0, 100.0, 25):
                vals.append(float(np.linalg.norm(f((r, 0.0)))) * math.sqrt(r))
            assert max(vals) < 3.0 * vals[0]

    def test_slp_field_pde_residual(self):
        disp = lambda x: slp_displacement(P11, 1.0, 1.0, 3, "t", x)
        for x in ((0.5, 0.2), (1.6, -0.9)):
            scale = float(np.max(np.abs(disp(x))))
            assert fd_lame_residual(disp, 1.0, 1.0, 1.0, x) < 1e-4 * (scale + 1.0)


class TestTwoRadius:
    def test_coincident_limit(self):
        b = two_radius_coupling(P11, 1.0, 1.0 - 1e-9, 1.0, 5)
        ref = mode_matrix_boundary(P11, 1.0, 1.0, 5)
        assert np.max(np.abs(b.trace_inner - ref)) < 1e-6
        assert np.max(np.abs(b.trace_outer - ref)) < 1e-6

    def test_zero_mode_structure(self):
        b = two_radius_coupling(P11, 1.0, 0.8, 1.0, 0)
        for m in (b.trace_inner, b.trace_outer, b.traction_inner, b.traction_outer):
            assert m[0, 1] == 0 and m[1, 0] == 0

    def test_quadrature_oracle(self, rng):
        lam, mu, omega = 1.3, 0.9, 1.7
        p = LameParams(lam, mu)
        ri, re, n = 0.8, 1.2, 5
        b = two_radius_coupling(p, omega, ri, re, n)
        for (src, ev, mat) in ((re, ri, b.trace_inner), (ri, re, b.trace_outer)):
            for col, dens in ((0, "nu"), (1, "t")):
                th = 0.9
                x = (ev * math.cos(th), ev * math.sin(th))
                ref = quad_vector_converged(lam, mu, omega, src, n, dens, x)
                pred = polar_to_cartesian(mat[:, col], n, x)
                assert np.max(np.abs(pred - ref)) < 1e-6

    def test_traction_blocks_fd_oracle(self):
        lam, mu, omega = 1.0, 1.0, 1.0
        p = LameParams(lam, mu)
        ri, re, n = 0.8, 1.25, 4
        b = two_radius_coupling(p, omega, ri, re, n)
        th = 0.3
        for (src, ev, mat) in ((re, ri, b.traction_inner), (ri, re, b.traction_outer)):
            for col, dens in ((0, "nu"), (1, "t")):
                disp = lambda x: slp_displacement(p, omega, src, n, dens, x)
                ref = fd_traction(disp, lam, mu, ev, th, h=1e-6)
                x0 = (ev * math.cos(th), ev * math.sin(th))
                pred = polar_to_cartesian(mat[:, col], n, x0)
                assert np.max(np.abs(pred - ref)) < 1e-6

    def test_verbatim_inner_trace_forms(self):
        # entrywise closed form of the outer-circle potential traced on
        # the inner circle, written out independently as a cross-check
        p, omega = LameParams(1.0, 1.0), 1.0
        ri, re, n = 0.8, 1.0, 5
        wn = wavenumbers(p, omega)
        ks, kp = wn.ks, wn.kp
        om2 = omega**2

        def J(m, z):
            return sp.jv(m, z)

        e1 = -1j * np.pi / (2 * om2 * ri) * (
            n**2 * J(n, ks * ri) * sp.hankel1(n, ks * re)
            + kp**2 * ri * re * sp.jvp(n, kp * ri) * sp.h1vp(n, kp * re)
        )
        e2 = n * np.pi / (2 * om2 * ri) * (
            ks * ri * sp.jvp(n, ks * ri) * sp.hankel1(n, ks * re)
            + kp * re * J(n, kp * ri) * sp.h1vp(n, kp * re)
        )
        e3 = -n * np.pi / (2 * om2 * ri) * (
            ks * re * J(n, ks * ri) * sp.h1vp(n, ks * re)
            + kp * ri * sp.jvp(n, kp * ri) * sp.hankel1(n, kp * re)
        )
        e4 = -1j * np.pi / (2 * om2 * ri) * (
            ks**2 * re * ri * sp.jvp(n, ks * ri) * sp.h1vp(n, ks * re)
            + n**2 * J(n, kp * ri) * sp.hankel1(n, kp * re)
        )
        eta = np.array([[e1, e3], [e2, e4]])
        b = two_radius_coupling(p, omega, ri, re, n)
        assert np.max(np.abs(eta - b.trace_inner)) < 1e-13


def test_mode_matrix_quasistatic_drift():
    # two-point Richardson check: the boundary matrix drifts from its
    # static limit at O(omega^2) (log-corrected), so doubling omega from
    # 1e-3 scales the drift by ~4
    ms = {w: mode_matrix_boundary(P11, w, 1.0, 3) for w in (1e-3, 2e-3, 4e-3)}
    ratio = np.abs((ms[4e-3] - ms[2e-3]) / (ms[2e-3] - ms[1e-3]))
    assert np.all(ratio > 3.2) and np.all(ratio < 4.8)


def test_mode_matrix_boundary_quadrature():
    # The trapezoid oracle needs a finite standoff from the source circle
    # (its error decays like exp(-panels * distance / R)), so the trace
    # matrix is checked to 1e-8 at nearby radii and the boundary value is
    # pinned by one-sided continuity from both sides.
    p, omega, R, n = LameParams(1.0, 1.0), 1.0, 1.0, 3
    th = 1.2
    for r_eval in (0.8 * R, 1.2 * R):
        m = slp_trace(p, omega, R, n, r_eval)
        x = (r_eval * math.cos(th), r_eval * math.sin(th))
        for col, dens in ((0, "nu"), (1, "t")):
            ref = quad_vector_converged(1.0, 1.0, omega, R, n, dens, x, tol=1e-11)
            pred = polar_to_cartesian(m[:, col], n, x)
            assert np.max(np.abs(pred - ref)) < 1e-8
    mb = mode_matrix_boundary(p, omega, R, n)
    for eps in (1e-6, 1e-8):
        for r_eval in (R * (1 - eps), R * (1 + eps)):
            drift = np.max(np.abs(slp_trace(p, omega, R, n, r_eval) - mb))
            assert drift < 10.0 * eps * np.max(np.abs(mb)) + 1e-12


class TestLayeredBatch:
    """A batched material gives the stack of the systems its entries give in
    batches of one, and those of its single materials to the array path's
    rounding."""

    SHELLS = [LameParams(-1.9 + 0.01j, -1.9 + 0.01j), LameParams(2.0, 0.5), P11]

    def test_batched_shell_with_shared_core_and_matrix(self):
        core, matrix, radii = LameParams(0.7, 1.2), LameParams(1.3, 0.9), (0.8, 1.0)
        stack = layered_system((core, self.SHELLS, matrix), radii, 5.0, 7)
        assert stack.shape == (3, 8, 8)
        for got, shell in zip(stack, self.SHELLS):
            alone = layered_system((core, [shell], matrix), radii, 5.0, 7)
            assert np.array_equal(got, alone[0])
            assert_within_cylinder_gap(got, (core, shell, matrix), radii, 5.0, 7)

    def test_every_material_batched(self):
        outer = self.SHELLS[::-1]
        stack = layered_system((self.SHELLS, outer), (1.0,), 1.0, 5)
        assert stack.shape == (3, 4, 4)
        for got, p_in, p_out in zip(stack, self.SHELLS, outer):
            assert np.array_equal(got, layered_system(([p_in], [p_out]), (1.0,), 1.0, 5)[0])
            assert_within_cylinder_gap(got, (p_in, p_out), (1.0,), 1.0, 5)

    @pytest.mark.parametrize("materials", [
        (SHELLS, SHELLS[:2]),  # batches of different lengths
        ([], P11),  # an empty batch
    ])
    def test_batch_lengths_must_agree(self, materials):
        with pytest.raises(ValueError, match="batched materials"):
            layered_system(materials, (1.0,), 1.0, 5)

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("materials, radii, k", [
        ((SHELLS, P11), (1.0,), 0),  # the disk
        ((LameParams(0.7, 1.2), SHELLS, LameParams(1.3, 0.9)), (0.8, 1.0), 1),  # shell
    ], ids=["disk", "shell"])
    def test_stacked_region_energy_is_per_system(self, rng, size, materials, radii, k):
        materials = [p if isinstance(p, LameParams) else p[:size] for p in materials]
        stack = layered_system(materials, radii, 5.0, 7)
        shape = (size, 2 * len(radii), 2)
        phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = region_energy(stack, phi, radii, k)
        assert got.shape == (size,)
        for e, system, densities in zip(got, stack, phi):
            alone = region_energy(system, densities, radii, k)
            assert type(alone) is float and float(e).hex() == alone.hex()
