"""Core-shell system: assembly structure, determinant tuning, energy
blow-up versus exterior boundedness."""
import math

import numpy as np
import pytest

from conftest import incident_displacement
from elastodisk.calr import (
    CoreShellConfig,
    TuningFailedError,
    Verdict,
    assemble_calr_matrix,
    calr_energy,
    calr_rhs,
    critical_radius,
    det_m,
    recipe_config,
    shell_dissipation,
    shell_modulus,
    solve_calr_mode,
    tune_p,
)
from elastodisk.fields import LayeredField
from elastodisk.media import AnnulusGeometry, LameParams
from elastodisk.nocore import (
    NewtonianPotential,
    SourceModes,
    SourceTerm,
    assemble_mode_system,
    solve_mode,
)
from elastodisk.potentials import layered_system

GEO = AnnulusGeometry(0.8, 1.0)
P11 = LameParams(1.0, 1.0)
OMEGA = 5.0
N0 = 25

# Real tuning offsets of the determinant dip for the working configuration,
# located once by scan + golden section (regenerated in test_tuning below).
P_TUNED = {15: 0.046327, 20: 0.027900, 25: 0.015957}


def fig_config(n0: int = N0, p: float = 0.0, delta: float | None = None):
    return recipe_config(GEO, P11, P11, OMEGA, n0, p_tune=p, delta=delta)


class TestAssembly:
    def test_zero_contrast_exterior_density_vanishes(self):
        cfg = CoreShellConfig(GEO, P11, P11, P11, 1.0, 5)
        sol = solve_calr_mode(cfg, SourceTerm(5, 1.0, 0.0))
        assert np.max(np.abs(sol.phi[3])) < 1e-10
        assert sol.residual < 1e-13
        # and the field is the straight continuation of the incident one
        src = SourceModes.single(5, 1.0, 0.0)
        field = LayeredField(*cfg.layers, 1.0, {5: sol.phi}, src)
        pot = NewtonianPotential(src, P11, 1.0, 1.0)
        pts = ((0.3, 0.2), (0.9, 0.05), (1.6, -0.4))
        for x, u in zip(pts, field.evaluate(pts)):
            ref = incident_displacement(pot, x)
            assert np.max(np.abs(u - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_outer_rows_degenerate_to_nocore_blocks(self):
        # zeroing the cross-circle couplings, the outer 4x4 corner is the
        # plain disk transmission system on the outer circle
        cfg = fig_config()
        m = assemble_calr_matrix(cfg, 7)
        m = m.copy()
        m[4:8, 2:4] = 0.0
        corner = m[4:8, 4:8]
        ref = assemble_mode_system(cfg.shell, cfg.matrix, OMEGA, GEO.r_outer, 7)
        assert np.max(np.abs(corner - ref)) == 0.0

    @pytest.mark.parametrize("n", [5, 25])
    def test_split_shell_matches_two_interfaces(self, n):
        # splitting the shell at r = 0.9 into two layers of the same
        # material adds an interface across which nothing changes
        cfg = fig_config()
        term = SourceTerm(n, 1.0, 0.0)
        ref = solve_calr_mode(cfg, term)
        m = layered_system(
            (cfg.core, cfg.shell, cfg.shell, cfg.matrix), (0.8, 0.9, 1.0), OMEGA, n
        )
        rhs = np.concatenate([np.zeros(4, dtype=complex), calr_rhs(cfg, term)])
        split = solve_mode(m, rhs, n=n)
        for got, want in ((split.phi[0], ref.phi[0]), (split.phi[5], ref.phi[3])):
            assert np.linalg.norm(got - want) < 1e-10 * np.linalg.norm(want)

    def test_rhs_layout(self):
        cfg = fig_config()
        rhs = calr_rhs(cfg, SourceTerm(N0, 1.0, 0.0))
        assert np.array_equal(rhs[:4], np.zeros(4))
        assert rhs[4] == pytest.approx(2.0)

    def test_mode_residuals(self):
        cfg = fig_config(p=P_TUNED[25])
        for n in (N0 - 1, N0, N0 + 3):
            sol = solve_calr_mode(cfg, SourceTerm(n, 1.0, 0.0))
            assert sol.residual < 1e-11


class TestTuning:
    def test_fig_configuration_dip(self):
        tr = tune_p(fig_config(), steps=161)
        assert abs(tr.p) <= 4.0 / N0
        assert tr.p == pytest.approx(P_TUNED[25], abs=2e-5)
        # the real-axis dip floor is |d det/dp| * delta (the det zero sits
        # at a real shell modulus), so min/median lands near delta divided
        # by the scan half-width: about 1e-2 here
        assert tr.dip_ratio < 0.02
        assert tr.abs_det < 0.02 * np.median(tr.scan_abs_det)

    def test_dip_floor_scales_with_delta(self):
        vals = []
        for frac in (1.0, 0.1):
            cfg = fig_config(delta=frac * GEO.critical_radius**0 * 0.8**N0)
            tr = tune_p(cfg, steps=121)
            vals.append(tr.abs_det)
        assert vals[1] == pytest.approx(0.1 * vals[0], rel=0.2)

    def test_tuned_offset_is_order_one_over_n0(self):
        for n0 in (15, 20, 25):
            tr = tune_p(fig_config(n0), steps=121, min_dip_ratio=0.5)
            assert abs(tr.p) <= 4.0 / n0
            assert tr.p == pytest.approx(P_TUNED[n0], abs=2e-4)

    def test_regular_shell_has_no_dip(self):
        cfg = CoreShellConfig(GEO, P11, LameParams(1.0, 1.0 + 0.00378j), P11,
                              OMEGA, N0)
        with pytest.raises(TuningFailedError):
            tune_p(cfg, steps=81)

    def test_scaling_invariance(self):
        # doubling both radii and halving the frequency leaves every k*r
        # argument unchanged, so the tuned offset is identical
        geo2 = AnnulusGeometry(1.6, 2.0)
        base = tune_p(fig_config(), steps=161)
        scaled_cfg = recipe_config(geo2, P11, P11, OMEGA / 2.0, N0)
        scaled = tune_p(scaled_cfg, steps=161)
        assert scaled.p == pytest.approx(base.p, abs=1e-6)

    def test_stacked_scan_matches_point_determinants(self):
        cfg = fig_config()
        tr = tune_p(cfg, steps=241)
        assert tr.scan_abs_det.tolist() == [abs(det_m(cfg, p)) for p in tr.scan_p]

    def test_complex_refine_reaches_the_zero(self):
        tr = tune_p(fig_config(), steps=121, complex_refine=True)
        assert abs(tr.p.imag) > 0  # leaves the real axis
        assert tr.abs_det < 1e-6 * np.median(tr.scan_abs_det)


class TestEnergy:
    def test_inside_branch_blowup_with_bounded_exterior(self):
        cfg = fig_config(p=P_TUNED[25])
        rep = calr_energy(cfg, SourceModes.single(N0, 1.0, 0.0))
        assert rep.energy > 1e4
        assert rep.exterior_bound <= 10.0 * rep.reference_bound
        assert rep.verdict is Verdict.CALR
        # lower-bound structure: energy within a factor 10 above
        # kappa^2 (r_e/r_i)^{n0}
        floor = (GEO.r_outer / GEO.r_inner) ** N0
        assert rep.energy > floor / 10.0

    def test_outside_branch_energy_bounded(self):
        cfg = fig_config(p=P_TUNED[25])
        rstar = critical_radius(GEO)
        terms = tuple(
            SourceTerm(n, (GEO.r_outer / (rstar + 0.05)) ** n, 0.0)
            for n in range(25, 36)
        )
        rep_all = calr_energy(cfg, SourceModes(terms))
        rep_head = calr_energy(cfg, SourceModes(terms[:6]))
        assert rep_all.verdict is Verdict.NO_RESONANCE
        assert rep_all.energy < 1e4
        # geometric decay: the truncated tail contributes a bounded increment
        assert rep_all.energy < 3.0 * rep_head.energy

    def test_heavy_loss_kills_resonance(self):
        cfg = fig_config(p=P_TUNED[25], delta=10.0)
        rep = calr_energy(cfg, SourceModes.single(N0, 1.0, 0.0))
        assert rep.verdict is Verdict.NO_RESONANCE

    def test_energy_positive_and_quadratic(self):
        cfg = fig_config(p=P_TUNED[25])
        sols1 = (solve_calr_mode(cfg, SourceTerm(N0, 1.0, 0.0)),)
        sols2 = (solve_calr_mode(cfg, SourceTerm(N0, 2.0, 0.0)),)
        e1 = shell_dissipation(cfg, sols1)
        e2 = shell_dissipation(cfg, sols2)
        assert e1 > 0
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)

    @pytest.mark.parametrize("n, builds", [(N0, [N0]), (N0 + 1, [N0 + 1, N0])])
    def test_working_mode_system_is_built_once(self, monkeypatch, n, builds):
        # det_m reuses the solved system when n0 is a source mode
        import elastodisk.calr as calr

        built = []

        def counted(materials, radii, omega, mode):
            built.append(mode)
            return layered_system(materials, radii, omega, mode)

        monkeypatch.setattr(calr, "layered_system", counted)
        cfg = fig_config(p=P_TUNED[25])
        rep = calr_energy(cfg, SourceModes.single(n, 1.0, 0.0))
        assert built == builds
        assert rep.det_m == complex(np.linalg.det(assemble_calr_matrix(cfg, N0)))

    def test_rejects_pressure_sources(self):
        with pytest.raises(ValueError):
            calr_energy(fig_config(), SourceModes.single(N0, 0.0, 1.0))

    def test_verdict_lattice(self):
        # the verdict is the conjunction of the two classification gates:
        # tightening either threshold flips it predictably on the same run
        cfg = fig_config(p=P_TUNED[25])
        src = SourceModes.single(N0, 1.0, 0.0)
        rep = calr_energy(cfg, src)
        assert rep.verdict is Verdict.CALR
        ratio = rep.exterior_bound / rep.reference_bound
        only = calr_energy(cfg, src, bound_factor=0.5 * ratio)
        assert only.verdict is Verdict.RESONANT_ONLY
        none = calr_energy(cfg, src, energy_threshold=10.0 * rep.energy)
        assert none.verdict is Verdict.NO_RESONANCE

    def test_outer_density_scale_follows_loss_kernel(self):
        # |phi4| tracks delta/(delta^2 + rho^{2 n0}) = rho^{-n0}/2 across
        # working modes; intermediate n-power prefactors are deliberately
        # not asserted (they do not match the residual-validated solution)
        ratios = []
        for n0 in (15, 20, 25):
            cfg = fig_config(n0, p=P_TUNED[n0])
            sol = solve_calr_mode(cfg, SourceTerm(n0, 1.0, 0.0))
            scale = 0.5 * (GEO.r_outer / GEO.r_inner) ** n0
            ratios.append(np.max(np.abs(sol.phi[3])) / scale)
        assert max(ratios) < 3.0 * min(ratios)


class TestTransmission:
    def test_boundary_traces_at_64_angles(self):
        from elastodisk.potentials import (
            mode_matrix_boundary,
            polar_to_cartesian,
            traction_matrix,
            two_radius_coupling,
        )

        cfg = fig_config(p=P_TUNED[25])
        term = SourceTerm(N0, 1.0, 0.0)
        sol = solve_calr_mode(cfg, term)
        ri, re = GEO.r_inner, GEO.r_outer
        blocks = two_radius_coupling(cfg.shell, OMEGA, ri, re, N0)
        pot = NewtonianPotential(SourceModes((term,)), cfg.matrix, OMEGA, re)
        f, ft = pot.boundary_coeffs(term)

        u_core = mode_matrix_boundary(cfg.core, OMEGA, ri, N0) @ sol.phi[0]
        u_shell_ri = (
            mode_matrix_boundary(cfg.shell, OMEGA, ri, N0) @ sol.phi[1]
            + blocks.trace_inner @ sol.phi[2]
        )
        w_core = traction_matrix(cfg.core, OMEGA, ri, N0, "interior_limit") @ sol.phi[0]
        w_shell_ri = (
            traction_matrix(cfg.shell, OMEGA, ri, N0, "exterior_limit") @ sol.phi[1]
            + blocks.traction_inner @ sol.phi[2]
        )
        u_shell_re = (
            blocks.trace_outer @ sol.phi[1]
            + mode_matrix_boundary(cfg.shell, OMEGA, re, N0) @ sol.phi[2]
        )
        u_out_re = mode_matrix_boundary(cfg.matrix, OMEGA, re, N0) @ sol.phi[3] + f
        w_shell_re = (
            blocks.traction_outer @ sol.phi[1]
            + traction_matrix(cfg.shell, OMEGA, re, N0, "interior_limit") @ sol.phi[2]
        )
        w_out_re = (
            traction_matrix(cfg.matrix, OMEGA, re, N0, "exterior_limit") @ sol.phi[3]
            + ft
        )
        for th in np.linspace(0, 2 * np.pi, 64, endpoint=False):
            for radius, a, b in (
                (ri, u_core, u_shell_ri),
                (ri, w_core, w_shell_ri),
                (re, u_shell_re, u_out_re),
                (re, w_shell_re, w_out_re),
            ):
                x = (radius * math.cos(th), radius * math.sin(th))
                ua = polar_to_cartesian(a, N0, x)
                ub = polar_to_cartesian(b, N0, x)
                scale = max(np.max(np.abs(ua)), np.max(np.abs(ub)), 1e-30)
                assert np.max(np.abs(ua - ub)) < 1e-10 * scale


class TestCriticalRadius:
    def test_working_geometry(self):
        assert critical_radius(GEO) == pytest.approx(1.1180, abs=5e-5)

    def test_exact_value(self):
        assert critical_radius(AnnulusGeometry(0.25, 1.0)) == pytest.approx(2.0)

    def test_thin_shell(self):
        g = AnnulusGeometry(1.0 - 1e-8, 1.0)
        assert critical_radius(g) == pytest.approx(1.0, abs=1e-7)


def test_lossy_shell_blocks_against_quadrature():
    # the tuned shell has a negative real modulus with a small positive
    # loss and near-imaginary wavenumbers; its cross-circle blocks must
    # still match the kernel quadrature
    from conftest import quad_vector_converged
    from elastodisk.potentials import polar_to_cartesian, two_radius_coupling

    mu_hat = complex(-0.5 + P_TUNED[25], 0.8**N0)
    shell = LameParams(mu_hat, mu_hat)
    b = two_radius_coupling(shell, OMEGA, GEO.r_inner, GEO.r_outer, N0)
    th = 0.7
    for src, ev, mat in (
        (GEO.r_outer, GEO.r_inner, b.trace_inner),
        (GEO.r_inner, GEO.r_outer, b.trace_outer),
    ):
        x = (ev * math.cos(th), ev * math.sin(th))
        for col, dens in ((0, "nu"), (1, "t")):
            ref = quad_vector_converged(
                shell.lam, shell.mu, OMEGA, src, N0, dens, x, tol=1e-12
            )
            pred = polar_to_cartesian(mat[:, col], N0, x)
            scale = max(float(np.max(np.abs(ref))), 1e-300)
            assert np.max(np.abs(pred - ref)) < 1e-9 * scale


def test_det_m_helper_consistency():
    cfg = fig_config()
    direct = np.linalg.det(assemble_calr_matrix(fig_config(p=0.01), N0))
    via_helper = det_m(cfg, 0.01)
    assert via_helper == pytest.approx(direct, rel=1e-12)


def test_shell_modulus_recipe():
    mu_hat = shell_modulus(P11, 0.1, 0.02)
    assert mu_hat == pytest.approx(complex(-0.48, 0.1))
    cfg = fig_config()
    assert cfg.shell.mu.imag == pytest.approx(0.8**N0)
    assert cfg.shell.lam == cfg.shell.mu  # proportional scaling at lam = mu
