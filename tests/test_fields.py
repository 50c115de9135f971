"""Field assembly on grids, interface continuity, localization profiles,
and the layered evaluator against the pointwise single-layer potentials."""
import math

import numpy as np
import pytest

from conftest import fd_lame_residual, incident_displacement, polar_to_cartesian
from elastodisk.calr import CoreShellConfig, recipe_config, solve_calr_mode
from elastodisk.fields import (
    INTERFACE_TAG,
    LayeredField,
    eval_total_field,
    polar_grid,
)
from elastodisk.media import AnnulusGeometry, LameParams
from elastodisk.nocore import (
    NewtonianPotential,
    SourceModes,
    SourceTerm,
    solve_modes,
)
from elastodisk.potentials import slp_trace

P11 = LameParams(1.0, 1.0)


def slp_field(p, omega, R, n, density="nu"):
    """Unit-density single-layer mode, the localization study object."""
    unit = [1.0, 0.0] if density == "nu" else [0.0, 1.0]
    return LayeredField((p, p), (R,), omega, {n: np.array([unit, unit], complex)})


def disk_field(p_in, p_out, omega, R, src):
    sols = solve_modes(p_in, p_out, omega, R, src)
    return LayeredField((p_in, p_out), (R,), omega, {s.n: s.phi for s in sols}, src)


def profile(field, radii, thetas=16):
    """Max over `thetas` equispaced angles of |u| on each ring."""
    ths = 2.0 * math.pi * np.arange(thetas) / thetas
    return {
        r: float(np.max(np.linalg.norm(field.evaluate(polar_grid([r], ths)), axis=1)))
        for r in radii
    }


class TestEvalTotalField:
    def test_trivial_contrast_equals_incident(self):
        src = SourceModes.single(5, 1.0, 0.2)
        field = disk_field(P11, P11, 1.0, 1.0, src)
        pot = NewtonianPotential(src, P11, 1.0, 1.0)
        pts = polar_grid([0.3, 0.8, 1.4, 2.2], np.linspace(0, 2 * np.pi, 8))
        grid = eval_total_field(field, pts)
        for pt, val in zip(grid.points, grid.values):
            ref = incident_displacement(pot, pt)
            assert np.max(np.abs(val - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_interface_tube_skipped(self):
        field = disk_field(P11, P11, 1.0, 1.0, SourceModes.single(3, 1.0, 0.0))
        pts = [(1.0 + 1e-9, 0.0), (0.5, 0.0)]
        grid = eval_total_field(field, pts)
        assert grid.regions[0] == INTERFACE_TAG
        assert np.all(np.isnan(grid.values[0]))
        assert grid.regions[1] == "shell"
        assert np.all(np.isfinite(grid.values[1]))

    def test_region_tags_core_shell(self):
        cfg = CoreShellConfig(AnnulusGeometry(0.8, 1.0), P11, P11, P11, 1.0, 5)
        sol = solve_calr_mode(cfg, SourceTerm(5, 1.0, 0.0))
        field = LayeredField(*cfg.layers, 1.0, {5: sol.phi}, SourceModes.single(5))
        pts = [(0.4, 0.0), (0.9, 0.0), (1.5, 0.0)]
        grid = eval_total_field(field, pts)
        assert grid.regions == ("core", "shell", "exterior")

    def test_continuity_across_interfaces(self):
        # solved lossy-contrast disk: traces from both sides agree
        c = complex(-1.9, 1e-4)
        field = disk_field(P11.scaled(c), P11, 1.0, 1.0, SourceModes.single(5, 1.0))
        ths = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        ui = field.evaluate(polar_grid([1 - 1e-11], ths))
        uo = field.evaluate(polar_grid([1 + 1e-11], ths))
        for a, b in zip(ui, uo):
            assert np.max(np.abs(a - b)) < 1e-8 * max(1.0, np.max(np.abs(b)))

    def test_pde_residual_of_solved_field(self):
        c = complex(-1.9, 1e-3)
        field = disk_field(P11.scaled(c), P11, 1.0, 1.0, SourceModes.single(4, 1.0))
        # exterior obeys the matrix-material equation
        x = (1.7, 0.8)
        u = lambda y: field.evaluate([y])[0]  # the evaluator on one point
        scale = float(np.max(np.abs(u(x))))
        assert fd_lame_residual(u, 1.0, 1.0, 1.0, x) < 1e-4 * (scale + 1.0)


class TestRadialProfile:
    def test_single_outgoing_mode_decay(self):
        # the exterior layer potential of one mode radiates: amplitude *
        # sqrt(r) stays bounded out to r = 100
        prof = profile(slp_field(P11, 1.0, 1.0, 3), np.linspace(2.0, 100.0, 20), 8)
        scaled = [amp * math.sqrt(r) for r, amp in prof.items()]
        assert max(scaled) < 3.0 * scaled[0]

    def test_interior_basis_envelope_oracle(self):
        # inside the circle a single mode's |u| does not depend on the angle:
        # the ring maximum is the coefficient envelope sqrt(|c_nu|^2 + |c_t|^2)
        f = slp_field(P11, 1.0, 1.0, 4)
        for r, amp in profile(f, [0.2, 0.5, 0.9]).items():
            c = slp_trace(P11, 1.0, 1.0, 4, r)[:, 0]
            ref = math.sqrt(abs(c[0]) ** 2 + abs(c[1]) ** 2)
            assert amp == pytest.approx(ref, rel=1e-12)

    def test_localization_beyond_quasistatic(self):
        # omega = 20: the interior amplitude is NOT boundary-localized (its
        # maximum sits at the turning-point ring well inside the disk)
        f = slp_field(P11, 20.0, 1.0, 5)
        prof = profile(f, [0.3, 0.95, 1.05, 2.5])
        assert prof[0.95] / prof[0.3] <= 3.0
        # the exterior profile peaks at the surface up to the two-wavenumber
        # interference ripple, decaying outward at the cylindrical-spreading
        # rate (between r^-1/2 and r^-3/2)
        ext = list(profile(f, np.linspace(1.05, 3.0, 12)).values())
        assert max(ext) < 1.1 * ext[0]
        assert ext[-1] < 0.8 * ext[0]
        ratio = prof[1.05] / prof[2.5]
        assert 1.0 < ratio < (2.5 / 1.05) ** 1.5

    def test_localization_quasistatic(self):
        # omega = 0.1: both sides are boundary-localized
        prof = profile(slp_field(P11, 0.1, 1.0, 5), [0.3, 0.95, 1.05, 2.5])
        assert prof[0.95] / prof[0.3] >= 10.0
        assert prof[1.05] / prof[2.5] >= 10.0


def pointwise_reference(field, x):
    """One point, one mode at a time: slp_trace composed with
    polar_to_cartesian in the point's region, plus the incident outside."""
    r = math.hypot(float(x[0]), float(x[1]))
    L = len(field.radii)
    j = sum(r >= s for s in field.radii)
    mat, om = field.materials[j], field.omega
    u = np.zeros(2, dtype=complex)
    for n, phi in field.densities.items():
        if j > 0:
            m = slp_trace(mat, om, field.radii[j - 1], n, r, exterior=True)
            u += polar_to_cartesian(m @ phi[2 * j - 1], n, x)
        if j < L:
            m = slp_trace(mat, om, field.radii[j], n, r, exterior=False)
            u += polar_to_cartesian(m @ phi[2 * j], n, x)
    if j == L and field.source is not None:
        pot = NewtonianPotential(field.source, field.materials[L], om, field.radii[-1])
        u += incident_displacement(pot, x)
    return u


def assert_rows_match(values, refs, rel=1e-14):
    for u, ref in zip(values, refs):
        assert np.linalg.norm(u - ref) <= rel * np.linalg.norm(ref)


class TestLayeredFieldOracle:
    """Every row of the evaluator against the pointwise potentials."""

    @pytest.mark.parametrize("density", ["nu", "t"])
    @pytest.mark.parametrize("omega, stop, steps", [(0.1, 2.0, 40), (20.0, 3.0, 60)])
    def test_slp_grid(self, omega, stop, steps, density):
        # the grids of the shipped slp field configs; at omega = 0.1 the
        # 1/omega^2 cancellation turns a 1-ulp change of a point's radius
        # into a visible one of its row
        pts = polar_grid(
            np.linspace(0.05, stop, steps), 2.0 * math.pi * np.arange(64) / 64
        )
        field = slp_field(P11, omega, 1.0, 5, density)
        refs = [pointwise_reference(field, x) for x in pts]
        assert_rows_match(field.evaluate(pts), refs)

    def test_lossy_disk_two_modes(self):
        src = SourceModes((SourceTerm(3, 1.0, 0.2), SourceTerm(5, 0.5j, 0.0)))
        field = disk_field(P11.scaled(complex(-1.9, 1e-3)), P11, 1.3, 1.0, src)
        pts = polar_grid(np.linspace(0.1, 2.5, 25), np.linspace(0.0, 6.0, 24))
        refs = [pointwise_reference(field, x) for x in pts]
        assert_rows_match(field.evaluate(pts), refs)

    def test_tuned_core_shell_grid(self):
        geo = AnnulusGeometry(0.8, 1.0)
        cfg = recipe_config(geo, P11, P11, 5.0, 25, p_tune=0.0159574927)
        src = SourceModes.single(25, 1.0)
        field = LayeredField(
            *cfg.layers, 5.0, {25: solve_calr_mode(cfg, src.terms[0]).phi}, src
        )
        pts = polar_grid(
            np.linspace(0.1, 1.6, 30), 2.0 * math.pi * np.arange(32) / 32
        )
        # plus the exterior-bound circle of calr_energy
        ring = polar_grid([geo.r_outer**2 / geo.r_inner], np.linspace(0, 2 * np.pi, 128))
        pts = np.vstack([pts, ring])
        refs = [pointwise_reference(field, x) for x in pts]
        assert_rows_match(field.evaluate(pts), refs)


def test_incident_alone_is_the_field_without_densities():
    src = SourceModes.single(4, 1.0, 0.3)
    field = LayeredField((P11, P11), (1.0,), 1.0, {}, src)
    pot = NewtonianPotential(src, P11, 1.0, 1.0)
    pts = polar_grid([1.0, 1.7, 3.2], np.linspace(0.0, 6.0, 9))
    assert_rows_match(field.evaluate(pts), [incident_displacement(pot, x) for x in pts])


def test_origin_rejected():
    with pytest.raises(ValueError):
        slp_field(P11, 1.0, 1.0, 2).evaluate([(0.0, 0.0)])


def test_polar_grid_layout():
    pts = polar_grid([1.0, 2.0], [0.0, math.pi / 2])
    assert pts.shape == (4, 2)
    assert pts[0] == pytest.approx([1.0, 0.0])
    assert pts[3] == pytest.approx([0.0, 2.0], abs=1e-15)
