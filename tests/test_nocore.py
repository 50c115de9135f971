"""No-core transmission solver: boundary data, block solve, closed forms,
resonance sweeps, dissipation energy."""
import math

import numpy as np
import pytest

import block_reference as ref
from conftest import fd_traction, incident_displacement, polar_to_cartesian
from elastodisk import nocore
from elastodisk.media import LameParams
from elastodisk.nocore import (
    NewtonianPotential,
    NormalizationSingularError,
    SourceModes,
    SourceTerm,
    solve_mode,
    solve_modes,
    source_boundary_data,
    sweep,
)
from elastodisk.potentials import layered_system, traction_matrix
from library_helpers import dissipation_energy, mode_matrix_boundary

P11 = LameParams(1.0, 1.0)

# Complex contrast where the mode-5 determinant of the unit disk at unit
# frequency vanishes; located by minimizing |det| (Nelder-Mead, both
# components free; see also the resonance sweep configs, whose peak sits
# on the 5-digit rounding of this value).
C_STAR = complex(-1.9643771578482667, 2.0842140415e-9)


def corrected_denominator(p_in, p_out, omega, R, n) -> complex:
    """Block-elimination denominator with the two defects of the verbatim
    expression fixed (the repeated cofactor pairing and the
    product-for-difference last line); equals det of the assembled 4x4
    exactly."""
    ah = mode_matrix_boundary(p_in, omega, R, n)
    a = mode_matrix_boundary(p_out, omega, R, n)
    gh = traction_matrix(p_in, omega, R, n)
    g = traction_matrix(p_out, omega, R, n)
    a1, a3, a2, a4 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    ah1, ah3, ah2, ah4 = ah[0, 0], ah[0, 1], ah[1, 0], ah[1, 1]
    g1, g3, g2, g4 = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    gh1, gh3, gh2, gh4 = gh[0, 0], gh[0, 1], gh[1, 0], gh[1, 1]
    return complex(
        (ah1 * ah4 - ah3 * ah2) * (g1 * g4 - g3 * g2)
        + (gh3 * ah2 - ah4 * (gh1 - 1)) * (g4 * a1 - g2 * a3)
        + (ah4 * gh2 - ah2 * (gh4 - 1)) * (g3 * a1 - g1 * a3)
        + (ah3 * gh2 - ah1 * (gh4 - 1)) * (g1 * a4 - g3 * a2)
        + (ah1 * gh3 - ah3 * (gh1 - 1)) * (g2 * a4 - g4 * a2)
        + (gh2 * gh3 - (gh4 - 1) * (gh1 - 1)) * (a3 * a2 - a1 * a4)
    )


def closed_form_coeffs(
    p_in: LameParams,
    p_out: LameParams,
    omega: float,
    R: float,
    n: int,
    f: np.ndarray,
    ft: np.ndarray,
) -> tuple[complex, complex, complex]:
    """(c1, c2, d): the hand-derived closed form of the mode system, verbatim.

    Kept solely as a cross-check of the numeric solve.  The numerators are
    exact; the denominator expression repeats one cofactor pairing and
    closes with a product where a difference of products belongs, so c/d
    only reproduces the solve up to those defects (the test suite carries
    the corrected six-term expansion and quantifies the gap).
    """
    ah = mode_matrix_boundary(p_in, omega, R, n)
    a = mode_matrix_boundary(p_out, omega, R, n)
    gh = traction_matrix(p_in, omega, R, n, side="exterior_limit")
    g = traction_matrix(p_out, omega, R, n, side="exterior_limit")
    a1, a3, a2, a4 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    ah1, ah3, ah2, ah4 = ah[0, 0], ah[0, 1], ah[1, 0], ah[1, 1]
    g1, g3, g2, g4 = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    gh1, gh3, gh2, gh4 = gh[0, 0], gh[0, 1], gh[1, 0], gh[1, 1]
    f1, f2 = f[0], f[1]
    ft1, ft2 = ft[0], ft[1]

    c1 = (
        (f2 * ah3 - f1 * ah4) * (g3 * g2 - g1 * g4)
        + (f2 * (gh4 - 1) - ft2 * ah4) * (g1 * a3 - g3 * a1)
        + (f2 * gh3 - ft1 * ah4) * (g4 * a1 - g2 * a3)
        + (f1 * (gh4 - 1) - ft2 * ah3) * (g3 * a2 - g1 * a4)
        + (f1 * gh3 - ft1 * ah3) * (g2 * a4 - g4 * a2)
        + (ft1 * (gh4 - 1) - ft2 * gh3) * (a1 * a4 - a3 * a2)
    )
    c2 = (
        (f2 * ah1 - f1 * ah2) * (g1 * g4 - g3 * g2)
        + (ft2 * (gh1 - 1) - ft1 * gh2) * (a1 * a4 - a3 * a2)
        + (f1 * gh2 - ft2 * ah1) * (g1 * a4 - g3 * a2)
        + (f2 * (gh1 - 1) - ft1 * ah2) * (g2 * a3 - g4 * a1)
        + (f2 * gh2 - ft2 * ah2) * (g3 * a1 - g1 * a3)
        + (f1 * (gh1 - 1) - ft1 * ah1) * (g4 * a2 - g2 * a4)
    )
    d = (
        (ah1 * ah4 - ah3 * ah2) * (g1 * g4 - g3 * g2)
        + (gh3 * ah2 - ah4 * (gh1 - 1)) * (g4 * a1 - g2 * a3)
        + (gh3 * ah2 - ah4 * (gh1 - 1)) * (a1 * g4 - g2 * a3)
        + (ah3 * gh2 - ah1 * (gh4 - 1)) * (g1 * a4 - g3 * a2)
        + (ah1 * gh3 - ah3 * (gh1 - 1)) * (g2 * a4 - g4 * a2)
        + (gh2 * gh3 * (gh4 - 1) * (gh1 - 1)) * (a3 * a2 - a1 * a4)
    )
    return complex(c1), complex(c2), complex(d)


class TestSourceData:
    def test_normalized_trace_component(self):
        data = source_boundary_data(SourceModes.single(5, 1.0, 0.0), P11, 1.0, 1.0)
        f, _ = data[5]
        assert f[0] == pytest.approx(2.0)

    def test_pressure_trace_component(self):
        data = source_boundary_data(SourceModes.single(4, 0.0, 1.0), P11, 1.0, 1.0)
        f, _ = data[4]
        assert f[1] == pytest.approx(2j)

    def test_boundary_trace_pointwise(self):
        src = SourceModes.single(5, 0.7 + 0.2j, -0.3)
        pot = NewtonianPotential(src, P11, 1.0, 1.0)
        f, _ = pot.boundary_coeffs(src.terms[0])
        for th in np.linspace(0, 2 * np.pi, 64, endpoint=False):
            x = (math.cos(th), math.sin(th))
            direct = incident_displacement(pot, x)
            modal = polar_to_cartesian(f, 5, x)
            assert np.max(np.abs(direct - modal)) < 1e-10 * np.max(np.abs(direct))

    def test_traction_data_fd_oracle(self):
        src = SourceModes.single(5, 1.0, 0.0)
        pot = NewtonianPotential(src, P11, 1.0, 1.0)
        _, ft = pot.boundary_coeffs(src.terms[0])
        th = 0.81
        ref = fd_traction(
            lambda x: incident_displacement(pot, x), 1.0, 1.0, 1.0, th, h=1e-6
        )
        pred = polar_to_cartesian(ft, 5, (math.cos(th), math.sin(th)))
        assert np.max(np.abs(pred - ref)) < 1e-6

    def test_rejects_zero_mode(self):
        with pytest.raises(ValueError):
            SourceTerm(0, 1.0, 0.0)

    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_rejects_nonpositive_radius(self, r):
        src = SourceModes.single(5, 1.0, 0.3)
        pot = NewtonianPotential(src, P11, 1.0, 1.0)
        with pytest.raises(ValueError, match="radius must be positive"):
            pot.coeffs(src.terms[0], r)

    def test_normalization_singularity_flagged(self):
        # an exact float zero of J_n(kR) occurs at extreme orders through
        # underflow; the guard must flag it instead of dividing
        with pytest.raises(NormalizationSingularError):
            source_boundary_data(SourceModes.single(150, 1.0, 0.0), P11, 0.5, 1.0)

    def test_unused_family_normalization_is_skipped(self):
        # kappa2 = 0: the pressure-family normalization must not be touched;
        # at this order J_n(kp R) is a denormal whose reciprocal overflows
        # (kp < ks, so the pressure family degenerates first)
        src = SourceModes.single(170, 1.0, 0.0)
        data = source_boundary_data(src, P11, 3.0, 1.0)
        f, ft = data[170]
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(ft))
        assert f[0] == pytest.approx(2.0)
        # the same order with a pressure weight is flagged, not inf'd
        with pytest.raises(NormalizationSingularError):
            source_boundary_data(SourceModes.single(170, 1.0, 1.0), P11, 3.0, 1.0)


class TestModeSystem:
    def test_trivial_contrast(self):
        sols = solve_modes(P11, P11, 1.0, 1.0, SourceModes.single(5, 1.0, 0.0))
        s = sols[0]
        assert np.max(np.abs(s.psi2)) < 1e-10
        assert s.residual < 1e-13
        assert not s.near_singular

    def test_block_determinant_vs_closed_form(self, rng):
        # det of the assembled system equals the corrected block-elimination
        # denominator exactly (constant factor 1) on 10 random draws
        for _ in range(10):
            c = complex(rng.uniform(-3, 3), rng.uniform(0, 0.5))
            omega = float(rng.uniform(0.5, 2.0))
            m = layered_system((P11.scaled(c), P11), (1.0,), omega, 5)
            d = corrected_denominator(P11.scaled(c), P11, omega, 1.0, 5)
            assert np.linalg.det(m) == pytest.approx(d, rel=1e-10)

    def test_closed_form_solution_matches_solve(self, rng):
        # the verbatim numerators over the corrected denominator reproduce
        # the numeric solve to much better than 1e-8
        src = SourceModes.single(5, 1.0, 0.0)
        for _ in range(8):
            c = complex(rng.uniform(0.3, 3.0), rng.uniform(0, 0.2))
            omega = float(rng.uniform(0.5, 2.0))
            f, ft = source_boundary_data(src, P11, omega, 1.0)[5]
            c1, c2, _ = closed_form_coeffs(P11.scaled(c), P11, omega, 1.0, 5, f, ft)
            d = corrected_denominator(P11.scaled(c), P11, omega, 1.0, 5)
            s = solve_modes(P11.scaled(c), P11, omega, 1.0, src)[0]
            assert abs(s.psi1[0] - c1 / d) < 1e-8 * abs(s.psi1[0])
            assert abs(s.psi1[1] - c2 / d) < 1e-8 * max(abs(s.psi1[1]), 1e-30)

    def test_verbatim_denominator_defects_logged(self, rng):
        # the verbatim denominator does NOT reduce to the block
        # determinant: the mismatch ratio drifts across draws; record it
        ratios = []
        for _ in range(6):
            c = complex(rng.uniform(0.5, 2.5), 0.01)
            f = np.array([2.0, 0.1j])
            ft = np.array([0.3, 0.2j])
            _, _, d_verb = closed_form_coeffs(P11.scaled(c), P11, 1.3, 1.0, 5, f, ft)
            d_cor = corrected_denominator(P11.scaled(c), P11, 1.3, 1.0, 5)
            ratios.append(d_verb / d_cor)
        drift = max(abs(r - ratios[0]) for r in ratios)
        print(f"\nverbatim/corrected denominator ratios: {ratios} (drift {drift:.3f})")
        assert drift > 1e-3  # genuinely not a constant factor

    def test_peak_configuration_blowup(self):
        sols = solve_modes(P11.scaled(C_STAR), P11, 1.0, 1.0,
                           SourceModes.single(5, 1.0, 0.0))
        s = sols[0]
        assert abs(s.psi1[0]) > 1e6
        assert s.near_singular and s.condition > 1e9

    def test_off_peak_is_moderate(self):
        sols = solve_modes(P11.scaled(complex(-1.90, 2.08e-9)), P11, 1.0, 1.0,
                           SourceModes.single(5, 1.0, 0.0))
        assert abs(sols[0].psi1[0]) < 1e3

    def test_transmission_residual_at_peak(self):
        # boundary traces of the solved fields match the incident data at 64
        # angles, relative to the local field scale
        src = SourceModes.single(5, 1.0, 0.0)
        sols = solve_modes(P11.scaled(C_STAR), P11, 1.0, 1.0, src)
        s = sols[0]
        f, ft = source_boundary_data(src, P11, 1.0, 1.0)[5]
        that1 = mode_matrix_boundary(P11.scaled(C_STAR), 1.0, 1.0, 5)
        t1 = mode_matrix_boundary(P11, 1.0, 1.0, 5)
        that2 = traction_matrix(P11.scaled(C_STAR), 1.0, 1.0, 5, "interior_limit")
        t2 = traction_matrix(P11, 1.0, 1.0, 5, "exterior_limit")
        for th in np.linspace(0, 2 * np.pi, 64, endpoint=False):
            x = (math.cos(th), math.sin(th))
            u_in = polar_to_cartesian(that1 @ s.psi1, 5, x)
            u_out = polar_to_cartesian(t1 @ s.psi2 + f, 5, x)
            w_in = polar_to_cartesian(that2 @ s.psi1, 5, x)
            w_out = polar_to_cartesian(t2 @ s.psi2 + ft, 5, x)
            scale = max(np.max(np.abs(u_in)), np.max(np.abs(u_out)))
            wscale = max(np.max(np.abs(w_in)), np.max(np.abs(w_out)))
            assert np.max(np.abs(u_in - u_out)) < 1e-10 * scale
            assert np.max(np.abs(w_in - w_out)) < 1e-10 * wscale

    def test_solve_mode_residual_diagnostics(self):
        m = np.eye(4, dtype=complex)
        s = solve_mode(m, np.ones(4, dtype=complex), n=3)
        assert s.residual < 1e-15 and not s.near_singular


class TestEnergy:
    def test_lossless_energy_vanishes(self):
        sols = solve_modes(P11.scaled(2.0 + 0j), P11, 1.0, 1.0,
                           SourceModes.single(5, 1.0, 0.0))
        e = dissipation_energy(sols, 1.0)
        scale = max(abs(s.psi1[0]) for s in sols) ** 2
        assert abs(e) < 1e-12 * scale
        assert e > -1e-12 * scale

    def test_lossy_energy_positive(self):
        c = complex(-1.9643, 1e-4)
        sols = solve_modes(P11.scaled(c), P11, 1.0, 1.0,
                           SourceModes.single(5, 1.0, 0.0))
        assert dissipation_energy(sols, 1.0) > 0

    def test_quadratic_in_source(self):
        c = complex(-1.9643, 1e-4)
        e = []
        for kap in (1.0, 2.0):
            sols = solve_modes(P11.scaled(c), P11, 1.0, 1.0,
                               SourceModes.single(5, kap, 0.0))
            e.append(dissipation_energy(sols, 1.0))
        assert e[1] == pytest.approx(4.0 * e[0], rel=1e-12)

    def test_additivity_over_modes(self):
        c = complex(-1.9, 1e-3)
        src_a = SourceModes.single(4, 1.0, 0.0)
        src_b = SourceModes.single(7, 0.0, 1.0)
        src_ab = SourceModes((SourceTerm(4, 1.0, 0.0), SourceTerm(7, 0.0, 1.0)))
        es = []
        for src in (src_a, src_b, src_ab):
            sols = solve_modes(P11.scaled(c), P11, 1.0, 1.0, src)
            es.append(dissipation_energy(sols, 1.0))
        assert es[2] == pytest.approx(es[0] + es[1], rel=1e-12)

    def test_energy_blowup_at_peak(self):
        sols = solve_modes(P11.scaled(C_STAR), P11, 1.0, 1.0,
                           SourceModes.single(5, 1.0, 0.0))
        assert dissipation_energy(sols, 1.0) > 1e6


class TestContrastLaw:
    def test_large_mode_growth(self):
        # at c = -(lam + 3 mu)/(lam + mu) exactly and small fixed loss the
        # mode amplitude grows without bound in n
        c = complex(-2.0, 1e-9)
        prev = 0.0
        for n in range(20, 41, 2):
            sols = solve_modes(P11.scaled(c), P11, 1.0, 1.0,
                               SourceModes.single(n, 1.0, 0.0))
            cur = abs(sols[0].psi1[0])
            assert cur > prev
            prev = cur


def diagnostic_bounds(c: complex, source: SourceModes):
    """How far |psi11|, the energy and the condition of the unit disk with
    shell c (matrix P11, omega 1) can move when its cylinder values come
    from the array path, to first order.

    Each entry of a mode's system M moves by dM (`ref.array_path_bound`);
    the solution by |M^-1| dM |x|, the right-hand side being the same on
    both paths; the energy 2 pi Im <u, w> of the interior trace u and
    traction w by 2 pi (|du| |w| + |u| |dw|); each singular value by
    ||dM||_F.  A row's maxima over the modes move by at most the largest
    bound, its summed energy by the sum.
    """
    d_psi = d_energy = d_cond = 0.0
    for s in solve_modes(P11.scaled(c), P11, 1.0, 1.0, source):
        m, x = s.system, s.phi.ravel()
        dm = ref.array_path_bound((P11.scaled(c), P11), (1.0,), 1.0, s.n)
        dx = np.abs(np.linalg.inv(m)) @ (dm @ np.abs(x))
        d_psi = max(d_psi, dx[0])
        interior = np.abs(x[:2]), dx[:2]
        u, w = np.abs(m[:2, :2] @ x[:2]), np.abs(m[2:, :2] @ x[:2])
        du, dw = (dm[k] @ interior[0] + np.abs(m[k]) @ interior[1]
                  for k in (np.s_[:2, :2], np.s_[2:, :2]))
        d_energy += 2.0 * math.pi * (du @ w + u @ dw)
        sv = np.linalg.svd(m, compute_uv=False)
        d_cond = max(d_cond, s.condition * np.linalg.norm(dm) * (1 / sv[0] + 1 / sv[-1]))
    return d_psi, d_energy, d_cond


def row_bits(res, i):
    """Row i of a sweep: its error and the bits of every column, as uint64
    views, so NaN rows compare too."""
    cols = (res.value, res.c, res.abs_psi11, res.energy, res.condition, res.residual)
    return res.error[i], [col[i : i + 1].view(np.uint64).tolist() for col in cols]


def residual_oracle(system, sol, rhs) -> float:
    """The per-system residual formula of the solve before it was stacked."""
    res = np.linalg.norm(system @ sol - rhs)
    scale = np.linalg.norm(system) * np.linalg.norm(sol) + np.linalg.norm(rhs)
    return float(res / scale) if scale > 0 else float(res)


class TestSweep:
    def test_single_step_equals_point_solve(self):
        res = sweep("re_c", -1.9, -1.9, 1, matrix=P11, omega=1.0, R=1.0,
                    source=SourceModes.single(5, 1.0, 0.0), c_other=2.08e-9)
        assert len(res.value) == 1
        direct = solve_modes(P11.scaled(complex(-1.9, 2.08e-9)), P11, 1.0, 1.0,
                             SourceModes.single(5, 1.0, 0.0))
        assert res.abs_psi11[0] == pytest.approx(abs(direct[0].psi1[0]))

    def test_errors_recorded_in_row(self):
        # omega <= 0 canned inside a point cannot happen; force failure via a
        # degenerate material in the sweep by passing mu=0 contrast c=0
        res = sweep("re_c", 0.0, 0.0, 1, matrix=P11, omega=1.0, R=1.0,
                    source=SourceModes.single(5, 1.0, 0.0), c_other=0.0)
        assert res.error[0] != ""
        assert math.isnan(res.abs_psi11[0])

    def test_programming_errors_propagate(self, monkeypatch):
        # only numeric failures become row errors
        def broken(*args):
            raise TypeError("not a numeric failure")

        monkeypatch.setattr(nocore, "layered_system", broken)
        with pytest.raises(TypeError):
            sweep("re_c", -1.9, -1.9, 1, matrix=P11, omega=1.0, R=1.0,
                  source=SourceModes.single(5, 1.0, 0.0), c_other=2.08e-9)

    TWO_MODES = SourceModes((SourceTerm(5, 1.0), SourceTerm(3, 0.5, 0.2 + 0.1j)))
    RE_C = dict(matrix=P11, omega=1.0, R=1.0, source=TWO_MODES, c_other=0.0)

    @classmethod
    def assert_same_as_one_point_sweep(cls, res, i):
        """Every column of row i has the bits of its one-point sweep's row."""
        alone = sweep("re_c", res.value[i], res.value[i], 1, **cls.RE_C)
        assert row_bits(res, i) == row_bits(alone, 0)

    @classmethod
    def assert_rows_match_point_solves(cls, res, errors):
        """Healthy rows equal their one-point sweeps bit for bit, and the
        per-point solve_modes + dissipation_energy within the first-order
        bounds of the array special-function path."""
        for i, value in enumerate(res.value):
            if value in errors:
                assert res.error[i] and math.isnan(res.abs_psi11[i])
                continue
            assert res.error[i] == ""
            cls.assert_same_as_one_point_sweep(res, i)
            c = complex(res.c[i])
            sols = solve_modes(P11.scaled(c), P11, 1.0, 1.0, cls.TWO_MODES)
            got = (res.abs_psi11[i], res.energy[i], res.condition[i])
            want = (max(abs(s.psi1[0]) for s in sols), dissipation_energy(sols, 1.0),
                    max(s.condition for s in sols))
            for a, b, bound in zip(got, want, diagnostic_bounds(c, cls.TWO_MODES)):
                assert abs(a - b) <= bound
            assert max(res.residual[i], *(s.residual for s in sols)) < 1e-13

    def test_degenerate_point_inside_the_batch(self):
        # c = 0 makes the shell's wavenumbers undefined: that row alone fails
        res = sweep("re_c", -1.0, 1.0, 5, **self.RE_C)
        assert res.value.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert "DegenerateMaterialError" in res.error[2]
        self.assert_rows_match_point_solves(res, {0.0})
        healthy = [0, 1, 3, 4]
        assert res.health == {
            "error_rows": 1, "near_singular_rows": 0,
            "worst_condition": max(res.condition[healthy]),
            "worst_residual": max(res.residual[healthy]),
        }

    def test_failing_row_is_bisected_out(self, monkeypatch):
        # one degenerate shell (c = 0) in 201: the halves around it stay
        # batched, and every row, the error row included, has the bits of
        # its one-point sweep in every field, though the bisection leaves
        # the rows near c = 0 in sub-batches of a few shells, split
        # differently for each source mode
        builds = []
        real_layered = nocore.layered_system

        def counted(materials, *args):
            builds.append(len(materials[0]))
            return real_layered(materials, *args)

        monkeypatch.setattr(nocore, "layered_system", counted)
        res = sweep("re_c", -1.0, 1.0, 201, **self.RE_C)
        # two builds per halving level plus one whole batch per source mode,
        # against 1 + 201 + 1 for a row-by-row rerun
        assert len(builds) <= 2 * math.ceil(math.log2(201)) + 2
        monkeypatch.undo()
        assert res.value[100] == 0.0
        for i in range(len(res.value)):
            self.assert_same_as_one_point_sweep(res, i)
        assert "DegenerateMaterialError" in res.error[100]
        assert sum(bool(e) for e in res.error) == 1

    def test_singular_system_leaves_the_other_rows_solved(self, monkeypatch):
        bad = P11.scaled(complex(-1.9, 0.0))
        real_layered = nocore.layered_system

        def singular_at_bad(materials, *args):
            stack = real_layered(materials, *args)
            for k, shell in enumerate(materials[0]):
                if shell == bad:
                    stack[k] = 0.0
            return stack

        monkeypatch.setattr(nocore, "layered_system", singular_at_bad)
        res = sweep("re_c", -2.0, -1.8, 3, **self.RE_C)
        monkeypatch.undo()
        assert "LinAlgError" in res.error[1]
        self.assert_rows_match_point_solves(res, {-1.9})

    def test_source_failure_marks_every_row(self, monkeypatch):
        def no_data(*args):
            raise NormalizationSingularError("J_n(kR) = 0")

        monkeypatch.setattr(nocore, "source_boundary_data", no_data)
        res = sweep("re_c", -2.0, -1.8, 3, matrix=P11, omega=1.0, R=1.0,
                    source=self.TWO_MODES, c_other=0.0)
        assert all("NormalizationSingularError" in e for e in res.error)

    def test_stacked_solve_matches_single_solves(self):
        systems = [layered_system((P11.scaled(c), P11), (1.0,), 1.0, 5)
                   for c in (-1.9, -1.96 + 1e-9j, 0.5)]
        rhs = np.arange(1.0, 5.0) * (1.0 - 0.5j)
        # the whole stack, and the one-row stacks of the per-row fallback
        for rows in ([0, 1, 2], [1]):
            sol, cond, res = nocore._solve_stack(np.stack(systems)[rows], rhs)
            assert sol.shape == (len(rows), 4)
            assert cond.shape == res.shape == (len(rows),)
            for x, c, r, k in zip(sol, cond, res, rows):
                assert np.array_equal(x, np.linalg.solve(systems[k], rhs))
                assert float(c) == float(np.linalg.cond(systems[k]))
                oracle = residual_oracle(systems[k], x, rhs)
                assert abs(r - oracle) <= 1e-15 * oracle
                want = solve_mode(systems[k], rhs, 5)
                assert np.array_equal(x.reshape(-1, 2), want.phi)
                assert (float(c), float(r)) == (want.condition, want.residual)

    def test_no_source_modes_gives_error_rows(self):
        res = sweep("re_c", 0.5, 1.0, 3, matrix=P11, omega=1.0, R=1.0,
                    source=SourceModes(()), c_other=0.0)
        assert len(res.value) == 3
        assert all("ValueError" in e for e in res.error)
        assert np.isnan(res.energy).all()
        assert res.health["error_rows"] == 3
        assert res.health["worst_condition"] == -math.inf
        with pytest.raises(RuntimeError, match="no valid points"):
            res.peak

    def test_log_axis_validation(self):
        with pytest.raises(ValueError):
            sweep("im_c", -1.0, 1.0, 5, matrix=P11, omega=1.0, R=1.0,
                  source=SourceModes.single(5, 1.0, 0.0), c_other=-1.9,
                  scale="log")
        # one step is still a log axis, and -1 is not on it
        with pytest.raises(ValueError, match="positive endpoints"):
            sweep("im_c", -1.0, -1.0, 1, matrix=P11, omega=1.0, R=1.0,
                  source=SourceModes.single(5, 1.0, 0.0), c_other=-1.9,
                  scale="log")
        with pytest.raises(ValueError):
            sweep("bogus", 0.0, 1.0, 5, matrix=P11, omega=1.0, R=1.0,
                  source=SourceModes.single(5, 1.0, 0.0), c_other=0.0)
