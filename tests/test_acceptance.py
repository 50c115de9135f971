"""Acceptance suite: one test per criterion, stated tolerances, timed.

Each test prints a PASS/FAIL line with the measured quantity before
asserting, so the record survives failures.  Three assertions are
expected to fail on mathematical grounds (double-precision representability
or over-tight quantification); they are kept faithful rather than
loosened:

* criterion 1 (Wronskian leg): for arg z = -1.2 and |z| >~ 8 both J and H
  grow like exp|Im z| while their Wronskian stays O(1/z); storing the
  values in binary64 already perturbs the identity by eps * exp(2|Im z|),
  so no double implementation can meet 1e-10 on that ray.
* criterion 7 (exterior leg at omega = 20): every radiating cylinder mode
  decays between r^-1/2 and r^-3/2 once k r >> n, capping the 1.05 -> 2.5
  amplitude drop at (2.5/1.05)^1.5 ~ 3.7; a factor 10 cannot occur.
* criterion 8 (dip depth): the determinant zero sits at a real shell
  modulus, so with loss delta = rho^n0 the best real-axis |det| is the
  slope times delta, about 1e-2 of the scan median, not 1e-3.
"""
import cmath
import math
import time

import numpy as np

from conftest import (
    polar_to_cartesian,
    quad_scalar,
    quad_vector_converged,
    slp_displacement,
)
from elastodisk.calr import calr_energy, recipe_config, tune_p
from elastodisk.media import AnnulusGeometry, LameParams
from elastodisk.nocore import (
    SourceModes,
    SourceTerm,
    solve_modes,
    source_boundary_data,
    sweep,
)
from elastodisk.np_spectrum import EigCase, NpModeMatrix, np_eigensystem, np_matrix
from elastodisk.potentials import scalar_slp_mode, traction_matrix
from elastodisk.specfun import cyl_pair
from library_helpers import mode_matrix_boundary, two_radius_coupling

P11 = LameParams(1.0, 1.0)
GEO = AnnulusGeometry(0.8, 1.0)

# Critical contrast of the mode-5 unit-disk resonance at omega = 1 (argmin
# of |det| over complex c); its 5-digit rounding -1.9643 and 3-digit loss
# 2.08e-9 are the reference values used throughout.
C_CRIT = complex(-1.9643771578482667, 2.0842140415e-9)

GRID_RADII = np.logspace(-2, 2, 25)
GRID_ARGS = (-1.2, 0.0, 0.7, 1.2)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def timed(budget: float, t0: float, criterion: str) -> None:
    dt = time.monotonic() - t0
    assert dt < budget, f"criterion {criterion} exceeded {budget}s: {dt:.1f}s"


class TestCriterion1:
    def test_1_wronskian(self):
        t0 = time.monotonic()
        worst, where = 0.0, None
        for n in range(0, 61):
            for r in GRID_RADII:
                for a in GRID_ARGS:
                    z = r * cmath.exp(1j * a)
                    p = cyl_pair(n, z)
                    w = abs(
                        (p.j * p.hp - p.jp * p.h - 2j / (math.pi * z))
                        * (math.pi * z / 2.0)
                    )
                    if w > worst:
                        worst, where = w, (n, z)
        ok = worst < 1e-10
        report("1 (wronskian)", ok, f"worst residual {worst:.3e} at {where}")
        timed(5.0, t0, "1")
        assert ok, (
            f"worst {worst:.3e} at {where}: binary64 cannot represent the "
            "identity on the arg=-1.2 ray for |z| >~ 8 (see module docstring)"
        )

    def test_1_recurrence(self):
        t0 = time.monotonic()
        worst = 0.0
        for n in range(1, 61):
            for r in GRID_RADII:
                for a in GRID_ARGS:
                    z = r * cmath.exp(1j * a)
                    pm, p0, pp = cyl_pair(n - 1, z), cyl_pair(n, z), cyl_pair(n + 1, z)
                    for f0, f1, f2 in ((pm.j, p0.j, pp.j), (pm.h, p0.h, pp.h)):
                        den = max(abs(f0), abs(f2))
                        if den == 0 or not math.isfinite(den):
                            continue
                        worst = max(worst, abs(f0 + f2 - (2.0 * n / z) * f1) / den)
        ok = worst < 1e-9
        report("1 (recurrence)", ok, f"worst relative residual {worst:.3e}")
        timed(5.0, t0, "1")
        assert ok


class TestCriterion2:
    def test_2_quadrature_equivalence(self, rng):
        t0 = time.monotonic()
        worst_s = 0.0
        for _ in range(20):
            n = int(rng.integers(-5, 8))
            k = complex(rng.uniform(0.5, 3.0), rng.uniform(0.0, 0.4))
            R = float(rng.uniform(0.5, 1.5))
            r = R * (rng.uniform(1.15, 2.0) if rng.random() < 0.5
                     else rng.uniform(0.2, 0.85))
            th = rng.uniform(0, 2 * np.pi)
            x = (r * math.cos(th), r * math.sin(th))
            worst_s = max(worst_s, abs(scalar_slp_mode(k, R, n, x)
                                       - quad_scalar(k, R, n, x, panels=4096)))
        worst_v = 0.0
        for _ in range(20):
            lam = float(rng.uniform(0.5, 2.0))
            mu = float(rng.uniform(0.5, 2.0))
            omega = float(rng.uniform(0.5, 2.0))
            n = int(rng.integers(0, 7))
            R = float(rng.uniform(0.7, 1.3))
            r = R * (rng.uniform(1.2, 1.8) if rng.random() < 0.5
                     else rng.uniform(0.3, 0.8))
            th = rng.uniform(0, 2 * np.pi)
            x = (r * math.cos(th), r * math.sin(th))
            dens = "nu" if rng.random() < 0.5 else "t"
            got = slp_displacement(LameParams(lam, mu), omega, R, n, dens, x)
            ref = quad_vector_converged(lam, mu, omega, R, n, dens, x)
            worst_v = max(worst_v, float(np.max(np.abs(got - ref))))
        ok = worst_s < 1e-8 and worst_v < 1e-6
        report("2", ok, f"scalar worst {worst_s:.2e} (<1e-8), "
                        f"vector worst {worst_v:.2e} (<1e-6)")
        timed(30.0, t0, "2")
        assert ok


class TestCriterion3:
    def test_3_quasistatic_spectrum(self):
        t0 = time.monotonic()
        worst_high = 0.0
        for n in list(range(2, 11)) + [-n for n in range(2, 11)]:
            es = np_eigensystem(np_matrix(P11, 1e-3, 1.0, n))
            worst_high = max(
                worst_high,
                abs(es.eigenvalues[0] + 1 / 6),
                abs(es.eigenvalues[1] - 1 / 6),
            )
        es1 = np_eigensystem(np_matrix(P11, 1e-3, 1.0, 1))
        dev1 = max(abs(es1.eigenvalues[0] - 1 / 6), abs(es1.eigenvalues[1] - 0.5))
        es0 = np_eigensystem(np_matrix(P11, 1e-3, 1.0, 0))
        dev0 = max(abs(es0.eigenvalues[0] + 1 / 6), abs(es0.eigenvalues[1] - 0.5))
        ok = worst_high < 1e-4 and dev1 < 1e-3 and dev0 < 1e-3
        report("3", ok, f"|n|>=2 dev {worst_high:.2e} (<1e-4), n=1 dev "
                        f"{dev1:.2e}, n=0 dev {dev0:.2e} (<1e-3)")
        timed(1.0, t0, "3")
        assert ok


class TestCriterion4:
    def test_4_eigensystem_residuals(self, rng):
        t0 = time.monotonic()
        worst = 0.0
        jordan_seen = diag_eq_seen = diag_d_seen = generic_seen = 0
        for trial in range(200):
            kind = trial % 4
            if kind == 0:
                p = LameParams(rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5))
                m = np_matrix(p, float(rng.uniform(0.2, 3.0)), 1.0,
                              int(rng.integers(0, 40)))
            elif kind == 1:
                c = complex(rng.normal(), rng.normal())
                b1 = complex(rng.normal(), rng.normal())
                m = NpModeMatrix(np.array([[c, b1], [0, c]]), 3, P11, 1.0, 1.0)
            elif kind == 2:
                c = complex(rng.normal(), rng.normal())
                m = NpModeMatrix(np.array([[c, 0], [0, c]]), 3, P11, 1.0, 1.0)
            else:
                a1 = complex(rng.normal(), rng.normal())
                b2 = a1 + 1.0 + abs(rng.normal())
                b1 = complex(rng.normal(), rng.normal())
                m = NpModeMatrix(np.array([[a1, b1], [0, b2]]), 3, P11, 1.0, 1.0)
            es = np_eigensystem(m)
            scale = max(np.linalg.norm(m.entries), 1e-30)
            t = m.entries
            if es.case_tag is EigCase.JORDAN:
                jordan_seen += 1
                resid = (t - es.eigenvalues[0] * np.eye(2)) @ es.eigenvectors[1] \
                    - es.eigenvectors[0]
                worst = max(worst, float(np.max(np.abs(resid))) / scale)
                vecs = [es.eigenvectors[0]]
            else:
                generic_seen += es.case_tag is EigCase.GENERIC
                diag_eq_seen += es.case_tag is EigCase.DIAGONAL_EQUAL
                diag_d_seen += es.case_tag is EigCase.DIAGONAL_DISTINCT
                vecs = es.eigenvectors
            for xi, v in zip(es.eigenvalues, vecs):
                r = float(np.max(np.abs(t @ v - xi * v)))
                worst = max(worst, r / (scale * max(1.0, float(np.max(np.abs(v))))))
        ok = worst < 1e-12 and min(jordan_seen, diag_eq_seen, diag_d_seen,
                                   generic_seen) > 0
        report("4", ok, f"worst residual {worst:.2e} (<1e-12/||T||), cases "
                        f"g/d/e/j = {generic_seen}/{diag_d_seen}/"
                        f"{diag_eq_seen}/{jordan_seen}")
        assert ok


def _solve_abs_psi11(c: complex) -> float:
    sols = solve_modes(P11.scaled(c), P11, 1.0, 1.0, SourceModes.single(5, 1.0, 0.0))
    return abs(sols[0].psi1[0])


class TestCriterion5:
    def test_5_contrast_sweep_peak(self):
        t0 = time.monotonic()
        res = sweep("re_c", -2.05, -1.85, 2001, matrix=P11, omega=1.0, R=1.0,
                    source=SourceModes.single(5, 1.0, 0.0), c_other=2.08e-9)
        vals = res.abs_psi11
        peaks = [i for i in range(1, len(vals) - 1)
                 if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]
                 and vals[i] > 0.1 * vals.max()]
        unique = len(peaks) == 1
        loc = float(res.value[int(np.argmax(vals))])
        loc_ok = abs(loc - (-1.9643)) <= 0.01
        # the grid peak sits on a simple pole whose width (~1e-9 in Re c) is
        # far below the 1e-4 step, so the resonant value is read off after
        # golden-section refinement of the peak location
        a, b = loc - 2e-4, loc + 2e-4
        invphi = (math.sqrt(5) - 1) / 2
        x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
        f1 = _solve_abs_psi11(complex(x1, 2.08e-9))
        f2 = _solve_abs_psi11(complex(x2, 2.08e-9))
        for _ in range(60):
            if f1 > f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - invphi * (b - a)
                f1 = _solve_abs_psi11(complex(x1, 2.08e-9))
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (b - a)
                f2 = _solve_abs_psi11(complex(x2, 2.08e-9))
        peak_val = max(f1, f2)
        off = _solve_abs_psi11(complex(-1.90, 2.08e-9))
        ratio = peak_val / off
        ok = unique and loc_ok and ratio > 1e4
        report("5", ok, f"unique peak {unique}, location {loc:.5f} "
                        f"(within 0.01 of -1.9643: {loc_ok}), refined "
                        f"peak/off-peak ratio {ratio:.2e} (>1e4)")
        timed(10.0, t0, "5")
        assert ok


class TestCriterion6:
    def test_6_loss_sweep_interior_peak(self):
        t0 = time.monotonic()
        # -1.9643 is the 5-digit rounding of the critical contrast; the
        # loss sweep runs at the resolved value (they agree to 1e-4)
        assert abs(C_CRIT.real - (-1.9643)) < 1e-4
        res = sweep("im_c", 1e-12, 1e-6, 121, matrix=P11, omega=1.0, R=1.0,
                    source=SourceModes.single(5, 1.0, 0.0),
                    c_other=C_CRIT.real, scale="log")
        peak = float(res.value[int(np.argmax(res.abs_psi11))])
        margin_lo = math.log10(peak) - math.log10(1e-12)
        margin_hi = math.log10(1e-6) - math.log10(peak)
        ok = margin_lo >= 1.0 and margin_hi >= 1.0
        report("6", ok, f"peak at Im c = {peak:.3e}, decades from "
                        f"endpoints = ({margin_lo:.2f}, {margin_hi:.2f})")
        timed(10.0, t0, "6")
        assert ok
        # the peak sits at the reference loss value
        assert abs(peak - 2.08e-9) < 1e-9


def _profile(omega: float, radii) -> dict:
    out = {}
    for r in radii:
        best = 0.0
        for th in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            u = slp_displacement(P11, omega, 1.0, 5, "nu",
                                 (r * math.cos(th), r * math.sin(th)))
            best = max(best, float(np.linalg.norm(u)))
        out[r] = best
    return out


class TestCriterion7:
    def test_7a_exterior_localization_high_frequency(self):
        t0 = time.monotonic()
        prof = _profile(20.0, [1.05, 2.5])
        ratio = prof[1.05] / prof[2.5]
        ok = ratio >= 10.0
        report("7a", ok, f"exterior ratio |u|(1.05)/|u|(2.5) = {ratio:.2f} "
                         f"(>=10; radiating modes cap it near 3.7)")
        timed(10.0, t0, "7")
        assert ok, (
            f"ratio {ratio:.2f}: outgoing cylinder modes decay between "
            "r^-1/2 and r^-3/2 for k r >> n, so a 10x drop over "
            "[1.05, 2.5] is unattainable (see module docstring)"
        )

    def test_7b_interior_delocalization_high_frequency(self):
        t0 = time.monotonic()
        prof = _profile(20.0, [0.3, 0.95])
        ratio = prof[0.95] / prof[0.3]
        ok = ratio <= 3.0
        report("7b", ok, f"interior ratio |u|(0.95)/|u|(0.3) = {ratio:.2f} (<=3)")
        timed(10.0, t0, "7")
        assert ok

    def test_7c_interior_localization_quasistatic(self):
        t0 = time.monotonic()
        prof = _profile(0.1, [0.3, 0.95])
        ratio = prof[0.95] / prof[0.3]
        ok = ratio >= 10.0
        report("7c", ok, f"interior ratio |u|(0.95)/|u|(0.3) = {ratio:.2f} (>=10)")
        timed(10.0, t0, "7")
        assert ok


class TestCriterion8:
    def test_8_determinant_dip(self):
        t0 = time.monotonic()
        cfg = recipe_config(GEO, P11, P11, 5.0, 25)
        tr = tune_p(cfg, steps=241)
        ratio = tr.abs_det / float(np.median(tr.scan_abs_det))
        ok = abs(complex(tr.p).imag) == 0 and abs(tr.p) <= 0.16 and ratio < 1e-3
        report("8", ok, f"tuned real p = {tr.p:.6f} (|p|<=0.16), "
                        f"|det|/median = {ratio:.2e} (<1e-3)")
        timed(30.0, t0, "8")
        assert ok, (
            f"dip ratio {ratio:.2e}: the determinant zero sits at a real "
            "shell modulus, so the best real-axis |det| is slope*delta, "
            "about 1e-2 of the median at delta = 0.8^25 (see module docstring)"
        )


class TestCriterion9:
    def test_9_calr_dichotomy(self):
        t0 = time.monotonic()
        tr = tune_p(recipe_config(GEO, P11, P11, 5.0, 25), steps=161)
        cfg = recipe_config(GEO, P11, P11, 5.0, 25, p_tune=tr.p)
        inside = calr_energy(cfg, SourceModes.single(25, 1.0, 0.0))
        inside_ok = (inside.energy >= 1e4
                     and inside.exterior_bound <= 10.0 * inside.reference_bound)
        rstar = GEO.critical_radius
        terms = tuple(SourceTerm(n, (1.0 / (rstar + 0.05)) ** n, 0.0)
                      for n in range(25, 36))
        out_full = calr_energy(cfg, SourceModes(terms))
        out_head = calr_energy(cfg, SourceModes(terms[:6]))
        outside_ok = (out_full.energy < 1e4
                      and out_full.energy < 3.0 * out_head.energy)
        ok = inside_ok and outside_ok
        report("9", ok, f"inside: E = {inside.energy:.3e} (>=1e4), "
                        f"|u|max/|F|max = "
                        f"{inside.exterior_bound / inside.reference_bound:.2f} "
                        f"(<=10); outside: E = {out_full.energy:.3e} bounded "
                        f"(6-term head {out_head.energy:.3e})")
        timed(60.0, t0, "9")
        assert ok


class TestCriterion10:
    def test_10_transmission_residuals(self):
        t0 = time.monotonic()
        worst = 0.0

        def disk_residual(c: complex) -> float:
            src = SourceModes.single(5, 1.0, 0.0)
            s = solve_modes(P11.scaled(c), P11, 1.0, 1.0, src)[0]
            f, ft = source_boundary_data(src, P11, 1.0, 1.0)[5]
            that1 = mode_matrix_boundary(P11.scaled(c), 1.0, 1.0, 5)
            t1 = mode_matrix_boundary(P11, 1.0, 1.0, 5)
            that2 = traction_matrix(P11.scaled(c), 1.0, 1.0, 5, "interior_limit")
            t2 = traction_matrix(P11, 1.0, 1.0, 5, "exterior_limit")
            w = 0.0
            for th in np.linspace(0, 2 * np.pi, 64, endpoint=False):
                x = (math.cos(th), math.sin(th))
                for a, b in (
                    (that1 @ s.psi1, t1 @ s.psi2 + f),
                    (that2 @ s.psi1, t2 @ s.psi2 + ft),
                ):
                    ua, ub = polar_to_cartesian(a, 5, x), polar_to_cartesian(b, 5, x)
                    scale = max(np.max(np.abs(ua)), np.max(np.abs(ub)), 1e-30)
                    w = max(w, float(np.max(np.abs(ua - ub))) / scale)
            return w

        # criteria 5/6 configurations: at the refined peak, off peak, and at
        # the rounded reference point
        for c in (C_CRIT, complex(-1.90, 2.08e-9), complex(-1.9643, 2.08e-9)):
            worst = max(worst, disk_residual(c))

        # criteria 8/9 configuration: tuned core-shell, inside-branch mode
        from elastodisk.calr import solve_calr_mode
        from elastodisk.nocore import NewtonianPotential

        tr = tune_p(recipe_config(GEO, P11, P11, 5.0, 25), steps=121)
        cfg = recipe_config(GEO, P11, P11, 5.0, 25, p_tune=tr.p)
        for n in (25, 30, 35):
            term = SourceTerm(n, 1.0, 0.0)
            s = solve_calr_mode(cfg, term)
            ri, re = GEO.r_inner, GEO.r_outer
            blocks = two_radius_coupling(cfg.shell, 5.0, ri, re, n)
            pot = NewtonianPotential(SourceModes((term,)), P11, 5.0, re)
            f, ft = pot.boundary_coeffs(term)
            pairs = (
                (ri, mode_matrix_boundary(cfg.core, 5.0, ri, n) @ s.phi[0],
                 mode_matrix_boundary(cfg.shell, 5.0, ri, n) @ s.phi[1]
                 + blocks.trace_inner @ s.phi[2]),
                (ri, traction_matrix(cfg.core, 5.0, ri, n, "interior_limit")
                 @ s.phi[0],
                 traction_matrix(cfg.shell, 5.0, ri, n, "exterior_limit")
                 @ s.phi[1] + blocks.traction_inner @ s.phi[2]),
                (re, blocks.trace_outer @ s.phi[1]
                 + mode_matrix_boundary(cfg.shell, 5.0, re, n) @ s.phi[2],
                 mode_matrix_boundary(cfg.matrix, 5.0, re, n) @ s.phi[3] + f),
                (re, blocks.traction_outer @ s.phi[1]
                 + traction_matrix(cfg.shell, 5.0, re, n, "interior_limit")
                 @ s.phi[2],
                 traction_matrix(cfg.matrix, 5.0, re, n, "exterior_limit")
                 @ s.phi[3] + ft),
            )
            for radius, a, b in pairs:
                for th in np.linspace(0, 2 * np.pi, 64, endpoint=False):
                    x = (radius * math.cos(th), radius * math.sin(th))
                    ua, ub = polar_to_cartesian(a, n, x), polar_to_cartesian(b, n, x)
                    scale = max(np.max(np.abs(ua)), np.max(np.abs(ub)), 1e-30)
                    worst = max(worst, float(np.max(np.abs(ua - ub))) / scale)

        ok = worst < 1e-10
        report("10", ok, f"worst boundary-trace residual {worst:.2e} (<1e-10)")
        timed(60.0, t0, "10")
        assert ok
