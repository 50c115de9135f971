"""Shared oracles and pointwise helpers for the test suite.

The oracles are independent of the code path they check: quadrature
kernels are built on scipy's cylinder functions, tractions come from
central differences of the displacement, and high-precision references
use mpmath.  The helpers are library paths taken one point and one mode at
a time, for checks that need them on both sides of a circle:
`incident_displacement` (the incident potential), `slp_displacement` (the
raw layer potential, over `slp_trace`) and `wave_entries` (one cylinder
wave, from the entry formulas of the block kernel); `polar_to_cartesian`
turns a mode's (nu, t) pair at a point into its Cartesian vector.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special as sp

from elastodisk.potentials import _radial, _trace_entries, _traction_entries, slp_trace
from elastodisk.specfun import cyl_pair


def scipy_gamma(lam: complex, mu: complex, omega: float, d: np.ndarray) -> np.ndarray:
    """2x2 elastodynamic fundamental solution via scipy Hankel functions."""
    ks = omega / np.sqrt(mu)
    kp = omega / np.sqrt(lam + 2 * mu)
    if ks.imag < 0 or (ks.imag == 0 and ks.real < 0):
        ks = -ks
    if kp.imag < 0 or (kp.imag == 0 and kp.real < 0):
        kp = -kp
    r = math.hypot(d[0], d[1])
    e = np.asarray(d, dtype=float) / r
    eet = np.outer(e, e)
    eye = np.eye(2)

    def hess(k):
        h0 = sp.hankel1(0, k * r)
        h1 = sp.hankel1(1, k * r)
        return -k * k * h0 * eet + (k * h1 / r) * (2 * eet - eye)

    return (-0.25j / mu) * sp.hankel1(0, ks * r) * eye + (0.25j / omega**2) * (
        hess(kp) - hess(ks)
    )


def quad_scalar(k, R, n, x, panels=4096) -> complex:
    """Trapezoid rule for the acoustic SLP of e^{in theta}, scipy kernel."""
    th = 2 * np.pi * np.arange(panels) / panels
    y = R * np.column_stack([np.cos(th), np.sin(th)])
    d = np.hypot(x[0] - y[:, 0], x[1] - y[:, 1])
    vals = -0.25j * sp.hankel1(0, k * d) * np.exp(1j * n * th)
    return complex(vals.sum() * (2 * np.pi * R / panels))


def quad_vector(lam, mu, omega, R, n, density, x, panels=4096) -> np.ndarray:
    """Trapezoid rule for the elastic SLP of e^{in theta} nu or t."""
    th = 2 * np.pi * np.arange(panels) / panels
    acc = np.zeros(2, dtype=complex)
    for t in th:
        ct, st = math.cos(t), math.sin(t)
        y = R * np.array([ct, st])
        vec = np.array([ct, st]) if density == "nu" else np.array([-st, ct])
        acc += scipy_gamma(lam, mu, omega, np.asarray(x) - y) @ (
            np.exp(1j * n * t) * vec
        )
    return acc * (2 * np.pi * R / panels)


def quad_vector_converged(lam, mu, omega, R, n, density, x, tol=1e-10):
    prev = quad_vector(lam, mu, omega, R, n, density, x, panels=256)
    panels = 512
    while panels <= 1 << 14:
        cur = quad_vector(lam, mu, omega, R, n, density, x, panels=panels)
        if np.max(np.abs(cur - prev)) <= tol * max(1.0, float(np.max(np.abs(cur)))):
            return cur
        prev = cur
        panels *= 2
    return prev


def polar_to_cartesian(c, n: int, x) -> np.ndarray:
    """Cartesian vector of the (nu, t) pair c of mode n at the point x."""
    theta = math.atan2(float(x[1]), float(x[0]))
    phase = complex(math.cos(n * theta), math.sin(n * theta))
    ct, st = math.cos(theta), math.sin(theta)
    return phase * (c[0] * np.array([ct, st]) + c[1] * np.array([-st, ct]))


def slp_displacement(p, omega, R, n, density, x, exterior=None) -> np.ndarray:
    """Displacement at x of the vector SLP with density e^{in theta} nu or t."""
    m = slp_trace(p, omega, R, n, math.hypot(x[0], x[1]), exterior=exterior)
    return polar_to_cartesian(m[:, ("nu", "t").index(density)], n, x)


# The cylinder-wave kinds as (shear, interior), under the test ids they had
# as members of the former WaveKind enum.
KINDS = {
    "WaveKind.Q_INTERIOR": (True, True),
    "WaveKind.P_INTERIOR": (False, True),
    "WaveKind.Q_EXTERIOR": (True, False),
    "WaveKind.P_EXTERIOR": (False, False),
}


def wave_entries(shear, interior, n, k, r, p=None) -> np.ndarray:
    """(nu, t) entries of Q_n (shear) or P_n at radius r: J radial part when
    interior, H otherwise; the displacement, or the traction in material p."""
    z = k * r
    f, fp = _radial(cyl_pair(n, z), interior)
    if p is None:
        return np.array(_trace_entries(shear, n, z, f, fp))
    return np.array(_traction_entries(shear, n, k, r, z, f, fp, p.lam, p.mu))


def incident_displacement(pot, x) -> np.ndarray:
    """Displacement of a NewtonianPotential at the single point x."""
    r = math.hypot(float(x[0]), float(x[1]))
    u = np.zeros(2, dtype=complex)
    for term in pot.source.terms:
        u += polar_to_cartesian(pot.coeffs(term, r), term.n, x)
    return u


def fd_traction(displacement, lam, mu, r, theta, h=1e-6) -> np.ndarray:
    """lam (div u) nu + 2 mu (sym grad u) nu by central differences."""
    x = r * np.array([math.cos(theta), math.sin(theta)])
    ex, ey = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    dux = (np.asarray(displacement(x + h * ex)) - np.asarray(displacement(x - h * ex))) / (2 * h)
    duy = (np.asarray(displacement(x + h * ey)) - np.asarray(displacement(x - h * ey))) / (2 * h)
    grad = np.column_stack([dux, duy])  # grad[i, j] = d u_i / d x_j
    div = grad[0, 0] + grad[1, 1]
    sym = 0.5 * (grad + grad.T)
    nu = np.array([math.cos(theta), math.sin(theta)])
    return lam * div * nu + 2 * mu * (sym @ nu)


def fd_lame_residual(displacement, lam, mu, omega, x, h=1e-3) -> float:
    """|mu lap u + (lam+mu) grad div u + omega^2 u| by 2nd-order stencils."""
    x = np.asarray(x, dtype=float)
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    u0 = np.asarray(displacement(x))
    uxp, uxm = np.asarray(displacement(x + ex)), np.asarray(displacement(x - ex))
    uyp, uym = np.asarray(displacement(x + ey)), np.asarray(displacement(x - ey))
    upp = np.asarray(displacement(x + ex + ey))
    upm = np.asarray(displacement(x + ex - ey))
    ump = np.asarray(displacement(x - ex + ey))
    umm = np.asarray(displacement(x - ex - ey))
    lap = (uxp + uxm + uyp + uym - 4 * u0) / h**2
    d2x = (uxp - 2 * u0 + uxm) / h**2
    d2y = (uyp - 2 * u0 + uym) / h**2
    dxy = (upp - upm - ump + umm) / (4 * h**2)
    graddiv = np.array([d2x[0] + dxy[1], dxy[0] + d2y[1]])
    res = mu * lap + (lam + mu) * graddiv + omega**2 * u0
    return float(np.max(np.abs(res)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
