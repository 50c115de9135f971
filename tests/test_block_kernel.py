"""The block kernel of `potentials` against the block-by-block reference.

Every block and every layered system must equal the reference bit for bit
(compared as uint64 views, so inf and nan entries count too), on a grid
that reaches the overflowed rows of high order at low frequency.
"""
import numpy as np
import pytest

import block_reference as ref
from elastodisk import potentials
from elastodisk.calr import recipe_config
from elastodisk.media import AnnulusGeometry, LameParams
from elastodisk.potentials import (
    WaveKind,
    layered_system,
    mode_matrix_boundary,
    traction_matrix,
    two_radius_coupling,
    wave_coeffs,
    wave_traction_coeffs,
)

P11 = LameParams(1.0, 1.0)
MATERIALS = {
    "p11": P11,
    "negative": LameParams(-1.9, -0.6),
    "lossy_disk": P11.scaled(complex(-1.96, 2.08e-9)),
    "calr_shell": recipe_config(AnnulusGeometry(0.8, 1.0), P11, P11, 5.0, 25).shell,
}
ORDERS = (0, 1, 5, 25, 62, 200)
OMEGAS = (1e-3, 1.0, 5.0, 20.0)


def assert_same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture(autouse=True)
def _quiet_overflow():
    # the overflowed rows warn in the reference and in the kernel alike
    with np.errstate(all="ignore"):
        yield


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("name", MATERIALS)
def test_blocks_match_reference(name, n, omega):
    p = MATERIALS[name]
    trace, traction = ref.blocks(p, omega, 1.0, n, 1.0, True)
    assert_same_bits(mode_matrix_boundary(p, omega, 1.0, n), trace)
    assert_same_bits(traction_matrix(p, omega, 1.0, n), traction)
    assert_same_bits(
        traction_matrix(p, omega, 1.0, n, "interior_limit"),
        ref.traction_interior(p, omega, 1.0, n),
    )
    c = two_radius_coupling(p, omega, 0.8, 1.0, n)
    inner = ref.blocks(p, omega, 1.0, n, 0.8, False)
    outer = ref.blocks(p, omega, 0.8, n, 1.0, True)
    for got, want in zip(c, inner + outer):
        assert_same_bits(got, want)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("kind", list(WaveKind))
def test_wave_coefficients_match_reference(kind, n):
    for p in MATERIALS.values():
        wn = ref.wavenumbers(p, 5.0)
        for k in (wn.ks, wn.kp):
            args = (kind.is_shear, kind.is_interior, n, k, 0.9)
            assert_same_bits(wave_coeffs(kind, n, k, 0.9), ref.wave_coeffs(*args))
            assert_same_bits(
                wave_traction_coeffs(kind, n, k, 0.9, p),
                ref.wave_traction_coeffs(*args, p),
            )


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("n", ORDERS)
def test_layered_systems_match_reference(n, omega):
    shells = list(MATERIALS.values())
    disk = layered_system((shells, P11), (1.0,), omega, n)
    core_shell = layered_system((P11, shells, P11), (0.8, 1.0), omega, n)
    for k, shell in enumerate(shells):
        assert_same_bits(disk[k], ref.layered_system((shell, P11), (1.0,), omega, n))
        assert_same_bits(
            core_shell[k], ref.layered_system((P11, shell, P11), (0.8, 1.0), omega, n)
        )
    three = (P11, shells[1], shells[3], P11)
    assert_same_bits(
        layered_system(three, (0.6, 0.8, 1.0), omega, n),
        ref.layered_system(three, (0.6, 0.8, 1.0), omega, n),
    )


@pytest.mark.parametrize("radii, per_entry", [((1.0,), 2), ((0.8, 1.0), 4)])
def test_one_pair_lookup_per_distinct_argument(monkeypatch, radii, per_entry):
    # a batched entry looks each k r up once: two per radius it touches;
    # the shared outer materials add their own lookups once per batch
    looked_up, wavenumbers = [], []

    def count_pairs(n, z):
        looked_up.append(z)
        return ref.cyl_pair(n, z)

    def count_wavenumbers(p, omega):
        wavenumbers.append(p)
        return ref.wavenumbers(p, omega)

    monkeypatch.setattr(potentials, "cyl_pair", count_pairs)
    monkeypatch.setattr(potentials, "wavenumbers", count_wavenumbers)
    shells = [P11.scaled(complex(-2.0 + 0.02 * k, 2.08e-9)) for k in range(7)]
    shared = (P11,) * (len(radii) - 1)
    layered_system((*shared, shells, P11), radii, 1.0, 5)
    assert len(looked_up) == per_entry * len(shells) + 2 * len(radii)
    assert len(wavenumbers) == len(shells) + len(radii)
