"""The block kernel of `potentials` against the block-by-block reference.

Built from single materials, every block and every layered system takes
the scalar special-function path and must equal the reference bit for bit
(compared as uint64 views, so inf and nan entries count too), on a grid
that reaches the overflowed rows of high order at low frequency.  A
batched material, of any size, takes its cylinder values from the array
path: its systems must stay within the reference's magnitude bound of it,
and each has the same bits in any batch, a batch of one included.
"""
import numpy as np
import pytest

import block_reference as ref
from block_reference import assert_within_cylinder_gap
from conftest import KINDS, wave_entries
from elastodisk import potentials
from elastodisk.calr import recipe_config, shifted_shell
from elastodisk.media import (
    AnnulusGeometry,
    DegenerateMaterialError,
    LameParams,
    wavenumbers,
)
from elastodisk.nocore import (
    NewtonianPotential,
    NormalizationSingularError,
    SourceModes,
    SourceTerm,
    _norm_constants,
)
from elastodisk.potentials import layered_system, traction_matrix
from library_helpers import mode_matrix_boundary, two_radius_coupling

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
@pytest.mark.parametrize("kind", KINDS.values(), ids=list(KINDS))
def test_wave_coefficients_match_reference(kind, n):
    # the entry formulas the kernel and the incident field share
    for p in MATERIALS.values():
        wn = ref.wavenumbers(p, 5.0)
        for k in (wn.ks, wn.kp):
            args = (*kind, n, k, 0.9)
            assert_same_bits(wave_entries(*args), ref.wave_coeffs(*args))
            assert_same_bits(wave_entries(*args, p), ref.wave_traction_coeffs(*args, p))


def source_term(n):
    return SourceTerm(n, 0.7 + 0.2j, -0.3)


def finite_normalizations():
    """(material, n, omega) of the grid where the source normalization is
    finite (n = 0 has no source term)."""
    for name, p in MATERIALS.items():
        for n in ORDERS[1:]:
            for omega in OMEGAS:
                try:
                    _norm_constants(source_term(n), p, omega, 1.0)
                except NormalizationSingularError:
                    continue
                yield name, n, omega


@pytest.mark.parametrize("name, n, omega", list(finite_normalizations()))
def test_incident_data_match_reference(name, n, omega):
    # cs Q_n + cp P_n over the reference's interior wave coefficients
    p, term = MATERIALS[name], source_term(n)
    cs, cp, wn = _norm_constants(term, p, omega, 1.0)
    pot = NewtonianPotential(SourceModes((term,)), p, omega, 1.0)
    trace, traction = pot.boundary_coeffs(term)
    for r in (0.6, 1.0, 1.7):
        want = cs * ref.wave_coeffs(True, True, n, wn.ks, r)
        want = want + cp * ref.wave_coeffs(False, True, n, wn.kp, r)
        assert_same_bits(pot.coeffs(term, r), want)
        if r == 1.0:
            assert_same_bits(trace, want)
    want = cs * ref.wave_traction_coeffs(True, True, n, wn.ks, 1.0, p)
    want = want + cp * ref.wave_traction_coeffs(False, True, n, wn.kp, 1.0, p)
    assert_same_bits(traction, want)


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("n", ORDERS)
def test_layered_systems_match_reference(n, omega):
    # single materials: the reference bit for bit; the same shells as one
    # batch: within the array path's bound of it
    shells = list(MATERIALS.values())
    disk = layered_system((shells, P11), (1.0,), omega, n)
    core_shell = layered_system((P11, shells, P11), (0.8, 1.0), omega, n)
    for k, shell in enumerate(shells):
        for materials, radii, stack in (
            ((shell, P11), (1.0,), disk),
            ((P11, shell, P11), (0.8, 1.0), core_shell),
        ):
            assert_same_bits(
                layered_system(materials, radii, omega, n),
                ref.layered_system(materials, radii, omega, n),
            )
            assert_within_cylinder_gap(stack[k], materials, radii, omega, n)
    three = (P11, shells[1], shells[3], P11)
    assert_same_bits(
        layered_system(three, (0.6, 0.8, 1.0), omega, n),
        ref.layered_system(three, (0.6, 0.8, 1.0), omega, n),
    )


def sweep_shells(count):
    """Disk-sweep shells around the contrast law's c = -2 (series branch)."""
    return [P11.scaled(complex(-2.05 + 0.2 * k / count, 2.08e-9)) for k in range(count)]


@pytest.mark.parametrize("size", (1, 7, 17))
@pytest.mark.parametrize("radii, per_entry", [((1.0,), 2), ((0.8, 1.0), 4)])
def test_one_array_call_per_batch(monkeypatch, radii, per_entry, size):
    # the batched material's wavenumbers come from one array call, and
    # every distinct k r of its entries, two per radius each entry touches,
    # goes into one cyl_pairs call whatever the batch size; each shared
    # material has its own wavenumbers call and looks its cylinder values
    # up one by one, two per radius
    scalar, batches, wavenumbers = [], [], []
    cyl_pairs = potentials.cyl_pairs

    def count_pairs(n, z):
        scalar.append(z)
        return ref.cyl_pair(n, z)

    def count_arrays(n, zs):
        batches.append(list(zs))
        return cyl_pairs(n, zs)

    def count_wavenumbers(p, omega):
        wavenumbers.append(p)
        return ref.wavenumbers(p, omega)

    monkeypatch.setattr(potentials, "cyl_pair", count_pairs)
    monkeypatch.setattr(potentials, "cyl_pairs", count_arrays)
    monkeypatch.setattr(potentials, "wavenumbers", count_wavenumbers)
    shells = sweep_shells(size)
    shared = (P11,) * (len(radii) - 1)
    stack = layered_system((*shared, shells, P11), radii, 1.0, 5)
    assert len(batches) == 1
    (args,) = batches
    assert len(args) == len(set(args)) == per_entry * len(shells)
    assert len(scalar) == 2 * len(radii)
    assert wavenumbers == [*shared, shells, P11]
    for k, shell in enumerate(shells):
        assert_within_cylinder_gap(stack[k], (*shared, shell, P11), radii, 1.0, 5)


@pytest.mark.parametrize("n", ORDERS)
def test_array_path_systems_match_reference(n):
    # the sweep's disk shells (series branch) and a CALR scan's shells
    # (Im k r > 3, the continued-fraction branch)
    shells = sweep_shells(17)
    disk = layered_system((shells, P11), (1.0,), 1.0, n)
    for k, shell in enumerate(shells):
        assert_within_cylinder_gap(disk[k], (shell, P11), (1.0,), 1.0, n)
    cfg = recipe_config(AnnulusGeometry(0.8, 1.0), P11, P11, 5.0, 25)
    scan = [shifted_shell(cfg, p) for p in np.linspace(-0.16, 0.16, 30)]
    core_shell = layered_system((P11, scan, P11), (0.8, 1.0), 5.0, n)
    for k, shell in enumerate(scan):
        assert_within_cylinder_gap(core_shell[k], (P11, shell, P11), (0.8, 1.0), 5.0, n)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("radii, per_entry", [((1.0,), 2), ((0.8, 1.0), 4)])
def test_array_path_rows_independent_of_the_batch(radii, per_entry, n):
    # a shell's system has the same bits whatever the other shells of its
    # batch are and wherever it stands among them, alone included, for
    # batch sizes that reach numpy's vector loop bodies and their tails
    shared = (P11,) * (len(radii) - 1)
    for size in (*range(1, 10), 16, 17, 33):
        shells = sweep_shells(size)
        others = [P11.scaled(complex(0.2 + 0.01 * k, 1e-3)) for k in range(size)]
        mixed = others[:5] + shells[::-1] + others[5:]
        stack = layered_system((*shared, shells, P11), radii, 1.0, n)
        other = layered_system((*shared, mixed, P11), radii, 1.0, n)
        for k, shell in enumerate(shells):
            assert_same_bits(other[mixed.index(shell)], stack[k])
            alone = layered_system((*shared, [shell], P11), radii, 1.0, n)
            assert_same_bits(alone[0], stack[k])


DEGENERATE = {
    "mu_zero": LameParams(1.0, 0.0),
    "lam_2mu_zero": LameParams(-2.0, 1.0),
    "overflow": LameParams(0.0, complex(0.0, 5e-313)),
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_entry_raises_its_own_error(name):
    # a batch holding a degenerate entry raises that entry's scalar error
    # wherever it stands, alone included; with several, the first one's
    bad = DEGENERATE[name]
    with pytest.raises(DegenerateMaterialError) as scalar:
        wavenumbers(bad, 1.0)
    shells = sweep_shells(8)
    for at in (0, 3, 8):
        for batch in ([bad], shells[:at] + [bad] + shells[at:]):
            with pytest.raises(DegenerateMaterialError) as array:
                layered_system((batch, P11), (1.0,), 1.0, 5)
            assert str(array.value) == str(scalar.value)
    rest = [p for p in DEGENERATE.values() if p is not bad]
    with pytest.raises(DegenerateMaterialError) as array:
        layered_system((P11, shells[:2] + [bad] + rest + shells[2:], P11),
                       (0.8, 1.0), 1.0, 5)
    assert str(array.value) == str(scalar.value)
