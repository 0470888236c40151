import math

import numpy as np
import pytest

from lamlab.algebra import bc_to_matrix, perp, rotation
from lamlab.energy import (DEFAULT_TOL, INFINITE, Bounds, ExtendedEnergy, Known, SlipSystem,
                           off_manifold, slip_state, w_condensed, w_hom, w_hom_arrays)
from lamlab.envelope_oracle import envelope_scan, wlc_numeric
from lamlab.errors import OffManifold, PreconditionError
from lamlab.laminate import decompose
from lamlab.regions import (TAGS, RegionLabel, adjacent_tags, classify, classify_arrays,
                            region_map)

from references import random_det1

ORTHO = SlipSystem.orthogonal(v1=(1.0, 0.0))
GENERAL = SlipSystem.from_theta(math.pi / 3, 0.5)


def test_label_validation():
    with pytest.raises(ValueError):
        RegionLabel("Nowhere")


def test_basic_examples():
    assert classify(np.eye(2), ORTHO).tag == "SO2"
    assert classify(np.diag([2.0, 0.5]), ORTHO).tag == "N2only"
    assert classify(np.diag([2.0, 1.0]), ORTHO).tag == "OffManifold"
    t = 0.4
    f = np.array([[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]])
    assert classify(f, ORTHO).tag == "A"


def test_manifold_labels():
    gamma = 0.8
    f = np.eye(2) + gamma * np.outer(ORTHO.v1, [-ORTHO.v1[1], ORTHO.v1[0]])
    assert classify(f, ORTHO).tag == "M1"
    f = np.eye(2) + gamma * np.outer(ORTHO.v2, [-ORTHO.v2[1], ORTHO.v2[0]])
    assert classify(f, ORTHO).tag == "M2"


def test_rotation_invariance():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        f = random_det1(rng, spread=2.0)
        q = rotation(rng.uniform(0, 2 * math.pi))
        for s in (ORTHO, GENERAL):
            assert classify(q @ f, s).tag == classify(f, s).tag
            res, res_q = w_hom(f, s), w_hom(q @ f, s)
            assert type(res_q) is type(res)
            if isinstance(res, Known):
                pairs = [(res.value.as_float(), res_q.value.as_float())]
            else:
                pairs = [(res.lower, res_q.lower), (res.upper, res_q.upper)]
            bound = 1e-12 * max(1.0, float(np.sum(f * f)))
            assert all(abs(x - y) <= bound for x, y in pairs)


def test_reflection_symmetry_swaps_compressed_regions():
    # conjugation by the reflection about v3 exchanges the two slip systems
    rng = np.random.default_rng(22)
    v3 = GENERAL.v3
    r = 2.0 * np.outer(v3, v3) - np.eye(2)
    swap = {"N1only": "N2only", "N2only": "N1only", "M1": "M2", "M2": "M1"}
    for _ in range(1000):
        f = random_det1(rng, spread=2.0)
        tag = classify(f, GENERAL).tag
        tag_ref = classify(r @ f @ r, GENERAL).tag
        assert tag_ref == swap.get(tag, tag)


def test_impossible_combination_reports_boundary():
    # both norms marginally above 1 with a vanishing slip-image dot product
    # can only occur within tolerance of a rotation; the label is flagged
    f = rotation(0.3) * (1.0 + 5e-10) + 0.0
    f = f / math.sqrt(abs(np.linalg.det(f)))
    label = classify(f, ORTHO, tol=1e-12)
    if label.tag in ("A", "APerp"):
        assert label.boundary == frozenset({"A", "APerp"})


def test_region_map_single_cell_and_shapes():
    grid = region_map(ORTHO, 3.0, 1)
    assert len(grid) == 1
    assert grid.label(0).tag == "SO2"
    assert isinstance(grid.energy(0), Known)
    assert grid.energy(0).value.value == pytest.approx(0.0)
    assert grid.fs.shape == (1, 2, 2)
    with pytest.raises(PreconditionError):
        region_map(ORTHO, 3.0, 0)


def test_region_map_orthogonal_has_no_double_compression():
    grid = region_map(ORTHO, 3.0, 41)
    assert all(tag != "N1capN2" for tag in grid.tags)
    # orthogonal envelope is closed-form everywhere on the manifold
    assert all(isinstance(grid.energy(k), Known) for k in range(len(grid)))


def test_region_map_general_structure():
    grid = region_map(GENERAL, 3.0, 61)
    tags = set(grid.tags)
    assert {"A", "APerp", "N1only", "N2only"} <= tags
    for k, tag in enumerate(grid.tags):
        energy = grid.energy(k)
        if tag in ("A", "APerp", "N1capN2", "SO2", "M1", "M2"):
            assert isinstance(energy, Known)
        elif tag in ("N1only", "N2only"):
            assert isinstance(energy, Bounds)
            assert energy.lower <= energy.upper + 1e-9


QUERY_THETAS = (math.pi / 4, 0.3 * math.pi, 0.35 * math.pi, 0.45 * math.pi)


def same_record(a, b) -> bool:
    """Equal w_hom records: same type, float fields equal under ==."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Known):
        return a.value.is_finite == b.value.is_finite and a.value.value == b.value.value
    return a.lower == b.lower and a.upper == b.upper


def assert_grid_matches_scalar(s, bc_range, n, tol):
    grid = region_map(s, bc_range, n, tol)
    assert len(grid) == n * n
    for k, (b, c) in enumerate(zip(grid.b.tolist(), grid.c.tolist())):
        f = bc_to_matrix(b, c)
        assert np.array_equal(grid.fs[k], f)
        assert grid.label(k) == classify(f, s, tol), (b, c)
        assert same_record(grid.energy(k), w_hom(f, s, tol)), (b, c)
    return grid


@pytest.mark.parametrize("theta", QUERY_THETAS)
def test_region_map_equals_scalar_api(theta):
    # every cell of the array pass equals classify / w_hom bit for bit
    s = SlipSystem.from_theta(theta, 0.5)
    grid = assert_grid_matches_scalar(s, 3.0, 201, 1e-9)
    assert grid.b[0] == -3.0 + 0.5 * (6.0 / 201)


@pytest.mark.parametrize("theta", (math.pi / 4, 0.3 * math.pi))
def test_region_map_equals_scalar_api_with_boundary_cells(theta):
    s = SlipSystem.from_theta(theta, 0.5)
    grid = assert_grid_matches_scalar(s, 3.0, 61, 1e-2)
    assert np.count_nonzero(grid.boundary) > 0


def near_boundary_stack(rng, s, count):
    """Matrices within 1e-13 ... 1e-4 of the slip manifolds and of Fv1.Fv2 = 0."""
    out = []
    for _ in range(count):
        # a rotated single-slip shear, stretched off its manifold
        v = s.v1 if rng.integers(2) == 0 else s.v2
        shear = np.eye(2) + rng.uniform(-3.0, 3.0) * np.outer(v, perp(v))
        delta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-13, -6)
        q = rotation(rng.uniform(0, math.pi))
        stretch = q @ np.diag([math.exp(delta), math.exp(-delta)]) @ q.T
        out.append(rotation(rng.uniform(0, 2 * math.pi)) @ shear @ stretch)
        # slip images at a right angle up to eps: Fv1.Fv2 = -r1 r2 sin(eps)
        eps = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, -4)
        phi, r1 = rng.uniform(0, 2 * math.pi), rng.uniform(0.5, 2.0)
        r2 = math.sin(2.0 * s.theta) / (r1 * math.cos(eps))
        images = np.array([[r1 * math.cos(phi), r2 * math.cos(phi + math.pi / 2 + eps)],
                           [r1 * math.sin(phi), r2 * math.sin(phi + math.pi / 2 + eps)]])
        out.append(images @ np.linalg.inv(np.column_stack([s.v1, s.v2])))
    return np.array(out)


@pytest.mark.parametrize("theta", QUERY_THETAS)
def test_array_form_equals_scalar_form_near_boundaries(theta):
    rng = np.random.default_rng(23)
    s = SlipSystem.from_theta(theta, 0.5)
    fs = near_boundary_stack(rng, s, 1500)
    for tol in (1e-9, 1e-6):
        st = slip_state(fs[:, 0, 0], fs[:, 0, 1], fs[:, 1, 0], fs[:, 1, 1], s)
        code, boundary = classify_arrays(st, tol)
        whom, lower, upper = w_hom_arrays(st, s, tol)
        assert len(set(code.tolist())) >= 4 and np.count_nonzero(boundary) > 0
        for k, f in enumerate(fs):
            label = classify(f, s, tol)
            assert (label.tag, label.boundary) == (TAGS[code[k]], adjacent_tags(int(boundary[k])))
            record = w_hom(f, s, tol)
            if isinstance(record, Known):
                assert record.value.as_float() == whom[k]
                assert math.isnan(lower[k]) and math.isnan(upper[k])
            else:
                assert math.isnan(whom[k])
                assert (record.lower, record.upper) == (lower[k], upper[k])


NONFINITE = (np.full((2, 2), np.nan), np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.mark.parametrize("theta", (math.pi / 4, 0.3 * math.pi))
@pytest.mark.parametrize("f", NONFINITE)
def test_nonfinite_matrix_is_off_manifold(theta, f):
    s = SlipSystem.from_theta(theta, 0.5)
    assert classify(f, s).tag == "OffManifold"
    assert w_hom(f, s) == Known(INFINITE)
    assert w_condensed(f, s) == INFINITE and not w_condensed(f, s).is_finite
    with pytest.raises(OffManifold):
        decompose(f, s)
    with pytest.raises(OffManifold):
        wlc_numeric(f, s)


# det exactly 1 (or within rounding of it), but |F|^2 overflows to inf
OVERFLOWING = ([np.diag([1e160, 1e-160]), np.diag([1e-160, 1e160]), np.diag([1e200, 1e-200])]
               + [rotation(phi) @ np.diag([1e160, 1e-160]) for phi in (0.3, 1.2, 2.5, 4.0)])


@pytest.mark.parametrize("theta", (math.pi / 4, 0.3 * math.pi, 0.45 * math.pi))
@pytest.mark.parametrize("f", OVERFLOWING)
def test_overflowing_frobenius_norm_is_off_manifold(theta, f):
    s = SlipSystem.from_theta(theta, 0.5)
    assert abs(np.linalg.det(f) - 1.0) <= 1e-12
    assert classify(f, s).tag == "OffManifold"
    assert w_hom(f, s) == Known(INFINITE)
    assert w_condensed(f, s) == INFINITE and not w_condensed(f, s).is_finite
    with pytest.raises(OffManifold, match="overflows"):
        decompose(f, s)
    with pytest.raises(OffManifold):
        wlc_numeric(f, s, n_dirs=8)
    # the array path of region_map and the oracle reads the same test
    fs = np.stack([np.eye(2), f])
    with np.errstate(over="ignore", invalid="ignore"):
        st = slip_state(fs[:, 0, 0], fs[:, 0, 1], fs[:, 1, 0], fs[:, 1, 1], s)
        codes = classify_arrays(st)[0]
    assert off_manifold(st, DEFAULT_TOL).tolist() == [False, True]
    assert [TAGS[k] for k in codes.tolist()] == ["SO2", "OffManifold"]
    assert w_hom_arrays(st, s)[0][1] == math.inf


def test_finite_energy_rejects_nonfinite_values():
    # inf is the one non-finite energy, Infinite; nan and negatives are none
    assert ExtendedEnergy(math.inf) == INFINITE and not ExtendedEnergy(math.inf).is_finite
    for value in (math.nan, -math.inf, -1.0):
        with pytest.raises(ValueError):
            ExtendedEnergy(value)


@pytest.mark.parametrize("bc_range, n", [
    (math.nan, 2), (math.inf, 1), (-math.inf, 2), (0.0, 2), (-1.0, 2),
    (3.0, 2.5), (3.0, 2.0), (3.0, True), (3.0, 0), (3.0, "2")])
def test_grid_builders_reject_bad_ranges_and_resolutions(bc_range, n):
    with pytest.raises(PreconditionError):
        region_map(GENERAL, bc_range, n)
    with pytest.raises(PreconditionError):
        envelope_scan(GENERAL, bc_range, n, n_dirs=8)
