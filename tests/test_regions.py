import math

import numpy as np
import pytest

from lamlab.algebra import random_det1, rotation
from lamlab.energy import Bounds, Known, SlipSystem, w_hom
from lamlab.errors import PreconditionError
from lamlab.regions import RegionLabel, classify, region_map

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
    cells = region_map(ORTHO, 3.0, 1)
    assert len(cells) == 1
    assert cells[0].label.tag == "SO2"
    assert isinstance(cells[0].energy, Known)
    assert cells[0].energy.value.value == pytest.approx(0.0)
    with pytest.raises(PreconditionError):
        region_map(ORTHO, 3.0, 0)


def test_region_map_orthogonal_has_no_double_compression():
    cells = region_map(ORTHO, 3.0, 41)
    assert all(cell.label.tag != "N1capN2" for cell in cells)
    # orthogonal envelope is closed-form everywhere on the manifold
    assert all(isinstance(cell.energy, Known) for cell in cells)


def test_region_map_general_structure():
    cells = region_map(GENERAL, 3.0, 61)
    tags = {cell.label.tag for cell in cells}
    assert {"A", "APerp", "N1only", "N2only"} <= tags
    for cell in cells:
        if cell.label.tag in ("A", "APerp", "N1capN2", "SO2", "M1", "M2"):
            assert isinstance(cell.energy, Known)
        elif cell.label.tag in ("N1only", "N2only"):
            assert isinstance(cell.energy, Bounds)
            assert cell.energy.lower <= cell.energy.upper + 1e-9
