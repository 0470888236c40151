import math

import numpy as np
import pytest

from lamlab.algebra import bc_to_matrix, random_det1
from lamlab.energy import SlipSystem, f_majorant, h, h_perp, w_hom
from lamlab.envelope_oracle import (_direction_energy, envelope_scan,
                                    wlc_numeric)
from lamlab.errors import OffManifold, PreconditionError

ORTHO = SlipSystem.orthogonal(v1=(1.0, 0.0))


def test_identity_single_point():
    res = wlc_numeric(np.eye(2), ORTHO)
    assert res.value.value == 0.0
    assert res.best is not None and res.best.kind == "CaseOnManifold"


def test_rejects_bad_inputs():
    with pytest.raises(OffManifold):
        wlc_numeric(np.diag([2.0, 1.0]), ORTHO)
    with pytest.raises(PreconditionError):
        wlc_numeric(np.eye(2), ORTHO, n_dirs=4)


def test_matches_closed_form_samples():
    assert wlc_numeric(np.diag([2.0, 0.5]), ORTHO).value.value == pytest.approx(3.0, abs=1e-8)
    t = math.log(math.sqrt(2.0))
    f = np.array([[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]])
    assert wlc_numeric(f, ORTHO).value.value == pytest.approx((math.sqrt(3) - 1) ** 2, abs=1e-8)


def test_general_angle_region_a():
    rng = np.random.default_rng(41)
    s = SlipSystem.from_theta(math.pi / 3, 0.5)
    seen = 0
    while seen < 30:
        f = random_det1(rng, spread=1.5)
        fv1, fv2 = f @ s.v1, f @ s.v2
        if np.linalg.norm(fv1) <= 1 or np.linalg.norm(fv2) <= 1 or fv1 @ fv2 <= 0:
            continue
        seen += 1
        z = float(np.linalg.norm(f @ s.v3))
        assert wlc_numeric(f, s).value.value == pytest.approx(h(z, s.theta), abs=1e-6)


def test_never_undershoots_convex_lower_bound():
    rng = np.random.default_rng(42)
    for s in (ORTHO, SlipSystem.from_theta(0.35 * math.pi, 0.5)):
        for _ in range(200):
            f = random_det1(rng, spread=2.0)
            val = wlc_numeric(f, s).value.as_float()
            if s.is_orthogonal:
                lower = f_majorant(f, s)
            else:
                lower = max(h(float(np.linalg.norm(f @ s.v3)), s.theta),
                            h_perp(float(np.linalg.norm(f @ s.v3_perp)), s.theta))
            assert val >= lower - 1e-9


def test_direction_grid_monotonicity():
    rng = np.random.default_rng(43)
    coarse_phis = np.arange(90) * (math.pi / 90)
    fine_phis = np.arange(180) * (math.pi / 180)
    for _ in range(100):
        f = random_det1(rng, spread=2.0)
        coarse = _direction_energy(f[None], np.cos(coarse_phis), np.sin(coarse_phis), ORTHO).min()
        fine = _direction_energy(f[None], np.cos(fine_phis), np.sin(fine_phis), ORTHO).min()
        assert fine <= coarse + 1e-15


def test_scan_rows_and_known_agreement():
    scan = envelope_scan(ORTHO, 3.0, 15, n_dirs=240)
    grid = scan.grid
    assert len(grid) == 225
    for k, region in enumerate(grid.tags):
        if scan.skipped[k]:
            continue
        if region == "SO2":
            assert scan.oracle[k] == pytest.approx(0.0, abs=1e-10)
        if not math.isnan(scan.discrepancy[k]):
            assert scan.discrepancy[k] <= 1e-5
        ref = w_hom(bc_to_matrix(grid.b[k], grid.c[k]), ORTHO).value.as_float()
        assert scan.closed[k] == pytest.approx(ref)


def test_scan_bounds_cells_general():
    s = SlipSystem.from_theta(math.pi / 3, 0.5)
    scan = envelope_scan(s, 2.0, 15, n_dirs=240)
    bounds = ~scan.skipped & ~np.isnan(scan.slack_lo)
    assert bounds.any()
    assert np.all(scan.slack_lo[bounds] >= -1e-5)
    assert np.all(scan.slack_hi[bounds] >= -1e-5)


def test_scan_matches_per_cell_oracle():
    # more certified cells than one coarse-scan chunk holds at 120 directions (96)
    for theta in (math.pi / 4, 0.3 * math.pi):
        s = SlipSystem.from_theta(theta, 0.5)
        scan = envelope_scan(s, 2.0, 15, n_dirs=120)
        live = np.flatnonzero(~scan.skipped)
        assert len(live) > 96
        assert (~np.isnan(scan.slack_lo[live])).any() == (theta != math.pi / 4)
        for k in live:
            f = bc_to_matrix(scan.grid.b[k], scan.grid.c[k])
            ref = wlc_numeric(f, s, n_dirs=120).value.as_float()
            assert abs(scan.oracle[k] - ref) <= 1e-12
