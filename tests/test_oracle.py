import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lamlab.algebra import bc_to_matrix, perp, random_det1, rotation
from lamlab.energy import DEFAULT_TOL, SlipSystem, f_majorant, h, h_perp, matrix_state, w_hom
from lamlab.envelope_oracle import (_direction_energy, envelope_scan,
                                    wlc_numeric)
from lamlab.errors import OffManifold, PreconditionError

ORTHO = SlipSystem.orthogonal(v1=(1.0, 0.0))
ANGLES = (math.pi / 4, 0.3 * math.pi, 0.35 * math.pi, 0.45 * math.pi)


def reference_direction_energy(fs, cos, sin, s, pair=False):
    """The kernel with every bracketing root pair formed: the chord through
    both endpoint energies, evaluated at t = 0, minimized over the 6 pairs.
    Same root solve as `_direction_energy`."""
    f00, f01, f10, f11 = (fs[:, i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    g00 = f00 * f00 + f10 * f10
    g01 = f00 * f01 + f10 * f11
    g11 = f01 * f01 + f11 * f11
    fro = f00 * f00 + f01 * f01 + f10 * f10 + f11 * f11
    eps = 1e-13 * np.maximum(1.0, fro)
    cc, cs, ss = cos * cos, cos * sin, sin * sin
    am2 = g00 * cc + 2.0 * g01 * cs + g11 * ss
    drift2 = 2.0 * ((g11 - g00) * cs + g01 * (cc - ss))
    w0 = fro - 2.0

    roots, energies = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for v0, v1 in (s.v1, s.v2):
            fv0, fv1 = f00 * v0 + f01 * v1, f10 * v0 + f11 * v1
            c0 = fv0 * fv0 + fv1 * fv1 - 1.0
            mv = cos * v1 - sin * v0
            alpha = mv * mv * am2
            beta = 2.0 * mv * (cos * (f00 * fv0 + f10 * fv1) + sin * (f01 * fv0 + f11 * fv1))
            quad = alpha > eps
            a = np.where(quad, alpha, np.nan)
            q = -0.5 * (beta + np.copysign(np.sqrt(beta * beta - 4.0 * a * c0), beta))
            r1, r2 = q / a, c0 / q
            sym = q == 0.0
            if sym.any():
                r = np.sqrt(np.maximum(-c0 / np.where(sym, alpha, 1.0), 0.0))
                r1, r2 = np.where(sym, -r, r1), np.where(sym, r, r2)
            lin = ~quad & (np.abs(beta) > eps)
            if lin.any():
                r1 = np.where(lin, -c0 / beta, r1)
            for t in (r1, r2):
                dg = 2.0 * alpha * t + beta
                t = np.where(dg != 0.0, t - ((alpha * t + beta) * t + c0) / dg, t)
                roots.append(t)
                energies.append(np.maximum(w0 + (drift2 + t * am2) * t, 0.0))

        best = np.full(am2.shape, np.inf)
        lo = hi = np.full(am2.shape, np.nan)
        for i in range(4):
            for j in range(i + 1, 4):
                ta, tb = roots[i], roots[j]
                gap = tb - ta
                cand = (tb * energies[i] - ta * energies[j]) / gap
                better = (ta * tb <= 0.0) & (np.abs(gap) > 1e-15) & (cand < best)
                best = np.where(better, cand, best)
                lo = np.where(better, np.minimum(ta, tb), lo)
                hi = np.where(better, np.maximum(ta, tb), hi)
    return (best, lo, hi) if pair else best


def assert_matches_reference(fs, cos, sin, s):
    """Values and roots of the kernel against the all-pairs reference, within
    4e-15 * max(1, |reference|); inf in the same places."""
    got = _direction_energy(fs, cos, sin, s, pair=True)
    ref = reference_direction_energy(fs, cos, sin, s, pair=True)
    finite = np.isfinite(ref[0])
    assert np.array_equal(np.isfinite(got[0]), finite)
    for x, y in zip(got, ref):
        assert np.all(np.abs(x[finite] - y[finite]) <= 4e-15 * np.maximum(1.0, np.abs(y[finite])))
    assert np.all(np.isnan(got[1][~finite])) and np.all(np.isnan(got[2][~finite]))
    assert np.all(got[0] >= 0.0)


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


@pytest.mark.parametrize("theta", ANGLES)
def test_kernel_matches_all_pairs_reference(theta):
    # |F| up to ~9 at spread 3; the kernel forms only the nearest-roots pair
    s = SlipSystem.from_theta(theta, 0.5)
    rng = np.random.default_rng(44)
    phis = np.arange(240) * (math.pi / 240)
    for spread in (1.0, 2.0, 3.0):
        fs = np.array([random_det1(rng, spread=spread) for _ in range(200)])
        assert_matches_reference(fs, np.cos(phis), np.sin(phis), s)
        column = rng.uniform(0.0, math.pi, size=(len(fs), 1))
        assert_matches_reference(fs, np.cos(column), np.sin(column), s)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(theta=st.sampled_from(ANGLES), b=st.floats(-3.0, 3.0), c=st.floats(-3.0, 3.0),
       angle=st.floats(0.0, 2.0 * math.pi), phi=st.floats(0.0, math.pi))
def test_kernel_matches_all_pairs_reference_property(theta, b, c, angle, phi):
    s = SlipSystem.from_theta(theta, 0.5)
    f = rotation(angle) @ bc_to_matrix(b, c)
    # within tol of a slip manifold a root sits at t ~ 0 and the oracle takes
    # the single-point candidate instead; the two kernels may differ there
    state = matrix_state(f, s)
    assume(min(abs(state.d1), abs(state.d2)) > DEFAULT_TOL)
    phis = np.append(np.arange(64) * (math.pi / 64), phi)
    assert_matches_reference(f[None], np.cos(phis), np.sin(phis), s)
    assert_matches_reference(f[None], np.array([[math.cos(phi)]]), np.array([[math.sin(phi)]]), s)


@pytest.mark.parametrize("theta", (0.3 * math.pi, 0.45 * math.pi))
def test_on_manifold_targets_are_their_own_laminate(theta):
    # every laminate candidate is >= max(|F|^2 - 2, 0), so the single-point
    # candidate wins on the manifold, also where |F|^2 - 2 rounds below 0
    s = SlipSystem.from_theta(theta, 0.5)
    rng = np.random.default_rng(45)
    phis = np.arange(180) * (math.pi / 180)
    for v in (s.v1, s.v2):
        for gamma in (0.0, 1e-12, -1e-12, 1e-9, 1e-6, -1e-3, 0.1, 0.5, -1.0, 2.0):
            for _ in range(5):
                f = rotation(rng.uniform(0.0, 2.0 * math.pi)) @ (
                    np.eye(2) + gamma * np.outer(v, perp(v)))
                res = wlc_numeric(f, s, n_dirs=180)
                assert res.best is not None and res.best.kind == "CaseOnManifold"
                assert res.value.value >= 0.0 and res.best.energy >= 0.0
                assert _direction_energy(f[None], np.cos(phis), np.sin(phis), s).min() >= 0.0
