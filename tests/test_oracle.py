import math
from decimal import Decimal, localcontext

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
    Same root solve as `_direction_energy`: identity (F1), no Newton step."""
    f00, f01, f10, f11 = (fs[:, i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    g00 = f00 * f00 + f10 * f10
    g01 = f00 * f01 + f10 * f11
    g11 = f01 * f01 + f11 * f11
    fro = f00 * f00 + f01 * f01 + f10 * f10 + f11 * f11
    det = f00 * f11 - f01 * f10
    eps = 1e-13 * np.maximum(1.0, fro)
    cc, cs, ss = cos * cos, cos * sin, sin * sin
    fm0, fm1 = f00 * cos + f01 * sin, f10 * cos + f11 * sin
    am2 = fm0 * fm0 + fm1 * fm1
    drift2 = 2.0 * ((g11 - g00) * cs + g01 * (cc - ss))
    w0 = fro - 2.0

    roots, energies = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for v0, v1 in (s.v1, s.v2):
            fv0, fv1 = f00 * v0 + f01 * v1, f10 * v0 + f11 * v1
            c0 = fv0 * fv0 + fv1 * fv1 - 1.0
            sign = np.copysign(1.0, cos * v0 + sin * v1)
            vm = (sin - sign * v1) * v0 - (cos - sign * v0) * v1
            vm = np.where(vm == 0.0, np.nan, vm)
            p = fm0 * fv0 + fm1 * fv1
            w = p + np.copysign(np.sqrt(am2 - (det * det) * (vm * vm)), p)
            den = vm * am2
            r1 = np.where(vm * den > eps, w / den, np.nan)
            r2 = c0 / (vm * w)
            r2 = np.where(w == 0.0, r1, r2)
            for t in (r1, r2):
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


def exact_nearest_chord(f, cos, sin, s):
    """The kernel's value at one direction in 50-digit decimal arithmetic on
    the exact binary inputs: the exact roots of |F(t) v| = 1 (v = v1, v2; the
    far root only where (m_perp . v)^2 |F m|^2 > 1e-13 max(1, |F|^2), as in
    the kernel), the nearest one on each side of t = 0, and the chord of
    E(t) = |F(t)|^2 - 2 through them at t = 0, clamped at 0.  Returns
    (value, |F|^2); value is inf where no pair is more than 1e-15 apart and
    None where a threshold or a tangency is too close to call."""
    with localcontext() as ctx:
        ctx.prec = 50
        fd = [[Decimal(float(x)) for x in row] for row in f]
        m = (Decimal(cos), Decimal(sin))
        mp = (-m[1], m[0])

        def image(a):
            return (fd[0][0] * a[0] + fd[0][1] * a[1], fd[1][0] * a[0] + fd[1][1] * a[1])

        fm = image(m)
        am2 = fm[0] * fm[0] + fm[1] * fm[1]
        fro = sum(x * x for row in fd for x in row)
        eps = Decimal("1e-13") * max(Decimal(1), fro)
        roots = []
        for v in (s.v1, s.v2):
            v = (Decimal(float(v[0])), Decimal(float(v[1])))
            mv = mp[0] * v[0] + mp[1] * v[1]
            fv = image(v)
            p = fm[0] * fv[0] + fm[1] * fv[1]
            c0 = fv[0] * fv[0] + fv[1] * fv[1] - 1
            disc = p * p - am2 * c0
            alpha = mv * mv * am2
            if abs(disc) <= Decimal("1e-12") * (p * p + abs(am2 * c0)) or \
                    abs(alpha - eps) <= Decimal("1e-9") * eps:
                return None
            if disc < 0:
                continue
            w = p + disc.sqrt().copy_sign(p)
            roots.append(-c0 / (w * mv))
            if alpha > eps:
                roots.append(-w / (am2 * mv))
        negs = [t for t in roots if t <= 0]
        poss = [t for t in roots if t >= 0]
        if not negs or not poss:
            return math.inf, fro
        ta, tb = max(negs), min(poss)
        if abs(tb - ta - Decimal("1e-15")) <= Decimal("1e-21"):
            return None
        if tb - ta <= Decimal("1e-15"):
            return math.inf, fro

        def energy(t):
            return sum((fd[i][j] + t * fm[i] * mp[j]) ** 2 for i in range(2) for j in range(2)) - 2

        return max((tb * energy(ta) - ta * energy(tb)) / (tb - ta), Decimal(0)), fro


@pytest.mark.parametrize("theta", ANGLES)
@pytest.mark.parametrize("spread", (30.0, 1e3))
def test_kernel_matches_exact_nearest_chord(spread, theta):
    # the root solve carries no cancellation at large |F|: within
    # 5e-14 max(1, |F|^2, |exact|) of the exact chord at random directions
    s = SlipSystem.from_theta(theta, 0.5)
    rng = np.random.default_rng(46)
    checked = 0
    for _ in range(50):
        f = random_det1(rng, spread=spread)
        phis = rng.uniform(0.0, math.pi, size=8)
        got = _direction_energy(f[None], np.cos(phis), np.sin(phis), s)[0]
        for value, phi in zip(got, phis):
            exact = exact_nearest_chord(f, math.cos(phi), math.sin(phi), s)
            if exact is None:
                continue
            ref, fro = exact
            assert math.isinf(value) == (ref == math.inf)
            if ref != math.inf:
                err = abs(Decimal(float(value)) - ref)
                assert err <= Decimal("5e-14") * max(Decimal(1), fro, ref)
                checked += 1
    assert checked >= 40


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
