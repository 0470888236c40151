import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lamlab
from lamlab import envelope_oracle
from lamlab.algebra import bc_to_matrix, perp, rotation
from lamlab.energy import (DEFAULT_TOL, SlipSystem, h, h_perp, matrix_state,
                           slip_state, w_condensed, w_hom, w_on_manifold)
from lamlab.envelope_oracle import (_CERTIFY_RTOL, _CHUNK_ELEMENTS, _coarse_scan,
                                    _direction_energy, _inner_min, _laminate_angles, _oracle,
                                    _prepare, _scan, _scan_dual, dual_lower, envelope_scan,
                                    wlc_numeric)
from lamlab.errors import LamlabError, OffManifold, PreconditionError
from lamlab.laminate import decompose, verify_decomposition
from lamlab.regions import CODE, region_map

from references import f_majorant, random_det1

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


def stretch(v, k):
    """The det-1 stretch by k along the unit vector v, by 1/k across it: |F v| = k."""
    return k * np.outer(v, v) + np.outer(perp(v), perp(v)) / k


class PerCell(int):
    """A direction count K for an [N, K] table of angles, one row per cell."""


@pytest.mark.parametrize("theta", (math.pi / 4, 0.45 * math.pi))
@pytest.mark.parametrize("n, n_dirs", [
    (1, 720),       # one cell
    (5, 720),       # fewer cells than one chunk holds (16)
    (37, 720),      # 2 full chunks and a part chunk
    (37, 8),        # the fewest directions; every cell in one chunk
    (37, 1001),     # odd n_dirs: 11 cells per chunk, 3 full chunks and a part
    (3, _CHUNK_ELEMENTS + 480),  # more directions than a chunk holds: one cell each
    (2, 2 * _CHUNK_ELEMENTS - 1),  # two direction spans, the second one short
    (2, 2 * _CHUNK_ELEMENTS + 1),  # three spans, the last of one direction
    # per-cell tables, as the rescan's zoom scans them: 677 cells per chunk,
    # one cell, and two spans of one cell each
    pytest.param(700, PerCell(17), id="700-table17"),
    pytest.param(1, PerCell(17), id="1-table17"),
    pytest.param(3, PerCell(_CHUNK_ELEMENTS + 480), id="3-table11520+480"),
])
def test_coarse_scan_chunks_match_one_kernel_call(theta, n, n_dirs):
    # the chunked scan in its reused workspace gives, bit for bit, the row
    # minimum and its direction of one unchunked kernel call
    s = SlipSystem.from_theta(theta, 0.5)
    rng = np.random.default_rng(47)
    # |F v| < 1 on every third matrix: the far-root rows are a strict subset
    fs = np.array([rotation(rng.uniform(0.0, 2.0 * math.pi)) @ stretch(s.v1 if k % 2 else s.v2, 0.6)
                   if k % 3 == 1 else random_det1(rng, spread=2.0) for k in range(n)])
    if n > 1:
        low = [slip.low for slip in _prepare(fs, s).slips]
        assert 0 < np.count_nonzero(low[0] | low[1]) < n
    if isinstance(n_dirs, PerCell):
        fs[-1] = np.eye(2)  # no laminate at any direction: argmin takes the row's first
        phis = rng.uniform(-0.1, math.pi + 0.1, size=(n, n_dirs))
        coarse, phi = _coarse_scan(_prepare(fs, s), s, phis)
    else:
        phis = np.arange(n_dirs) * (math.pi / n_dirs)
        coarse, phi = _coarse_scan(_prepare(fs, s), s, n_dirs)
    energy = _direction_energy(fs, np.cos(phis), np.sin(phis), s)
    i_best = np.argmin(energy, axis=1)
    k = np.arange(n)
    assert np.array_equal(coarse.view(np.int64), energy[k, i_best].view(np.int64))
    assert np.array_equal(phi.view(np.int64),
                          np.broadcast_to(phis, energy.shape)[k, i_best].view(np.int64))


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
    # candidate wins on the manifold, also where |F|^2 - 2 rounds below 0; the
    # laminate is decompose's and the value w_condensed's, to the last bit
    s = SlipSystem.from_theta(theta, 0.5)
    rng = np.random.default_rng(45)
    phis = np.arange(180) * (math.pi / 180)
    # at 0.3 pi, x ** 2 in place of x * x rounds |F|^2 - 2 of the rotation-5.9
    # target to 0.25 instead of 0.25000000000000044
    targets = [rotation(angle) @ (np.eye(2) + 0.5 * np.outer(s.v2, perp(s.v2)))
               for angle in (0.59, 5.9)]
    for v in (s.v1, s.v2):
        for gamma in (0.0, 1e-12, -1e-12, 1e-9, 1e-6, -1e-3, 0.1, 0.5, -1.0, 2.0):
            targets += [rotation(rng.uniform(0.0, 2.0 * math.pi)) @ (
                np.eye(2) + gamma * np.outer(v, perp(v))) for _ in range(5)]
    for f in targets:
        res = wlc_numeric(f, s, n_dirs=180)
        assert res.best is not None and res.best.kind == "CaseOnManifold"
        assert res.value.value >= 0.0 and res.best.energy >= 0.0
        assert _direction_energy(f[None], np.cos(phis), np.sin(phis), s).min() >= 0.0
        dec = decompose(f, s)
        for field in dataclasses.fields(dec):
            np.testing.assert_array_equal(getattr(res.best, field.name),
                                          getattr(dec, field.name), err_msg=field.name)
        assert res.best.energy == res.value.value == w_condensed(f, s).value


@pytest.mark.parametrize("theta", ANGLES)
def test_upper_bound_laminates_meet_criterion_03(theta):
    # the oracle's laminate off the manifold, within the criterion-03 bounds
    s = SlipSystem.from_theta(theta, 0.5)
    rng = np.random.default_rng(46)
    for spread in (2.0, 30.0):
        for _ in range(20):
            f = random_det1(rng, spread=spread)
            res = wlc_numeric(f, s)
            if res.best.kind == "CaseOnManifold":
                continue
            assert res.best.kind == "UpperBoundOnly"
            rep = verify_decomposition(res.best, f, s)
            assert rep.convex_combination <= 1e-10 and rep.rank_one <= 1e-10
            assert rep.manifold <= 1e-9
            assert rep.energy_equality <= 1e-8 * max(1.0, res.value.as_float())


@pytest.mark.parametrize("theta", (math.pi / 4, 0.45 * math.pi))
def test_coarse_scan_ties_across_direction_spans_keep_the_first(theta):
    # diag(0.6, 1/0.6) has its least energy at directions 11519 and 11520 of
    # 2 * _CHUNK_ELEMENTS - 1, one in each span; the identity has no laminate
    # at any direction (inf everywhere, argmin 0)
    s = SlipSystem.from_theta(theta, 0.5)
    fs = np.array([np.diag([0.6, 1.0 / 0.6]), np.eye(2)])
    n_dirs = 2 * _CHUNK_ELEMENTS - 1
    phis = np.arange(n_dirs) * (math.pi / n_dirs)
    energy = _direction_energy(fs, np.cos(phis), np.sin(phis), s)
    ties = np.flatnonzero(energy[0] == energy[0].min())
    assert ties[0] < _CHUNK_ELEMENTS <= ties[-1]
    coarse, phi = _coarse_scan(_prepare(fs, s), s, n_dirs)
    i_best = np.argmin(energy, axis=1)
    assert np.array_equal(coarse.view(np.int64), energy[[0, 1], i_best].view(np.int64))
    assert np.array_equal(phi.view(np.int64), phis[i_best].view(np.int64))


@pytest.mark.parametrize("theta", ANGLES)
def test_zoom_is_never_above_the_scan(theta):
    # each zoom level contains its centre, so the refined value is at most
    # the n_dirs scan's, bit for bit, on every cell
    s = SlipSystem.from_theta(theta, 0.5)
    grid, live = live_cells(s, 3.0, 61)
    cells = _prepare(grid.fs[live], s)
    coarse, _ = _coarse_scan(cells, s, 720)
    refined, _ = _scan(cells, s, 720)
    assert np.all(refined.view(np.int64) <= coarse.view(np.int64))


@pytest.mark.parametrize("theta", ANGLES)
def test_zoom_meets_a_dense_scan_of_the_bracket(theta):
    # no worse than 4,097 directions evenly across each cell's bracket of the
    # 720-direction scan, +-pi / 720 around its best
    s = SlipSystem.from_theta(theta, 0.5)
    grid, live = live_cells(s, 3.0, 31)
    fs = grid.fs[live]
    cells = _prepare(fs, s)
    _, phi = _coarse_scan(cells, s, 720)
    refined, _ = _scan(cells, s, 720)
    offsets = np.linspace(-1.0, 1.0, 4097) * (math.pi / 720)
    for start in range(0, len(fs), 64):
        part = slice(start, start + 64)
        table = phi[part, None] + offsets
        dense = _direction_energy(fs[part], np.cos(table), np.sin(table), s).min(axis=1)
        v = refined[part]
        assert np.all(v <= dense + 1e-15 * np.maximum(1.0, v))


@pytest.mark.parametrize("theta", (math.pi / 4, 0.45 * math.pi))
def test_scan_past_the_float_range_is_quiet(theta):
    # at |b| ~ 1e150 the chords of some directions overflow to inf, as they
    # should, without a RuntimeWarning (an error under the suite's filter)
    scan = envelope_scan(SlipSystem.from_theta(theta, 0.5), 1e150, 5)
    live = ~scan.skipped
    assert np.count_nonzero(live) == 5
    assert np.all(scan.discrepancy[live] <= 1e-13 * scan.closed[live])


def test_coarse_scan_memory_is_bounded_in_n_dirs():
    # beyond _CHUNK_ELEMENTS directions the scan works span by span: ten times
    # as many directions take no more memory than one chunk's worth
    s = SlipSystem.from_theta(0.45 * math.pi, 0.5)
    rng = np.random.default_rng(48)
    cells = _prepare(np.array([random_det1(rng, spread=2.0) for _ in range(4)]), s)
    peaks = []
    for n_dirs in (_CHUNK_ELEMENTS, 10 * _CHUNK_ELEMENTS):
        tracemalloc.start()
        try:
            _coarse_scan(cells, s, n_dirs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


# ---------------------------------------------------------------------------
# the convex dual lower bound


def circle_grid_min(p, q, k=1 << 16):
    """min over a k-point grid of the unit circle of -(p . z) - (q . z)^2 / 4
    for each row of p, q [N, 2], and the curvature bound M2 = |p| + |q|^2 / 2
    of that function of the angle, so the grid is off by at most M2 h^2 / 8."""
    alpha = np.arange(k) * (2.0 * math.pi / k)
    cos, sin = np.cos(alpha), np.sin(alpha)
    best = np.array([(-(p0 * cos + p1 * sin) - (q0 * cos + q1 * sin) ** 2 / 4.0).min()
                     for (p0, p1), (q0, q1) in zip(p, q)])
    return best, np.hypot(p[:, 0], p[:, 1]) + (q * q).sum(axis=1) / 2.0


def slip_pq(bs, v):
    """p = (tr B, B10 - B01) and q = (v . B v_perp, v_perp . B v_perp): on the
    manifold of v, W - <B, G> minimized over the shear is -(p . z) - (q . z)^2 / 4
    at z = (cos a, sin a)."""
    u = bs @ perp(v)
    p = np.stack([bs[:, 0, 0] + bs[:, 1, 1], bs[:, 1, 0] - bs[:, 0, 1]], axis=1)
    return p, np.stack([u @ v, u @ perp(v)], axis=1)


def from_pq(p, q, v):
    """The B of a given p and q for the slip vector v (the inverse of slip_pq):
    in the frame (v, v_perp) B has entries (p0 - q1, q0; p1 + q0, q1)."""
    frame = np.column_stack([v, perp(v)])
    inner = np.array([[p[0] - q[1], q[0]], [p[1] + q[0], q[1]]])
    return frame @ inner @ frame.T


def oracle_dual(fs, s, n_dirs=24):
    """The value of every target after the scan of n_dirs directions and its
    refinement, or with n_dirs None at the four laminate directions alone, as
    the oracle forms it before it decides which targets to scan again; and
    `dual_lower` at its laminate."""
    cells = _prepare(fs, s)
    st = slip_state(fs[:, 0, 0], fs[:, 0, 1], fs[:, 1, 0], fs[:, 1, 1], s)
    single = w_on_manifold(st, DEFAULT_TOL)
    if n_dirs is None:
        scanned, phi = _coarse_scan(cells, s, _laminate_angles(s))
    else:
        scanned, phi = _scan(cells, s, n_dirs)
    return np.minimum(scanned, single), _scan_dual(fs, cells, s, phi, single <= scanned)


def live_cells(s, bc_range, n):
    grid = region_map(s, bc_range, n, DEFAULT_TOL)
    live = (grid.boundary == 0) & (grid.code != CODE["OffManifold"])
    return grid, live


@pytest.mark.parametrize("theta", (math.pi / 4, 0.45 * math.pi))
def test_inner_min_is_exact_on_the_circle(theta):
    # never above the minimum of a 2^16-point angle grid by more than
    # rounding, never below it by more than the grid's own error M2 h^2 / 8
    s = SlipSystem.from_theta(theta, 0.5)
    rng = np.random.default_rng(49)
    v, vp = s.v1, perp(s.v1)
    bs = [rng.normal(size=(60, 2, 2)) * 10.0 ** rng.uniform(-2.0, 3.0, size=(60, 1, 1))]
    # B of the oracle's own laminates, the B the fit starts from: both
    # endpoints are stationary points of W - <B, .>
    fs = np.array([random_det1(rng, spread=3.0) for _ in range(20)])
    cells = _prepare(fs, s)
    _, phi = _coarse_scan(cells, s, _laminate_angles(s))
    f_minus, f_plus = envelope_oracle._endpoints(fs, cells, s, phi, np.zeros(len(fs), dtype=bool))
    bs.append(f_minus + f_plus)
    # symmetric B diagonal in the frame of v1: g' vanishes at a = 0 and a = pi
    # (for both slips at pi/4), so in t = tan(a / 2) the quartic of g' = 0
    # loses its t^4 and t^0 coefficients; also perturbed by 1e-14
    diag = np.array([l1 * np.outer(v, v) + l2 * np.outer(vp, vp)
                     for l1, l2 in rng.uniform(-30.0, 30.0, size=(20, 2))])
    bs += [diag, diag + 1e-14 * rng.normal(size=diag.shape)]
    # the hard case on the manifold of v1: p orthogonal to q with
    # |p| <= |q|^2 / 2, exactly and up to 1e-13; p = 0; q = 0; B = 0
    hard = []
    for k in range(40):
        q = rng.normal(size=2) * 3.0
        p = rng.uniform(-0.5, 0.5) * (q @ q) / 2.0 * perp(q) / np.hypot(*q)
        p = p + (1e-13 * rng.normal(size=2) if k % 2 else 0.0)
        hard += [from_pq(p, q, v), from_pq(np.zeros(2), q, v), from_pq(p, np.zeros(2), v)]
    bs += [np.array(hard), np.zeros((1, 2, 2))]
    bs = np.concatenate(bs)

    got = _inner_min(bs.reshape(len(bs), 4).T, s)
    (ref1, m1), (ref2, m2) = (circle_grid_min(*slip_pq(bs, w)) for w in (s.v1, s.v2))
    ref, curv = np.minimum(ref1, ref2), np.maximum(m1, m2)
    h = 2.0 * math.pi / (1 << 16)
    rounding = 1e-14 * np.maximum(1.0, curv)
    assert np.all(got <= ref + rounding)
    assert np.all(got >= ref - curv * h * h / 8.0 - rounding)
    # the hard cases themselves, on one circle each
    p, q = slip_pq(np.array(hard), v)
    got = envelope_oracle._circle_min(p[:, 0], p[:, 1], q[:, 0], q[:, 1])
    ref, curv = circle_grid_min(p, q)
    assert np.all(got <= ref + 1e-14 * np.maximum(1.0, curv))
    assert np.all(got >= ref - curv * h * h / 8.0 - 1e-14 * np.maximum(1.0, curv))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(theta=st.sampled_from(ANGLES), b=st.floats(-10.0, 10.0), c=st.floats(-10.0, 10.0),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_dual_never_exceeds_a_laminate_property(theta, b, c, angle):
    # weak duality: the bound of any B, here those of decompose's laminate,
    # of the target alone and of the oracle's laminate, lies below the energy
    # of decompose's laminate
    s = SlipSystem.from_theta(theta, 0.5)
    f = rotation(angle) @ bc_to_matrix(b, c)
    try:
        dec = decompose(f, s)
    except LamlabError:
        assume(False)
    slack = 1e-13 * max(1.0, float(np.sum(f * f)))
    fs = f[None]
    for f_minus, f_plus in ((dec.f_minus, dec.f_plus), (f, f)):
        assert dual_lower(fs, f_minus[None], f_plus[None], s)[0] <= dec.energy + slack
    value, dual = oracle_dual(fs, s)
    assert dual[0] <= dec.energy + slack and dual[0] <= value[0] + slack


@pytest.mark.parametrize("theta", ANGLES)
@pytest.mark.parametrize("spread", (1.5, 3.0, 30.0))
def test_dual_never_exceeds_the_full_oracle(theta, spread):
    # the oracle's dual stays below the 720-direction oracle value by rounding
    s = SlipSystem.from_theta(theta, 0.5)
    rng = np.random.default_rng(50)
    fs = np.array([random_det1(rng, spread=spread) for _ in range(150)])
    value, dual = oracle_dual(fs, s)
    full, _ = oracle_dual(fs, s, n_dirs=720)
    assert np.all(dual <= full + 1e-13 * np.maximum(1.0, full))
    assert np.all(dual <= value + 1e-13 * np.maximum(1.0, value))


def test_dual_meets_the_closed_form_at_pi_4():
    # every cell is Known at pi/4; within the criterion-01 bound
    s = SlipSystem.from_theta(math.pi / 4, 0.5)
    grid, live = live_cells(s, 3.0, 31)
    _, dual = oracle_dual(grid.fs[live], s)
    assert np.all(np.abs(dual - grid.whom[live]) <= 1e-5)


@pytest.mark.parametrize("theta", (0.3 * math.pi, 0.35 * math.pi, 0.45 * math.pi))
def test_dual_lies_in_the_bounds_band(theta):
    # on Bounds cells: lower - 1e-9 <= dual <= the 720-direction oracle
    s = SlipSystem.from_theta(theta, 0.5)
    grid, live = live_cells(s, 3.0, 31)
    bounds = live & ~np.isnan(grid.lower)
    assert bounds.sum() > 50
    fs = grid.fs[bounds]
    _, dual = oracle_dual(fs, s)
    full, _ = oracle_dual(fs, s, n_dirs=720)
    assert np.all(dual >= grid.lower[bounds] - 1e-9)
    assert np.all(dual <= full + 1e-13 * np.maximum(1.0, full))


@pytest.mark.parametrize("theta", ANGLES)
def test_dual_does_not_depend_on_its_block_size(monkeypatch, theta):
    # the blocks bound the dual's memory, not its values: `_lstsq` reduces
    # each system alone and `_circle_min` stops each entry on its own
    # tolerance, so blocks of 97 cells, of 480, of the default size and one
    # block of every cell give the same bits
    s = SlipSystem.from_theta(theta, 0.5)
    grid, live = live_cells(s, 3.0, 61)
    fs = grid.fs[live]
    default = envelope_oracle._DUAL_CELLS
    assert len(fs) > default
    duals = []
    for cells in (97, 480, default, len(fs)):
        monkeypatch.setattr(envelope_oracle, "_DUAL_CELLS", cells)
        duals.append(oracle_dual(fs, s, n_dirs=None)[1].view(np.int64))
    assert all(np.array_equal(dual, duals[0]) for dual in duals[1:])


@pytest.mark.parametrize("theta", ANGLES)
def test_scan_meets_the_full_scan(theta):
    # the four laminate directions, the dual and the rescan give every 61^2
    # cell the value of the 720-direction scan to 1e-9 max(1, v)
    s = SlipSystem.from_theta(theta, 0.5)
    scan = envelope_scan(s, 3.0, 61, n_dirs=720)
    live = ~scan.skipped
    full, _ = oracle_dual(scan.grid.fs[live], s, n_dirs=720)
    v = scan.oracle[live]
    assert np.all(np.abs(v - full) <= 1e-9 * np.maximum(1.0, v))


@pytest.mark.parametrize("n_dirs", (8, 24, 180))
def test_every_n_dirs_rescans_only_the_uncertified_cells(n_dirs):
    # the smallest direction grid takes the same path as any other: a cell
    # the dual certifies keeps the value and direction of the four laminate
    # directions, bit for bit, and only the others get the n_dirs scan
    s = SlipSystem.from_theta(0.3 * math.pi, 0.5)
    rng = np.random.default_rng(51)
    fs = np.array([random_det1(rng, spread=2.0) for _ in range(40)])
    batch = _oracle(fs, s, n_dirs, DEFAULT_TOL)
    cells = _prepare(fs, s)
    _, phi = _coarse_scan(cells, s, _laminate_angles(s))
    value, dual = oracle_dual(fs, s, n_dirs=None)
    with np.errstate(invalid="ignore"):
        done = value - dual <= _CERTIFY_RTOL * np.maximum(1.0, value)
    assert 0 < np.count_nonzero(done) < len(fs)
    full, phi_full = _scan(cells, s, n_dirs)
    lower = ~done & (full < value)
    assert np.array_equal(batch.value, np.where(lower, full, value))
    assert np.array_equal(batch.phi_best, np.where(lower, phi_full, phi))


@pytest.mark.parametrize("dual, rescanned", ((-np.inf, True), (np.inf, False)))
def test_the_dual_alone_decides_the_rescan(monkeypatch, dual, rescanned):
    # a dual that certifies nothing sends every cell to the n_dirs scan, one
    # that certifies everything sends none; the value is the smaller one
    monkeypatch.setattr(envelope_oracle, "dual_lower", lambda fs, *args: np.full(len(fs), dual))
    s = SlipSystem.from_theta(0.45 * math.pi, 0.5)
    rng = np.random.default_rng(52)
    fs = np.array([random_det1(rng, spread=2.0) for _ in range(40)])
    cells = _prepare(fs, s)
    batch = _oracle(fs, s, 180, DEFAULT_TOL)
    four, _ = _coarse_scan(cells, s, _laminate_angles(s))
    full, _ = _scan(cells, s, 180)
    expect = np.minimum(four, full) if rescanned else four
    assert np.array_equal(batch.value, np.minimum(expect, batch.single))


def test_laminate_angles_are_the_lines_of_decompose():
    # {0, theta, pi/2, pi - theta} in the canonical frame
    for theta in ANGLES:
        got = _laminate_angles(SlipSystem.from_theta(theta, 0.5))
        assert np.allclose(got, [0.0, theta, math.pi / 2, math.pi - theta], rtol=0.0, atol=4e-16)
    # in a rotated frame, the directions a of every line decompose lays
    # through random targets (a and -a give the same line)
    rng = np.random.default_rng(53)
    for theta in (math.pi / 4, 0.3 * math.pi):
        v1, v2 = (rotation(0.7) @ v for v in (np.array([math.sin(theta), math.cos(theta)]),
                                             np.array([-math.sin(theta), math.cos(theta)])))
        s = SlipSystem.from_vectors(v1, v2, 0.5)
        angles = _laminate_angles(s)
        assert np.all(np.diff(angles) > 0.0) and 0.0 <= angles[0] and angles[-1] < math.pi
        hit = set()
        for _ in range(400):
            f = random_det1(rng, spread=2.0)
            try:
                dec = decompose(f, s)
            except LamlabError:
                continue
            if dec.kind == "CaseOnManifold":
                continue
            a = math.atan2(dec.direction[0][1], dec.direction[0][0]) % math.pi
            gap = np.abs(angles - a)
            k = int(np.argmin(np.minimum(gap, math.pi - gap)))
            assert min(gap[k], math.pi - gap[k]) <= 1e-15
            hit.add(k)
        assert hit == {0, 1, 2, 3}


@pytest.mark.parametrize("theta", (math.pi / 4, 0.3 * math.pi))
def test_few_cells_reach_the_full_scan(monkeypatch, theta):
    # on a 61^2 range-3 grid the dual certifies the four laminate directions
    # on all but at most 1 % of the cells
    rows = []
    scan = envelope_oracle._scan

    def counted(cells, s, n_dirs):
        rows.append(len(cells.w0))
        return scan(cells, s, n_dirs)
    monkeypatch.setattr(envelope_oracle, "_scan", counted)
    res = envelope_scan(SlipSystem.from_theta(theta, 0.5), 3.0, 61, n_dirs=720)
    assert sum(rows) <= 0.01 * np.count_nonzero(~res.skipped)


def test_the_oracle_does_not_import_numpy_ma():
    # numpy.ma (imported by np.unique, among others) costs about 1 MB of peak
    # memory; the oracle does without it
    code = ("import math, sys\n"
            "from lamlab.energy import SlipSystem\n"
            "from lamlab.envelope_oracle import envelope_scan\n"
            "envelope_scan(SlipSystem.from_theta(0.3 * math.pi, 0.5), 3.0, 15, 90)\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(lamlab.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
