import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lamlab import homogenize
from lamlab.energy import SlipSystem, w_condensed
from lamlab.errors import PreconditionError
from lamlab.homogenize import (MicrostructureSpec, build_gradient_field, energy_of_field,
                               run_sweep, shear_from_gamma)
from lamlab.laminate import decompose

SLIP = SlipSystem.orthogonal(v1=(1 / math.sqrt(2), 1 / math.sqrt(2)), lam=0.5)
R = np.eye(2)


def make_spec(**kw):
    args = dict(slip=SLIP, rotation=R, gammas=((0.4, 1.0),), epsilon=0.125,
                laminate_period=0.25, grid_n=512)
    args.update(kw)
    return MicrostructureSpec(**args)


def gradients(spec):
    return [shear_from_gamma(gamma, spec.slip.lam, spec.rotation) for gamma, _ in spec.gammas]


def raster(spec):
    """build_gradient_field with each band's laminate, as run_sweep forms it."""
    return build_gradient_field(spec, [decompose(n_mat, spec.slip) for n_mat in gradients(spec)])


def score(field, spec):
    """energy_of_field with each band's gradient and W_hom, as run_sweep forms them."""
    n_mats = gradients(spec)
    return energy_of_field(field, spec, n_mats,
                           [homogenize._whom_value(n_mat, spec.slip) for n_mat in n_mats])


def test_spec_validation():
    with pytest.raises(PreconditionError):
        make_spec(grid_n=16)
    with pytest.raises(PreconditionError):
        make_spec(epsilon=2.0)
    with pytest.raises(PreconditionError):
        make_spec(gammas=((0.4, 0.5),))
    with pytest.raises(PreconditionError):
        make_spec(gammas=((0.4, 0.7), (0.1, 0.6), (0.0, 1.0)))
    with pytest.raises(PreconditionError):
        make_spec(laminate_period=math.nan)
    # band k labels its cells 2k + 1 and 2k + 2 in the int16 label rows
    bands = tuple((0.4, (k + 1) / 16384) for k in range(16383)) + ((0.4, 1.0),)
    make_spec(gammas=bands[1:])
    with pytest.raises(PreconditionError):
        make_spec(gammas=bands)
    for eps_list, hlam in (([0.0], 0.25), ([1 / 4], 0.0)):
        with pytest.raises(PreconditionError):
            run_sweep(SLIP, R, [(0.4, 1.0)], eps_list, laminate_period=hlam)


def test_unknown_target_fails_before_rasterizing(monkeypatch):
    # at theta = 0.3 pi W_hom of this band is only bounded
    def no_raster(spec, laminates):
        raise AssertionError("build_gradient_field called")
    monkeypatch.setattr(homogenize, "build_gradient_field", no_raster)
    slip = SlipSystem.from_theta(0.3 * math.pi, 0.5)
    with pytest.raises(PreconditionError):
        run_sweep(slip, R, [(0.0, 0.5), (0.4, 1.0)], [1 / 64], laminate_period=0.25)


def test_zero_shear_field_is_rigid():
    spec = make_spec(gammas=((0.0, 1.0),))
    rep = score(raster(spec), spec)
    assert rep.e_eps == 0.0
    assert rep.rel_error == 0.0
    assert np.allclose(rep.avg_gradient, R)


def test_three_distinct_values_single_band():
    field = raster(make_spec())
    labels = field.rows[field.row_of]
    assert set(np.unique(labels)) == {0, 1, 2}
    # rigid cells occupy about 1 - lambda of the domain
    rigid_frac = float(np.mean(labels == 0))
    assert rigid_frac == pytest.approx(1 - SLIP.lam, abs=0.02)


def test_single_band_convergence():
    spec = make_spec(epsilon=1 / 16, grid_n=1024)
    rep = score(raster(spec), spec)
    assert rep.rel_error <= 0.05
    assert rep.flagged_area < 1.0


def test_on_manifold_band_is_single_valued():
    # a soft gradient already on a slip manifold needs no laminate
    gamma_star = None
    lam = SLIP.lam
    # pick gamma so that N = I + (gamma/lam) e1 (x) e2 satisfies |N v1| = 1
    # |Nv1|^2 = 1 + 2 a b g + b^2 g^2 with a = b = 1/sqrt(2): g(2ab + b^2 g) = 0
    gamma_star = -2.0 * lam * (0.5) / 0.5  # g = -2ab/b^2 -> gamma = -2*lam*a/b... direct
    n = shear_from_gamma(gamma_star, lam, R)
    assert abs(np.linalg.norm(n @ SLIP.v1) - 1.0) < 1e-12 \
        or abs(np.linalg.norm(n @ SLIP.v2) - 1.0) < 1e-12
    field = raster(make_spec(gammas=((gamma_star, 1.0),)))
    soft_labels = set(np.unique(field.rows[field.row_of])) - {0}
    vals = [field.values[i] for i in soft_labels]
    for v in vals:
        assert np.allclose(v, n)


def reference_raster(spec):
    """Whole-grid rasterization and scoring: labels, label counts, flagged area."""
    gn, l, eps = spec.grid_n, homogenize.DOMAIN_SIDE, spec.epsilon
    lam = spec.slip.lam
    xs = (np.arange(gn) + 0.5) * (l / gn)
    x1 = xs[None, :]
    x2 = xs[:, None]
    soft = np.mod(x2 / eps, 1.0) < lam
    labels = np.zeros((gn, gn), dtype=np.int16)
    h_abs = spec.laminate_period * eps * lam
    strip_bottom = np.floor(x2 / eps) * eps
    left = 0.0
    for band_index, (gamma, right) in enumerate(spec.gammas):
        dec = decompose(shear_from_gamma(gamma, lam, spec.rotation), spec.slip)
        x_lo = math.ceil(left / eps - 1e-9) * eps
        x_hi = math.floor(right / eps + 1e-9) * eps
        left = right
        in_band = soft & (x1 >= x_lo) & (x1 < x_hi)
        n_hat = np.asarray(dec.direction[1], dtype=float)
        n_hat = n_hat / np.linalg.norm(n_hat)
        u = (x1 - x_lo) * n_hat[0] + (x2 - strip_bottom) * n_hat[1]
        plus = np.mod(u / h_abs, 1.0) < dec.mu
        labels = np.where(in_band & plus, 1 + 2 * band_index, labels)
        labels = np.where(in_band & ~plus, 2 + 2 * band_index, labels)
    flagged = np.zeros_like(labels, dtype=bool)
    flagged[1:, :] |= labels[1:, :] != labels[:-1, :]
    flagged[:-1, :] |= labels[:-1, :] != labels[1:, :]
    flagged[:, 1:] |= labels[:, 1:] != labels[:, :-1]
    flagged[:, :-1] |= labels[:, :-1] != labels[:, 1:]
    counts = np.bincount(labels.ravel(), minlength=1 + 2 * len(spec.gammas))
    return labels, counts, float(np.count_nonzero(flagged)) * (l / gn) ** 2


ROTATION = np.array([[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]])


def seeded_layout(seed):
    """Three bands with seeded shears and edges in a seeded orthogonal slip
    frame (laminate normals with components of either sign) under a seeded
    rotation, at a layer period down to 1/64 on a 1024^2 grid."""
    rng = np.random.default_rng(seed)
    frame, turn = rng.uniform(0.0, 2.0 * math.pi, size=2)
    edges = sorted(float(x) for x in rng.uniform(0.05, 0.95, size=2))
    shears = [float(x) for x in rng.uniform(-0.8, 0.8, size=3)]
    return {"slip": SlipSystem.orthogonal(v1=(math.cos(frame), math.sin(frame))),
            "rotation": np.array([[math.cos(turn), -math.sin(turn)],
                                  [math.sin(turn), math.cos(turn)]]),
            "gammas": tuple(zip(shears, edges + [1.0])),
            "epsilon": (1 / 16, 1 / 32, 1 / 64)[seed % 3],
            "laminate_period": float(rng.uniform(0.5, 1.5)), "grid_n": 1024}


SEEDED = list(range(9))

RASTER_CASES = {
    "single": {},
    "three_bands": {"gammas": ((0.2, 9 / 32), (0.5, 23 / 32), (-0.3, 1.0))},
    "hlam_third": {"laminate_period": 1 / 3},
    "rotated": {"rotation": ROTATION},
    # tilted laminate normals; the band energy there is unknown, so no target
    "theta_0.3pi": {"slip": SlipSystem.from_theta(0.3 * math.pi, 0.5),
                    "gammas": ((-0.6, 0.4), (0.8, 1.0))},
    # 125.125 grid rows per layer period
    "grid_1001": {"grid_n": 1001},
    # 170.67 grid rows per layer period: no two soft rows share a height
    "eps_third": {"epsilon": 1 / 3},
    **{f"seeded_{seed}": seeded_layout(seed) for seed in SEEDED},
}
# one-row and five-row blocks put every distinct row and row triple next to
# a block seam
SEAM_CASES = ["three_bands", "theta_0.3pi", "grid_1001", "eps_third", "seeded_4"]


@pytest.mark.parametrize("case,row_block",
                         [(case, None) for case in RASTER_CASES]
                         + [(case, rows) for rows in (1, 5) for case in SEAM_CASES],
                         ids=list(RASTER_CASES)
                         + [f"{case}-rows{rows}" for rows in (1, 5) for case in SEAM_CASES])
def test_raster_matches_reference(case, row_block, monkeypatch):
    spec = make_spec(**RASTER_CASES[case])
    ref_labels, ref_counts, ref_flagged = reference_raster(spec)
    if row_block is not None:
        # a budget of row_block rows of the narrowest band: blocks of
        # row_block rows there and of at most row_block in the wider bands
        # (band k holds labels 2k + 1 and 2k + 2 in every soft row)
        soft_row = ref_labels[ref_labels.any(axis=1)][0]
        widths = np.bincount((soft_row[soft_row > 0] - 1) // 2)
        monkeypatch.setattr(homogenize, "_BLOCK_ELEMENTS", row_block * widths[widths > 0].min())
    field = raster(spec)
    if row_block is not None:
        # the distinct soft rows and the distinct row triples each span at
        # least three blocks
        assert field.rows.shape[0] - 1 > 2 * row_block
        row_of = field.row_of
        triples = np.stack((np.concatenate((row_of[:1], row_of[:-1])), row_of,
                            np.concatenate((row_of[1:], row_of[-1:]))))
        assert np.unique(triples, axis=1).shape[1] > 2 * row_block
        # and blocks of row_block grid-wide rows in the interface count
        monkeypatch.setattr(homogenize, "_BLOCK_ELEMENTS", row_block * spec.grid_n)
    assert field.rows.dtype == np.int16
    assert not field.rows[0].any()
    labels = field.rows[field.row_of]
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(np.bincount(labels.ravel(), minlength=ref_counts.size),
                          ref_counts)
    assert np.array_equal(field.counts, ref_counts)
    if not spec.slip.is_orthogonal:
        monkeypatch.setattr(homogenize, "_whom_value", lambda n_mat, s: 0.0)
    rep = score(field, spec)
    cell_area = (homogenize.DOMAIN_SIDE / spec.grid_n) ** 2
    e_eps = 0.0
    avg = np.zeros((2, 2))
    for count, value in zip(ref_counts, field.values):
        if count:
            w = w_condensed(value, spec.slip, tol=homogenize.CELL_ENERGY_TOL)
            e_eps += count * w.value * cell_area
        avg = avg + (count / ref_labels.size) * value
    assert rep.e_eps == e_eps
    assert rep.flagged_area == ref_flagged
    assert np.array_equal(rep.avg_gradient, avg)


THREE_BANDS = RASTER_CASES["three_bands"]["gammas"]


def test_rows_are_distinct_heights():
    # 64 grid rows per layer period, 32 of them soft: each soft height once
    field = raster(make_spec(gammas=THREE_BANDS, epsilon=1 / 64, grid_n=4096))
    assert field.rows.shape == (1 + 32, 4096)
    assert np.count_nonzero(field.row_of) == 2048
    assert np.array_equal(np.bincount(field.row_of), [2048] + [64] * 32)
    # 170.67 rows per period at eps = 1/3: every soft row is its own height
    field = raster(make_spec(**RASTER_CASES["eps_third"]))
    assert field.rows.shape[0] - 1 == np.count_nonzero(field.row_of) == 256


def assert_unique_arrays(a, got, inverse):
    """got holds np.unique(a)'s arrays, entry for entry and dtype for dtype."""
    ref = np.unique(a, return_inverse=inverse, return_counts=True)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype
        assert np.array_equal(g, r)


@pytest.mark.parametrize("eps,grid_n,heights", [
    *[(2.0 ** -k, None, None) for k in range(2, 7)],
    # 96 soft rows, 32 a period, with 72 distinct float heights among them
    (1 / 3, 192, 72),
    (1 / 100, 4096, None),
], ids=[f"eps_1/{2 ** k}" for k in range(2, 7)] + ["eps_1/3-192", "eps_1/100-4096"])
def test_distinct_is_np_unique(eps, grid_n, heights, monkeypatch):
    # the soft-row heights (with their inverse) and the row-triple keys, as
    # both passes pass them, on the sweep's own grid where grid_n is None
    calls, distinct = [], homogenize._distinct

    def checked(a, inverse=False):
        got = distinct(a, inverse)
        assert_unique_arrays(a, got, inverse)
        calls.append((inverse, got[0].size))
        return got

    monkeypatch.setattr(homogenize, "_distinct", checked)
    if grid_n is None:
        run_sweep(SLIP, R, THREE_BANDS, [eps], laminate_period=0.25)
    else:
        spec = make_spec(gammas=THREE_BANDS, epsilon=eps, grid_n=grid_n)
        score(raster(spec), spec)
    assert [inverse for inverse, _ in calls] == [True, False]
    if heights is not None:
        assert calls[0][1] == heights


def test_distinct_of_a_single_soft_row():
    # the heights and row triples of a grid with one soft row, where no grid
    # that resolves its features has one, and of none
    for a in (np.array([0.3]), np.array([], dtype=float)):
        assert_unique_arrays(a, homogenize._distinct(a, inverse=True), True)
    row_of = np.zeros(16, dtype=np.int64)
    row_of[5] = 1
    for rows in (row_of, row_of[:1], row_of[5:6]):
        above = np.concatenate((rows[:1], rows[:-1]))
        below = np.concatenate((rows[1:], rows[-1:]))
        key = (above * 2 + rows) * 2 + below
        assert_unique_arrays(key, homogenize._distinct(key), False)


def test_grid_cap_allocates_no_grid():
    # eps = 1/128 at the 4096^2 cap; a whole int16 label grid is 2 gn^2 bytes
    spec = make_spec(gammas=THREE_BANDS, epsilon=1 / 128, grid_n=4096)
    tracemalloc.start()
    try:
        score(raster(spec), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < spec.grid_n ** 2 / 4


def test_raster_scratch_is_bounded_by_the_block_budget():
    # one band at eps = 1/64 on the 4096^2 cap: 32 distinct soft heights of
    # 4,096 cells.  Beyond the field it returns, the raster holds a float64
    # u, its float64 floor and a bool mask per block of at most
    # _BLOCK_ELEMENTS cells, and a few float64 vectors of one per grid line
    spec = make_spec(epsilon=1 / 64, grid_n=4096)
    laminates = [decompose(n_mat, spec.slip) for n_mat in gradients(spec)]
    tracemalloc.start()
    try:
        field = build_gradient_field(spec, laminates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.rows.shape == (1 + 32, 4096)
    scratch = peak - field.rows.nbytes - field.row_of.nbytes
    assert scratch <= 17 * homogenize._BLOCK_ELEMENTS + 8 * 8 * spec.grid_n


def report_bits(rep):
    return (rep.epsilon, rep.e_eps, rep.target, rep.rel_error, rep.flagged_area,
            rep.avg_gradient.tobytes(), rep.avg_gradient_target.tobytes())


def test_concurrent_sweeps_match_sequential_ones():
    # each thread keeps its own block scratch: sweeps over different layer
    # periods and bands, run at the same time round after round with a short
    # switch interval, give the reports each gives alone, bit for bit
    sweeps = [([(0.4, 1.0)], [1 / 16, 1 / 64, 1 / 32]),
              (list(THREE_BANDS), [1 / 100, 1 / 64, 1 / 8]),
              ([(-0.3, 0.5), (0.2, 1.0)], [1 / 32, 1 / 3, 1 / 64])]

    def sweep(bands, eps_list):
        return [report_bits(r) for r in run_sweep(SLIP, R, bands, eps_list, laminate_period=0.25)]

    expect = [sweep(*args) for args in sweeps]
    rounds = 4
    start = threading.Barrier(len(sweeps), timeout=60)
    got = [[] for _ in sweeps]

    def worker(k):
        for _ in range(rounds):
            start.wait()
            got[k].append(sweep(*sweeps[k]))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(sweeps))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[reports] * rounds for reports in expect]


def test_sweep_grid_is_capped_before_dividing(monkeypatch):
    # ceil(cells_per_feature / finest) up to GRID_CAP, as before, also where
    # the quotient overflows a float or cells_per_feature is too large an int
    # for one; no grid is built here
    grids = []
    monkeypatch.setattr(homogenize, "build_gradient_field",
                        lambda spec, laminates: grids.append(spec.grid_n))
    monkeypatch.setattr(homogenize, "energy_of_field",
                        lambda field, spec, gradients, band_whom: None)
    eps_list = [1 / 4, 1 / 8, 1 / 3, 1 / 5, 1 / 64, 1 / 128, 0.3]
    for cells, period in ((4, 0.25), (8, 0.25), (8, 1.0), (10, 0.7), (33, 0.25)):
        grids.clear()
        run_sweep(SLIP, R, [(0.4, 1.0)], eps_list, laminate_period=period, cells_per_feature=cells)
        lam = SLIP.lam
        assert grids == [min(math.ceil(cells / min(e * lam, period * e * lam)), homogenize.GRID_CAP)
                         for e in eps_list]
    grids.clear()
    run_sweep(SLIP, R, [(0.4, 1.0)], [1 / 4], laminate_period=0.25, cells_per_feature=10 ** 400)
    assert grids == [homogenize.GRID_CAP]
    for eps, period in ((1e-310, 0.25), (1 / 8, 1e-310)):
        with pytest.raises(PreconditionError, match="fewer than 4 cells"):
            run_sweep(SLIP, R, [(0.4, 1.0)], [eps], laminate_period=period)


def test_sweep_evaluates_each_band_target_once(monkeypatch):
    # one gradient, W_hom and laminate per band for the whole sweep; each
    # report keeps the bits of one whose layer period forms its own
    calls = {"shear_from_gamma": [], "_whom_value": [], "decompose": []}
    for name, calls_of in calls.items():
        monkeypatch.setattr(homogenize, name, lambda *a, f=getattr(homogenize, name),
                            calls_of=calls_of: calls_of.append(a) or f(*a))
    specs = []
    build = homogenize.build_gradient_field
    monkeypatch.setattr(homogenize, "build_gradient_field",
                        lambda spec, laminates: specs.append(spec) or build(spec, laminates))
    reports = run_sweep(SLIP, R, THREE_BANDS, [1 / 4, 1 / 8, 1 / 16], laminate_period=0.25)
    assert [len(c) for c in calls.values()] == [len(THREE_BANDS)] * 3
    monkeypatch.undo()
    for rep, spec in zip(reports, specs, strict=True):
        ref = score(raster(spec), spec)
        assert (rep.e_eps, rep.target, rep.rel_error, rep.flagged_area) == (
            ref.e_eps, ref.target, ref.rel_error, ref.flagged_area)
        assert np.array_equal(rep.avg_gradient, ref.avg_gradient)
        assert np.array_equal(rep.avg_gradient_target, ref.avg_gradient_target)


def test_sweep_monotone_and_accurate():
    reports = run_sweep(SLIP, R, [(0.4, 1.0)], [1 / 4, 1 / 8, 1 / 16, 1 / 32],
                        laminate_period=0.25)
    errs = [r.rel_error for r in reports]
    for early, late in zip(errs, errs[1:]):
        assert late <= early * 1.1 + 1e-12
    assert errs[-1] <= 0.02


def test_band_snapping_gives_order_eps_error():
    # edges at 9/32 and 23/32 misalign with the coarse layer period and
    # align with the finest one; the snapping error shrinks like the
    # whole-layer band trimming, about one period per interior edge
    bands = [(0.2, 9 / 32), (0.5, 23 / 32), (-0.3, 1.0)]
    reports = run_sweep(SLIP, R, bands, [1 / 8, 1 / 16, 1 / 32], laminate_period=0.25)
    errs = [r.rel_error for r in reports]
    for rep in reports:
        assert rep.rel_error <= 4.5 * rep.epsilon
    assert errs[-1] <= 0.03
    assert errs[-1] <= errs[0] + 1e-12


def test_avg_gradient_tracks_target():
    reports = run_sweep(SLIP, R, [(0.4, 1.0)], [1 / 4, 1 / 8, 1 / 16], laminate_period=0.25)
    for rep in reports:
        dev = float(np.abs(rep.avg_gradient - rep.avg_gradient_target).max())
        assert dev <= 0.1 * rep.epsilon + 1e-3
