import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lamlab import homogenize
from lamlab.energy import Known, SlipSystem, w_condensed, w_hom
from lamlab.errors import PreconditionError
from lamlab.homogenize import MicrostructureSpec, energy_report, run_sweep, shear_from_gamma
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


def score(spec):
    """energy_report with each band's gradient and W_hom and the rigid
    energy, as run_sweep forms them."""
    n_mats = gradients(spec)
    return energy_report(spec, n_mats,
                         [homogenize._whom_value(n_mat, spec.slip) for n_mat in n_mats],
                         homogenize._rigid_energy(spec.rotation, spec.slip))


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
    # no label type bounds the band count
    make_spec(gammas=tuple((0.4, (k + 1) / 16400) for k in range(16399)) + ((0.4, 1.0),))
    for eps_list, hlam in (([0.0], 0.25), ([1 / 4], 0.0)):
        with pytest.raises(PreconditionError):
            run_sweep(SLIP, R, [(0.4, 1.0)], eps_list, laminate_period=hlam)


def test_unknown_target_fails_before_rasterizing(monkeypatch):
    # at theta = 0.3 pi W_hom of this band is only bounded; no grid is scored
    def no_grid(*args):
        raise AssertionError("energy_report called")
    monkeypatch.setattr(homogenize, "energy_report", no_grid)
    slip = SlipSystem.from_theta(0.3 * math.pi, 0.5)
    with pytest.raises(PreconditionError, match="relaxed energy is unknown"):
        run_sweep(slip, R, [(0.0, 0.5), (0.4, 1.0)], [1 / 64], laminate_period=0.25)


def test_zero_shear_field_is_rigid():
    rep = score(make_spec(gammas=((0.0, 1.0),)))
    assert rep.e_eps == 0.0
    assert rep.rel_error == 0.0
    assert np.allclose(rep.avg_gradient, R)


def reference_raster(spec):
    """Whole-grid rasterization of the pattern, the construction the sweep
    scores: one label per cell, 0 for the rigid gradient and 2k + 1, 2k + 2
    for band k's laminate endpoints F+ and F-, and the gradient of each label."""
    gn, l, eps = spec.grid_n, homogenize.DOMAIN_SIDE, spec.epsilon
    lam = spec.slip.lam
    xs = (np.arange(gn) + 0.5) * (l / gn)
    x2 = xs[:, None]
    soft = np.mod(x2 / eps, 1.0) < lam
    labels = np.zeros((gn, gn), dtype=np.int16)
    values = [spec.rotation]
    h_abs = spec.laminate_period * eps * lam
    strip_bottom = np.floor(x2 / eps) * eps
    left = 0.0
    for band_index, (gamma, right) in enumerate(spec.gammas):
        dec = decompose(shear_from_gamma(gamma, lam, spec.rotation), spec.slip)
        values += [dec.f_plus, dec.f_minus]
        x_lo = math.ceil(left / eps - 1e-9) * eps
        x_hi = math.floor(right / eps + 1e-9) * eps
        left = right
        cols = (xs >= x_lo) & (xs < x_hi)
        n_hat = np.asarray(dec.direction[1], dtype=float)
        n_hat = n_hat / np.linalg.norm(n_hat)
        u = (xs[cols] - x_lo) * n_hat[0] + (x2 - strip_bottom) * n_hat[1]
        plus = np.mod(u / h_abs, 1.0) < dec.mu
        labels[:, cols] = np.where(soft, np.where(plus, 1 + 2 * band_index,
                                                  2 + 2 * band_index), 0)
    return labels, values


def flagged_cells(labels):
    """The cells with a 4-neighbour of a different label."""
    flagged = np.zeros(labels.shape, dtype=bool)
    flagged[1:, :] |= labels[1:, :] != labels[:-1, :]
    flagged[:-1, :] |= labels[:-1, :] != labels[1:, :]
    flagged[:, 1:] |= labels[:, 1:] != labels[:, :-1]
    flagged[:, :-1] |= labels[:, :-1] != labels[:, 1:]
    return int(np.count_nonzero(flagged))


def assert_matches_reference(spec, rep, known=True):
    """rep against the whole-grid raster: the same flagged area, counted on
    the labels collapsed to band ids; on a Known layout e_eps within 4e-15
    of each cell's W summed; the average gradient within two cells per grid
    line of the largest laminate jump |F+ - F-|, which is what the raster's
    count of plus cells against the laminate fraction mu moves it by."""
    labels, values = reference_raster(spec)
    counts = np.bincount(labels.ravel(), minlength=len(values))
    cell_area = (homogenize.DOMAIN_SIDE / spec.grid_n) ** 2
    assert rep.flagged_area == flagged_cells((labels + 1) // 2) * cell_area
    e_eps = 0.0
    avg = np.zeros((2, 2))
    for count, value in zip(counts, values):
        if count:
            w = w_condensed(value, spec.slip, tol=homogenize.CELL_ENERGY_TOL)
            assert w.is_finite
            e_eps += count * w.value * cell_area
        avg = avg + (count / labels.size) * value
    if known:
        assert abs(rep.e_eps - e_eps) <= 4e-15 * e_eps
    jump = max(np.abs(f_plus - f_minus).max() for f_plus, f_minus in zip(values[1::2], values[2::2]))
    assert np.abs(rep.avg_gradient - avg).max() <= 2.0 * jump / spec.grid_n


def test_three_distinct_values_single_band():
    labels, _ = reference_raster(make_spec())
    assert set(np.unique(labels)) == {0, 1, 2}
    # rigid cells occupy about 1 - lambda of the domain
    rigid_frac = float(np.mean(labels == 0))
    assert rigid_frac == pytest.approx(1 - SLIP.lam, abs=0.02)


def test_single_band_convergence():
    rep = score(make_spec(epsilon=1 / 16, grid_n=1024))
    assert rep.rel_error <= 0.05
    assert rep.flagged_area < 1.0


def test_on_manifold_band_is_single_valued():
    # a soft gradient already on a slip manifold needs no laminate
    lam = SLIP.lam
    # pick gamma so that N = I + (gamma/lam) e1 (x) e2 satisfies |N v1| = 1
    # |Nv1|^2 = 1 + 2 a b g + b^2 g^2 with a = b = 1/sqrt(2): g(2ab + b^2 g) = 0
    gamma_star = -2.0 * lam * (0.5) / 0.5  # g = -2ab/b^2 -> gamma = -2*lam*a/b... direct
    n = shear_from_gamma(gamma_star, lam, R)
    assert abs(np.linalg.norm(n @ SLIP.v1) - 1.0) < 1e-12 \
        or abs(np.linalg.norm(n @ SLIP.v2) - 1.0) < 1e-12
    labels, values = reference_raster(make_spec(gammas=((gamma_star, 1.0),)))
    for label in set(np.unique(labels)) - {0}:
        assert np.allclose(values[label], n)


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
    # 170.67 grid rows per layer period
    "eps_third": {"epsilon": 1 / 3},
    # the middle band lies within one layer period and snaps to no column
    "empty_band": {"gammas": ((0.2, 0.3), (0.5, 0.35), (-0.3, 1.0))},
    # so does the first: the columns start with a run of no band
    "empty_first_band": {"gammas": ((0.5, 0.1), (0.2, 1.0))},
    # edges on whole layer periods: the bands' column ranges touch
    "touching_bands": {"gammas": ((0.2, 0.25), (-0.5, 0.5), (0.4, 0.625), (0.1, 1.0))},
    # one layer period fills the domain
    "eps_one": {"epsilon": 1.0, "grid_n": 64},
    # soft layers of 0.8 of the period, the top grid row among them
    "lam_0.8": {"slip": SlipSystem.orthogonal(v1=(1 / math.sqrt(2), 1 / math.sqrt(2)), lam=0.8),
                "epsilon": 0.3, "grid_n": 700},
    # 40 bands with seeded edges, some of them within one layer period
    "forty_bands": {"gammas": tuple(zip(np.random.default_rng(40).uniform(-0.8, 0.8, 40).tolist(),
                                        sorted(np.random.default_rng(41).uniform(0, 1, 39).tolist())
                                        + [1.0]))},
    **{f"seeded_{seed}": seeded_layout(seed) for seed in SEEDED},
}


def sweep_on_grid(spec, monkeypatch):
    """run_sweep's report at the spec's layer period on the spec's own grid:
    a cells-per-feature half a cell short of grid_n, which the sweep rounds
    up to grid_n."""
    lam = spec.slip.lam
    finest = min(spec.epsilon * lam, spec.laminate_period * spec.epsilon * lam)
    specs = []
    monkeypatch.setattr(homogenize, "energy_report",
                        lambda s, *a, f=energy_report: specs.append(s) or f(s, *a))
    rep, = run_sweep(spec.slip, spec.rotation, spec.gammas, [spec.epsilon],
                     laminate_period=spec.laminate_period,
                     cells_per_feature=(spec.grid_n - 0.5) * finest)
    monkeypatch.undo()
    assert specs == [spec]
    return rep


# the same layouts on a grid one and five cells finer per side: every cell
# centre moves against the layer and band edges, so the soft rows and each
# band's snapped columns fall on other cells
SEAM_CASES = ["three_bands", "theta_0.3pi", "grid_1001", "eps_third", "seeded_4"]


@pytest.mark.parametrize("case,rows",
                         [(case, 0) for case in RASTER_CASES]
                         + [(case, rows) for rows in (1, 5) for case in SEAM_CASES],
                         ids=list(RASTER_CASES)
                         + [f"{case}-rows{rows}" for rows in (1, 5) for case in SEAM_CASES])
def test_raster_matches_reference(case, rows, monkeypatch):
    spec = make_spec(**RASTER_CASES[case])
    if rows:
        spec = make_spec(**{**RASTER_CASES[case], "grid_n": spec.grid_n + rows})
    known = spec.slip.is_orthogonal
    if not known:
        # the sweep refuses a band whose target is unknown; its counts still hold
        monkeypatch.setattr(homogenize, "_whom_value", lambda n_mat, s: 0.0)
    assert_matches_reference(spec, sweep_on_grid(spec, monkeypatch), known)


@pytest.mark.parametrize("theta,targets", [(math.pi / 4, 3603), (0.3 * math.pi, 2779),
                                            (0.4 * math.pi, 1759), (0.45 * math.pi, 699)],
                         ids=["pi/4", "0.3pi", "0.4pi", "0.45pi"])
def test_laminate_endpoints_carry_w_hom(theta, targets):
    # the premise of the closed-form score: on a Known shear target both
    # endpoints of its laminate have W = W_hom, so which endpoint a soft
    # cell holds does not move the grid energy; targets counts the Known
    # shears among the 3 x 1201 of the grid
    known = 0
    for lam in (0.2, 0.5, 0.8):
        slip = SlipSystem.from_theta(theta, lam)
        for gamma in np.linspace(-6.0, 6.0, 1201):
            n_mat = shear_from_gamma(float(gamma), lam, R)
            rec = w_hom(n_mat, slip)
            if not isinstance(rec, Known):
                continue
            known += 1
            whom = rec.value.as_float()
            dec = decompose(n_mat, slip)
            for end in (dec.f_plus, dec.f_minus):
                w = w_condensed(end, slip, tol=homogenize.CELL_ENERGY_TOL)
                assert abs(w.value - whom) <= 4e-15 * max(1.0, whom), (lam, gamma)
    assert known == targets


THREE_BANDS = RASTER_CASES["three_bands"]["gammas"]


def test_grid_cap_allocates_no_grid():
    # eps = 1/128 at the 4096^2 cap; a whole int16 label grid is 2 gn^2 bytes
    tracemalloc.start()
    try:
        run_sweep(SLIP, R, THREE_BANDS, [1 / 128], laminate_period=0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 ** 2 / 4


def report_bits(rep):
    return (rep.epsilon, rep.e_eps, rep.target, rep.rel_error, rep.flagged_area,
            rep.avg_gradient.tobytes(), rep.avg_gradient_target.tobytes())


def test_concurrent_sweeps_match_sequential_ones():
    # sweeps over different layer periods and bands, run at the same time
    # round after round with a short switch interval, give the reports each
    # gives alone, bit for bit
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
    # for one; no grid is scored here
    grids = []
    monkeypatch.setattr(homogenize, "energy_report", lambda spec, *a: grids.append(spec.grid_n))
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
    # one gradient and W_hom per band and one rigid energy for the whole
    # sweep, and no laminate; each report keeps the bits of one whose layer
    # period forms its own
    assert not hasattr(homogenize, "decompose")
    calls = {"shear_from_gamma": [], "_whom_value": [], "_rigid_energy": []}
    for name, calls_of in calls.items():
        monkeypatch.setattr(homogenize, name, lambda *a, f=getattr(homogenize, name),
                            calls_of=calls_of: calls_of.append(a) or f(*a))
    specs = []
    monkeypatch.setattr(homogenize, "energy_report",
                        lambda spec, *a, f=energy_report: specs.append(spec) or f(spec, *a))
    reports = run_sweep(SLIP, R, THREE_BANDS, [1 / 4, 1 / 8, 1 / 16], laminate_period=0.25)
    assert [len(c) for c in calls.values()] == [len(THREE_BANDS)] * 2 + [1]
    monkeypatch.undo()
    for rep, spec in zip(reports, specs, strict=True):
        assert report_bits(rep) == report_bits(score(spec))


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
