import math

import numpy as np
import pytest

from lamlab import homogenize
from lamlab.energy import SlipSystem, w_condensed
from lamlab.errors import PreconditionError
from lamlab.homogenize import (MicrostructureSpec, averaging_check,
                               build_gradient_field, energy_of_field,
                               run_sweep, shear_from_gamma)
from lamlab.laminate import decompose

SLIP = SlipSystem.orthogonal(v1=(1 / math.sqrt(2), 1 / math.sqrt(2)), lam=0.5)
R = np.eye(2)


def make_spec(**kw):
    args = dict(slip=SLIP, rotation=R, gammas=((0.4, 1.0),), epsilon=0.125,
                laminate_period=0.25, domain_side=1.0, grid_n=512)
    args.update(kw)
    return MicrostructureSpec(**args)


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
    # band k labels its cells 2k + 1 and 2k + 2 in the int16 label grid
    bands = tuple((0.4, (k + 1) / 16384) for k in range(16383)) + ((0.4, 1.0),)
    make_spec(gammas=bands[1:])
    with pytest.raises(PreconditionError):
        make_spec(gammas=bands)
    for eps_list, hlam in (([0.0], 0.25), ([1 / 4], 0.0)):
        with pytest.raises(PreconditionError):
            run_sweep(SLIP, R, [(0.4, 1.0)], eps_list, laminate_period=hlam)


def test_unknown_target_fails_before_rasterizing(monkeypatch):
    # at theta = 0.3 pi W_hom of this band is only bounded
    def no_raster(spec):
        raise AssertionError("build_gradient_field called")
    monkeypatch.setattr(homogenize, "build_gradient_field", no_raster)
    slip = SlipSystem.from_theta(0.3 * math.pi, 0.5)
    with pytest.raises(PreconditionError):
        run_sweep(slip, R, [(0.0, 0.5), (0.4, 1.0)], [1 / 64], laminate_period=0.25)


def test_zero_shear_field_is_rigid():
    spec = make_spec(gammas=((0.0, 1.0),))
    field = build_gradient_field(spec)
    rep = energy_of_field(field, spec)
    assert rep.e_eps == 0.0
    assert rep.rel_error == 0.0
    assert np.allclose(rep.avg_gradient, R)


def test_three_distinct_values_single_band():
    spec = make_spec()
    field = build_gradient_field(spec)
    labels = set(np.unique(field.labels))
    assert labels == {0, 1, 2}
    # rigid cells occupy about 1 - lambda of the domain
    rigid_frac = float(np.mean(field.labels == 0))
    assert rigid_frac == pytest.approx(1 - SLIP.lam, abs=0.02)


def test_single_band_convergence():
    spec = make_spec(epsilon=1 / 16, grid_n=1024)
    rep = energy_of_field(build_gradient_field(spec), spec)
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
    spec = make_spec(gammas=((gamma_star, 1.0),))
    field = build_gradient_field(spec)
    soft_labels = set(np.unique(field.labels)) - {0}
    vals = [field.values[i] for i in soft_labels]
    for v in vals:
        assert np.allclose(v, n)


def reference_raster(spec):
    """Whole-grid rasterization and scoring: labels, label counts, flagged area."""
    gn, l, eps = spec.grid_n, spec.domain_side, spec.epsilon
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
    "side_2": {"domain_side": 2.0, "gammas": ((0.3, 0.7), (-0.2, 2.0)), "epsilon": 0.25,
               "grid_n": 600},
    "rotated": {"rotation": ROTATION},
    # tilted laminate normals; the band energy there is unknown, so no target
    "theta_0.3pi": {"slip": SlipSystem.from_theta(0.3 * math.pi, 0.5),
                    "gammas": ((-0.6, 0.4), (0.8, 1.0))},
    # 125.125 grid rows per layer period
    "grid_1001": {"grid_n": 1001},
    **{f"seeded_{seed}": seeded_layout(seed) for seed in SEEDED},
}
# one-row and five-row blocks put every row next to a block seam
SEAM_CASES = ["three_bands", "side_2", "theta_0.3pi", "grid_1001", "seeded_4"]


@pytest.mark.parametrize("case,row_block",
                         [(case, None) for case in RASTER_CASES]
                         + [(case, rows) for rows in (1, 5) for case in SEAM_CASES],
                         ids=list(RASTER_CASES)
                         + [f"{case}-rows{rows}" for rows in (1, 5) for case in SEAM_CASES])
def test_raster_matches_reference(case, row_block, monkeypatch):
    spec = make_spec(**RASTER_CASES[case])
    if row_block is not None:
        monkeypatch.setattr(homogenize, "_ROW_BLOCK", row_block)
    ref_labels, ref_counts, ref_flagged = reference_raster(spec)
    # the soft rows span at least three row blocks
    assert np.count_nonzero(ref_labels.any(axis=1)) > 2 * homogenize._ROW_BLOCK
    field = build_gradient_field(spec)
    assert field.labels.dtype == np.int16
    assert np.array_equal(field.labels, ref_labels)
    assert np.array_equal(np.bincount(field.labels.ravel(), minlength=ref_counts.size),
                          ref_counts)
    assert np.array_equal(field.counts, ref_counts)
    if not spec.slip.is_orthogonal:
        monkeypatch.setattr(homogenize, "_whom_value", lambda n_mat, s: 0.0)
    rep = energy_of_field(field, spec)
    cell_area = (spec.domain_side / spec.grid_n) ** 2
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


def test_averaging_check_examples():
    rows = averaging_check(lambda y1, y2: np.ones_like(y1), 1.0, [1 / 4, 1 / 8], 256)
    assert all(dev == 0.0 for _, dev in rows)
    rows = averaging_check(lambda y1, y2: np.sin(2 * np.pi * y1), 0.0,
                           [0.31, 0.17, 0.086], 512)
    for eps, dev in rows:
        assert dev <= 1.0 * eps
    lam = SLIP.lam
    for eps in (1 / 4, 1 / 8, 1 / 16):
        grid_n = int(64 / eps)
        (_, dev), = averaging_check(lambda y1, y2: (y2 < lam).astype(float), lam,
                                    [eps], grid_n)
        assert dev <= 2.0 * eps
