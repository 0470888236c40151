import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamlab.algebra import bc_to_matrix, det2, perp, random_det1, rotation
from lamlab.energy import Known, SlipSystem, w_hom
from lamlab.errors import OffManifold
from lamlab.laminate import LaminateDecomposition, decompose, verify_decomposition
from lamlab.regions import classify

ORTHO = SlipSystem.orthogonal(v1=(1.0, 0.0))


def test_identity_decomposition():
    d = decompose(np.eye(2), ORTHO)
    assert d.kind == "CaseOnManifold"
    assert d.mu == 0.5
    assert np.allclose(d.f_plus, np.eye(2))
    assert d.energy == 0.0


def test_off_manifold_rejected():
    with pytest.raises(OffManifold):
        decompose(np.diag([2.0, 1.0]), ORTHO)


def test_sheared_layer_target():
    s = SlipSystem.orthogonal(v1=(1 / math.sqrt(2), 1 / math.sqrt(2)), lam=0.5)
    n = np.eye(2) + (0.4 / 0.5) * np.outer([1.0, 0.0], [0.0, 1.0])
    d = decompose(n, s)
    ref = w_hom(n, s).value.as_float()
    assert d.energy == pytest.approx(ref, abs=1e-9)
    assert verify_decomposition(d, n, s).max_residual() <= 1e-9


def test_hyperbolic_stretch_preserved_vector():
    t = 0.3
    n = np.array([[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]])
    d = decompose(n, ORTHO)
    assert d.kind == "CaseA"
    w = ORTHO.v1 + ORTHO.v2
    for f in (d.f_plus, d.f_minus):
        assert np.linalg.norm((f - n) @ w) <= 1e-10


def test_orthogonal_bulk_exactness():
    rng = np.random.default_rng(31)
    for _ in range(3000):
        n = random_det1(rng, spread=2.0)
        d = decompose(n, ORTHO)
        rep = verify_decomposition(d, n, ORTHO)
        assert rep.convex_combination <= 1e-10
        assert rep.rank_one <= 1e-10
        assert rep.manifold <= 1e-9
        ref = w_hom(n, ORTHO).value.as_float()
        assert abs(d.energy - ref) <= 1e-8 * max(1.0, ref)


def test_general_known_regions_and_segment_constancy():
    rng = np.random.default_rng(32)
    checked_segment = 0
    for _ in range(3000):
        theta = rng.uniform(math.pi / 4 + 0.05, math.pi / 2 - 0.05)
        s = SlipSystem.from_theta(theta, 0.5)
        n = random_det1(rng, spread=2.0)
        tag = classify(n, s).tag
        d = decompose(n, s)
        rep = verify_decomposition(d, n, s)
        assert rep.convex_combination <= 1e-10
        assert rep.rank_one <= 1e-10
        assert rep.manifold <= 1e-9
        res = w_hom(n, s)
        if isinstance(res, Known):
            ref = res.value.as_float()
            assert abs(d.energy - ref) <= 1e-8 * max(1.0, ref)
        else:
            assert res.lower - 1e-9 <= d.energy <= res.upper + 1e-9
            assert d.kind == "UpperBoundOnly"
        # relaxed energy is constant along the construction segment
        if tag in ("A", "APerp") and checked_segment < 50:
            checked_segment += 1
            base = d.energy
            for lam_t in np.linspace(0.05, 0.95, 10):
                m = lam_t * d.f_plus + (1 - lam_t) * d.f_minus
                res_m = w_hom(m, s)
                assert isinstance(res_m, Known)
                assert abs(res_m.value.as_float() - base) <= 1e-8 * max(1.0, base)
    assert checked_segment == 50


def test_general_root_sign_pattern():
    # slip-manifold intersections along the bisector line bracket the target
    # from the two sides, one slip system per side
    from lamlab.algebra import RankOneLine, solve_unit_image_times
    rng = np.random.default_rng(33)
    s = SlipSystem.from_theta(math.pi / 3, 0.5)
    seen = 0
    while seen < 200:
        n = random_det1(rng, spread=2.0)
        tag = classify(n, s).tag
        if tag not in ("A", "APerp"):
            continue
        seen += 1
        if tag == "A":
            line = RankOneLine(n, s.v3, s.v3_perp)
        else:
            line = RankOneLine(n, s.v3_perp, s.v3)
        r1 = solve_unit_image_times(line, s.v1)
        r2 = solve_unit_image_times(line, s.v2)
        assert len(r1) == 2 and len(r2) == 2
        assert r1[0] * r1[1] > 0 and r2[0] * r2[1] > 0
        assert r1[0] * r2[0] < 0


def test_verify_detects_perturbation():
    n = np.array([[1.3, 0.4], [0.1, (1 + 0.4 * 0.1) / 1.3]])
    n = n / math.sqrt(det2(n))
    d = decompose(n, ORTHO)
    bad = LaminateDecomposition(f_plus=d.f_plus + 1e-3, f_minus=d.f_minus,
                                mu=d.mu, direction=d.direction,
                                energy=d.energy, kind=d.kind)
    rep = verify_decomposition(bad, n, ORTHO)
    assert rep.convex_combination == pytest.approx(d.mu * 2e-3 / max(1.0, 1.0), rel=0.5)


def test_rotated_frames():
    rng = np.random.default_rng(34)
    s = SlipSystem.orthogonal(v1=(math.cos(0.7), math.sin(0.7)))
    for _ in range(500):
        n = random_det1(rng, spread=2.0)
        d = decompose(n, s)
        assert verify_decomposition(d, n, s).max_residual() <= 1e-9
        ref = w_hom(n, s).value.as_float()
        assert abs(d.energy - ref) <= 1e-8 * max(1.0, ref)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(log_b=st.floats(2.0, 6.0), b_sign=st.sampled_from((-1.0, 1.0)),
       c=st.floats(-3.0, 3.0), frac=st.sampled_from((0.25, 0.3, 0.35, 0.45)))
def test_large_b_laminates_stay_on_the_manifolds(log_b, b_sign, c, frac):
    # |b| log-uniform in [1e2, 1e6]: the rank-one quadratic's expanded
    # coefficients reach |F|^4 ~ 1e24 here
    s = SlipSystem.from_theta(frac * math.pi, 0.5)
    n = bc_to_matrix(b_sign * 10.0 ** log_b, c)
    d = decompose(n, s)
    rep = verify_decomposition(d, n, s)
    assert rep.convex_combination <= 1e-10
    assert rep.rank_one <= 1e-10
    assert rep.manifold <= 1e-9
    res = w_hom(n, s)
    if isinstance(res, Known):
        ref = res.value.as_float()
        assert abs(d.energy - ref) <= 1e-8 * max(1.0, ref)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(frac=st.sampled_from((0.25, 0.3, 0.35, 0.45)), slip=st.sampled_from((1, 2)),
       gamma=st.floats(-3.0, 3.0), angle=st.floats(0.0, 2.0 * math.pi),
       stretch=st.floats(-1e-9, 1e-9))
def test_laminates_inside_the_manifold_tolerance_bands(frac, slip, gamma, angle, stretch):
    # every region boundary lies on M1 or M2; R (I + gamma v (x) v_perp) is on
    # the manifold of v, and the det-1 stretch by exp(+-stretch) along v and
    # v_perp moves |N v| - 1 to expm1(stretch), inside the tol band (gamma ~ 0:
    # inside both bands, next to SO2)
    s = SlipSystem.from_theta(frac * math.pi, 0.5)
    v = s.v1 if slip == 1 else s.v2
    frame = np.column_stack([v, perp(v)])
    n = (rotation(angle) @ (np.eye(2) + gamma * np.outer(v, perp(v)))
         @ frame @ np.diag([math.exp(stretch), math.exp(-stretch)]) @ frame.T)
    d = decompose(n, s)
    rep = verify_decomposition(d, n, s)
    assert rep.convex_combination <= 1e-10
    assert rep.rank_one <= 1e-10
    assert rep.manifold <= 1e-9
    res = w_hom(n, s)
    if isinstance(res, Known):
        ref = res.value.as_float()
        assert abs(d.energy - ref) <= 1e-8 * max(1.0, ref)
    else:
        assert res.lower - 1e-9 <= d.energy <= res.upper + 1e-9
