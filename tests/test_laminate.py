import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamlab import laminate
from lamlab.algebra import bc_to_matrix, frobenius_sq, perp
from lamlab.cli import main
from lamlab.energy import Known, SlipSystem, matrix_state, w_hom
from lamlab.envelope_oracle import _direction_energy
from lamlab.errors import DegenerateTangency, DomainError, OffManifold
from lamlab.laminate import (DecompositionReport, LaminateDecomposition, decompose,
                             verify_decomposition)
from lamlab.regions import classify

from references import det2, random_det1, rotation

ORTHO = SlipSystem.orthogonal(v1=(1.0, 0.0))
ANGLES = (math.pi / 4, 0.3 * math.pi, 0.35 * math.pi, 0.45 * math.pi)


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


def upper_bound_targets(per_case=60):
    """Seeded UpperBoundOnly targets at four slip angles and three spreads."""
    rng = np.random.default_rng(36)
    for frac in (0.3, 0.35, 0.4, 0.45):
        s = SlipSystem.from_theta(frac * math.pi, 0.5)
        for spread in (1.5, 3.0, 30.0):
            found = 0
            while found < per_case:
                n = random_det1(rng, spread=spread)
                d = decompose(n, s)
                if d.kind == "UpperBoundOnly":
                    found += 1
                    yield n, s, d


def test_upper_bound_laminate_is_the_oracle_best_of_its_lines():
    # the nearest root on each side of the target is the oracle's rule, so on
    # the single-slip line and the v3 and v3_perp lines decompose meets the
    # oracle's per-direction energy
    for n, s, d in upper_bound_targets():
        inside = s.v1 if matrix_state(n, s).d1 < 0.0 else s.v2
        ms = np.array([perp(inside), s.v3, s.v3_perp])
        oracle = float(_direction_energy(n[None], ms[None, :, 0], ms[None, :, 1], s).min())
        assert abs(d.energy - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_upper_bound_energy_is_the_weighted_endpoint_energy():
    for n, s, d in upper_bound_targets():
        assert verify_decomposition(d, n, s).energy_equality == 0.0


# the CLI's default slip system and a target of its region A
CLI_SLIP = SlipSystem.from_theta(math.pi / 4, 0.5)
CASE_A = np.diag([1 / 1.5, 1.5])
CASE_A_ARG = ",".join(map(repr, CASE_A.ravel().tolist()))


def test_no_bracketing_pair_raises_degenerate_tangency(monkeypatch, capsys):
    monkeypatch.setattr(laminate, "solve_unit_image_times", lambda line, v: [])
    with pytest.raises(DegenerateTangency, match="no rank-one line"):
        decompose(CASE_A, CLI_SLIP)
    assert main(["laminate", "--matrix", CASE_A_ARG]) == 3
    assert "no rank-one line" in capsys.readouterr().err


def test_unequal_known_endpoints_raise_degenerate_tangency(monkeypatch, capsys):
    # shifted roots leave the CaseA endpoints at different energies
    assert decompose(CASE_A, CLI_SLIP).kind == "CaseA"
    solve = laminate.solve_unit_image_times
    monkeypatch.setattr(laminate, "solve_unit_image_times",
                        lambda line, v: [t + 0.1 for t in solve(line, v)])
    with pytest.raises(DegenerateTangency, match="endpoint energies differ"):
        decompose(CASE_A, CLI_SLIP)
    assert main(["laminate", "--matrix", CASE_A_ARG]) == 3
    assert "endpoint energies differ" in capsys.readouterr().err


def reference_verify_decomposition(d, n, s):
    """verify_decomposition with its combination, jump and determinant on
    NumPy arrays, as it was before they moved to Python floats."""
    scale = max(1.0, math.sqrt(frobenius_sq(n)))
    comb = d.mu * d.f_plus + (1.0 - d.mu) * d.f_minus - n
    conv = math.sqrt(frobenius_sq(comb)) / scale
    diff = d.f_plus - d.f_minus
    try:
        dn = frobenius_sq(diff)
    except DomainError:
        raise DomainError("laminate jump |F+ - F-|^2 overflows") from None
    rank1 = abs(det2(diff)) / dn if dn > 0.0 else 0.0
    man = 0.0
    for f in (d.f_plus, d.f_minus):
        dev = min(abs(laminate._norm(f @ s.v1) - 1.0), abs(laminate._norm(f @ s.v2) - 1.0))
        man = max(man, dev)
    wp, wm = laminate._w_manifold(d.f_plus), laminate._w_manifold(d.f_minus)
    if d.kind == "UpperBoundOnly":
        energy_res = abs(d.mu * wp + (1.0 - d.mu) * wm - d.energy)
    else:
        energy_res = max(abs(wp - d.energy), abs(wm - d.energy))
    a = np.asarray(d.direction[0], dtype=float)
    norm_a = laminate._norm(a)
    pres = 0.0
    if norm_a > 0.0:
        a_hat = a / norm_a
        for f in (d.f_plus, d.f_minus):
            pres = max(pres, laminate._norm((f - n) @ a_hat) / scale)
    return DecompositionReport(convex_combination=conv, rank_one=rank1, manifold=man,
                               energy_equality=energy_res, preserved_vector=pres)


def seeded_query_pool(seed, count):
    """(theta, N) pairs: random det-1 targets at each angle of the queries
    benchmark, every sixth a rotated single-slip shear on M1 or M2."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        theta = ANGLES[k % len(ANGLES)]
        if k % 6 == 5:
            s = SlipSystem.from_theta(theta, 0.5)
            v = s.v1 if k % 12 == 5 else s.v2
            n = rotation(rng.uniform(0.0, 2.0 * math.pi)) @ (
                np.eye(2) + rng.uniform(-2.0, 2.0) * np.outer(v, perp(v)))
        else:
            n = random_det1(rng, spread=3.0 if k % 2 else 1.5)
        yield theta, n


def decomposition_bits(d):
    return (d.f_plus.tobytes(), d.f_minus.tobytes(), d.mu, d.energy, d.kind,
            tuple(np.asarray(v, dtype=float).tobytes() for v in d.direction))


def test_query_chain_keeps_the_reference_bits():
    # classify -> w_hom -> decompose -> verify on one slip system per angle
    # (the slip-state memo hits), against decompose on a fresh system per
    # target (it misses) and the NumPy reference of verify_decomposition:
    # every field equal with ==, every array equal byte for byte
    shared = {theta: SlipSystem.from_theta(theta, 0.5) for theta in ANGLES}
    kinds = set()
    for theta, n in seeded_query_pool(2029, 1200):
        s = shared[theta]
        if classify(n, s).tag == "OffManifold":
            continue
        w_hom(n, s)
        d = decompose(n, s)
        fresh = decompose(n.copy(), SlipSystem.from_theta(theta, 0.5))
        assert decomposition_bits(d) == decomposition_bits(fresh)
        kinds.add(d.kind)
        got, ref = verify_decomposition(d, n, s), reference_verify_decomposition(d, n, s)
        assert dataclasses.astuple(got) == dataclasses.astuple(ref), (theta, n.tolist())
    assert kinds == set(laminate.KINDS)
