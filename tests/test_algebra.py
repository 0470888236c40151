import math
from fractions import Fraction

import numpy as np
import pytest

from lamlab.algebra import (EPS, RankOneLine, bc_to_matrix, det2, frobenius_sq, perp,
                            rotation, solve_unit_image_times)
from lamlab.energy import SlipSystem
from lamlab.errors import DegenerateFrame, DomainError
from lamlab.laminate import decompose, verify_decomposition

from references import identity_f1, identity_f2, random_det1


def vec(x, y):
    return np.array([x, y], dtype=float)


def random_unit(rng):
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([math.cos(phi), math.sin(phi)])


def test_apply_and_perp_basics():
    assert np.allclose(np.eye(2) @ vec(1, 0), [1, 0])
    assert np.allclose(np.diag([2.0, 0.5]) @ vec(0, 1), [0, 0.5])
    assert np.allclose(rotation(math.pi / 2) @ vec(1, 0), [0, 1])
    v = vec(0.3, -1.7)
    assert abs(perp(v) @ v) <= 1e-16
    assert np.linalg.norm(perp(v)) == pytest.approx(np.linalg.norm(v))


def test_identity_f1_examples():
    lhs, rhs = identity_f1(np.eye(2), vec(1, 0), vec(0, 1))
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)
    lhs, rhs = identity_f1(np.diag([2.0, 0.5]), vec(1, 0), vec(0, 1))
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)


def test_identity_f1_random_det1():
    rng = np.random.default_rng(42)
    for _ in range(10**4):
        f = random_det1(rng)
        a, b = random_unit(rng), random_unit(rng)
        lhs, rhs = identity_f1(f, a, b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_identity_f2():
    assert identity_f2(np.eye(2), vec(1, 0), vec(0, 1)) == pytest.approx(2.0)
    assert identity_f2(np.diag([2.0, 0.5]), vec(1, 0), vec(0, 1)) == pytest.approx(4.25)
    rng = np.random.default_rng(1)
    for _ in range(10**4):
        f = rng.normal(size=(2, 2))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        a = np.array([math.cos(phi), math.sin(phi)])
        b = np.array([math.cos(phi + 2 * math.pi / 3), math.sin(phi + 2 * math.pi / 3)])
        val = identity_f2(f, a, b)
        assert abs(val - frobenius_sq(f)) <= 1e-10 * max(1.0, frobenius_sq(f))
    with pytest.raises(DegenerateFrame):
        identity_f2(np.eye(2), vec(1, 0), vec(-1, 0))


def test_frobenius_sq_is_correctly_rounded():
    # x ** 2 rounds this square up on some C libraries; x * x is correctly rounded
    x = 2.2495245843880927
    assert frobenius_sq(np.array([[0.0, x], [0.0, 0.0]])) == float(Fraction(x) ** 2)
    with pytest.raises(DomainError):
        frobenius_sq(np.array([[1e154, 0.0], [1e154, 1e-154]]))


def test_rank_one_line_preserves_determinant():
    rng = np.random.default_rng(2)
    base = random_det1(rng)
    v = random_unit(rng)
    line = RankOneLine(base, perp(v), v)
    for t in rng.uniform(-5, 5, size=100):
        assert abs(det2(line.point(t)) - det2(base)) <= 1e-12 * max(1.0, abs(t) ** 2)


def test_rank_one_line_float_view():
    # the floats a line reads once: the base entries, |base|^2 as frobenius_sq
    # sums it (its DomainError deferred to base_fro_sq), a and n
    rng = np.random.default_rng(29)
    for _ in range(200):
        base, a = random_det1(rng, 3.0), random_unit(rng)
        line = RankOneLine(base, a, perp(a))
        assert line.floats == (*base.ravel().tolist(), frobenius_sq(base),
                               *a.tolist(), *perp(a).tolist())
        assert line.base_fro_sq() == frobenius_sq(base)
    line = RankOneLine(np.array([[1e154, 0.0], [1e154, 1e-154]]), vec(1, 0), vec(0, 1))
    with pytest.raises(DomainError, match="overflows"):
        line.base_fro_sq()
    with pytest.raises(DomainError):
        solve_unit_image_times(RankOneLine(np.array([[1e154, 1e154], [1e154, 1e154]]),
                                           vec(0, 1), vec(1, 0)), vec(1, 0))


def test_rank_one_line_rejects_non_orthogonal_pair():
    with pytest.raises(ValueError):
        RankOneLine(np.eye(2), vec(1, 0), vec(1, 1))


def test_solve_unit_image_times_basic_and_degenerate():
    line = RankOneLine(np.eye(2), vec(0, 1), vec(1, 0))
    assert solve_unit_image_times(line, vec(1, 0)) == pytest.approx([0.0])
    # n.v = 0 with |Fv| = 1: F(t) v does not move along the line, no root
    assert solve_unit_image_times(line, vec(0, 1)) == []
    # n.v = 0 with |Fv| != 1: no root at all
    line2 = RankOneLine(np.diag([2.0, 0.5]), vec(0, 1), vec(1, 0))
    assert solve_unit_image_times(line2, vec(0, 1)) == []
    # roots four orders of magnitude apart: t = -g - 2 and t = -g
    g = 1e-4
    line3 = RankOneLine(np.array([[1.0, g], [0.0, 1.0]]), vec(1, 0), vec(0, 1))
    roots = solve_unit_image_times(line3, vec(1, 1) / math.sqrt(2.0))
    assert roots == pytest.approx([-g - 2.0, -g], rel=1e-10)


def test_solve_unit_image_times_root_accuracy():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        f = random_det1(rng)
        v = random_unit(rng)
        m = random_unit(rng)
        line = RankOneLine(f, m, perp(m))
        for t in solve_unit_image_times(line, v):
            assert abs(np.linalg.norm(line.point(t) @ v) - 1.0) <= 1e-10 * max(
                1.0, frobenius_sq(line.point(t)))


def reference_solve(line, v):
    """The NumPy-form root solve: the same steps as solve_unit_image_times,
    with every product and dot product a NumPy `@`."""
    f, a, n = line.base, line.left, line.normal
    fa, fv = f @ a, f @ v
    nv = float(n @ v)
    if abs(nv) <= EPS * math.hypot(n[0], n[1]) * math.hypot(v[0], v[1]):
        return []
    faa = float(fa @ fa)
    fafv = float(fa @ fv)
    cross = det2(f) * float(perp(a) @ v)
    disc = faa - cross * cross
    tol = EPS * max(1.0, frobenius_sq(f))
    if disc < -tol:
        return []
    if disc <= tol:
        roots = [-fafv / (nv * faa)]
    else:
        q = -(fafv + math.copysign(math.sqrt(disc), fafv))
        roots = sorted((q / (nv * faa), (float(fv @ fv) - 1.0) / (nv * q)))
    polished = []
    for t in roots:
        w = fv + (t * nv) * fa
        dg = 2.0 * nv * float(fa @ w)
        if dg != 0.0:
            t -= (float(w @ w) - 1.0) / dg
        polished.append(t)
    return polished


def exact_unit_residual(line, v, t):
    """|F(t) v|^2 - 1 in exact rational arithmetic on the float inputs."""
    (f00, f01), (f10, f11) = [[Fraction(x) for x in row] for row in line.base.tolist()]
    a0, a1 = map(Fraction, line.left.tolist())
    n0, n1 = map(Fraction, line.normal.tolist())
    v0, v1 = map(Fraction, v.tolist())
    s = Fraction(t) * (n0 * v0 + n1 * v1)
    x0, x1 = v0 + s * a0, v1 + s * a1
    w0, w1 = f00 * x0 + f01 * x1, f10 * x0 + f11 * x1
    return w0 * w0 + w1 * w1 - 1


def seeded_lines(seed, count):
    """(line, slip vector) pairs: `count` targets per angle and spread, each on
    the v3 / v3_perp lines, the two bisector lines and a random det-preserving
    direction, against both slip vectors."""
    rng = np.random.default_rng(seed)
    for theta in (0.25, 0.3, 0.35, 0.45):
        s = SlipSystem.from_theta(theta * math.pi, 0.5)
        for spread in (1.0, 30.0, 1e3):
            for _ in range(count):
                f = random_det1(rng, spread)
                m = random_unit(rng)
                for a, n in ((s.v3, s.v3_perp), (s.v3_perp, s.v3), (s.v1 + s.v2, s.v1 - s.v2),
                             (s.v1 - s.v2, s.v1 + s.v2), (m, perp(m))):
                    for v in (s.v1, s.v2):
                        yield RankOneLine(f, a, n), v


def test_float_solve_matches_numpy_form_and_is_exact_to_rounding():
    roots_seen = 0
    for line, v in seeded_lines(15, 60):
        roots, ref = solve_unit_image_times(line, v), reference_solve(line, v)
        assert len(roots) == len(ref)
        scale = max(1.0, frobenius_sq(line.base))
        for t, t_ref in zip(roots, ref):
            assert abs(t - t_ref) <= 64 * math.ulp(max(1.0, abs(t_ref))) * scale
            assert abs(exact_unit_residual(line, v, t)) <= 256 * np.finfo(float).eps * scale
            roots_seen += 1
    assert roots_seen > 10_000


def test_point_and_verify_norms_keep_the_numpy_bits():
    rng = np.random.default_rng(16)
    lines = [(RankOneLine(np.array([[2.0, -0.0], [-0.0, 0.5]]), vec(0.0, -1.0), vec(1.0, 0.0)),
              -0.5)]  # t * (a0 * n1) is -0.0; a BLAS that keeps signed zeros passes it on
    for k in range(2000):
        base = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3)
        a = vec(0.0, -1.0) if k % 4 == 0 else random_unit(rng) * rng.uniform(0.1, 3.0)
        lines.append((RankOneLine(base, a, perp(a) * rng.uniform(0.1, 3.0)),
                      float(rng.normal() * 10.0 ** rng.uniform(-3, 3))))
    for line, t in lines:
        old = line.base @ (np.eye(2) + t * np.outer(line.left, line.normal))
        assert line.point(t).tobytes() == old.tobytes()
    for theta in (0.25, 0.3, 0.45):
        s = SlipSystem.from_theta(theta * math.pi, 0.5)
        for _ in range(100):
            n = random_det1(rng, 3.0)
            d = decompose(n, s)
            rep = verify_decomposition(d, n, s)
            man = max(min(abs(float(np.linalg.norm(f @ s.v1)) - 1.0),
                          abs(float(np.linalg.norm(f @ s.v2)) - 1.0))
                      for f in (d.f_plus, d.f_minus))
            a = d.direction[0] / float(np.linalg.norm(d.direction[0]))
            pres = max(float(np.linalg.norm((f - n) @ a)) for f in (d.f_plus, d.f_minus))
            assert rep.manifold == man
            assert rep.preserved_vector == pres / max(1.0, math.sqrt(frobenius_sq(n)))


def test_bc_to_matrix():
    assert np.allclose(bc_to_matrix(0, 0), np.eye(2))
    a = math.sqrt(3.25)
    assert np.allclose(bc_to_matrix(1.5, 0), np.diag([a + 1.5, a - 1.5]))
    assert np.allclose(bc_to_matrix(0, 1), [[math.sqrt(2), 1], [1, math.sqrt(2)]])
    rng = np.random.default_rng(4)
    for _ in range(1000):
        b, c = rng.uniform(-4, 4, size=2)
        m = bc_to_matrix(b, c)
        assert abs(det2(m) - 1.0) <= 1e-12 * max(1.0, frobenius_sq(m))
        assert np.allclose(m, m.T)
        assert np.linalg.eigvalsh(m).min() > 0.0


def test_bc_to_matrix_large_b_keeps_unit_determinant():
    # a - |b| cancels at large |b|; the residual used to reach 1.7e-8 at b = 1e4
    for b in (1e4, -1e4, 1e6, -1e6):
        for c in (0.0, 0.1, 3.0):
            m = bc_to_matrix(b, c)
            assert abs(det2(m) - 1.0) <= 1e-12
            assert (m[0, 0] > m[1, 1]) == (b > 0) and m[0, 1] == m[1, 0] == c
