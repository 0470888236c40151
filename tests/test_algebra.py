import math

import numpy as np
import pytest

from lamlab.algebra import (RankOneLine, bc_to_matrix, det2, frobenius_sq,
                            identity_f1, identity_f2, perp, random_det1,
                            rotation, solve_unit_image_times)
from lamlab.errors import DegenerateFrame


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


def test_rank_one_line_preserves_determinant():
    rng = np.random.default_rng(2)
    base = random_det1(rng)
    v = random_unit(rng)
    line = RankOneLine(base, perp(v), v)
    for t in rng.uniform(-5, 5, size=100):
        assert abs(det2(line.point(t)) - det2(base)) <= 1e-12 * max(1.0, abs(t) ** 2)


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
