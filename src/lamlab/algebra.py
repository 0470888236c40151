"""Exact 2x2 matrix/vector algebra and rank-one line machinery.

Vectors are numpy arrays of shape (2,), matrices of shape (2, 2).  All
operations are pure; tolerances are absolute 1e-12 scaled by
max(1, Frobenius norm of the inputs) unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrame

Vec = np.ndarray
Mat = np.ndarray

EPS = 1e-12


def vec(x: float, y: float) -> Vec:
    return np.array([x, y], dtype=float)


def mat(m11: float, m12: float, m21: float, m22: float) -> Mat:
    return np.array([[m11, m12], [m21, m22]], dtype=float)


def perp(v: Vec) -> Vec:
    """Counterclockwise rotation of v by pi/2."""
    return np.array([-v[1], v[0]])


def rotation(angle: float) -> Mat:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def det2(m: Mat) -> float:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def frobenius_sq(m: Mat) -> float:
    return float(m[0, 0] ** 2 + m[0, 1] ** 2 + m[1, 0] ** 2 + m[1, 1] ** 2)


def outer(a: Vec, b: Vec) -> Mat:
    return np.outer(a, b)


def apply(m: Mat, v: Vec) -> Vec:
    """Matrix-vector product M v."""
    return m @ v


def identity_f1(f: Mat, a: Vec, b: Vec) -> tuple[float, float]:
    """Both sides of |Fa|^2 |Fb|^2 = (Fa.Fb)^2 + det(F) (a_perp.b)^2.

    The right-hand side as written is exact only for det F = 1 (in general
    the determinant enters squared); both sides are returned so harnesses
    can compare them.
    """
    fa, fb = f @ a, f @ b
    lhs = float(fa @ fa) * float(fb @ fb)
    rhs = float(fa @ fb) ** 2 + det2(f) * float(perp(a) @ b) ** 2
    return lhs, rhs


def identity_f2(f: Mat, a: Vec, b: Vec) -> float:
    """(|Fa|^2 + |Fb|^2 - 2 (a.b)(Fa.Fb)) / (a_perp.b)^2.

    Equals |F|^2 (Frobenius) for unit vectors a, b with a_perp.b != 0.
    """
    denom = float(perp(a) @ b)
    if abs(denom) < EPS:
        raise DegenerateFrame("frame vectors are parallel")
    fa, fb = f @ a, f @ b
    num = float(fa @ fa) + float(fb @ fb) - 2.0 * float(a @ b) * float(fa @ fb)
    return num / denom**2


class DegenerateConstant:
    """Sentinel: the unit-image constraint holds identically along the line."""

    def __repr__(self) -> str:  # pragma: no cover
        return "DegenerateConstant"


DEGENERATE_CONSTANT = DegenerateConstant()


@dataclass(frozen=True)
class RankOneLine:
    """The line t -> base (I + t a (x) n).

    With a.n = 0 the determinant is constant along the line
    (det-preserving constraint).
    """

    base: Mat
    left: Vec
    normal: Vec
    det_preserving: bool = True

    def __post_init__(self):
        if self.det_preserving:
            scale = max(1.0, float(np.linalg.norm(self.left)) * float(np.linalg.norm(self.normal)))
            if abs(float(self.left @ self.normal)) > EPS * scale:
                raise ValueError("det-preserving line requires a.n = 0")

    def point(self, t: float) -> Mat:
        return self.base @ (np.eye(2) + t * np.outer(self.left, self.normal))


def solve_quadratic(alpha: float, beta: float, c0: float, scale: float = 1.0):
    """Real roots of alpha t^2 + beta t + c0, ascending, double root once.

    Uses the numerically stable form q = -(beta + sign(beta) sqrt(disc)) / 2.
    """
    if alpha == 0.0:
        if beta == 0.0:
            return []
        return [-c0 / beta]
    disc = beta * beta - 4.0 * alpha * c0
    if disc < -EPS * scale:
        return []
    if disc <= EPS * scale:
        return [-beta / (2.0 * alpha)]
    sq = math.sqrt(disc)
    q = -(beta + math.copysign(sq, beta)) / 2.0
    if q == 0.0:  # beta == 0
        r = math.sqrt(-c0 / alpha)
        return [-r, r]
    r1, r2 = q / alpha, c0 / q
    return sorted((r1, r2))


def solve_unit_image_times(line: RankOneLine, v: Vec):
    """All real t with |line.point(t) v| = 1, ascending.

    Returns DEGENERATE_CONSTANT when n.v = 0 and |Fv| = 1, i.e. the
    constraint holds for every t; an empty list when no real root exists.
    Each root gets one Newton polish step.
    """
    f, a, n = line.base, line.left, line.normal
    fa, fv = f @ a, f @ v
    nv = float(n @ v)
    c0 = float(fv @ fv) - 1.0
    scale = max(1.0, frobenius_sq(f))
    if abs(nv) < EPS * scale:
        if abs(c0) <= EPS * scale:
            return DEGENERATE_CONSTANT
        return []
    alpha = nv * nv * float(fa @ fa)
    beta = 2.0 * nv * float(fa @ fv)
    roots = solve_quadratic(alpha, beta, c0, scale=scale * scale)
    polished = []
    for t in roots:
        g = alpha * t * t + beta * t + c0
        dg = 2.0 * alpha * t + beta
        if dg != 0.0:
            t -= g / dg
        polished.append(t)
    return polished


def bc_to_matrix(b: float, c: float) -> Mat:
    """Symmetric positive-definite det-1 representative of the (b, c) orbit.

    a = sqrt(1 + b^2 + c^2); returns [[a+b, c], [c, a-b]].  The smaller
    diagonal entry is formed as (1 + c^2)/(a + |b|), free of the cancellation
    in a - |b| at large |b|, so the determinant stays 1 to rounding.
    """
    a = math.sqrt(1.0 + b * b + c * c)
    big = a + abs(b)
    small = (1.0 + c * c) / big
    return np.array([[big, c], [c, small]] if b >= 0.0 else [[small, c], [c, big]])


def random_det1(rng: np.random.Generator, spread: float = 1.5) -> Mat:
    """Random unit-determinant matrix: rotation times a random (b, c) orbit."""
    b, c = rng.uniform(-spread, spread, size=2)
    return rotation(rng.uniform(0.0, 2.0 * math.pi)) @ bc_to_matrix(b, c)
