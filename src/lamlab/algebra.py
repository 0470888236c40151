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


def sqrt(x):
    """Square root of a float (math.sqrt) or elementwise of an array (np.sqrt).

    Both are correctly rounded, so a formula written with this, +, -, *, /
    and comparisons gives the same bits on Python floats and on arrays.
    """
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def where(cond, a, b):
    """np.where on an array condition, `a if cond else b` on a bool."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else a if cond else b


def select(conds, choices, default):
    """np.select on array conditions; on bools, the first choice whose
    condition holds, else the default."""
    if isinstance(conds[0], np.ndarray):
        return np.select(conds, choices, default)
    for cond, choice in zip(conds, choices):
        if cond:
            return choice
    return default


def any_true(cond) -> bool:
    """Whether a bool, or any entry of a bool array, holds."""
    return bool(cond.any()) if isinstance(cond, np.ndarray) else cond


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


@dataclass(frozen=True)
class RankOneLine:
    """The line t -> base (I + t a (x) n) with a.n = 0, along which the
    determinant is constant."""

    base: Mat
    left: Vec
    normal: Vec

    def __post_init__(self):
        scale = max(1.0, float(np.linalg.norm(self.left)) * float(np.linalg.norm(self.normal)))
        if abs(float(self.left @ self.normal)) > EPS * scale:
            raise ValueError("det-preserving line requires a.n = 0")

    def point(self, t: float) -> Mat:
        return self.base @ (np.eye(2) + t * np.outer(self.left, self.normal))


def solve_unit_image_times(line: RankOneLine, v: Vec):
    """All real t with |line.point(t) v| = 1, ascending, a double root once.

    Along the line F(t) v = Fv + t (n.v) Fa, so s = (n.v) t solves
    |Fa|^2 s^2 + 2 (Fa.Fv) s + |Fv|^2 - 1 = 0.  Its reduced discriminant
    |Fa|^2 - det(F)^2 (a_perp.v)^2 comes from identity (F1), free of the
    cancellation of the expanded coefficients at large |F|.  Returns an
    empty list when no real root exists or when n.v = 0 (F(t) v does not
    move).  Each root gets one Newton step on the vector residual.
    """
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
        c0 = float(fv @ fv) - 1.0
        roots = sorted((q / (nv * faa), c0 / (nv * q)))
    polished = []
    for t in roots:
        w = fv + (t * nv) * fa
        dg = 2.0 * nv * float(fa @ w)
        if dg != 0.0:
            t -= (float(w @ w) - 1.0) / dg
        polished.append(t)
    return polished


def bc_diagonal(b, c):
    """Diagonal entries (a + |b|, a - |b|) of the (b, c) representative.

    a = sqrt(1 + b^2 + c^2).  The smaller entry is formed as
    (1 + c^2)/(a + |b|), free of the cancellation in a - |b| at large |b|, so
    the determinant stays 1 to rounding.  Takes floats or arrays.
    """
    big = sqrt(1.0 + b * b + c * c) + abs(b)
    return big, (1.0 + c * c) / big


def bc_to_matrix(b: float, c: float) -> Mat:
    """Symmetric positive-definite det-1 representative of the (b, c) orbit:
    [[a+b, c], [c, a-b]] with a = sqrt(1 + b^2 + c^2), see `bc_diagonal`."""
    big, small = bc_diagonal(b, c)
    return np.array([[big, c], [c, small]] if b >= 0.0 else [[small, c], [c, big]])


def random_det1(rng: np.random.Generator, spread: float = 1.5) -> Mat:
    """Random unit-determinant matrix: rotation times a random (b, c) orbit."""
    b, c = rng.uniform(-spread, spread, size=2)
    return rotation(rng.uniform(0.0, 2.0 * math.pi)) @ bc_to_matrix(b, c)
