"""Exact 2x2 matrix/vector algebra and rank-one line machinery.

Vectors are numpy arrays of shape (2,), matrices of shape (2, 2).  All
operations are pure; tolerances are absolute 1e-12 scaled by
max(1, Frobenius norm of the inputs) unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

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
    """|M|^2 in the `slip_state` arithmetic: a*a + b*b + c*c + d*d on Python
    floats, whose products are correctly rounded (`x ** 2` need not be).
    Raises DomainError when the sum overflows."""
    (a, b), (c, d) = m.tolist()
    return _sum_sq(a, b, c, d, "|M|^2")


def _sum_sq(a: float, b: float, c: float, d: float, what: str) -> float:
    """a*a + b*b + c*c + d*d, the `frobenius_sq` of [[a, b], [c, d]];
    DomainError naming `what` when it overflows."""
    fro = a * a + b * b + c * c + d * d
    if fro == math.inf:
        raise DomainError(f"{what} overflows")
    return fro


@dataclass(frozen=True)
class RankOneLine:
    """The line t -> base (I + t a (x) n) with a.n = 0, along which the
    determinant is constant.

    `floats` is the line as Python floats, read once when it is built:
    (f00, f01, f10, f11, fro, a0, a1, n0, n1) with the base entries, its
    |base|^2 summed as `frobenius_sq` sums it (inf when that overflows; see
    `base_fro_sq`), a and n.
    """

    base: Mat
    left: Vec
    normal: Vec
    floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (a0, a1), (n0, n1) = self.left.tolist(), self.normal.tolist()
        scale = max(1.0, math.hypot(a0, a1) * math.hypot(n0, n1))
        if abs(a0 * n0 + a1 * n1) > EPS * scale:
            raise ValueError("det-preserving line requires a.n = 0")
        (f00, f01), (f10, f11) = self.base.tolist()
        fro = f00 * f00 + f01 * f01 + f10 * f10 + f11 * f11
        object.__setattr__(self, "floats", (f00, f01, f10, f11, fro, a0, a1, n0, n1))

    def base_fro_sq(self) -> float:
        """`frobenius_sq(self.base)`, read from the float view."""
        fro = self.floats[4]
        if fro == math.inf:
            raise DomainError("|M|^2 overflows")
        return fro

    def point(self, t: float) -> Mat:
        # the bits of np.eye(2) + t * np.outer(a, n): 0.0 + x turns -0.0 into 0.0
        *_, a0, a1, n0, n1 = self.floats
        return self.base @ np.array([[1.0 + t * (a0 * n0), 0.0 + t * (a0 * n1)],
                                     [0.0 + t * (a1 * n0), 1.0 + t * (a1 * n1)]])


def solve_unit_image_times(line: RankOneLine, v: Vec):
    """All real t with |line.point(t) v| = 1, ascending, a double root once.

    Along the line F(t) v = Fv + t (n.v) Fa, so s = (n.v) t solves
    |Fa|^2 s^2 + 2 (Fa.Fv) s + |Fv|^2 - 1 = 0.  Its reduced discriminant
    |Fa|^2 - det(F)^2 (a_perp.v)^2 comes from identity (F1), free of the
    cancellation of the expanded coefficients at large |F|.  Returns an
    empty list when no real root exists or when n.v = 0 (F(t) v does not
    move).  Each root gets one Newton step on the vector residual.  Raises
    DomainError when the coefficients |Fa|^2 or Fa.Fv overflow.  The
    arithmetic is on Python floats, as in `slip_state`.
    """
    f00, f01, f10, f11, _, a0, a1, n0, n1 = line.floats
    v0, v1 = v.tolist()
    fa0, fa1 = f00 * a0 + f01 * a1, f10 * a0 + f11 * a1
    fv0, fv1 = f00 * v0 + f01 * v1, f10 * v0 + f11 * v1
    nv = n0 * v0 + n1 * v1
    if abs(nv) <= EPS * math.hypot(n0, n1) * math.hypot(v0, v1):
        return []
    # Python floats overflow to inf without a warning; the factor 2 covers
    # the rounding of the dot products against the product of the norms
    norm_fa = math.hypot(fa0, fa1)
    if 2.0 * norm_fa * max(norm_fa, math.hypot(fv0, fv1)) == math.inf:
        raise DomainError("rank-one root solve overflows")
    faa = fa0 * fa0 + fa1 * fa1
    fafv = fa0 * fv0 + fa1 * fv1
    cross = (f00 * f11 - f01 * f10) * (a0 * v1 - a1 * v0)
    disc = faa - cross * cross
    tol = EPS * max(1.0, line.base_fro_sq())
    if disc < -tol:
        return []
    if disc <= tol:
        roots = [-fafv / (nv * faa)]
    else:
        q = -(fafv + math.copysign(math.sqrt(disc), fafv))
        c0 = fv0 * fv0 + fv1 * fv1 - 1.0
        roots = sorted((q / (nv * faa), c0 / (nv * q)))
    polished = []
    for t in roots:
        s = t * nv
        w0, w1 = fv0 + s * fa0, fv1 + s * fa1
        dg = 2.0 * nv * (fa0 * w0 + fa1 * w1)
        if dg != 0.0:
            t -= (w0 * w0 + w1 * w1 - 1.0) / dg
        polished.append(t)
    return polished


def bc_diagonal(b, c):
    """Diagonal entries (a + b, a - b) of the (b, c) representative.

    a = sqrt(1 + b^2 + c^2).  The smaller entry is formed as
    (1 + c^2)/(a + |b|), free of the cancellation in a - |b| at large |b|, so
    the determinant stays 1 to rounding.  Takes floats or arrays.
    """
    big = sqrt(1.0 + b * b + c * c) + abs(b)
    small = (1.0 + c * c) / big
    return where(b >= 0.0, big, small), where(b >= 0.0, small, big)


def bc_to_matrix(b: float, c: float) -> Mat:
    """Symmetric positive-definite det-1 representative of the (b, c) orbit:
    [[a+b, c], [c, a-b]] with a = sqrt(1 + b^2 + c^2), see `bc_diagonal`."""
    f00, f11 = bc_diagonal(b, c)
    return np.array([[f00, c], [c, f11]])
