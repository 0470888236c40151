"""Reference formulas and samplers shared by the tests.

The library does not use these: they restate the paper's identities, the
chi profile, the convex majorant f, the scalar shear form of W_hom, the
structured-split inequality and the averaging check, so the tests can hold
the library's results against them.  The small helpers before them (a
rotation, a 2x2 determinant, the Infinite energy, the per-cell records of a
region map) serve only the tests.
"""

from __future__ import annotations

import math

import numpy as np

from lamlab.algebra import EPS, Mat, Vec, bc_to_matrix, frobenius_sq, perp
from lamlab.energy import ExtendedEnergy, SlipSystem, _pos, energy_record, h, h_perp, matrix_state
from lamlab.errors import DomainError, LamlabError, PreconditionError
from lamlab.regions import RegionLabel, RegionMap, region_label

INFINITE = ExtendedEnergy(math.inf)


class DegenerateFrame(LamlabError):
    """The two frame vectors are (numerically) parallel."""


def rotation(angle: float) -> Mat:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def det2(m: Mat) -> float:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def cell_label(grid: RegionMap, k: int) -> RegionLabel:
    """The `classify` label of cell k of a region map."""
    return region_label(grid.code[k], grid.boundary[k])


def cell_energy(grid: RegionMap, k: int):
    """The `w_hom` record of cell k of a region map."""
    return energy_record(grid.whom[k], grid.lower[k], grid.upper[k])


def random_det1(rng: np.random.Generator, spread: float = 1.5) -> Mat:
    """Random unit-determinant matrix: rotation times a random (b, c) orbit."""
    b, c = rng.uniform(-spread, spread, size=2)
    return rotation(rng.uniform(0.0, 2.0 * math.pi)) @ bc_to_matrix(b, c)


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


def chi(z: float) -> float:
    """((2 z^2 - 1)_+^{1/2} - 1)_+^2."""
    return _pos(math.sqrt(_pos(2.0 * z * z - 1.0)) - 1.0) ** 2


def f_majorant(f: Mat, s: SlipSystem) -> float:
    """Convex majorant coinciding with W on M and with W_hom on det-1 matrices.

    max(h(|Fv3|), h_perp(|Fv3_perp|)); for orthogonal slips also the
    single-slip terms (|Fv2|^2 - 1)_+ and (|Fv1|^2 - 1)_+, since there h and
    h_perp both equal chi.
    """
    st = matrix_state(f, s)
    value = max(h(st.z3, s.theta), h_perp(st.z3p, s.theta))
    if s.is_orthogonal:
        value = max(value, _pos(st.single1), _pos(st.single2))
    return value


def w_hom_scalar(gamma: float, s: SlipSystem) -> float:
    """Homogenized energy of the shear R(I + (gamma/lam) e1 (x) e2).

    The paper's piecewise closed form in gamma; requires orthogonal slips.
    Raises DomainError when gamma/lam is not finite; an energy past the
    float range is inf.
    """
    if not s.is_orthogonal:
        raise PreconditionError("scalar form requires an orthogonal slip system")
    a, b = float(s.v1[0]), float(s.v1[1])
    g = gamma / s.lam
    if not math.isfinite(g):
        raise DomainError(f"the shear gamma / lambda = {gamma!r} / {s.lam!r} is not finite")
    ab = a * b
    if ab > 0.0:
        if 0.0 <= gamma <= 2.0 * s.lam * b / a:
            return 2.0 * ab * g + b * b * g * g
        if -2.0 * s.lam * a / b <= gamma <= 0.0:
            return -2.0 * ab * g + a * a * g * g
    elif ab < 0.0:
        if 2.0 * s.lam * b / a <= gamma <= 0.0:
            return 2.0 * ab * g + b * b * g * g
        if 0.0 <= gamma <= -2.0 * s.lam * a / b:
            return -2.0 * ab * g + a * a * g * g
    # both slip norms exceed 1: chi branch, argument max{|Nv3|, |Nv3_perp|}
    q = 2.0 * (a * a - b * b) * g
    r = g * g
    if r == math.inf:  # arg >= 1 + g^2, the mean of its two terms: the energy overflows
        return math.inf
    arg = max(1.0 + q + (1.0 + 2.0 * ab) * r, 1.0 - q + (1.0 - 2.0 * ab) * r)
    return _pos(math.sqrt(_pos(arg)) - 1.0) ** 2

def make_fad_pair(gamma1: float, gamma2: float, angle: float, s: SlipSystem, which: int = 2):
    """Build (A, D) with A = R(I + gamma2 v_j (x) v_i) and D = R gamma1 e1 (x) e2."""
    r = rotation(angle)
    if which == 2:
        a = r @ (np.eye(2) + gamma2 * np.outer(s.v2, s.v1))
    else:
        a = r @ (np.eye(2) + gamma2 * np.outer(s.v1, s.v2))
    d = gamma1 * np.outer(r @ np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    return a, d


def lemma_fad_check(a: Mat, d: Mat, c: float, s: SlipSystem) -> bool:
    """True iff f(A+D) <= |A+D|^2 - 2 + c (sqrt|D|+|D|)(sqrt|A|+|A|+sqrt|D|+|D|).

    A must be a rotation times a single-slip shear, D a rotated simple shear
    along e1 (x) e2 with the same rotation; orthogonal slips only.
    """
    if not s.is_orthogonal:
        raise PreconditionError("structured split requires orthogonal slips")
    scale = max(1.0, math.sqrt(frobenius_sq(a)), math.sqrt(frobenius_sq(d)))
    if abs(det2(a) - 1.0) > 1e-10 * scale * scale:
        raise PreconditionError("A must have unit determinant")
    n1 = abs(float(np.linalg.norm(a @ s.v1)) - 1.0)
    n2 = abs(float(np.linalg.norm(a @ s.v2)) - 1.0)
    if min(n1, n2) > 1e-10 * scale:
        raise PreconditionError("A must be a rotated single-slip shear")
    # recover the rotation from the preserved slip direction
    v = s.v2 if n2 <= n1 else s.v1
    rv = a @ v
    ang = math.atan2(rv[1], rv[0]) - math.atan2(v[1], v[0])
    r = rotation(ang)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    if float(np.linalg.norm(d @ e1)) > 1e-10 * scale:
        raise PreconditionError("D must annihilate e1")
    if abs(float((d @ e2) @ (r @ e2))) > 1e-10 * scale:
        raise PreconditionError("D's image must be parallel to R e1")
    f = a + d
    na, nd = math.sqrt(frobenius_sq(a)), math.sqrt(frobenius_sq(d))
    bound = (
        frobenius_sq(f)
        - 2.0
        + c * (math.sqrt(nd) + nd) * (math.sqrt(na) + na + math.sqrt(nd) + nd)
    )
    return f_majorant(f, s) <= bound + 1e-12 * scale * scale


def averaging_check(g, g_mean: float, eps_list, grid_n: int):
    """Deviation of grid means of g(x/eps) over (0,1)^2 from the cell mean of g.

    g must be 1-periodic in both arguments and accept numpy arrays.
    """
    xs = (np.arange(grid_n) + 0.5) / grid_n
    x1, x2 = np.meshgrid(xs, xs)
    rows = []
    for eps in eps_list:
        y1, y2 = x1 / eps, x2 / eps
        vals = g(y1 - np.floor(y1), y2 - np.floor(y2))
        rows.append((eps, abs(float(np.mean(vals)) - g_mean)))
    return rows
