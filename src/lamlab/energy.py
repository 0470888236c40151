"""Energy densities and envelope functions of the two-slip model.

Covers the slip state (the phase-diagram quantities of F), the condensed
density W, the h-family of envelope profiles and the homogenized density.
The slip state and the homogenized density are one formula set each,
evaluated on Python floats for one matrix or on arrays for a stack
(`algebra.where`, `select` and `sqrt` pick math or NumPy).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import Mat, Vec, any_true, perp, select, sqrt, where
from .errors import BranchDisagreement, DomainError, PreconditionError

DEFAULT_TOL = 1e-9

ORTHO_THETA_TOL = 1e-12


# ---------------------------------------------------------------------------
# slip systems


@dataclass(frozen=True)
class SlipSystem:
    """Two unit slip directions with half-angle theta and soft fraction lam.

    (v1, v2) is right-handed with mutual angle 2*theta, theta in [pi/4, pi/2);
    theta = pi/4 is the orthogonal regime.  v3 bisects the larger angle:
    v3 = -(v1 + v2)/|v1 + v2|.
    """

    v1: Vec
    v2: Vec
    theta: float
    v3: Vec
    lam: float

    @classmethod
    def from_vectors(cls, v1, v2, lam: float) -> "SlipSystem":
        v1 = np.asarray(v1, dtype=float)
        v2 = np.asarray(v2, dtype=float)
        if v1.shape != (2,) or v2.shape != (2,):
            raise PreconditionError("slip directions must be 2-vectors")
        # the checks run on Python floats, which overflow to inf without a warning
        (x1, y1), (x2, y2) = v1.tolist(), v2.tolist()
        # nan fails every check below, each written as a comparison
        if not all(map(math.isfinite, (x1, y1, x2, y2))):
            raise PreconditionError("the slip frame must be finite")
        if (abs(math.sqrt(x1 * x1 + y1 * y1) - 1.0) > 1e-12
                or abs(math.sqrt(x2 * x2 + y2 * y2) - 1.0) > 1e-12):
            raise PreconditionError("slip directions must be unit vectors")
        if x1 * y2 - y1 * x2 <= 0.0:
            raise PreconditionError("(v1, v2) must be right-handed")
        # min and max keep a nan, as np.clip does
        cos2t = min(max(float(v1.dot(v2)), -1.0), 1.0)
        theta = 0.5 * math.acos(cos2t)
        if theta < math.pi / 4 - 1e-12 or theta >= math.pi / 2:
            raise PreconditionError("half-angle must lie in [pi/4, pi/2)")
        if not 0.0 < lam < 1.0:
            raise PreconditionError("soft volume fraction must lie in (0, 1)")
        w = v1 + v2
        v3 = -w / math.sqrt(float(w.dot(w)))  # np.linalg.norm's bits
        return cls(v1=v1, v2=v2, theta=theta, v3=v3, lam=lam)

    @classmethod
    def from_theta(cls, theta: float, lam: float) -> "SlipSystem":
        """Canonical frame with the bisector v3 = (0, -1)."""
        if not math.isfinite(theta):  # math.sin(inf) raises a bare ValueError
            raise PreconditionError("the slip frame must be finite")
        s, c = math.sin(theta), math.cos(theta)
        return cls.from_vectors((s, c), (-s, c), lam)

    @classmethod
    def orthogonal(cls, v1=(1.0, 0.0), lam: float = 0.5) -> "SlipSystem":
        v1 = np.asarray(v1, dtype=float)
        return cls.from_vectors(v1, perp(v1), lam)

    @property
    def is_orthogonal(self) -> bool:
        return abs(self.theta - math.pi / 4) <= ORTHO_THETA_TOL

    @cached_property
    def v3_perp(self) -> Vec:
        return _frozen(perp(self.v3))

    @cached_property
    def bisectors(self) -> tuple:
        """(v1 + v2, v1 - v2), the directions of the A and A_perp laminates."""
        return _frozen(self.v1 + self.v2), _frozen(self.v1 - self.v2)

    @cached_property
    def perps(self) -> tuple:
        """(v1_perp, v2_perp), the directions of the single-slip laminates."""
        return _frozen(perp(self.v1)), _frozen(perp(self.v2))

    @cached_property
    def unit_directions(self) -> dict:
        """a / |a| (`np.linalg.norm`'s bits) of each laminate direction a kept
        above, by id(a): the arrays live as long as the slip system, so no
        other live array has their id."""
        dirs = (*self.bisectors, *self.perps, self.v3, self.v3_perp)
        return {id(a): _frozen(a / math.sqrt(float(a.dot(a)))) for a in dirs}

    @cached_property
    def frame(self) -> tuple:
        """v1, v2, v3 as pairs of Python floats, for `slip_state`."""
        return tuple(tuple(v.tolist()) for v in (self.v1, self.v2, self.v3))


def _frozen(v: Vec) -> Vec:
    """v made read-only: a cached vector is shared by every caller."""
    v.flags.writeable = False
    return v


# ---------------------------------------------------------------------------
# the slip state: every phase-diagram quantity of F, from one formula set


class SlipState(NamedTuple):
    """Phase-diagram quantities of F against a slip system.

    Floats for one matrix, arrays for a stack of matrices; both come from
    the same arithmetic in `slip_state` and agree to the last bit.
    """

    det_off: float  # det F - 1
    d1: float       # |F v1| - 1
    d2: float       # |F v2| - 1
    dot: float      # F v1 . F v2
    fro: float      # |F|^2
    z3: float       # |F v3|
    z3p: float      # |F v3_perp|
    single1: float  # |F v1_perp|^2 - 1
    single2: float  # |F v2_perp|^2 - 1


def slip_state(f00, f01, f10, f11, s: SlipSystem) -> SlipState:
    """The SlipState of F = [[f00, f01], [f10, f11]] (floats or arrays).

    Written with +, -, *, / and sqrt only: no matrix product, no pow, so no
    BLAS kernel or fused multiply-add decides the last bit, and the float and
    the array evaluation round alike.  F v_perp = (f01 x - f00 y, f11 x - f10 y)
    for v = (x, y).
    """
    (x1, y1), (x2, y2), (x3, y3) = s.frame
    p0, p1 = f00 * x1 + f01 * y1, f10 * x1 + f11 * y1
    q0, q1 = f00 * x2 + f01 * y2, f10 * x2 + f11 * y2
    r0, r1 = f00 * x3 + f01 * y3, f10 * x3 + f11 * y3
    t0, t1 = f01 * x3 - f00 * y3, f11 * x3 - f10 * y3
    u0, u1 = f01 * x1 - f00 * y1, f11 * x1 - f10 * y1
    w0, w1 = f01 * x2 - f00 * y2, f11 * x2 - f10 * y2
    return SlipState(  # positional, in field order: keywords cost more per float call
        f00 * f11 - f01 * f10 - 1.0,
        sqrt(p0 * p0 + p1 * p1) - 1.0,
        sqrt(q0 * q0 + q1 * q1) - 1.0,
        p0 * q0 + p1 * q1,
        f00 * f00 + f01 * f01 + f10 * f10 + f11 * f11,
        sqrt(r0 * r0 + r1 * r1),
        sqrt(t0 * t0 + t1 * t1),
        u0 * u0 + u1 * u1 - 1.0,
        w0 * w0 + w1 * w1 - 1.0,
    )


def matrix_state(f: Mat, s: SlipSystem) -> SlipState:
    """The SlipState of one 2x2 matrix, on Python floats.

    The last state is kept on the slip system, keyed on the dtype, shape and
    bytes of f, so `classify`, `w_hom` and `decompose` of one matrix derive
    it once; a matrix changed in place, or -0.0 for 0.0, misses.  Object
    arrays, whose bytes are pointers, are never kept.
    """
    key = (f.dtype, f.shape, f.tobytes())
    last = s.__dict__.get("_last_state")
    if last is not None and last[0] == key:
        return last[1]
    (f00, f01), (f10, f11) = f.tolist()
    st = slip_state(f00, f01, f10, f11, s)
    if not f.dtype.hasobject:
        s.__dict__["_last_state"] = (key, st)  # one store: a reader sees a whole pair
    return st


def off_manifold(st: SlipState, tol: float):
    """|det F - 1| > tol or |F|^2 overflows (float or array).

    A nan determinant counts as off; so does an infinite |F|^2, whose
    tolerance scale max(1, |F|^2) would admit every branch.  Every function
    that takes a membership tolerance calls this before it uses tol, so this
    is the one place that rejects a tol outside (0, inf), nan included.
    """
    if not 0.0 < tol < math.inf:
        raise PreconditionError(f"membership tolerance must be positive and finite, not {tol!r}")
    return where((abs(st.det_off) <= tol) & (st.fro < math.inf), False, True)


def w_on_manifold(st: SlipState, tol: float):
    """Condensed density W: max(|F|^2 - 2, 0) on M = M1 u M2 (a slip norm
    within tol of 1), inf off it (float or array)."""
    off = off_manifold(st, tol)
    far = (abs(st.d1) > tol) & (abs(st.d2) > tol)
    return where(off | far, math.inf, _pos(st.fro - 2.0))


# ---------------------------------------------------------------------------
# extended-real energies


@dataclass(frozen=True, order=True)
class ExtendedEnergy:
    """Nonnegative energy value; inf is the distinguished value Infinite."""

    value: float

    def __post_init__(self):
        if not self.value >= 0.0:  # nan fails too
            raise ValueError(f"energies must be nonnegative, not {self.value}")

    @property
    def is_finite(self) -> bool:
        return self.value < math.inf

    def as_float(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# scalar profiles


def _pos(x):
    """max(x, 0) of a float or an array: +0.0 where x <= 0 or x is nan."""
    return where(x > 0.0, x, 0.0)


# the h profiles take floats or arrays (see slip_state)


def _h(z, s: float, c: float):
    t = _pos(sqrt(_pos(z * z / (s * s) - 1.0)) - c / s)
    return t * t


def h(z, theta: float):
    return _h(z, math.sin(theta), math.cos(theta))


def h_perp(z, theta: float):
    return _h(z, math.cos(theta), math.sin(theta))


def _h_root(z, s: float, c: float, sign: float, name: str):
    """(1 + z^2 + sign 2 c sqrt(z^2 - s^2)) / s^2 - 2 for z at or above the floor s."""
    # z must not fall below the domain floor beyond 1e-12 slack
    d = z * z - s * s
    low = z[d < -1e-12] if isinstance(d, np.ndarray) else [z] if d < -1e-12 else []
    if len(low):
        raise DomainError(f"{name} evaluated below its domain floor (z={low[0]})")
    return (1.0 + z * z + sign * 2.0 * c * sqrt(_pos(d))) / (s * s) - 2.0


def h_star(z, theta: float):
    return _h_root(z, math.sin(theta), math.cos(theta), -1.0, "h_star")


def h_perp_star(z, theta: float):
    return _h_root(z, math.cos(theta), math.sin(theta), -1.0, "h_perp_star")


def h_plus(z, theta: float):
    return _h_root(z, math.sin(theta), math.cos(theta), 1.0, "h_plus")


def h_perp_plus(z, theta: float):
    return _h_root(z, math.cos(theta), math.sin(theta), 1.0, "h_perp_plus")


# ---------------------------------------------------------------------------
# energy densities


def w_condensed(f: Mat, s: SlipSystem, tol: float = DEFAULT_TOL) -> ExtendedEnergy:
    """Condensed two-slip density: |F|^2 - 2 on M = M1 u M2, Infinite off it."""
    return ExtendedEnergy(w_on_manifold(matrix_state(f, s), tol))


@dataclass(frozen=True)
class Known:
    value: ExtendedEnergy


@dataclass(frozen=True)
class Bounds:
    lower: float
    upper: float


def energy_record(whom, lower, upper):
    """The `w_hom` record of one (whom, lower, upper) entry of `w_hom_arrays`."""
    whom = float(whom)
    if math.isnan(whom):
        return Bounds(lower=float(lower), upper=float(upper))
    return Known(ExtendedEnergy(whom))


def w_hom(f: Mat, s: SlipSystem, tol: float = DEFAULT_TOL):
    """Homogenized density of one matrix: Known value or two-sided Bounds.

    The record of `w_hom_arrays` on the float SlipState of f.  A Known value
    that overflows at a finite |F|^2 raises DomainError.
    """
    st = matrix_state(f, s)
    whom, lower, upper = w_hom_arrays(st, s, tol)
    if whom == math.inf and not off_manifold(st, tol):
        raise DomainError("closed-form envelope value overflows")
    return energy_record(whom, lower, upper)


def w_hom_arrays(st: SlipState, s: SlipSystem, tol: float = DEFAULT_TOL):
    """The homogenized density, one branch set for every slip angle.

    Takes the SlipState of one matrix (floats) or of a stack (arrays) and
    returns (whom, lower, upper) of the same kind: `whom` is the Known value
    (inf off the manifold) and nan where only bounds are known; `lower` and
    `upper` are nan where `whom` is known.

    Known on the closures of A, A_perp, N1 n N2 and on M1, M2.  On the
    single-slip regions N1only, N2only it is Known for orthogonal slips (the
    single-slip value); at other angles the envelope is open there and
    lower/upper bounds are returned.  Points within tol of a region boundary
    are evaluated by every adjacent closed-form branch and the branches are
    required to agree within 10*tol*max(1, |F|^2), else BranchDisagreement
    names the values of the first entry where they do not.  A Known value
    that overflows at a finite |F|^2 is `whom` inf, as off the manifold.
    """
    # nan and inf entries of a stack are masked below; floats raise no warnings
    arrays = isinstance(st.d1, np.ndarray)
    with np.errstate(invalid="ignore", over="ignore") if arrays else nullcontext():
        off = off_manifold(st, tol)
        d1, d2, dot = st.d1, st.d2, st.dot
        scale = where(st.fro > 1.0, st.fro, 1.0)
        tol_s = tol * scale
        both_ge = (d1 >= -tol) & (d2 >= -tol)
        both_le = (d1 <= tol) & (d2 <= tol)
        h3, hp3 = h(st.z3, s.theta), h_perp(st.z3p, s.theta)
        masks = [abs(d1) <= tol, abs(d2) <= tol,
                 (both_ge & (dot >= -tol_s)) | both_le, both_ge & (dot <= tol_s)]
        values = [st.single1, st.single2, h3, hp3]
        ref = select(masks, values, math.nan)  # the first branch that applies
        known = where(off, False, masks[0] | masks[1] | masks[2] | masks[3])
        apart, limit = False, 10.0 * tol * scale  # known entries where a branch leaves ref
        for m, v in zip(masks, values):
            apart = apart | (known & m & (abs(v - ref) > limit))
        if any_true(apart):
            k = int(np.argmax(apart))
            branch_vals = [float(np.ravel(v)[k]) for m, v in zip(masks, values)
                           if np.ravel(m)[k]]
            raise BranchDisagreement(
                f"closed-form branches disagree near a region boundary: {branch_vals}")

        # open set N1\N2 or N2\N1: one slip norm below 1 - tol, the other above 1 + tol
        single = where(d1 < 0.0, st.single1, st.single2)
        whom = where(off, math.inf, where(known, _pos(ref), math.nan))
        if s.is_orthogonal:  # the single-slip value is Known there
            whom = where(off | known, whom, _pos(single))
        bounds = where(off | known | s.is_orthogonal, False, True)
        lower = where(bounds, where(hp3 > h3, hp3, h3), math.nan)
        upper = where(bounds, single, math.nan)
        if any_true(bounds):
            for z, floor, candidate in ((st.z3, math.sin(s.theta), h_plus),
                                        (st.z3p, math.cos(s.theta), h_perp_plus)):
                use = bounds & (z >= floor - 1e-12)
                value = candidate(where(use, z, floor), s.theta)
                upper = where(use & (value < upper), value, upper)
    return whom, lower, upper

