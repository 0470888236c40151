import math

import numpy as np
import pytest

from lamlab.algebra import bc_to_matrix, det2, perp, rotation
from lamlab.energy import (DEFAULT_TOL, Bounds, ExtendedEnergy, INFINITE, Known,
                           SlipSystem, energy_record, h, h_perp, h_perp_plus, h_perp_star,
                           h_plus, h_star, matrix_state, slip_state, w_condensed, w_hom,
                           w_hom_arrays, w_hom_scalar)
from lamlab.envelope_oracle import envelope_scan, wlc_numeric
from lamlab.errors import DomainError, PreconditionError
from lamlab.laminate import decompose
from lamlab.regions import classify, classify_arrays, region_map

from references import chi, f_majorant, lemma_fad_check, make_fad_pair, random_det1

ORTHO = SlipSystem.orthogonal(v1=(1.0, 0.0))


def reference_w_hom_orthogonal(f, s, tol=DEFAULT_TOL):
    """Orthogonal-slip envelope in its own closed form: single-slip value on
    N1, N2 and chi(max(|Fv3|, |Fv3_perp|)) on A u A_perp."""
    assert s.is_orthogonal
    if abs(det2(f) - 1.0) > tol:
        return math.inf
    n1 = float(np.linalg.norm(f @ s.v1))
    n2 = float(np.linalg.norm(f @ s.v2))
    if n1 <= 1.0 + tol:
        val = float(np.linalg.norm(f @ perp(s.v1))) ** 2 - 1.0
    elif n2 <= 1.0 + tol:
        val = float(np.linalg.norm(f @ perp(s.v2))) ** 2 - 1.0
    else:
        val = chi(max(float(np.linalg.norm(f @ s.v3)), float(np.linalg.norm(f @ s.v3_perp))))
    return max(val, 0.0)


def random_orthogonal(rng):
    phi = rng.uniform(0, 2 * math.pi)
    return SlipSystem.orthogonal(v1=(math.cos(phi), math.sin(phi)))


def orthogonal_random_frames(rng):
    for _ in range(5000):
        yield random_orthogonal(rng), random_det1(rng, spread=3.0)


def orthogonal_stretched_shears(rng):
    # single-slip shears stretched off their manifold by 1e-13 ... 1e-6
    for _ in range(5000):
        s = random_orthogonal(rng)
        f, _ = single_slip(rng, s)
        delta = 10.0 ** rng.uniform(-13, -6)
        q = rotation(rng.uniform(0, math.pi))
        yield s, f @ q @ np.diag([math.exp(delta), math.exp(-delta)]) @ q.T


def orthogonal_large_b(rng):
    for _ in range(2000):
        b = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(2, 6)
        yield random_orthogonal(rng), bc_to_matrix(b, rng.uniform(-3, 3))


def orthogonal_grid(n):
    s = SlipSystem.from_theta(math.pi / 4, 0.5)
    return lambda rng: ((s, f) for f in region_map(s, 3.0, n).fs)


def single_slip(rng, s, spread=3.0):
    gamma = rng.uniform(-spread, spread)
    i = rng.integers(0, 2)
    v = s.v1 if i == 0 else s.v2
    return rotation(rng.uniform(0, 2 * math.pi)) @ (np.eye(2) + gamma * np.outer(v, perp(v))), gamma


class TestSlipSystem:
    def test_from_theta_frame(self):
        s = SlipSystem.from_theta(math.pi / 3, 0.5)
        assert np.allclose(s.v3, [0.0, -1.0])
        assert perp(s.v1) @ s.v2 > 0
        assert s.v1 @ s.v2 == pytest.approx(math.cos(2 * math.pi / 3))

    def test_orthogonal_flag(self):
        assert ORTHO.is_orthogonal
        assert not SlipSystem.from_theta(math.pi / 4 + 1e-9, 0.5).is_orthogonal

    def test_rejects_bad_input(self):
        with pytest.raises(PreconditionError):
            SlipSystem.from_vectors((2.0, 0.0), (0.0, 1.0), 0.5)
        with pytest.raises(PreconditionError):
            SlipSystem.from_vectors((0.0, 1.0), (1.0, 0.0), 0.5)  # left-handed
        with pytest.raises(PreconditionError):
            SlipSystem.from_theta(math.pi / 8, 0.5)
        with pytest.raises(PreconditionError):
            SlipSystem.from_theta(math.pi / 3, 1.5)
        for v1, v2 in (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (((1.0, 0.0),), ((0.0, 1.0),)),
                       (1.0, 1.0), ((1e308, 0.0), (0.0, 1.0))):
            with pytest.raises(PreconditionError):
                SlipSystem.from_vectors(v1, v2, 0.5)

    def test_frame_keeps_the_bits_of_the_numpy_forms(self):
        # theta and v3 as np.clip and np.linalg.norm form them, at the
        # workloads' angles and in seeded frames turned by any angle
        turns = np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, size=40)
        frames = [SlipSystem.from_theta(t, 0.5) for t in
                  (math.pi / 4, 0.3 * math.pi, 0.35 * math.pi, 0.45 * math.pi)]
        frames += [SlipSystem.from_vectors(rotation(a) @ f.v1, rotation(a) @ f.v2, 0.5)
                   for a in turns.tolist() for f in frames[:2]]
        for s in frames:
            w = s.v1 + s.v2
            assert s.theta == 0.5 * math.acos(float(np.clip(s.v1 @ s.v2, -1.0, 1.0)))
            assert np.array_equal(s.v3, -w / np.linalg.norm(w))


class TestExtendedEnergy:
    def test_ordering(self):
        assert ExtendedEnergy(1.0) < INFINITE
        assert ExtendedEnergy(1.0) < ExtendedEnergy(2.0)
        assert INFINITE.as_float() == math.inf
        with pytest.raises(ValueError):
            ExtendedEnergy(-0.5)

    def test_one_value_decides_infinite(self):
        assert ExtendedEnergy(math.inf) == INFINITE
        assert not ExtendedEnergy(math.inf).is_finite
        assert ExtendedEnergy(2.0) == ExtendedEnergy(2) and ExtendedEnergy(2.0).is_finite
        assert sorted([INFINITE, ExtendedEnergy(2.0), ExtendedEnergy(0.0)]) == [
            ExtendedEnergy(0.0), ExtendedEnergy(2.0), INFINITE]

    @pytest.mark.parametrize("value", [math.nan, -1.0, -math.inf])
    def test_rejects_nan_and_negative_values(self, value):
        with pytest.raises(ValueError):
            ExtendedEnergy(value)


class TestCondensed:
    def test_identity(self):
        assert w_condensed(np.eye(2), ORTHO).value == 0.0

    def test_single_slip_shear(self):
        f = np.eye(2) + np.outer(ORTHO.v1, perp(ORTHO.v1))
        assert w_condensed(f, ORTHO).value == pytest.approx(1.0)

    def test_off_manifold(self):
        assert not w_condensed(np.diag([2.0, 0.5]), ORTHO).is_finite
        assert not w_condensed(np.diag([2.0, 1.0]), ORTHO).is_finite

    def test_slip_form_equality_on_manifold(self):
        rng = np.random.default_rng(0)
        for s in (ORTHO, SlipSystem.from_theta(0.35 * math.pi, 0.5)):
            for _ in range(2000):
                f, gamma = single_slip(rng, s)
                w = w_condensed(f, s)
                assert w.is_finite
                assert w.value == pytest.approx(gamma**2, abs=1e-9 * max(1, gamma**2))


class TestProfiles:
    def test_chi_values(self):
        assert chi(1.0) == 0.0
        assert chi(1.0 / math.sqrt(2)) == 0.0
        assert chi(math.sqrt(2.5)) == pytest.approx(1.0)

    def test_h_plateau_and_star_agreement(self):
        theta = math.pi / 3
        for z in np.linspace(0, 1, 50):
            assert h(float(z), theta) == 0.0
        for z in np.linspace(1, 4, 200):
            assert h(float(z), theta) == pytest.approx(h_star(float(z), theta), abs=1e-12 * max(1, z**2))

    def test_orthogonal_reduction_to_chi(self):
        for z in (0.5, 1.0, 1.3, 2.0):
            assert h(z, math.pi / 4) == pytest.approx(chi(z), abs=1e-14)
            assert h_perp(z, math.pi / 4) == pytest.approx(chi(z), abs=1e-14)

    def test_domain_floors(self):
        theta = math.pi / 3
        with pytest.raises(DomainError):
            h_star(0.5 * math.sin(theta), theta)
        with pytest.raises(DomainError):
            h_perp_plus(0.5 * math.cos(theta), theta)

    def test_single_slip_upper_bound(self):
        # profile values along single-slip shears never exceed gamma^2
        rng = np.random.default_rng(5)
        theta = 0.32 * math.pi
        s = SlipSystem.from_theta(theta, 0.5)
        for _ in range(10**4):
            f, gamma = single_slip(rng, s)
            bound = gamma**2 + 1e-9 * max(1.0, gamma**2)
            assert h(float(np.linalg.norm(f @ s.v3)), theta) <= bound
            assert h_perp(float(np.linalg.norm(f @ s.v3_perp)), theta) <= bound
            z = float(np.linalg.norm(f @ s.v3))
            if z >= math.sin(theta):
                assert h_star(z, theta) <= gamma**2 + 1e-9 * max(1.0, gamma**2) \
                    or h_star(z, theta) <= h_plus(z, theta)


class TestMajorant:
    def test_zero_on_rotations(self):
        assert f_majorant(rotation(0.3), ORTHO) == 0.0

    def test_equals_condensed_on_single_slip(self):
        f = np.eye(2) + np.outer(ORTHO.v1, perp(ORTHO.v1))
        assert f_majorant(f, ORTHO) == pytest.approx(1.0)

    def test_convexity_both_regimes(self):
        rng = np.random.default_rng(6)
        for s in (ORTHO, SlipSystem.from_theta(0.4 * math.pi, 0.5)):
            for _ in range(10**4):
                a = rng.normal(size=(2, 2)) * 2
                b = rng.normal(size=(2, 2)) * 2
                mu = rng.uniform()
                lhs = f_majorant(mu * a + (1 - mu) * b, s)
                rhs = mu * f_majorant(a, s) + (1 - mu) * f_majorant(b, s)
                assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))


class TestHomOrthogonal:
    def test_examples(self):
        assert w_hom(np.eye(2), ORTHO).value.value == 0.0
        assert w_hom(np.diag([2.0, 0.5]), ORTHO).value.value == pytest.approx(3.0)
        t = math.log(math.sqrt(2.0))
        f = np.array([[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]])
        assert w_hom(f, ORTHO).value.value == pytest.approx((math.sqrt(3) - 1) ** 2)

    def test_coincides_with_majorant_on_det1(self):
        rng = np.random.default_rng(7)
        for _ in range(10**4):
            f = random_det1(rng, spread=2.0)
            whom = w_hom(f, ORTHO).value.as_float()
            assert abs(whom - f_majorant(f, ORTHO)) <= 1e-10 * max(1.0, whom)

    @pytest.mark.parametrize("points", [
        orthogonal_random_frames, orthogonal_stretched_shears, orthogonal_large_b,
        orthogonal_grid(61), orthogonal_grid(201),
    ], ids=["random_frames", "stretched_shears", "large_b", "grid_61", "grid_201"])
    def test_known_and_matches_orthogonal_reference(self, points):
        # the general branches at theta = pi/4 reproduce the orthogonal closed form
        rng = np.random.default_rng(14)
        for s, f in points(rng):
            res = w_hom(f, s)
            assert isinstance(res, Known)
            ref = reference_w_hom_orthogonal(f, s)
            assert abs(res.value.as_float() - ref) <= 1e-14 * max(1.0, ref)

    def test_no_double_compression_on_det1(self):
        # both slip norms below 1 simultaneously is impossible at det 1
        rng = np.random.default_rng(8)
        for _ in range(10**4):
            f = random_det1(rng, spread=2.5)
            n1 = np.linalg.norm(f @ ORTHO.v1)
            n2 = np.linalg.norm(f @ ORTHO.v2)
            assert max(n1, n2) >= 1.0 - 1e-12


class TestHomGeneral:
    def test_rotation_is_known_zero(self):
        s = SlipSystem.from_theta(0.3 * math.pi, 0.5)
        res = w_hom(rotation(1.0), s)
        assert isinstance(res, Known) and res.value.value == pytest.approx(0.0, abs=1e-12)

    def test_bounds_ordered_and_regions_known(self):
        rng = np.random.default_rng(9)
        s = SlipSystem.from_theta(0.35 * math.pi, 0.5)
        for _ in range(5000):
            f = random_det1(rng, spread=2.0)
            res = w_hom(f, s)
            if isinstance(res, Bounds):
                assert res.lower <= res.upper + 1e-9
            else:
                assert res.value.value >= 0.0

    def test_sign_equivalence(self):
        rng = np.random.default_rng(10)
        s = SlipSystem.from_theta(0.3 * math.pi, 0.5)
        for _ in range(10**4):
            f = random_det1(rng, spread=2.0)
            dot = float((f @ s.v1) @ (f @ s.v2))
            alt = math.cos(s.theta) * np.linalg.norm(f @ s.v3) \
                - math.sin(s.theta) * np.linalg.norm(f @ s.v3_perp)
            if abs(dot) > 1e-10:
                assert math.copysign(1, dot) == math.copysign(1, alt)

    def test_region_norm_facts(self):
        rng = np.random.default_rng(11)
        s = SlipSystem.from_theta(0.3 * math.pi, 0.5)
        for _ in range(5000):
            f = random_det1(rng, spread=2.0)
            n1 = np.linalg.norm(f @ s.v1)
            n2 = np.linalg.norm(f @ s.v2)
            dot = float((f @ s.v1) @ (f @ s.v2))
            if min(n1, n2) >= 1.0 and dot >= 0.0 or max(n1, n2) <= 1.0:
                assert np.linalg.norm(f @ s.v3) >= 1.0 - 1e-10
            if min(n1, n2) >= 1.0 and dot <= 0.0:
                assert np.linalg.norm(f @ s.v3_perp) >= 1.0 - 1e-10

    def test_continuity_at_orthogonal_limit(self):
        # Known values, and on N1only / N2only the upper bound, tend to the
        # pi/4 envelope
        rng = np.random.default_rng(12)
        s_eps = SlipSystem.from_theta(math.pi / 4 + 1e-9, 0.5)
        s_orth = SlipSystem.orthogonal(v1=s_eps.v1)
        found = found_single = 0
        while found < 100 or found_single < 100:
            f = random_det1(rng, spread=1.5)
            res = w_hom(f, s_eps)
            ref = w_hom(f, s_orth).value.as_float()
            if min(np.linalg.norm(f @ s_eps.v1), np.linalg.norm(f @ s_eps.v2)) > 1.0:
                assert isinstance(res, Known)
                assert abs(res.value.as_float() - ref) <= 1e-6 * max(1.0, ref)
                found += 1
            elif classify(f, s_eps).tag in ("N1only", "N2only"):
                assert isinstance(res, Bounds)
                assert abs(res.upper - ref) <= 1e-6 * max(1.0, ref)
                found_single += 1


class TestScalarForm:
    def test_zero(self):
        s = SlipSystem.orthogonal(v1=(1 / math.sqrt(2), 1 / math.sqrt(2)), lam=0.5)
        assert w_hom_scalar(0.0, s) == 0.0

    def test_small_shear_branch(self):
        s = SlipSystem.orthogonal(v1=(1 / math.sqrt(2), 1 / math.sqrt(2)), lam=0.5)
        a = b = 1 / math.sqrt(2)
        gamma = 0.4
        g = gamma / s.lam
        assert w_hom_scalar(gamma, s) == pytest.approx(2 * a * b * g + b * b * g * g)

    def test_matches_matrix_form(self):
        rng = np.random.default_rng(13)
        for _ in range(5000):
            phi = rng.uniform(0, 2 * math.pi)
            lam = rng.uniform(0.1, 0.9)
            s = SlipSystem.orthogonal(v1=(math.cos(phi), math.sin(phi)), lam=lam)
            gamma = rng.uniform(-3, 3)
            n = rotation(rng.uniform(0, 2 * math.pi)) @ (
                np.eye(2) + (gamma / lam) * np.outer([1, 0], [0, 1]))
            ref = w_hom(n, s).value.as_float()
            assert abs(w_hom_scalar(gamma, s) - ref) <= 1e-12 * max(1.0, ref)

    @pytest.mark.parametrize("gamma,lam", [(1e308, 0.5), (-1e308, 0.5), (1e10, 1e-300),
                                           (math.inf, 0.5), (math.nan, 0.5)])
    def test_non_finite_shear_is_a_domain_error(self, gamma, lam):
        # gamma / lam = inf made q = 0 * inf = nan, which max and _pos turned into 0
        s = SlipSystem.orthogonal(v1=(1 / math.sqrt(2), 1 / math.sqrt(2)), lam=lam)
        with pytest.raises(DomainError, match="is not finite"):
            w_hom_scalar(gamma, s)

    @pytest.mark.parametrize("v1", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (0.6, -0.8),
                                    (1 / math.sqrt(2), 1 / math.sqrt(2))])
    @pytest.mark.parametrize("gamma", [8e307, -8e307, 1e160, -1e160])
    def test_overflowing_energy_is_inf(self, v1, gamma):
        # gamma / lam is finite but its square is not: the energy is at least
        # (|gamma / lam| - 1)^2, past the float range, never 0 (inf - inf = nan)
        s = SlipSystem.orthogonal(v1=v1, lam=0.5)
        assert w_hom_scalar(gamma, s) == math.inf


def state_bits(st):
    """Each field of a SlipState as (type, float64 bits): -0.0 and 0.0 and
    int and float results stay apart."""
    return [(type(x), np.float64(x).tobytes()) for x in st]


def memo_free_state(f, s):
    return slip_state(*f.ravel().tolist(), s)


class TestStateMemo:
    """matrix_state keeps the last state per slip system, keyed on the
    matrix's dtype, shape and bytes; it never returns a stale state."""

    THETAS = (math.pi / 4, 0.3 * math.pi)

    def test_classify_w_hom_decompose_derive_one_state(self, monkeypatch):
        from lamlab import energy
        calls = []

        def counted(*args):
            calls.append(args)
            return slip_state(*args)

        monkeypatch.setattr(energy, "slip_state", counted)
        s = SlipSystem.from_theta(0.3 * math.pi, 0.5)
        f = bc_to_matrix(0.4, -1.1)
        classify(f, s)
        w_hom(f, s)
        decompose(f, s)
        assert len(calls) == 1
        decompose(f.copy(), s)  # equal bytes: the same matrix
        assert len(calls) == 1

    def test_in_place_change_between_classify_and_w_hom(self):
        s = SlipSystem.from_theta(0.3 * math.pi, 0.5)
        f = bc_to_matrix(0.4, -1.1)
        classify(f, s)
        f[:] = bc_to_matrix(-1.3, 0.2)
        assert state_bits(matrix_state(f, s)) == state_bits(memo_free_state(f, s))
        assert w_hom(f, s) == energy_record(*w_hom_arrays(memo_free_state(f, s), s))
        assert decompose(f, s).energy == decompose(f.copy(), SlipSystem.from_theta(0.3 * math.pi,
                                                                                  0.5)).energy

    def test_slip_systems_used_in_turn(self):
        f, g = bc_to_matrix(0.4, -1.1), bc_to_matrix(-1.3, 0.2)
        # two equal-angle systems per angle, each with its own memo
        systems = [SlipSystem.from_theta(t, 0.5) for t in self.THETAS for _ in range(2)]
        for _ in range(2):
            for s in systems:
                for m in (f, g, f):
                    assert state_bits(matrix_state(m, s)) == state_bits(memo_free_state(m, s))

    @pytest.mark.parametrize("theta", THETAS)
    def test_negative_zero_entries(self, theta):
        s = SlipSystem.from_theta(theta, 0.5)
        zero, negative = np.zeros((2, 2)), np.full((2, 2), -0.0)
        for first, second in ((zero, negative), (negative, zero)):
            matrix_state(first, s)
            assert state_bits(matrix_state(second, s)) == state_bits(memo_free_state(second, s))
        # the two states differ in the sign of F v1 . F v2, so a key by value would be stale
        assert state_bits(memo_free_state(zero, s)) != state_bits(memo_free_state(negative, s))

    @pytest.mark.parametrize("theta", THETAS)
    def test_dtype_and_layout(self, theta):
        s = SlipSystem.from_theta(theta, 0.5)
        f = bc_to_matrix(0.4, -1.1)
        big = np.arange(16.0).reshape(4, 4) / 7.0
        inputs = [f, f.astype(np.float32), np.array([[1, 1], [0, 1]]),
                  np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2), dtype=int),
                  np.zeros((2, 2)), f.T, np.asfortranarray(f), big[::2, 1::2], big[1::2, ::2],
                  f.astype(">f8")]
        for first in inputs:
            for second in inputs:
                matrix_state(first, s)
                got = matrix_state(second, s)
                assert state_bits(got) == state_bits(memo_free_state(second, s))

    def test_object_arrays_are_not_kept(self):
        s = SlipSystem.from_theta(0.3 * math.pi, 0.5)
        f = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=object)
        first = matrix_state(f, s)
        f[0, 1] = 0.25  # a new float object; the old one's address may be reused
        assert state_bits(matrix_state(f, s)) == state_bits(memo_free_state(f, s))
        assert state_bits(first) != state_bits(matrix_state(f, s))


class TestFadInequality:
    def test_structured_inputs(self):
        a, d = make_fad_pair(0.0, 1.3, 0.4, ORTHO)
        assert lemma_fad_check(a, d, 32.0, ORTHO)
        a, d = make_fad_pair(1.0, 0.0, 0.0, ORTHO)
        assert lemma_fad_check(a, d, 32.0, ORTHO)

    def test_rejects_malformed(self):
        with pytest.raises(PreconditionError):
            lemma_fad_check(np.diag([2.0, 0.5]), np.zeros((2, 2)), 32.0, ORTHO)
        a, _ = make_fad_pair(0.0, 1.0, 0.2, ORTHO)
        bad_d = np.outer([1.0, 0.0], [1.0, 0.0])
        with pytest.raises(PreconditionError):
            lemma_fad_check(a, bad_d, 32.0, ORTHO)


STACK = np.stack([np.eye(2), np.diag([2.0, 0.5])])


def stack_state(s):
    return slip_state(STACK[:, 0, 0], STACK[:, 0, 1], STACK[:, 1, 0], STACK[:, 1, 1], s)


TOLERANT = [
    w_hom, decompose, classify, w_condensed,
    pytest.param(lambda f, s, tol: wlc_numeric(f, s, n_dirs=8, tol=tol), id="wlc_numeric"),
    pytest.param(lambda f, s, tol: region_map(s, 3.0, 3, tol), id="region_map"),
    pytest.param(lambda f, s, tol: envelope_scan(s, 3.0, 3, n_dirs=8, tol=tol),
                 id="envelope_scan"),
    pytest.param(lambda f, s, tol: classify_arrays(stack_state(s), tol), id="classify_arrays"),
    pytest.param(lambda f, s, tol: w_hom_arrays(stack_state(s), s, tol), id="w_hom_arrays"),
]


@pytest.mark.parametrize("fn", TOLERANT, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("s", [ORTHO, SlipSystem.from_theta(0.3 * math.pi, 0.5)],
                         ids=["pi_4", "0.3pi"])
def test_non_positive_tolerance_is_rejected(fn, tol, s):
    # off_manifold rejects a tol outside (0, inf) before any entry point uses it
    with pytest.raises(PreconditionError):
        fn(np.diag([2.0, 0.5]), s, tol)
