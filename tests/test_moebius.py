import cmath
import math

import numpy as np
import pytest

from majsphere import (
    INFINITY,
    AffineMap,
    DomainError,
    MoebiusMap,
    chordal_distance,
    classify_map,
    cross_ratio,
    decompose_affine,
    from_three_points,
    is_projective_unitary,
    map_from_doc,
    map_to_doc,
    translation_view,
)
from helpers import OMEGA, proj_equal, random_moebius, random_point, random_rotation

HALVING = MoebiusMap(1.0, 0.0, 0.0, 2.0)  # z -> z/2


class TestApply:
    def test_halving_at_one(self):
        assert HALVING(1).value == pytest.approx(0.5)

    def test_fixed_points_stay_put(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = random_moebius(rng)
            for p in classify_map(m).fixed_points:
                assert chordal_distance(m(p), p) <= 1e-9

    def test_pole_maps_to_infinity(self):
        swap = MoebiusMap(0.0, 1.0, 1.0, 0.0)
        assert swap(0).is_infinite
        assert swap(INFINITY) == 0
        assert HALVING(INFINITY).is_infinite

    def test_entries_are_det_normalized(self):
        m = MoebiusMap(2.0, 0.0, 0.0, 2.0)
        assert m.a * m.d - m.b * m.c == pytest.approx(1.0)


class TestComposeInverse:
    def test_halving_and_doubling_cancel(self):
        doubling = MoebiusMap(2.0, 0.0, 0.0, 1.0)
        assert proj_equal(HALVING.compose(doubling), MoebiusMap.identity())

    def test_translation_inverse(self):
        b = 1.5 - 2.5j
        assert proj_equal(MoebiusMap.translation(b).inverse(), MoebiusMap.translation(-b))

    def test_pointwise_agreement_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m1, m2 = random_moebius(rng), random_moebius(rng)
            comp = m2.compose(m1)
            for _ in range(20):
                z = random_point(rng, allow_infinity=True)
                assert chordal_distance(comp(z), m2(m1(z))) <= 1e-10

    def test_group_laws(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m1, m2, m3 = (random_moebius(rng) for _ in range(3))
            left = m3.compose(m2).compose(m1)
            right = m3.compose(m2.compose(m1))
            ident = m1.compose(m1.inverse())
            for _ in range(10):
                z = random_point(rng, allow_infinity=True)
                assert chordal_distance(left(z), right(z)) <= 1e-10
                assert chordal_distance(ident(z), z) <= 1e-10


class TestFromThreePoints:
    def test_reference_triple_to_itself(self):
        m = from_three_points(0, 1, INFINITY, 0, 1, INFINITY)
        assert proj_equal(m, MoebiusMap.identity())

    def test_triangle_rotation(self):
        m = from_three_points(1, OMEGA, OMEGA**2, OMEGA, OMEGA**2, 1)
        assert proj_equal(m, MoebiusMap.scaling(OMEGA), 1e-12)

    def test_ghz_ring_halving(self):
        m = from_three_points(
            1, OMEGA, OMEGA**2, 0.5, 0.5 * OMEGA, 0.5 * OMEGA**2
        )
        assert proj_equal(m, HALVING, 1e-12)

    def test_random_triples_including_infinity(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            vs = []
            while len(vs) < 3:
                p = random_point(rng, allow_infinity=True)
                if all(chordal_distance(p, q) > 1e-3 for q in vs):
                    vs.append(p)
            ws = []
            while len(ws) < 3:
                p = random_point(rng, allow_infinity=True)
                if all(chordal_distance(p, q) > 1e-3 for q in ws):
                    ws.append(p)
            m = from_three_points(*vs, *ws)
            for v, w in zip(vs, ws):
                assert chordal_distance(m(v), w) <= 1e-9

    def test_coincident_points_rejected(self):
        with pytest.raises(DomainError):
            from_three_points(1, 1, 2, 0, 1, 2)
        with pytest.raises(DomainError):
            from_three_points(0, 1, 2, INFINITY, INFINITY, 2)


class TestCrossRatio:
    def test_reference_quadruple(self):
        w = 0.3 - 0.8j
        assert cross_ratio(INFINITY, 0, 1, w).value == pytest.approx(w)

    def test_simple_arithmetic(self):
        assert cross_ratio(0, 1, 2, 3).value == pytest.approx(4.0 / 3.0)

    def test_pole_and_undefined_combinations(self):
        # v2 = v3 alone is a pole of the formula, not an undefined case
        assert cross_ratio(1, 2, 2, 1).is_infinite
        with pytest.raises(DomainError):
            cross_ratio(2, 2, 2, 1)

    def test_invariance_under_maps(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            pts = []
            while len(pts) < 4:
                p = random_point(rng, allow_infinity=True)
                if all(chordal_distance(p, q) > 0.05 for q in pts):
                    pts.append(p)
            m = random_moebius(rng)
            before = cross_ratio(*pts).value
            after = cross_ratio(*(m(p) for p in pts)).value
            assert abs(before - after) <= 1e-9 * (1 + abs(before))


class TestClassify:
    def test_halving_is_hyperbolic(self):
        mc = classify_map(HALVING)
        assert mc.kind == "hyperbolic"
        assert mc.fixed_points == (0, INFINITY)

    def test_phase_rotation_is_elliptic(self):
        for chi in (0.3, 1.2, math.pi):
            mc = classify_map(MoebiusMap.scaling(cmath.exp(1j * chi)))
            assert mc.kind == "elliptic"

    def test_translation_is_parabolic(self):
        mc = classify_map(MoebiusMap.translation(1.0))
        assert mc.kind == "parabolic"
        assert mc.fixed_points == (INFINITY,)

    def test_identity(self):
        assert classify_map(MoebiusMap.identity()).kind == "identity"

    def test_generic_is_loxodromic(self):
        mc = classify_map(MoebiusMap.scaling(2.0 * cmath.exp(0.4j)))
        assert mc.kind == "loxodromic"

    def test_classification_is_projective(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = random_moebius(rng)
            neg = MoebiusMap.from_matrix(-m.matrix)
            assert classify_map(m).kind == classify_map(neg).kind

    def test_parabolic_with_offset_fixed_point(self):
        # conjugated translation: fixed point away from infinity
        g = MoebiusMap(0.0, 1.0, 1.0, -2.0)
        m = g.inverse().compose(MoebiusMap.translation(1.0)).compose(g)
        mc = classify_map(m)
        assert mc.kind == "parabolic"
        assert len(mc.fixed_points) == 1
        assert chordal_distance(m(mc.fixed_points[0]), mc.fixed_points[0]) <= 1e-9

    def test_fixed_point_residuals_random(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            m = random_moebius(rng)
            mc = classify_map(m)
            assert mc.kind in {"elliptic", "hyperbolic", "loxodromic", "parabolic", "identity"}
            for p in mc.fixed_points:
                assert chordal_distance(m(p), p) <= 1e-9


class TestProjectiveUnitary:
    def test_su2_accepted(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rot = random_rotation(rng)
            rep = is_projective_unitary(rot)
            assert rep is not None
            assert proj_equal(rep, rot, 1e-9)

    def test_halving_rejected(self):
        assert is_projective_unitary(HALVING) is None

    def test_scaled_unitary_recovered(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rot = random_rotation(rng)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            if abs(lam) < 0.1:
                continue
            m = MoebiusMap.from_matrix(lam * rot.matrix)
            rep = is_projective_unitary(m, 1e-9)
            assert rep is not None
            assert proj_equal(rep, rot, 1e-9)


class TestDecompose:
    def test_pure_stretch(self):
        for s in (0.5, 2.0, 3.7):
            m = MoebiusMap(s, 0.0, 0.0, 1.0 / s)
            dec = decompose_affine(m)
            assert proj_equal(dec.rotation, MoebiusMap.identity(), 1e-12)
            assert dec.affine.A == pytest.approx(s * s)
            assert abs(dec.affine.B) <= 1e-12

    def test_unitary_has_trivial_affine_part(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rot = random_rotation(rng)
            dec = decompose_affine(rot)
            assert dec.affine.A == pytest.approx(1.0, abs=1e-12)
            assert abs(dec.affine.B) <= 1e-12
            assert proj_equal(dec.rotation, rot, 1e-12)

    def test_reconstruction_and_constraints(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            m = random_moebius(rng)
            dec = decompose_affine(m)
            assert dec.affine.A > 0
            alpha, beta = dec.rotation.a, dec.rotation.c
            assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-12
            aff = np.array([[dec.affine.A, dec.affine.B], [0.0, 1.0]], dtype=complex)
            recon = dec.rotation.matrix @ aff
            assert np.max(np.abs(recon - dec.lam * m.matrix)) <= 1e-10

    def test_idempotence(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dec = decompose_affine(random_moebius(rng))
            rebuilt = dec.rotation.compose(dec.affine.as_moebius())
            again = decompose_affine(rebuilt)
            assert abs(again.affine.A - dec.affine.A) <= 1e-10 * (1 + dec.affine.A)
            assert abs(again.affine.B - dec.affine.B) <= 1e-9 * (1 + abs(dec.affine.B))
            assert proj_equal(again.rotation, dec.rotation, 1e-9)

    def test_affine_maps_form_a_group(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a1 = AffineMap(float(rng.uniform(0.2, 5.0)), complex(*rng.standard_normal(2)))
            a2 = AffineMap(float(rng.uniform(0.2, 5.0)), complex(*rng.standard_normal(2)))
            composed = AffineMap(a1.A * a2.A, a1.A * a2.B + a1.B)
            left = a1.as_moebius().compose(a2.as_moebius())
            for _ in range(10):
                z = complex(*rng.standard_normal(2))
                assert chordal_distance(left(z), composed.as_moebius()(z)) <= 1e-10


class TestTranslationView:
    def test_reference_values_exact(self):
        h2, disp = translation_view(AffineMap(5.0 / 2.0, 0.0), 2.0)
        assert h2 == 5.0 and disp == 0.0
        h2, disp = translation_view(AffineMap(5.0 / 2.0, 5.0 - 5.0j), 2.0)
        assert h2 == 5.0 and disp == 5.0 - 5.0j

    def test_from_translation_reproduces_parameters(self):
        aff = AffineMap.from_translation(2.0, 5.0, 5.0 - 5.0j)
        assert aff.A == 5.0 / 2.0 and aff.B == 5.0 - 5.0j

    def test_identity(self):
        h2, disp = translation_view(AffineMap(1.0, 0.0), 3.0)
        assert h2 == 3.0 and disp == 0.0

    def test_invalid_height(self):
        with pytest.raises(DomainError):
            translation_view(AffineMap(1.0, 0.0), 0.0)

    def test_affine_validation(self):
        with pytest.raises(DomainError):
            AffineMap(-1.0, 0.0)
        with pytest.raises(DomainError):
            AffineMap(0.0, 0.0)


class TestMatrixDoc:
    def test_round_trip(self):
        m = MoebiusMap(1.0, 2.0 + 1.0j, 0.5j, 1.0)
        doc = map_to_doc(m)
        assert list(doc) == ["matrix"]
        again = map_from_doc(doc)
        assert proj_equal(m, again, 1e-15)
        assert map_to_doc(again) == doc

    def test_validation(self):
        with pytest.raises(DomainError):
            map_from_doc({"matrix": [[1, 0], [0, 0], [0, 0]]})
        with pytest.raises(DomainError):
            map_from_doc({})
        with pytest.raises(DomainError):
            map_from_doc({"matrix": [[1, 0], [0, 0], [0, 0], ["x", 0]]})
