import cmath
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from majsphere import (
    DenseState,
    DomainError,
    RootMultiset,
    SymmetricState,
    apply_symmetric,
    canonicalize,
    dicke,
    equal_up_to_scale,
    expand_full,
    family_state_4,
    family_state_5,
    family_state_5_generic,
    fidelity,
    form_to_doc,
    majorana_polynomial,
    majorana_roots,
    param_to_t,
    slocc_equivalent,
    state_from_roots,
)
from majsphere.canonical import BOUNDARY_SLACK, FOLD_GROUP, TRIANGLE
from majsphere.classify import analyze
from helpers import OMEGA, canonical_4_all_triples, count_solves, proj_equal, random_moebius

HALF_PI = math.pi / 2
THIRD = 2 * math.pi / 3


def poly_prod(*factors):
    """Expand a product of polynomials given as ascending coefficient lists."""
    out = np.ones(1, dtype=complex)
    for f in factors:
        out = np.convolve(out, np.array(f, dtype=complex))
    return out


class TestTriangleFrame:
    def test_fold_group_permutes_vertices(self):
        verts = TRIANGLE
        for g in FOLD_GROUP:
            images = [complex(g(v)) for v in verts]
            for img in images:
                assert min(abs(img - v) for v in verts) < 1e-12
            # injectivity of the map makes this a permutation
            assert min(
                abs(a - b) for i, a in enumerate(images) for b in images[:i]
            ) > 0.5

    def test_fold_group_closed_under_composition(self):
        for g in FOLD_GROUP:
            for h in FOLD_GROUP:
                gh = g.compose(h)
                assert any(proj_equal(gh, k, 1e-12) for k in FOLD_GROUP)

    def test_fold_maps_realize_rotations_through_the_tensor_oracle(self):
        # z -> exp(-i psi) z is the polar-axis rotation by psi and z -> 1/z
        # the half turn through the z = 1 vertex; check both on dense vectors
        from majsphere import MoebiusMap, apply_tensor, equal_up_to_scale, expand_full
        from helpers import random_state

        rng = np.random.default_rng(46)
        for psi in (2 * math.pi / 3, 1.234):
            spin = MoebiusMap(cmath.exp(-1j * psi / 2), 0.0, 0.0, cmath.exp(1j * psi / 2))
            assert abs(complex(spin(1.0)) - cmath.exp(-1j * psi)) <= 1e-12
            half_turn = MoebiusMap(0.0, -1j, -1j, 0.0)
            assert abs(complex(half_turn(2.0)) - 0.5) <= 1e-12
            for m in (spin, half_turn):
                s = random_state(rng, 4)
                dense = apply_tensor(m, expand_full(s))
                via_roots = expand_full(apply_symmetric(m, s))
                assert equal_up_to_scale(dense, via_roots, 1e-10)


class TestFamilyPolynomials:
    """The family amplitudes must factor exactly as the advertised products."""

    def test_family_4_factorization(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            t = complex(rng.standard_normal(), rng.standard_normal())
            c = majorana_polynomial(family_state_4(t))
            expected = poly_prod([-1.0, t], [-1.0, 0.0, 0.0, 1.0])  # (tz-1)(z^3-1)
            scale = c[np.argmax(np.abs(expected))] / expected[np.argmax(np.abs(expected))]
            assert np.max(np.abs(c - scale * expected)) <= 1e-12 * max(1.0, np.max(np.abs(scale * expected)))

    def test_family_5_factorization(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            t = complex(rng.standard_normal(), rng.standard_normal())
            c = majorana_polynomial(family_state_5(t))
            expected = poly_prod([-1.0, 1.0], [-1.0, t], [-1.0, 0.0, 0.0, 1.0])
            scale = c[np.argmax(np.abs(expected))] / expected[np.argmax(np.abs(expected))]
            assert np.max(np.abs(c - scale * expected)) <= 1e-12 * max(1.0, np.max(np.abs(scale * expected)))

    def test_family_5_generic_factorization(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            t1 = complex(rng.standard_normal(), rng.standard_normal())
            t2 = complex(rng.standard_normal(), rng.standard_normal())
            c = majorana_polynomial(family_state_5_generic(t1, t2))
            expected = poly_prod([-1.0, t1], [-1.0, t2], [-1.0, 0.0, 0.0, 1.0])
            scale = c[np.argmax(np.abs(expected))] / expected[np.argmax(np.abs(expected))]
            assert np.max(np.abs(c - scale * expected)) <= 1e-12 * max(1.0, np.max(np.abs(scale * expected)))

    def test_generic_family_reduces_to_degenerate(self):
        t = param_to_t(0.7, 1.3)
        assert fidelity(family_state_5_generic(1.0, t), family_state_5(t)) >= 1 - 1e-12

    def test_moving_point_of_factored_family_lands_at_parameters(self):
        # factoring the family state must put the non-vertex root at (theta, phi)
        from majsphere import to_sphere

        rng = np.random.default_rng(29)
        for _ in range(20):
            theta = rng.uniform(0.1, math.pi / 2 - 0.1)
            phi = rng.uniform(0.1, 2 * math.pi - 0.1)
            roots = majorana_roots(family_state_4(param_to_t(theta, phi)))
            moving = [
                z
                for z in roots.finite_roots
                if min(abs(z - v) for v in TRIANGLE) > 1e-6
            ]
            assert len(moving) == 1
            sp = to_sphere(moving[0])
            assert abs(sp.theta - theta) <= 1e-9
            assert abs(sp.phi - phi) <= 1e-9


def g_abcd(a, b, c, d):
    """Dense G_abcd, the generic family of the nine-family classification of
    four-qubit states (Verstraete et al., PRA 65, 052112)."""
    amps = np.zeros(16, dtype=complex)
    for weight, strings in (
        ((a + d) / 2, ("0000", "1111")),
        ((a - d) / 2, ("0011", "1100")),
        ((b + c) / 2, ("0101", "1010")),
        ((b - c) / 2, ("0110", "1001")),
    ):
        for bits in strings:
            amps[int(bits, 2)] = weight
    return DenseState(4, amps)


class TestReadmeFourQubitTable:
    """Each G_abcd row of the README's four-qubit table, read from the README."""

    ROWS = [
        re.split(r"(?<!\\)\|", line)[1:4]
        for line in (pathlib.Path(__file__).resolve().parent.parent / "README.md")
        .read_text(encoding="utf-8")
        .splitlines()
        if "| G_{abcd} |" in line
    ]

    @staticmethod
    def symmetric_state(cell, mu):
        """sum_k w_k |S_k> from a cell's "(w) \\|S_k>" terms, |S_k> the
        unnormalized sum of the basis states with k ones."""
        weights = dict.fromkeys(range(5), 0.0)
        for weight, k in re.findall(r"(?:\(([^()]*)\)\s*)?\\\|S_(\d)>", cell):
            weights[int(k)] += eval(weight or "1", {"mu": mu})
        return SymmetricState([weights[k] * math.sqrt(math.comb(4, k)) for k in range(5)])

    def test_rows_are_the_dense_family_members(self):
        assert len(self.ROWS) == 2
        for label, _, params in self.ROWS:
            partition = tuple(int(p) for p in re.match(r"\s*\(([\d,]+)\)", label)[1].split(","))
            for mu in (0.3, 0.7 + 0.2j, 2.0):
                abcd = [eval(p.split("=")[1], {"mu": mu}) for p in params.split(",")]
                s = self.symmetric_state(label, mu)
                assert equal_up_to_scale(g_abcd(*abcd), expand_full(s), 1e-12)
                assert analyze(s).dc.partition == partition

    def test_generic_row_degenerates_where_it_says(self):
        label = next(row[0] for row in self.ROWS if "(1,1,1,1)" in row[0])
        bound = eval(re.search(r"mu != \+-(\S+)", label)[1])
        for mu in (bound, -bound):
            assert analyze(self.symmetric_state(label, mu)).dc.partition == (2, 2)


class TestRepresentativeSmall:
    def test_two_qubits(self):
        double = state_from_roots(RootMultiset(2, (0.3 - 0.7j, 0.3 - 0.7j), 0))
        assert canonicalize(double).partition == (2,)
        assert fidelity(canonicalize(double).state, dicke(2, 0)) == 1.0
        rep = canonicalize(state_from_roots(RootMultiset(2, (1.2 + 0.4j, -0.5j), 0))).state
        assert fidelity(rep, dicke(2, 1)) == 1.0
        r = majorana_roots(rep)
        assert r.finite_roots == (0j,) and r.infinity_count == 1

    def test_three_qubits(self):
        triple = state_from_roots(RootMultiset(3, (0.4 + 0.9j,) * 3, 0))
        assert canonicalize(triple).partition == (3,)
        assert fidelity(canonicalize(triple).state, dicke(3, 0)) == 1.0
        pair = state_from_roots(RootMultiset(3, (-0.8 + 0.1j, -0.8 + 0.1j), 1))
        assert canonicalize(pair).partition == (2, 1)
        assert fidelity(canonicalize(pair).state, dicke(3, 1)) == 1.0
        ghz = SymmetricState([1.0, 0.0, 0.0, 1.0])
        generic = state_from_roots(RootMultiset(3, (0.2 + 0.3j, -1.5 + 0.5j, 2.0 - 1.0j), 0))
        assert canonicalize(generic).partition == (1, 1, 1)
        assert fidelity(canonicalize(generic).state, ghz) >= 1 - 1e-12


class TestCanonical4:
    def test_fixed_partitions(self):
        assert canonicalize(dicke(4, 0)).partition == (4,)
        assert canonicalize(dicke(4, 1)).partition == (3, 1)
        form = canonicalize(dicke(4, 2))
        assert form.partition == (2, 2) and form.params == ()

    def test_doubled_vertex_partition(self):
        s = family_state_4(1.0)
        form = canonicalize(s)
        assert form.partition == (2, 1, 1)
        assert form.params == (HALF_PI, 0.0)
        assert fidelity(form.state, s) >= 1 - 1e-12

    def test_already_canonical_configuration(self):
        s = state_from_roots(RootMultiset(4, (1 + 0j, OMEGA, OMEGA**2, 2 + 0j), 0))
        form = canonicalize(s)
        assert form.partition == (1, 1, 1, 1)
        assert form.params[0] == pytest.approx(2 * math.atan(0.5), abs=1e-12)
        assert form.params[1] == pytest.approx(0.0, abs=1e-12)

    def test_construct_and_recover(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            theta = rng.uniform(0.05, HALF_PI - 0.05)
            phi = rng.uniform(0.02, THIRD - 0.02)
            state = family_state_4(param_to_t(theta, phi))
            image = apply_symmetric(random_moebius(rng), state)
            form = canonicalize(image)
            assert form.partition == (1, 1, 1, 1)
            assert abs(form.params[0] - theta) <= 1e-6
            assert abs(form.params[1] - phi) <= 1e-6

    def test_idempotence(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            theta = rng.uniform(0.05, HALF_PI - 0.05)
            phi = rng.uniform(0.02, THIRD - 0.02)
            form = canonicalize(family_state_4(param_to_t(theta, phi)))
            again = canonicalize(form.state)
            assert form.partition == again.partition
            assert max(abs(a - b) for a, b in zip(form.params, again.params)) <= 1e-9

    def test_representative_is_slocc_equivalent_to_input(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            theta = rng.uniform(0.05, HALF_PI - 0.05)
            phi = rng.uniform(0.02, THIRD - 0.02)
            s = apply_symmetric(random_moebius(rng), family_state_4(param_to_t(theta, phi)))
            form = canonicalize(s)
            assert slocc_equivalent(s, form.state) is not None

    def test_equator_domain_edge(self):
        for phi in (0.2, 1.0):
            state = family_state_4(param_to_t(HALF_PI, phi))
            form = canonicalize(state)
            assert form.params[0] == pytest.approx(HALF_PI, abs=1e-9)
            assert form.params[1] == pytest.approx(phi, abs=1e-9)

    def test_near_vertex_relabels(self):
        s = state_from_roots(
            RootMultiset(4, (1 + 1e-9j, OMEGA, OMEGA**2, 3 + 0j), 0)
        )
        # the fourth point is fine but one anchored site nearly doubles after
        # mapping a configuration whose folded image grazes a vertex
        u = 1.0 + 1e-9 * 1j
        t = state_from_roots(RootMultiset(4, (complex(u), OMEGA, OMEGA**2, 1 + 0j), 0))
        form = canonicalize(t)
        assert form.partition == (2, 1, 1)

    def test_all_triples_agree(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            theta = rng.uniform(0.1, HALF_PI - 0.1)
            phi = rng.uniform(0.05, THIRD - 0.05)
            state = apply_symmetric(
                random_moebius(rng), family_state_4(param_to_t(theta, phi))
            )
            params = canonical_4_all_triples(state)
            assert len(params) == 24
            spread_theta = max(p[0] for p in params) - min(p[0] for p in params)
            spread_phi = max(p[1] for p in params) - min(p[1] for p in params)
            assert spread_theta <= 1e-8 and spread_phi <= 1e-8

    def test_injectivity_of_parameters(self):
        rng = np.random.default_rng(36)
        for _ in range(15):
            p1 = (rng.uniform(0.1, HALF_PI - 0.1), rng.uniform(0.05, THIRD - 0.05))
            p2 = (rng.uniform(0.1, HALF_PI - 0.1), rng.uniform(0.05, THIRD - 0.05))
            if abs(param_to_t(*p1) - param_to_t(*p2)) < 5e-2:
                continue
            assert slocc_equivalent(family_state_4(param_to_t(*p1)),
                                    family_state_4(param_to_t(*p2))) is None


class TestCanonical5Degenerate:
    def test_fixed_partitions(self):
        assert canonicalize(dicke(5, 0)).partition == (5,)
        assert canonicalize(dicke(5, 1)).partition == (4, 1)
        assert canonicalize(dicke(5, 2)).partition == (3, 2)

    def test_triple_vertex_point(self):
        s = state_from_roots(RootMultiset(5, (1 + 0j, 1 + 0j, 1 + 0j, OMEGA, OMEGA**2), 0))
        form = canonicalize(s)
        assert form.partition == (3, 1, 1)
        assert form.params == (HALF_PI, 0.0)
        assert fidelity(form.state, s) >= 1 - 1e-10

    def test_double_double_point(self):
        s = state_from_roots(
            RootMultiset(5, (1 + 0j, 1 + 0j, OMEGA, OMEGA**2, OMEGA**2), 0)
        )
        form = canonicalize(s)
        assert form.partition == (2, 2, 1)
        assert form.params == (HALF_PI, THIRD)
        assert fidelity(form.state, s) >= 1 - 1e-10

    def test_construct_and_recover(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            theta = rng.uniform(0.05, HALF_PI - 0.05)
            phi = rng.uniform(0.02, THIRD - 0.02)
            state = family_state_5(param_to_t(theta, phi))
            image = apply_symmetric(random_moebius(rng), state)
            form = canonicalize(image)
            assert form.partition == (2, 1, 1, 1)
            assert abs(form.params[0] - theta) <= 1e-6
            assert abs(form.params[1] - phi) <= 1e-6

    def test_example_recovery_at_08_20(self):
        state = family_state_5(param_to_t(0.8, 2.0))
        image = apply_symmetric(random_moebius(np.random.default_rng(38)), state)
        form = canonicalize(image)
        assert abs(form.params[0] - 0.8) <= 1e-6
        assert abs(form.params[1] - 2.0) <= 1e-6

    def test_uniqueness_of_parameters(self):
        rng = np.random.default_rng(39)
        for _ in range(15):
            p1 = (rng.uniform(0.1, HALF_PI - 0.1), rng.uniform(0.05, THIRD - 0.05))
            p2 = (rng.uniform(0.1, HALF_PI - 0.1), rng.uniform(0.05, THIRD - 0.05))
            if abs(param_to_t(*p1) - param_to_t(*p2)) < 5e-2:
                continue
            assert slocc_equivalent(family_state_5(param_to_t(*p1)),
                                    family_state_5(param_to_t(*p2))) is None

    def test_azimuth_period_is_one_third_turn(self):
        # the two family states differing by a cube-root-of-unity factor in t
        # are the same SLOCC class; canonicalization folds them together
        t = param_to_t(0.6, 0.5)
        s1 = family_state_5(t)
        s2 = family_state_5(t * OMEGA)
        witness = slocc_equivalent(s1, s2)
        assert witness is not None
        form1 = canonicalize(s1)
        form2 = canonicalize(s2)
        assert max(abs(a - b) for a, b in zip(form1.params, form2.params)) <= 1e-9

    def test_idempotence(self):
        form = canonicalize(family_state_5(param_to_t(0.9, 1.7)))
        again = canonicalize(form.state)
        assert max(abs(a - b) for a, b in zip(form.params, again.params)) <= 1e-9

    def test_representative_is_slocc_equivalent_to_input(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            theta = rng.uniform(0.05, HALF_PI - 0.05)
            phi = rng.uniform(0.02, THIRD - 0.02)
            s = apply_symmetric(random_moebius(rng), family_state_5(param_to_t(theta, phi)))
            form = canonicalize(s)
            assert slocc_equivalent(s, form.state) is not None


class TestFold:
    """The fold picks the least image, so no point lacks a form, even within
    ``BOUNDARY_SLACK`` of an edge of the domain."""

    @pytest.mark.parametrize(
        "family, partition",
        [
            (family_state_4, (1, 1, 1, 1)),
            (family_state_5, (2, 1, 1, 1)),
        ],
    )
    def test_band_below_the_equator_folds(self, family, partition):
        # the band straddles the snap edge theta = pi/2 - BOUNDARY_SLACK, so
        # the six fold images of one point round to either side of it
        for offset in np.linspace(0.95e-9, 1.05e-9, 21):
            for phi in np.linspace(0.05, 2.05, 41):
                form = canonicalize(family(param_to_t(HALF_PI - offset, phi)))
                assert form.partition == partition
                assert 0.0 <= form.params[1] < THIRD

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        edge=st.sampled_from(["equator", "phi=0", "phi=2pi/3", "equator end"]),
        family=st.sampled_from([family_state_4, family_state_5]),
        # on the edge, at the slack, and anywhere up to ten slacks off
        offset=st.one_of(st.sampled_from([0.0, BOUNDARY_SLACK]), st.floats(0.0, 1e-8)),
        along=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_edges_fold_and_agree_off_the_seam(self, edge, family, offset, along, seed):
        theta, phi = {
            "equator": (HALF_PI - offset, along * THIRD),
            "phi=0": (along * HALF_PI, offset),
            "phi=2pi/3": (along * HALF_PI, THIRD - offset),
            "equator end": (HALF_PI, THIRD / 2 + (offset if along > 0.5 else -offset)),
        }[edge]
        s = family(param_to_t(theta, phi))
        image = apply_symmetric(random_moebius(np.random.default_rng(seed)), s)
        form, image_form = canonicalize(s), canonicalize(image)
        # the seam sits at the slack: offsets near it may fold either way
        if offset == 0.0 or offset >= 5e-9:
            assert form.partition == image_form.partition
            assert max(abs(a - b) for a, b in zip(form.params, image_form.params)) <= 1e-6


class TestRepresentative5Generic:
    def test_reading_off_canonical_configuration(self):
        roots = RootMultiset(
            5,
            (1 + 0j, OMEGA, OMEGA**2, 2 + 0j, complex(3 * cmath.exp(-1j))),
            0,
        )
        form = canonicalize(state_from_roots(roots))
        assert not form.unique
        assert form.params[0] == pytest.approx(2 * math.atan(0.5), abs=1e-9)
        assert form.params[1] == pytest.approx(0.0, abs=1e-9)
        assert form.params[2] == pytest.approx(2 * math.atan(1.0 / 3.0), abs=1e-9)
        assert form.params[3] == pytest.approx(1.0, abs=1e-9)

    def test_representative_is_slocc_equivalent(self):
        rng = np.random.default_rng(40)
        for _ in range(15):
            from helpers import separated_root_multiset

            s = state_from_roots(separated_root_multiset(rng, 5, 0.15))
            form = canonicalize(s)
            assert form.partition == (1, 1, 1, 1, 1)
            assert slocc_equivalent(s, form.state) is not None
            # azimuth of the fifth point folded into [0, 2pi/3)
            assert 0.0 <= form.params[3] < THIRD + 1e-9

    def test_alternative_triples_still_equivalent(self):
        # over-complete parameterization: different anchorings may disagree in
        # parameters but every returned representative is equivalent
        rng = np.random.default_rng(41)
        from helpers import separated_root_multiset

        s = state_from_roots(separated_root_multiset(rng, 5, 0.2))
        form = canonicalize(s)
        image = apply_symmetric(random_moebius(rng), s)
        form2 = canonicalize(image)
        assert slocc_equivalent(form.state, form2.state) is not None


@st.composite
def roots_with_close_pairs(draw):
    """One to five random roots; up to two of them sit 10**e from another
    root, e in [-9, -2] (``tol`` is 1e-7), or on it."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    roots = list(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    exponents = draw(st.lists(st.one_of(st.none(), st.floats(-9.0, -2.0)), max_size=n // 2))
    for i, e in enumerate(exponents):
        step = 0.0 if e is None else 10.0**e * cmath.exp(2j * math.pi * rng.uniform())
        roots[2 * i + 1] = roots[2 * i] + step
    return tuple(roots)


class TestCanonicalizeDispatch:
    def test_small_n(self):
        assert canonicalize(dicke(1, 1)).partition == (1,)
        assert canonicalize(dicke(2, 1)).partition == (1, 1)
        assert canonicalize(SymmetricState([1, 0, 0, 1])).partition == (1, 1, 1)

    def test_dispatch_to_families(self):
        assert canonicalize(family_state_4(param_to_t(0.5, 0.3))).partition == (1, 1, 1, 1)
        assert canonicalize(family_state_5(param_to_t(0.5, 0.3))).partition == (2, 1, 1, 1)
        from helpers import separated_root_multiset

        s = state_from_roots(separated_root_multiset(np.random.default_rng(42), 5, 0.15))
        assert canonicalize(s).partition == (1, 1, 1, 1, 1)

    def test_too_many_qubits(self):
        with pytest.raises(DomainError):
            canonicalize(dicke(6, 0))

    @pytest.mark.parametrize(
        "state, solves",
        [
            (SymmetricState([0.6, 0.8j]), 0),
            (SymmetricState([1, 0, 0, 1]), 1),
            (dicke(4, 2), 1),
            (family_state_4(param_to_t(0.5, 0.3)), 1),
            (family_state_5(param_to_t(0.5, 0.3)), 1),
            (family_state_5_generic(param_to_t(0.5, 0.3), param_to_t(1.2, 2.0)), 1),
        ],
    )
    def test_roots_are_solved_at_most_once(self, monkeypatch, state, solves):
        calls = count_solves(monkeypatch)
        canonicalize(state)
        assert len(calls) == solves

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(roots=roots_with_close_pairs())
    # two close pairs, each 1e-4 or more apart (chordal), that the triangle
    # frame squeezes onto a vertex: all four sites stay distinct
    @example(roots=(0.05, 0.05 * 1.001, 5.0, 5.0 + 3.9e-3))
    def test_partition_is_the_analyzed_one(self, roots):
        s = state_from_roots(RootMultiset(len(roots), tuple(complex(z) for z in roots), 0))
        assert canonicalize(s).partition == analyze(s).dc.partition

    def test_form_document(self):
        form = canonicalize(family_state_4(param_to_t(0.5, 0.3)))
        doc = form_to_doc(form)
        assert list(doc) == ["n", "partition", "params", "state"]
        assert doc["partition"] == [1, 1, 1, 1]
        assert len(doc["params"]) == 2
