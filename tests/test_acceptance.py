"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances and trial counts are fixed here, not tuned at runtime.
"""

import math

import numpy as np
import pytest

from majsphere import (
    INFINITY,
    AffineMap,
    MoebiusMap,
    RootMultiset,
    SymmetricState,
    apply_symmetric,
    apply_tensor,
    canonicalize,
    chordal_distance,
    classify_map,
    cocircularity_witness,
    cross_ratio,
    decompose_affine,
    degeneracy_configuration,
    equal_up_to_scale,
    expand_full,
    family_state_4,
    family_state_5,
    family_state_5_generic,
    fidelity,
    from_sphere,
    from_three_points,
    is_projective_unitary,
    locc_equivalent,
    majorana_polynomial,
    majorana_roots,
    param_to_t,
    slocc_equivalent,
    state_from_roots,
    symmetrize,
    translation_view,
    SpherePoint,
)
from helpers import (
    OMEGA,
    canonical_4_all_triples,
    multiset_matches,
    random_moebius,
    random_point,
    random_rotation,
    random_state,
    separated_root_multiset,
)

HALF_PI = math.pi / 2
THIRD = 2 * math.pi / 3
GHZ3 = SymmetricState([1, 0, 0, 1])


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed {detail}"


def test_criterion_1_ghz_pictures():
    """GHZ ring, its lowering by z -> z/2, and the LOCC/SLOCC verdicts."""
    r = majorana_roots(GHZ3)
    expected = RootMultiset(3, (1 + 0j, OMEGA, OMEGA**2), 0)
    ok = multiset_matches(r, expected, 1e-9)

    halving = MoebiusMap(1.0, 0.0, 0.0, 2.0)
    lowered = majorana_roots(apply_symmetric(halving, GHZ3))
    ok &= lowered.infinity_count == 0
    ok &= all(abs(abs(z) - 0.5) <= 1e-9 for z in lowered.finite_roots)

    rotated = SymmetricState([1.0, 0.0, math.sqrt(3.0), 0.0])
    witness = locc_equivalent(GHZ3, rotated)
    ok &= witness is not None and is_projective_unitary(witness.map, 1e-7) is not None
    ok &= fidelity(apply_symmetric(witness.map, GHZ3), rotated) >= 1 - 1e-8

    for alpha, beta in ((1.0, 2.0), (3.0, 1.0), (1 + 1j, 2 - 0.5j)):
        unbalanced = SymmetricState([alpha, 0.0, 0.0, beta])
        ok &= locc_equivalent(GHZ3, unbalanced) is None
        slocc = slocc_equivalent(GHZ3, unbalanced)
        ok &= slocc is not None
        ok &= fidelity(apply_symmetric(slocc.map, GHZ3), unbalanced) >= 1 - 1e-8
    report("1 GHZ ring pictures and LOCC/SLOCC verdicts", ok)


def test_criterion_2_affine_factorization():
    """Rotation x affine factorization: reconstruction, uniqueness, heights."""
    rng = np.random.default_rng(1001)
    worst_recon = 0.0
    worst_norm = 0.0
    worst_idem = 0.0
    for _ in range(1000):
        m = random_moebius(rng, max_norm=1e9)
        dec = decompose_affine(m)
        assert dec.affine.A > 0.0
        alpha, beta = dec.rotation.a, dec.rotation.c
        worst_norm = max(worst_norm, abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0))
        aff = np.array([[dec.affine.A, dec.affine.B], [0.0, 1.0]], dtype=complex)
        recon = dec.rotation.matrix @ aff
        worst_recon = max(
            worst_recon, float(np.max(np.abs(recon - dec.lam * m.matrix)))
        )
        again = decompose_affine(dec.rotation.compose(dec.affine.as_moebius()))
        worst_idem = max(
            worst_idem,
            abs(again.affine.A - dec.affine.A) / (1 + dec.affine.A),
            abs(again.affine.B - dec.affine.B) / (1 + abs(dec.affine.B)),
            abs(again.rotation.a - dec.rotation.a),
            abs(again.rotation.c - dec.rotation.c),
        )
    ok = worst_recon <= 1e-10 and worst_norm <= 1e-12 and worst_idem <= 1e-9

    lifted = AffineMap.from_translation(2.0, 5.0, 0.0)
    ok &= lifted.A == 2.5 and lifted.B == 0.0
    ok &= translation_view(lifted, 2.0) == (5.0, 0.0)
    shifted = AffineMap.from_translation(2.0, 5.0, 5.0 - 5.0j)
    ok &= shifted.A == 2.5 and shifted.B == 5.0 - 5.0j
    ok &= translation_view(shifted, 2.0) == (5.0, 5.0 - 5.0j)
    report(
        "2 affine factorization",
        ok,
        f"(recon {worst_recon:.2e}, norm {worst_norm:.2e}, idem {worst_idem:.2e})",
    )


def test_criterion_3_four_qubit_family():
    """Construct-and-recover, uniqueness, and anchor independence at n=4."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    worst_spread = 0.0
    for _ in range(200):
        theta = rng.uniform(0.03, HALF_PI - 0.03)
        phi = rng.uniform(0.03, THIRD - 0.03)
        scrambled = apply_symmetric(random_moebius(rng), family_state_4(param_to_t(theta, phi)))
        form = canonicalize(scrambled)
        assert form.partition == (1, 1, 1, 1)
        worst = max(worst, abs(form.params[0] - theta), abs(form.params[1] - phi))
        params = canonical_4_all_triples(scrambled)
        assert len(params) == 24
        worst_spread = max(
            worst_spread,
            max(p[0] for p in params) - min(p[0] for p in params),
            max(p[1] for p in params) - min(p[1] for p in params),
        )
    ok = worst <= 1e-6 and worst_spread <= 1e-8

    checked = 0
    while checked < 100:
        p1 = (rng.uniform(0.05, HALF_PI - 0.05), rng.uniform(0.03, THIRD - 0.03))
        p2 = (rng.uniform(0.05, HALF_PI - 0.05), rng.uniform(0.03, THIRD - 0.03))
        if abs(param_to_t(*p1) - param_to_t(*p2)) < 2e-2:
            continue
        if slocc_equivalent(family_state_4(param_to_t(*p1)), family_state_4(param_to_t(*p2))) is not None:
            ok = False
            break
        checked += 1
    report(
        "3 four-qubit canonical family",
        ok,
        f"(recover {worst:.2e}, triple spread {worst_spread:.2e})",
    )


def test_criterion_4_five_qubit_families():
    """Degenerate five-qubit family recovery/uniqueness, generic round trip.

    Sampling stays inside the azimuth cell [0, 2pi/3), which the triangle
    fold group identifies with the rest of the advertised [0, 2pi) range.
    """
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.03, HALF_PI - 0.03)
        phi = rng.uniform(0.03, THIRD - 0.03)
        scrambled = apply_symmetric(
            random_moebius(rng), family_state_5(param_to_t(theta, phi))
        )
        form = canonicalize(scrambled)
        assert form.partition == (2, 1, 1, 1)
        worst = max(worst, abs(form.params[0] - theta), abs(form.params[1] - phi))
    ok = worst <= 1e-6

    checked = 0
    while checked < 100:
        p1 = (rng.uniform(0.05, HALF_PI - 0.05), rng.uniform(0.03, THIRD - 0.03))
        p2 = (rng.uniform(0.05, HALF_PI - 0.05), rng.uniform(0.03, THIRD - 0.03))
        if abs(param_to_t(*p1) - param_to_t(*p2)) < 2e-2:
            continue
        if slocc_equivalent(family_state_5(param_to_t(*p1)), family_state_5(param_to_t(*p2))) is not None:
            ok = False
            break
        checked += 1

    for _ in range(25):
        state = state_from_roots(separated_root_multiset(rng, 5, 0.15))
        form = canonicalize(state)
        witness = slocc_equivalent(state, form.state)
        ok &= witness is not None
        ok &= fidelity(apply_symmetric(witness.map, state), form.state) >= 1 - 1e-8

    triple = canonicalize(family_state_5(1.0))
    ok &= triple.partition == (3, 1, 1) and triple.params == (HALF_PI, 0.0)
    double = canonicalize(family_state_5(OMEGA))
    ok &= double.partition == (2, 2, 1) and double.params == (HALF_PI, THIRD)
    report("4 five-qubit canonical families", ok, f"(recover {worst:.2e})")


def test_criterion_5_factorization_identities():
    """Family polynomials match their advertised factorizations to 1e-12."""

    def poly_prod(*factors):
        out = np.ones(1, dtype=complex)
        for f in factors:
            out = np.convolve(out, np.array(f, dtype=complex))
        return out

    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(50):
        t = complex(rng.standard_normal(), rng.standard_normal())
        t1 = complex(rng.standard_normal(), rng.standard_normal())
        t2 = complex(rng.standard_normal(), rng.standard_normal())
        cases = (
            (family_state_4(t), poly_prod([-1, t], [-1, 0, 0, 1])),
            (family_state_5(t), poly_prod([-1, 1], [-1, t], [-1, 0, 0, 1])),
            (
                family_state_5_generic(t1, t2),
                poly_prod([-1, t1], [-1, t2], [-1, 0, 0, 1]),
            ),
        )
        for state, expected in cases:
            coeffs = majorana_polynomial(state)
            pivot = int(np.argmax(np.abs(expected)))
            scale = coeffs[pivot] / expected[pivot]
            scaled = scale * expected
            worst = max(
                worst,
                float(np.max(np.abs(coeffs - scaled)))
                / max(1.0, float(np.max(np.abs(scaled)))),
            )
    report("5 family polynomial factorizations", worst <= 1e-12, f"(worst {worst:.2e})")


def _all_partitions(n):
    def rec(rest, cap):
        if rest == 0:
            yield ()
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return list(rec(n, n))


def test_criterion_6_census_and_hierarchy():
    """Partition census p(4)=5, p(5)=7 and the LOCC <= SLOCC <= DC hierarchy."""
    base = [INFINITY, 0, 1, -1, 2 + 2j]
    ok = True
    for n, expected_count in ((4, 5), (5, 7)):
        seen = set()
        for part in _all_partitions(n):
            finite = []
            inf_count = 0
            for mult, site in zip(part, base):
                if site is INFINITY:
                    inf_count += mult
                else:
                    finite.extend([complex(site)] * mult)
            s = state_from_roots(RootMultiset(n, tuple(finite), inf_count))
            dc, _ = degeneracy_configuration(majorana_roots(s))
            ok &= dc.partition == part
            seen.add(dc.partition)
        ok &= len(seen) == expected_count

    rng = np.random.default_rng(1005)
    violations = 0
    for trial in range(1000):
        if trial % 10 < 4:
            n = int(rng.integers(2, 7))
            s1 = state_from_roots(separated_root_multiset(rng, n, 0.12))
            s2 = apply_symmetric(random_rotation(rng), s1)
        elif trial % 10 < 7:
            n = int(rng.integers(2, 7))
            s1 = state_from_roots(separated_root_multiset(rng, n, 0.12))
            s2 = apply_symmetric(random_moebius(rng), s1)
        else:
            n = int(rng.integers(2, 5))
            s1 = state_from_roots(separated_root_multiset(rng, n, 0.12))
            s2 = state_from_roots(separated_root_multiset(rng, n, 0.12))
        locc = locc_equivalent(s1, s2)
        slocc = slocc_equivalent(s1, s2)
        dc1, _ = degeneracy_configuration(majorana_roots(s1))
        dc2, _ = degeneracy_configuration(majorana_roots(s2))
        if locc is not None and slocc is None:
            violations += 1
        if slocc is not None and dc1.partition != dc2.partition:
            violations += 1
    ok &= violations == 0
    report("6 census and hierarchy", ok, f"({violations} violations)")


def test_criterion_7_oracle_equivalence():
    """Root-path operations equal the dense tensor path; point sums match."""
    rng = np.random.default_rng(1006)
    failures = 0
    for trial in range(1000):
        n = trial % 6 + 1
        s = random_state(rng, n)
        m = random_moebius(rng)
        dense = apply_tensor(m, expand_full(s))
        via_roots = expand_full(apply_symmetric(m, s))
        if not equal_up_to_scale(dense, via_roots, 1e-8):
            failures += 1
    ok = failures == 0

    sizes = [1, 2, 3, 4, 5, 6] * 78 + [7] * 22 + [8] * 10
    mismatches = 0
    for n in sizes[:500]:
        pts = [
            SpherePoint(rng.uniform(0.05, math.pi - 0.05), rng.uniform(0, 2 * math.pi))
            for _ in range(n)
        ]
        dense = symmetrize(pts)
        roots = [from_sphere(p) for p in pts]
        finite = tuple(r.value for r in roots if not r.is_infinite)
        rebuilt = state_from_roots(RootMultiset(n, finite, n - len(finite)))
        if not equal_up_to_scale(dense, expand_full(rebuilt), 1e-8):
            mismatches += 1
    ok &= mismatches == 0
    report(
        "7 oracle equivalence",
        ok,
        f"({failures} tensor mismatches, {mismatches} point-sum mismatches)",
    )


def test_criterion_8_circle_certificate():
    """Square pyramid vs trigonal bipyramid: circle census and decider agree."""
    pyramid = RootMultiset(5, (1 + 0j, 1j, -1 + 0j, -1j), 1)
    bipyramid = RootMultiset(5, (0j, 1 + 0j, OMEGA, OMEGA**2), 1)
    pair = cocircularity_witness(pyramid, bipyramid)
    ok = pair is not None
    if ok:
        sig1, sig2 = pair
        ok &= max(sig1.on_circle_counts()) == 4
        ok &= max(sig2.on_circle_counts()) == 3
    verdict = slocc_equivalent(state_from_roots(pyramid), state_from_roots(bipyramid))
    ok &= verdict is None
    report("8 circle-census inequivalence certificate", ok)


def test_criterion_9_moebius_properties():
    """Cross-ratio invariance, interpolation, group laws, fixed points."""
    rng = np.random.default_rng(1007)
    ok = True
    worst_cr = 0.0
    for _ in range(1000):
        pts = []
        while len(pts) < 4:
            p = random_point(rng, allow_infinity=True)
            if all(chordal_distance(p, q) > 0.05 for q in pts):
                pts.append(p)
        m = random_moebius(rng)
        before = cross_ratio(*pts).value
        after = cross_ratio(*(m(p) for p in pts)).value
        worst_cr = max(worst_cr, abs(before - after) / (1 + abs(before)))
    ok &= worst_cr <= 1e-9

    worst_interp = 0.0
    for _ in range(1000):
        vs, ws = [], []
        while len(vs) < 3:
            p = random_point(rng, allow_infinity=True)
            if all(chordal_distance(p, q) > 1e-3 for q in vs):
                vs.append(p)
        while len(ws) < 3:
            p = random_point(rng, allow_infinity=True)
            if all(chordal_distance(p, q) > 1e-3 for q in ws):
                ws.append(p)
        m = from_three_points(*vs, *ws)
        worst_interp = max(
            worst_interp, max(chordal_distance(m(v), w) for v, w in zip(vs, ws))
        )
    ok &= worst_interp <= 1e-9

    worst_group = 0.0
    for _ in range(1000):
        m1, m2, m3 = (random_moebius(rng) for _ in range(3))
        z = random_point(rng, allow_infinity=True)
        left = m3.compose(m2).compose(m1)
        right = m3.compose(m2.compose(m1))
        worst_group = max(
            worst_group,
            chordal_distance(left(z), right(z)),
            chordal_distance(m1.compose(m1.inverse())(z), z),
        )
    ok &= worst_group <= 1e-10

    worst_fix = 0.0
    for _ in range(1000):
        m = random_moebius(rng)
        for p in classify_map(m).fixed_points:
            worst_fix = max(worst_fix, chordal_distance(m(p), p))
    ok &= worst_fix <= 1e-9
    report(
        "9 moebius property suite",
        ok,
        f"(cr {worst_cr:.2e}, interp {worst_interp:.2e}, "
        f"group {worst_group:.2e}, fix {worst_fix:.2e})",
    )
