"""Reproducers of known defects, each a strict xfail that asserts the right
answer.  A fix turns its reproducer into an unexpected pass, which fails the
suite until the mark comes off; the ROADMAP item named in each reason
describes the defect."""

import pytest

from majsphere import (
    MoebiusMap,
    RootMultiset,
    analyze,
    apply_symmetric,
    cocircularity_witness,
    majorana_roots,
    slocc_equivalent,
    state_from_roots,
)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15")
def test_sharpening_keeps_sites_the_amplitudes_resolve():
    # two simple roots 1.875e-6 apart, far above tol = 1e-7: the root layer
    # merges them into a double site
    z = 0.3 + 0.4j
    s = state_from_roots(RootMultiset(4, (z, z + 1.875e-6, -1.1 + 0.2j, 0.7 - 0.9j), 0))
    assert analyze(s).dc.partition == (1, 1, 1, 1)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
def test_no_census_certificate_where_a_witness_exists():
    # the fourth site lies 0.75 tol off the circle through the first three;
    # the decider finds a witness for the pair of a state and its image, so
    # no census may certify them inequivalent
    roots = RootMultiset(5, (
        -0.16425349516665066 - 1.3143633440798466j,
        0.20558452277951195 - 0.021426246671177155j,
        1.781160511115285 + 1.0875660740292774j,
        1.1278185555734939 + 0.8467979447689118j,
        1.0018456787796228 + 0.43299618176992627j,
    ), 0)
    m = MoebiusMap(
        0.2797489497390642 - 1.2228638811106045j,
        0.44781479272986247 - 0.48542062909260647j,
        -1.30487478069889 - 1.709010344387456j,
        0.028918326388465743 - 0.3451087107156477j,
    )
    s1 = state_from_roots(roots)
    s2 = apply_symmetric(m, s1)
    assert slocc_equivalent(s1, s2) is not None
    assert cocircularity_witness(majorana_roots(s1), majorana_roots(s2)) is None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
def test_verdict_does_not_depend_on_the_argument_order():
    # image sites nudged by up to 1.5 tol: today one order finds a witness
    # and the other does not
    s1 = state_from_roots(RootMultiset(4, (
        -0.2199031928111055 + 0.7186495723436245j,
        -1.5647514134155023 + 1.9236620927709887j,
        0.08516571571586841 + 1.0985970131092309j,
        -1.555344259831939 - 0.32547370774986517j,
    ), 0))
    s2 = state_from_roots(RootMultiset(4, (
        1.2533330143901935 + 0.23179169873168695j,
        1.5800309363214764 - 1.534433467882702j,
        0.5376187104346317 - 0.358720674164542j,
        3.132328799760298 - 1.5901347358818332j,
    ), 0))
    assert (slocc_equivalent(s1, s2) is None) == (slocc_equivalent(s2, s1) is None)
