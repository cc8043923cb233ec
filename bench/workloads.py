"""Seeded inputs, the timed calls and the output checks of each workload.

Every workload is a closed loop with one client.  Work comes in rounds: round
``r`` of seed ``s`` is built from ``numpy.random.default_rng([s, stream, r])``
alone, so a seed fixes every input and rounds never share an input.  A
workload object has three methods:

* ``make_round(r)`` builds the inputs of round r, outside the timed region;
* ``run(item, call)`` makes the timed library calls of one input item, each
  through ``call(fn, *args)``, which times it and returns its result;
* ``check(item, results)`` returns an :class:`Outcome` of those calls.

The seed's root layer reads the wrong partition for some multiple roots
without raising: at multiplicity 3 to 6 for about 0.1-1% of random
placements, at 7 for about 40% and at 8 for about 90%.  Rarely it reads the
right partition but puts a site farther than the tolerance from where it
is: for a few in 1000 SLOCC images of a (3,2,1,1,1) state, one whose
sites lie 0.04 apart had a simple root 1.6e-7 off, so that the SLOCC decider
finds no witness.  That one defect, roots of a state with a multiple root
that disagree with how the state was built, is counted apart from the
failed calls, and only where it shows: see :class:`Outcome`.

Costs on a 2-core x86-64 host with OpenBLAS pinned to one thread, at the
commit that added this benchmark (they size the claims of later changes):

* decide: an inequivalent pair takes 35 ms per decider at n=4, 0.6 s at
  n=6, 2.9 s at n=7 and 6.3 s at n=8; an equivalent pair 2-16 ms.  In an
  n=6 inequivalent decision ``from_three_points`` is ~54% of the time,
  multiset verification ~42%, root finding under 1%.
* roots_transform: ``majorana_roots`` takes 0.6 ms for a generic n=8 state
  and ~12 ms for n=10 with an 8-fold root; at n=64 ``single_linkage`` in
  cluster sharpening is ~40% of it.
* cli_batch: interpreter start plus the numpy import is ~0.2 s of a
  0.2-0.5 s invocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import majsphere
from majsphere import DomainError, NumericalError, ResourceLimitError
from majsphere import canonical, classify, cli, symstate

from checks import docs_match, one_minus_fidelity, transform_ok, witness_ok

#: the library's own error types: a refusal on a multiple root is correct
TYPED_ERRORS = (DomainError, NumericalError, ResourceLimitError)
#: 1 - fidelity accepted for the roots -> state round trip
ROUND_TRIP_TOL = 1e-10
#: smallest chordal separation between the distinct sites of a built state
SITE_SEPARATION = 0.2
#: an input built with a root of at least this multiplicity may have its
#: partition misread by the library (the known defect)
UNCERTIFIED_MULTIPLICITY = 3


@dataclass
class Outcome:
    """What the checks of some items found.

    ``failed`` counts the calls that failed a check, with one exemption, the
    seed's known defect: when an input was built with a root of
    multiplicity >= UNCERTIFIED_MULTIPLICITY and the library's roots of it
    disagree with how it was built (see :func:`misread`), the checks that
    misread roots explain (the partition or verdict itself, and the round
    trip, transform and canonical form computed from the misread roots) are
    not counted; the input is counted in ``misses`` instead.  Exceptions
    other than a typed refusal, witnesses that are unexpected or fail their
    checks, CLI exit codes and CLI output that differs from the library's
    in-process result always count.
    """

    failed: int = 0
    #: inputs checked that were built with a root of multiplicity >= 3, by it
    probes: Counter = field(default_factory=Counter)
    #: of those, inputs whose partition the library misread
    misses: Counter = field(default_factory=Counter)

    def add(self, other: "Outcome") -> None:
        self.failed += other.failed
        self.probes.update(other.probes)
        self.misses.update(other.misses)

    def record(self, multiplicity: int, misread: bool, hard: int, soft: int) -> None:
        """Record the checks of one input built with the given largest root
        multiplicity: ``hard`` failed checks always count, ``soft`` ones,
        which a misread partition explains, only if it is not the defect."""
        defect = misread and multiplicity >= UNCERTIFIED_MULTIPLICITY
        if multiplicity >= UNCERTIFIED_MULTIPLICITY:
            self.probes[multiplicity] += 1
            self.misses[multiplicity] += defect
        self.failed += hard + (0 if defect else soft)


def misread(partition, *states, moved_by=None) -> bool:
    """Whether the library's roots of the states, each built with
    ``partition``, disagree with how they were built: another partition, or,
    for a state and its image under the map ``moved_by``, sites that the map
    does not carry onto each other within the tolerance.  Asked only where
    the defect may show."""
    if max(partition, default=1) < UNCERTIFIED_MULTIPLICITY:
        return False
    sites = []
    for s in states:
        try:
            dc, clustered = classify.degeneracy_configuration(symstate.majorana_roots(s))
        except Exception:  # not a misread; the check of the call that raised counts it
            continue
        if dc.partition != tuple(partition):
            return True
        sites.append(clustered)
    return moved_by is not None and len(sites) == 2 and not carried(moved_by, *sites)


def carried(m, sites1, sites2, tol: float = classify.DEFAULT_TOL) -> bool:
    """Whether the map m puts every site of ``sites1`` within ``tol`` of a
    site of ``sites2`` of the same multiplicity."""
    return all(
        any(mult == mult2 and majsphere.chordal_distance(m(p), q) <= tol
            for q, mult2 in sites2.sites)
        for p, mult in sites1.sites
    )


# --- seeded generators --------------------------------------------------------


def generic_state(rng, n: int):
    return majsphere.SymmetricState(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))


def bounded_map(rng, max_norm: float = 4.0):
    """Random determinant-one map with bounded distortion, so that sites that
    are well apart stay well apart."""
    while True:
        mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(mat)) < 0.3:
            continue
        m = majsphere.MoebiusMap(*mat.flatten())
        if np.linalg.norm(m.matrix) <= max_norm:
            return m


def rotation(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    alpha, beta = (complex(x) for x in v / np.linalg.norm(v))
    return majsphere.MoebiusMap(alpha, -beta.conjugate(), beta, alpha.conjugate())


def sphere_point(rng) -> complex:
    """Finite plane image of a uniform point on the sphere."""
    while True:
        height = rng.uniform(-1.0, 1.0)
        if abs(height) < 0.999:
            break
    phi = rng.uniform(0.0, 2.0 * math.pi)
    radius = math.sqrt((1.0 + height) / (1.0 - height))
    return radius * complex(math.cos(phi), -math.sin(phi))


def distinct_sites(rng, count: int, fixed=()) -> list:
    """Finite sites at least SITE_SEPARATION apart, after the given ones
    (which may include ``majsphere.INFINITY``)."""
    sites = [majsphere.as_point(p) for p in fixed]
    while len(sites) < len(fixed) + count:
        p = majsphere.ExtendedComplex(sphere_point(rng))
        if all(majsphere.chordal_distance(p, q) > SITE_SEPARATION for q in sites):
            sites.append(p)
    return sites[len(fixed):]


def state_with_partition(rng, partition, at_zero: bool = False, at_infinity: bool = False):
    """State whose sites have the given multiplicities, the multiple site
    first; the last simple sites are put at 0 and at infinity on request."""
    fixed = []
    if at_zero:
        fixed.append(0j)
    if at_infinity:
        fixed.append(majsphere.INFINITY)
    free = distinct_sites(rng, len(partition) - len(fixed), fixed)
    sites = free + [majsphere.as_point(p) for p in fixed]
    finite = []
    infinity = 0
    for site, mult in zip(sites, partition):
        if site.is_infinite:
            infinity += mult
        else:
            finite += [site.value] * mult
    return symstate.state_from_roots(majsphere.RootMultiset(sum(partition), tuple(finite), infinity))


def _rng(seed: int, stream: int, r: int):
    return np.random.default_rng([seed, stream, r])


# --- decide -------------------------------------------------------------------

#: degenerate partitions paired with a SLOCC image of themselves (n = 4..8)
DEGENERATE_PARTITIONS = ((2, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1),
                         (2, 2, 1, 1, 1), (3, 2, 1, 1, 1))
#: the exhaustive O(d^6) search runs over at most this many sites.  At 6, 7
#: and 8 sites one decision takes 0.6, 2-3 and 6 s, so a run would hold too
#: few of them for a steady tail; at 5 it takes ~0.15 s with the same profile
EXHAUSTIVE_MAX_SITES = 5


@dataclass
class Pair:
    kind: str
    s1: object
    s2: object
    #: decider name -> whether a witness is expected
    expect: dict
    #: partition both states were built with, for degenerate-equivalent pairs
    partition: tuple = ()
    #: the map that made s2 from s1, for degenerate-equivalent pairs
    moved_by: object = None


class Decide:
    """SLOCC and LOCC decisions on pairs of known relation, n = 4..8."""

    stream = 0

    def __init__(self, seed: int):
        self.seed = seed

    def make_round(self, r: int) -> list[Pair]:
        rng = _rng(self.seed, self.stream, r)
        both = ("slocc_equivalent", "locc_equivalent")
        pairs = []
        for n in range(4, 9):
            s = generic_state(rng, n)
            pairs.append(Pair("locc-equivalent", s, symstate.apply_symmetric(rotation(rng), s),
                              dict.fromkeys(both, True)))
            mismatch = state_with_partition(rng, (2,) + (1,) * (n - 2))
            pairs.append(Pair("dc-mismatch", generic_state(rng, n), mismatch,
                              dict.fromkeys(both, False)))
            s = generic_state(rng, n)
            expect = {"slocc_equivalent": True}
            if n <= EXHAUSTIVE_MAX_SITES:
                expect["locc_equivalent"] = False
            pairs.append(Pair("slocc-equivalent", s, symstate.apply_symmetric(bounded_map(rng), s),
                              expect))
            if n <= EXHAUSTIVE_MAX_SITES:
                pairs.append(Pair("inequivalent", generic_state(rng, n), generic_state(rng, n),
                                  dict.fromkeys(both, False)))
        for partition in DEGENERATE_PARTITIONS:
            s = state_with_partition(rng, partition)
            m = bounded_map(rng)
            pairs.append(Pair("degenerate-equivalent", s, symstate.apply_symmetric(m, s),
                              {"slocc_equivalent": True, "locc_equivalent": False},
                              partition, m))
        return pairs

    def warmup(self) -> Pair:
        rng = _rng(self.seed, self.stream, 1 << 20)
        s = generic_state(rng, 4)
        return Pair("slocc-equivalent", s, symstate.apply_symmetric(bounded_map(rng), s),
                    {"slocc_equivalent": True})

    def run(self, pair: Pair, call) -> list:
        return [call(getattr(classify, name), pair.s1, pair.s2) for name in pair.expect]

    def check(self, pair: Pair, results: list) -> Outcome:
        hard = soft = 0
        for (name, expected), witness in zip(pair.expect.items(), results):
            if witness is None:
                soft += expected  # a missed witness: misread roots explain it
            elif isinstance(witness, Exception) or not expected or not witness_ok(
                witness, pair.s1, pair.s2, unitary=name == "locc_equivalent"
            ):
                hard += 1
        outcome = Outcome()
        outcome.record(max(pair.partition, default=1),
                       misread(pair.partition, pair.s1, pair.s2, moved_by=pair.moved_by),
                       hard, soft)
        return outcome


# --- roots_transform ----------------------------------------------------------

GENERIC_SIZES = (8, 16, 32, 64)
#: multiplicities of the single multiple site in the degenerate states
MULTIPLICITIES = tuple(range(2, 9))
DEGENERATE_N = 10


@dataclass
class RootsItem:
    state: object
    partition: tuple
    maps: tuple
    #: multiplicity of the multiple site, 1 for a generic state
    multiplicity: int = 1


class RootsTransform:
    """Roots, the roots -> state round trip and a transform, generic n = 8..64
    and n = 10 with one multiple site of multiplicity 2..8.  The transform
    map is a bounded SLOCC map in even rounds and a rotation in odd ones."""

    stream = 1

    def __init__(self, seed: int):
        self.seed = seed

    def make_round(self, r: int) -> list[RootsItem]:
        rng = _rng(self.seed, self.stream, r)
        new_map = rotation if r % 2 else bounded_map
        items = [
            RootsItem(generic_state(rng, n), (1,) * n, (new_map(rng),)) for n in GENERIC_SIZES
        ]
        for mult in MULTIPLICITIES:
            partition = (mult,) + (1,) * (DEGENERATE_N - mult)
            place = (r + mult) % 3
            state = state_with_partition(rng, partition, at_zero=place == 1, at_infinity=place == 2)
            items.append(RootsItem(state, partition, (new_map(rng),), mult))
        return items

    def warmup(self) -> RootsItem:
        rng = _rng(self.seed, self.stream, 1 << 20)
        return RootsItem(generic_state(rng, 8), (1,) * 8, ())

    def run(self, item: RootsItem, call) -> list:
        roots = call(symstate.majorana_roots, item.state)
        results = [roots]
        if isinstance(roots, majsphere.RootMultiset):
            results.append(call(symstate.state_from_roots, roots))
        results += [call(symstate.apply_symmetric, m, item.state) for m in item.maps]
        return results

    def check(self, item: RootsItem, results: list) -> Outcome:
        """The round trip and the transform both start from the roots of
        the state (``apply_symmetric`` moves them), so a misread partition
        explains their failures as well as its own."""
        roots, rest = results[0], results[1:]
        outcome = Outcome()
        if isinstance(roots, TYPED_ERRORS) and item.multiplicity > 1:
            # a typed refusal of a multiple root is a correct answer
            outcome.record(item.multiplicity, False, 0, 0)
            return outcome
        hard = soft = 0
        wrong_partition = False
        if isinstance(roots, majsphere.RootMultiset):
            dc, _ = classify.degeneracy_configuration(roots)
            wrong_partition = dc.partition != item.partition
            soft += wrong_partition
            back = rest.pop(0)
            if not isinstance(back, majsphere.SymmetricState):
                hard += 1
            elif one_minus_fidelity(back.amps, item.state.amps) > ROUND_TRIP_TOL:
                soft += 1
        else:
            hard += 1
        for m, moved in zip(item.maps, rest):
            if not isinstance(moved, majsphere.SymmetricState):
                hard += 1
            elif not transform_ok(m, item.state, moved):
                soft += 1
        outcome.record(item.multiplicity, wrong_partition, hard, soft)
        return outcome


# --- cli_batch ----------------------------------------------------------------

#: every degenerate partition at n = 4 and n = 5
CLI_PARTITIONS = ((4,), (3, 1), (2, 2), (2, 1, 1),
                  (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1))
DEMO_DATA = os.path.join("demos", "data")
DEMO_STATES = ("square_pyramid_state.json", "trigonal_bipyramid_state.json")
DEMO_ROOTS = ("square_pyramid_roots.json", "trigonal_bipyramid_roots.json")


@dataclass
class CliItem:
    argv: list
    #: what the documents hold, for the in-process comparison
    states: list = field(default_factory=list)
    #: multiplicity partition each state was built with
    partitions: list = field(default_factory=list)
    roots: list = field(default_factory=list)
    matrix: object = None
    #: SLOCC images of the generated states, for the canonical-form check
    images: list = field(default_factory=list)
    #: the map that made the images
    image_map: object = None


class CliBatch:
    """The majsphere CLI, one invocation at a time, over generated n = 4, 5
    state documents, the shipped demos/data documents and an equiv pair.

    Timed invocations run ``python -m majsphere.cli`` as a subprocess; with
    ``in_process`` set they call ``cli.main(argv)`` with stdout captured,
    which is how the traced run sees inside the CLI.
    """

    stream = 2

    def __init__(self, seed: int, workdir: str, in_process: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))

    def _write(self, name: str, doc) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _write_list(self, name: str, paths: list) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(p + "\n" for p in paths))
        return path

    def make_round(self, r: int) -> list[CliItem]:
        rng = _rng(self.seed, self.stream, r)
        states = [generic_state(rng, 4), generic_state(rng, 5)]
        states += [state_with_partition(rng, p) for p in CLI_PARTITIONS]
        partitions = [(1,) * 4, (1,) * 5, *CLI_PARTITIONS] + [(1,) * 5] * len(DEMO_STATES)
        image_map = bounded_map(rng)
        images = [symstate.apply_symmetric(image_map, s) for s in states]
        paths = [self._write(f"r{r}-s{i}.json", symstate.state_to_doc(s))
                 for i, s in enumerate(states)]
        demo_states = [os.path.join(DEMO_DATA, name) for name in DEMO_STATES]
        demo_roots = [os.path.join(DEMO_DATA, name) for name in DEMO_ROOTS]
        shipped = [_load_state(p) for p in demo_states]
        state_list = self._write_list(f"r{r}-states.txt", paths + demo_states)
        roots_list = self._write_list(f"r{r}-roots.txt", demo_roots)
        m = bounded_map(rng)
        matrix = self._write(f"r{r}-matrix.json", majsphere.map_to_doc(m))
        every = states + shipped
        return [
            CliItem(["canonical", "--batch", state_list], every, partitions, images=images,
                    image_map=image_map),
            CliItem(["classify", "--batch", state_list], every, partitions),
            CliItem(["transform", "--batch", state_list, "--matrix", matrix], every, partitions,
                    matrix=m),
            CliItem(["from-roots", "--batch", roots_list],
                    roots=[symstate.roots_from_doc(_load_json(p)) for p in demo_roots]),
            CliItem(["equiv", "--kind", "slocc", *demo_states], shipped),
            CliItem(["equiv", "--kind", "locc", *demo_states], shipped),
        ]

    def warmup(self) -> CliItem:
        rng = _rng(self.seed, self.stream, 1 << 20)
        state = generic_state(rng, 4)
        path = self._write("warmup.json", symstate.state_to_doc(state))
        return CliItem(["classify", path], [state], [(1,) * 4])

    def command(self, argv: list) -> list:
        return [sys.executable, "-m", "majsphere.cli", *argv]

    def run(self, item: CliItem, call) -> list:
        if self.in_process:
            return [call(_main_captured, item.argv)]
        return [call(self._subprocess, item.argv)]

    def _subprocess(self, argv: list):
        done = subprocess.run(self.command(argv), env=self.env, capture_output=True,
                              text=True, timeout=120)
        return done.returncode, done.stdout

    def check(self, item: CliItem, results: list) -> Outcome:
        """The exit code and the number of documents decide the call; then
        each document is an input.  A document that differs from the
        library's in-process result always fails the call; one that differs
        from how its state was built fails it unless the library misread the
        state's roots (see :class:`Outcome`)."""
        outcome = Outcome()
        try:
            expected = _expected(item)
        except TYPED_ERRORS:  # the library refused an input in-process
            expected = None
        got = _parse(results[0])
        if expected is None or got is None or got[0] != expected[0] or (
            len(got[1]) != len(expected[1])
        ):
            outcome.failed = 1
            return outcome
        for i, (doc, want) in enumerate(zip(got[1], expected[1])):
            try:
                unlike_built = not _built_as(item, i, doc)
            except TYPED_ERRORS:  # raised by a reference computation
                unlike_built = True
            partition = item.partitions[i] if item.partitions else ()
            compared = item.states[i:i + 1] + item.images[i:i + 1]
            moved_by = item.image_map if len(compared) == 2 else None
            outcome.record(max(partition, default=1),
                           misread(partition, *compared, moved_by=moved_by),
                           int(not docs_match(doc, want)), int(unlike_built))
        outcome.failed = min(outcome.failed, 1)  # one invocation is one operation
        return outcome


def _parse(result):
    """(exit code, output documents) of a CLI call, or None."""
    if not isinstance(result, tuple):
        return None
    code, out = result
    try:
        return code, [json.loads(line) for line in out.splitlines()]
    except json.JSONDecodeError:
        return None


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_state(path: str):
    return symstate.state_from_doc(_load_json(path))


def _main_captured(argv: list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _expected(item: CliItem):
    """Exit code and output documents the library gives for a CLI item, or
    None when the library's verdict contradicts how the input was built."""
    command = item.argv[0]
    tol = classify.DEFAULT_TOL
    if command == "canonical":
        return 0, [canonical.form_to_doc(canonical.canonicalize(s, tol)) for s in item.states]
    if command == "classify":
        docs = []
        for s in item.states:
            dc, _ = classify.degeneracy_configuration(symstate.majorana_roots(s), tol)
            docs.append({"n": s.n, "partition": list(dc.partition), "diversity": dc.diversity})
        return 0, docs
    if command == "transform":
        return 0, [symstate.state_to_doc(symstate.apply_symmetric(item.matrix, s))
                   for s in item.states]
    if command == "from-roots":
        return 0, [symstate.state_to_doc(symstate.state_from_roots(r)) for r in item.roots]
    # equiv on the shipped square pyramid and trigonal bipyramid: same
    # partition, different cocircularity, so inequivalent after exhaustion
    kind = item.argv[2]
    s1, s2 = item.states
    decide = classify.locc_equivalent if kind == "locc" else classify.slocc_equivalent
    if decide(s1, s2, tol) is not None:
        return None
    r1, r2 = symstate.majorana_roots(s1), symstate.majorana_roots(s2)
    sig1, sig2 = classify.cocircularity_witness(r1, r2, tol)
    return 2, [{
        "equivalent": False,
        "kind": kind,
        "stage": "exhausted-candidates",
        "cocircularity": {
            "on_circle_counts1": list(sig1.on_circle_counts()),
            "on_circle_counts2": list(sig2.on_circle_counts()),
        },
    }]


def _built_as(item: CliItem, i: int, doc) -> bool:
    """Whether output document i agrees with how its input was built: the
    partition, the dense oracle for transforms, and the canonical form of the
    state's SLOCC image."""
    command = item.argv[0]
    if command in ("canonical", "classify") and doc["partition"] != list(item.partitions[i]):
        return False
    if command == "transform":
        return transform_ok(item.matrix, item.states[i], symstate.state_from_doc(doc))
    if command == "canonical" and i < len(item.images):
        return _same_class(item.states[i], item.images[i])
    return True


def _same_class(s, image) -> bool:
    """Whether a state and its SLOCC image get the same canonical form."""
    f1 = canonical.canonicalize(s)
    f2 = canonical.canonicalize(image)
    if f1.partition != f2.partition:
        return False
    if not (f1.unique and f2.unique):
        return True
    return len(f1.params) == len(f2.params) and all(
        abs(a - b) <= 1e-6 for a, b in zip(f1.params, f2.params)
    )


WORKLOADS = {"decide": Decide, "roots_transform": RootsTransform, "cli_batch": CliBatch}
