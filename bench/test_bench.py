"""Tests of the benchmark itself:  python -m pytest bench/test_bench.py

Inputs are fixed by the seed, tracing leaves the library as it found it,
only the checks misread roots explain escape ``failed``, the printed
metrics are the ones BENCHMARK.json declares, and the benchmark refuses to
run without the library's sources.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import majsphere  # noqa: E402
import workloads  # noqa: E402
from majsphere import canonical, classify, symstate  # noqa: E402
from spans import PROXIED, WRAPPED, Tracer  # noqa: E402


def fingerprint(obj, workdir):
    """Comparable form of a round's inputs; document files are read back."""
    if isinstance(obj, majsphere.SymmetricState):
        return obj.amps.tobytes()
    if isinstance(obj, majsphere.MoebiusMap):
        return obj.matrix.tobytes()
    if isinstance(obj, majsphere.RootMultiset):
        return (obj.finite_roots, obj.infinity_count)
    if dataclasses.is_dataclass(obj):
        return tuple(fingerprint(getattr(obj, f.name), workdir) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(x, workdir) for x in obj)
    if isinstance(obj, dict):
        return tuple((k, fingerprint(v, workdir)) for k, v in obj.items())
    if isinstance(obj, str) and os.path.isfile(obj):
        with open(obj, encoding="utf-8") as fh:
            return fh.read().replace(workdir, "<workdir>")
    return obj


def make_workload(name, seed, workdir):
    if name == "cli_batch":
        return workloads.CliBatch(seed, workdir)
    return workloads.WORKLOADS[name](seed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    prints = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        workdir = str(tmp_path / label)
        os.mkdir(workdir)
        workload = make_workload(name, seed, workdir)
        prints[label] = fingerprint([workload.make_round(r) for r in (0, 1)], workdir)
    assert prints["a"] == prints["b"]
    assert prints["a"] != prints["c"]


def _namespaces():
    modules = [getattr(majsphere, name) for name in
               ("classify", "symstate", "canonical", "cli", "moebius", "plane")]
    return {m.__name__: dict(vars(m)) for m in modules}


def test_tracer_restores_every_patched_name():
    before = _namespaces()
    s = majsphere.SymmetricState([1.0, 0.3, -0.2j, 0.5, 0.1])
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            assert classify.from_three_points is not before["majsphere.classify"]["from_three_points"]
            assert symstate.np is not before["majsphere.symstate"]["np"]
            canonical.canonicalize(s)
            raise RuntimeError("leave the block early")
    after = _namespaces()
    for module, names in before.items():
        assert after[module].keys() == names.keys()
        for key, value in names.items():
            assert after[module][key] is value, f"{module}.{key} was not restored"
    assert tracer.layer_metrics(1)["canonical.canonicalize.calls"] == 1
    patched = {(m, a) for m, a, _ in WRAPPED} | {(m, a) for m, a, _ in PROXIED}
    assert len(patched) == len(WRAPPED) + len(PROXIED)


def test_only_checks_misread_roots_explain_are_exempt():
    outcome = workloads.Outcome()
    outcome.record(8, misread=True, hard=1, soft=2)  # the crash counts, the rest is the defect
    outcome.record(8, misread=False, hard=0, soft=1)
    outcome.record(2, misread=True, hard=0, soft=1)  # below the threshold nothing is exempt
    assert outcome.failed == 3
    assert outcome.probes == {8: 2} and outcome.misses == {8: 1}
    roots_transform = workloads.RootsTransform(1)
    item = next(i for i in roots_transform.make_round(0) if i.multiplicity == 8)
    assert roots_transform.check(item, [TypeError("untyped")] * 2).failed == 2


def test_misread_roots_are_another_partition_or_sites_the_map_misses():
    rng = workloads._rng(5, 0, 0)
    partition = (3, 1, 1, 1)
    s = workloads.state_with_partition(rng, partition)
    m = workloads.bounded_map(rng)
    image = symstate.apply_symmetric(m, s)
    assert not workloads.misread(partition, s, image, moved_by=m)
    assert workloads.misread((4, 1, 1), s)
    assert workloads.misread(partition, s, image, moved_by=workloads.bounded_map(rng))
    # below the threshold the question is not asked
    assert not workloads.misread((2, 1, 1, 1, 1), s, image, moved_by=workloads.bounded_map(rng))


def _bench(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_printed_metrics_match_benchmark_json(name, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert name in {w["name"] for w in spec["workloads"]}
    done = _bench(["--workload", name, "--seed", "7", "--seconds", "0.1",
                   "--trace", str(trace)], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(["--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
