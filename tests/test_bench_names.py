"""Every library name the benchmark harness reads is still bound.

The harness under ``bench/`` imports names from the package, reads module
attributes and patches the names in the tables of ``bench/spans.py``.  A
renamed or removed name breaks it only when it runs; this test parses the
harness and looks each name up instead.
"""

import ast
import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

#: module objects the harness reads attributes from, by the name it binds
MODULES = {
    "majsphere": "majsphere",
    "classify": "majsphere.classify",
    "symstate": "majsphere.symstate",
    "canonical": "majsphere.canonical",
    "cli": "majsphere.cli",
}


def harness_names():
    """(module, attribute) of each name imported from the package or read
    as an attribute of one of ``MODULES``, over every file under bench/."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("majsphere"):
                names.update((node.module, alias.name) for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULES
            ):
                names.add((MODULES[node.value.id], node.attr))
    return names


def span_tables():
    """The literal ``WRAPPED`` and ``PROXIED`` tables of bench/spans.py."""
    tables = {}
    for node in ast.parse((BENCH / "spans.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("WRAPPED", "PROXIED"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables["WRAPPED"], tables["PROXIED"]


def test_harness_names_are_bound():
    for module in MODULES.values():
        importlib.import_module(module)
    names = harness_names()
    wrapped, _ = span_tables()
    names.update((f"majsphere.{module}", attr) for module, attr, _ in wrapped)
    assert len(names) > len(wrapped)
    missing = sorted(
        f"{module}.{attr}" for module, attr in names
        if not hasattr(importlib.import_module(module), attr)
    )
    assert missing == []


def test_proxied_members_exist_on_their_modules():
    _, proxied = span_tables()
    assert proxied
    for module, attr, members in proxied:
        real = vars(importlib.import_module(f"majsphere.{module}"))[attr]
        assert [name for name in members if not hasattr(real, name)] == []
