"""Command-line interface over the JSON state/root/matrix documents.

Subcommands: roots, from-roots, classify, canonical, equiv, transform,
decompose, plot.  Exit status is 0 on success, 2 when an equivalence query
answers "inequivalent", and 1 on any error.  Output is deterministic:
documents are emitted with insertion-ordered keys and floats printed with 17
significant digits, which round-trip losslessly.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import canonical as _canonical
from . import classify as _classify
from . import moebius as _moebius
from . import sphereplot as _sphereplot
from . import symstate as _symstate
from .errors import DomainError, NumericalError, ResourceLimitError
from .plane import complex_pair

_BATCH_COMMANDS = {"roots", "from-roots", "classify", "canonical", "transform"}
_TOL_COMMANDS = {"classify", "canonical", "equiv", "plot"}


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise NumericalError("cannot serialize a non-finite number")
    return format(float(x), ".17g")


def _dumps(doc) -> str:
    if isinstance(doc, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in doc.items())
        return "{" + inner + "}"
    if isinstance(doc, (list, tuple)):
        return "[" + ", ".join(_dumps(v) for v in doc) + "]"
    if isinstance(doc, bool) or doc is None:
        return json.dumps(doc)
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, float):
        return _format_float(doc)
    if isinstance(doc, str):
        return json.dumps(doc)
    raise TypeError(f"cannot serialize {type(doc)!r}")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_state(path: str) -> _symstate.SymmetricState:
    return _symstate.state_from_doc(_load_json(path))


def _load_matrix(path: str) -> _moebius.MoebiusMap:
    return _moebius.map_from_doc(_load_json(path))


def _dicke_lines(doc) -> list[str]:
    """Text output of a state document."""
    lines = [f"n: {doc['n']}"]
    lines += [f"a[{k}]: {re!r} {im!r}" for k, (re, im) in enumerate(doc["dicke"])]
    return lines


# --- per-subcommand handlers (return (exit_code, output_lines)) ---------------


def _cmd_roots(args, path: str):
    state = _load_state(path)
    doc = _symstate.roots_to_doc(_symstate.majorana_roots(state))
    if args.format == "text":
        lines = [f"n: {doc['n']}"]
        lines += [f"root: {re!r} {im!r}" for re, im in doc["roots"]]
        lines.append(f"at infinity: {doc['at_infinity']}")
        return 0, lines
    return 0, [_dumps(doc)]


def _cmd_from_roots(args, path: str):
    roots = _symstate.roots_from_doc(_load_json(path))
    doc = _symstate.state_to_doc(_symstate.state_from_roots(roots))
    if args.format == "text":
        return 0, _dicke_lines(doc)
    return 0, [_dumps(doc)]


def _cmd_classify(args, path: str):
    state = _load_state(path)
    _, dc, clustered = _classify.analyze(state, args.tol)
    doc = {
        "n": state.n,
        "partition": [int(p) for p in dc.partition],
        "diversity": dc.diversity,
    }
    if args.format == "text":
        sites = ", ".join(
            ("inf" if site.is_infinite else f"{site.value:.6g}") + f" (x{mult})"
            for site, mult in clustered.sites
        )
        return 0, [
            "partition: " + "+".join(str(p) for p in dc.partition),
            f"diversity: {dc.diversity}",
            f"sites: {sites}",
        ]
    return 0, [_dumps(doc)]


def _cmd_canonical(args, path: str):
    state = _load_state(path)
    form = _canonical.canonicalize(state, args.tol)
    doc = _canonical.form_to_doc(form)
    if args.format == "text":
        return 0, [
            "partition: " + "+".join(str(p) for p in form.partition),
            "params: " + " ".join(_format_float(p) for p in form.params),
            f"unique: {form.unique}",
        ]
    return 0, [_dumps(doc)]


def _cmd_transform(args, path: str):
    if args.matrix is None:
        raise DomainError("transform requires --matrix")
    m = _load_matrix(args.matrix)
    state = _load_state(path)
    doc = _symstate.state_to_doc(_symstate.apply_symmetric(m, state))
    if args.format == "text":
        return 0, _dicke_lines(doc)
    return 0, [_dumps(doc)]


def _cmd_decompose(args):
    if args.matrix is None:
        raise DomainError("decompose requires --matrix")
    m = _load_matrix(args.matrix)
    dec = _moebius.decompose_affine(m)
    doc = {
        "alpha": complex_pair(dec.rotation.a),
        "beta": complex_pair(dec.rotation.c),
        "A": float(dec.affine.A),
        "B": complex_pair(dec.affine.B),
        "lambda": float(dec.lam),
    }
    if args.format == "text":
        return 0, [
            f"alpha: {dec.rotation.a:.17g}",
            f"beta: {dec.rotation.c:.17g}",
            "A: " + _format_float(dec.affine.A),
            f"B: {dec.affine.B:.17g}",
            "lambda: " + _format_float(dec.lam),
        ]
    return 0, [_dumps(doc)]


def _cmd_equiv(args):
    s1 = _load_state(args.inputs[0])
    s2 = _load_state(args.inputs[1])
    decide = (
        _classify.locc_equivalent if args.kind == "locc" else _classify.slocc_equivalent
    )
    witness = decide(s1, s2, args.tol)
    if witness is not None:
        doc = {
            "equivalent": True,
            "kind": args.kind,
            "witness": _moebius.map_to_doc(witness.map),
        }
        if args.format == "text":
            return 0, [f"equivalent ({args.kind})", f"witness: {witness.map!r}"]
        return 0, [_dumps(doc)]
    r1, dc1, _ = _classify.analyze(s1, args.tol)
    r2, dc2, _ = _classify.analyze(s2, args.tol)
    doc = {"equivalent": False, "kind": args.kind}
    if dc1.partition != dc2.partition:
        doc["stage"] = "dc-mismatch"
        doc["partition1"] = [int(p) for p in dc1.partition]
        doc["partition2"] = [int(p) for p in dc2.partition]
    else:
        doc["stage"] = "exhausted-candidates"
        certificate = _classify.cocircularity_witness(r1, r2, args.tol)
        if certificate is not None:
            sig1, sig2 = certificate
            doc["cocircularity"] = {
                "on_circle_counts1": list(sig1.on_circle_counts()),
                "on_circle_counts2": list(sig2.on_circle_counts()),
            }
    if args.format == "text":
        lines = [f"inequivalent ({args.kind})", f"stage: {doc['stage']}"]
        if "cocircularity" in doc:
            lines.append("cocircularity certificate: on-circle counts differ")
        return 2, lines
    return 2, [_dumps(doc)]


def _cmd_plot(args, path: str):
    if args.svg is None:
        raise DomainError("plot requires --svg <path>")
    doc = _load_json(path)
    if isinstance(doc, dict) and "dicke" in doc:
        roots = _symstate.majorana_roots(_symstate.state_from_doc(doc))
    else:
        roots = _symstate.roots_from_doc(doc)
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(_sphereplot.render_svg(roots, args.tol))
    return 0, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majsphere",
        description="Symmetric-state sphere toolkit: roots, classes, canonical forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, inputs: int = 1):
        p = sub.add_parser(name, help=help_text)
        if name in _TOL_COMMANDS:
            p.add_argument("--tol", type=float, default=_classify.DEFAULT_TOL,
                           help="chordal tolerance for clustering and matching")
        if name != "plot":  # plot writes SVG only
            p.add_argument("--format", choices=("json", "text"), default="json")
        if inputs == 1:
            p.add_argument("input", nargs="?", help="input JSON document")
            if name in _BATCH_COMMANDS:
                p.add_argument("--batch", metavar="LISTFILE",
                               help="process one input path per line, in order")
        elif inputs == 2:
            p.add_argument("inputs", nargs=2, metavar=("S1", "S2"))
        return p

    add("roots", "state document -> root document")
    add("from-roots", "root document -> state document")
    add("classify", "degeneracy partition and diversity of a state")
    add("canonical", "canonical form document (n <= 5)")
    p = add("equiv", "decide LOCC/SLOCC equivalence of two states", inputs=2)
    p.add_argument("--kind", choices=("slocc", "locc"), default="slocc")
    p = add("transform", "apply a Moebius map to a state")
    p.add_argument("--matrix", metavar="MATRIX_JSON")
    p = add("decompose", "rotation/affine factorization of a map", inputs=0)
    p.add_argument("--matrix", metavar="MATRIX_JSON", required=True)
    p = add("plot", "orthographic sphere SVG of a state or root document")
    p.add_argument("--svg", metavar="PATH", help="output SVG path")
    return parser


def _dispatch(args) -> int:
    single = {
        "roots": _cmd_roots,
        "from-roots": _cmd_from_roots,
        "classify": _cmd_classify,
        "canonical": _cmd_canonical,
        "transform": _cmd_transform,
        "plot": _cmd_plot,
    }
    if args.command == "decompose":
        code, lines = _cmd_decompose(args)
    elif args.command == "equiv":
        code, lines = _cmd_equiv(args)
    else:
        handler = single[args.command]
        batch = getattr(args, "batch", None)
        if batch is not None:
            if args.format != "json":
                raise DomainError("--batch supports JSON output only")
            with open(batch, "r", encoding="utf-8") as fh:
                paths = [line.strip() for line in fh if line.strip()]
            code = 0
            lines = []
            for path in paths:
                sub_code, sub_lines = handler(args, path)
                code = max(code, sub_code)
                lines.extend(sub_lines)
        else:
            if args.input is None:
                raise DomainError(f"{args.command} needs an input document")
            code, lines = handler(args, args.input)
    for line in lines:
        print(line)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _dispatch(args)
    except (DomainError, NumericalError, ResourceLimitError, OSError, json.JSONDecodeError) as exc:
        print(f"majsphere: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
