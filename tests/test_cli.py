import json
import math
import pathlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from majsphere import (
    SymmetricState,
    dicke,
    fidelity,
    map_from_doc,
    state_from_doc,
    state_to_doc,
)
from majsphere.cli import main
from helpers import count_solves

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


@pytest.fixture
def workdir(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    ghz = SymmetricState([1, 0, 0, 1])
    paths = {
        "ghz": write("ghz3.json", state_to_doc(ghz)),
        "rotated": write(
            "s0_plus_sqrt3_s2.json",
            state_to_doc(SymmetricState([1.0, 0.0, math.sqrt(3.0), 0.0])),
        ),
        "ghz_like": write("ghz_like.json", state_to_doc(SymmetricState([1, 0, 0, 2]))),
        "w3": write("w3.json", state_to_doc(dicke(3, 1))),
        "half": write("half.json", {"matrix": [[1, 0], [0, 0], [0, 0], [2, 0]]}),
        "dir": tmp_path,
    }
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRootsAndBack:
    def test_roots_document(self, workdir, capsys):
        code, out, _ = run(capsys, ["roots", workdir["ghz"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3 and doc["at_infinity"] == 0
        assert len(doc["roots"]) == 3

    def test_round_trip_through_files(self, workdir, capsys, tmp_path):
        code, out, _ = run(capsys, ["roots", workdir["ghz"]])
        rpath = tmp_path / "roots.json"
        rpath.write_text(out)
        code, out, _ = run(capsys, ["from-roots", str(rpath)])
        assert code == 0
        state = state_from_doc(json.loads(out))
        assert fidelity(state, SymmetricState([1, 0, 0, 1])) >= 1 - 1e-9

    def test_emitted_documents_reparse_identically(self, workdir, capsys):
        code, first, _ = run(capsys, ["roots", workdir["ghz"]])
        code, second, _ = run(capsys, ["roots", workdir["ghz"]])
        assert first == second
        doc = json.loads(first)
        assert json.loads(json.dumps(doc)) == doc

    def test_huge_amplitudes_are_normalized(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"n": 1, "dicke": [[1e200, 0], [1e200, 0]]}))
        unit = tmp_path / "unit.json"
        unit.write_text(json.dumps({"n": 1, "dicke": [[1, 0], [1, 0]]}))
        code, out, _ = run(capsys, ["roots", str(huge)])
        assert code == 0
        assert out == run(capsys, ["roots", str(unit)])[1]


class TestClassifyCanonical:
    def test_classify(self, workdir, capsys):
        code, out, _ = run(capsys, ["classify", workdir["w3"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["partition"] == [2, 1] and doc["diversity"] == 2

    def test_classify_text(self, workdir, capsys):
        code, out, _ = run(capsys, ["classify", workdir["w3"], "--format", "text"])
        assert code == 0
        assert "partition: 2+1" in out

    def test_canonical_w_state(self, workdir, capsys):
        code, out, _ = run(capsys, ["canonical", workdir["w3"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["partition"] == [2, 1]
        rep = state_from_doc(doc["state"])
        assert fidelity(rep, dicke(3, 1)) >= 1 - 1e-12

    def test_canonical_rejects_large_n(self, tmp_path, capsys):
        path = tmp_path / "s6.json"
        path.write_text(json.dumps(state_to_doc(dicke(6, 0))))
        code, out, err = run(capsys, ["canonical", str(path)])
        assert code == 1
        assert "majsphere:" in err


class TestEquiv:
    def test_locc_equivalent_pair(self, workdir, capsys):
        code, out, _ = run(
            capsys, ["equiv", "--kind", "locc", workdir["ghz"], workdir["rotated"]]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["equivalent"] is True
        witness = map_from_doc(doc["witness"])
        gram = witness.matrix.conj().T @ witness.matrix
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-7

    def test_locc_inequivalent_slocc_equivalent(self, workdir, capsys):
        code, out, _ = run(
            capsys, ["equiv", "--kind", "locc", workdir["ghz"], workdir["ghz_like"]]
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["equivalent"] is False
        assert doc["stage"] == "exhausted-candidates"
        code, out, _ = run(
            capsys, ["equiv", "--kind", "slocc", workdir["ghz"], workdir["ghz_like"]]
        )
        assert code == 0

    def test_dc_mismatch_stage(self, workdir, capsys):
        code, out, _ = run(capsys, ["equiv", workdir["ghz"], workdir["w3"]])
        assert code == 2
        doc = json.loads(out)
        assert doc["stage"] == "dc-mismatch"
        assert doc["partition1"] == [1, 1, 1] and doc["partition2"] == [2, 1]

    def test_inequivalent_pair_solves_each_state_once(self, capsys, monkeypatch):
        calls = count_solves(monkeypatch)
        code, out, _ = run(capsys, [
            "equiv",
            str(DATA / "square_pyramid_state.json"),
            str(DATA / "trigonal_bipyramid_state.json"),
        ])
        assert code == 2
        assert "cocircularity" in json.loads(out)
        assert len(calls) == 2


class TestTransformDecompose:
    def test_transform(self, workdir, capsys):
        code, out, _ = run(
            capsys, ["transform", "--matrix", workdir["half"], workdir["ghz"]]
        )
        assert code == 0
        doc = json.loads(out)
        expected = SymmetricState([1.0, 0.0, 0.0, 8.0])
        assert fidelity(state_from_doc(doc), expected) >= 1 - 1e-9

    def test_transform_with_a_large_scaling_at_n_64(self, tmp_path, capsys):
        # 300^64 overflows a double; the image a_k * 300^-k does not
        rng = np.random.default_rng(64)
        s = SymmetricState(rng.standard_normal(65) + 1j * rng.standard_normal(65))
        state = tmp_path / "n64.json"
        state.write_text(json.dumps(state_to_doc(s)))
        matrix = tmp_path / "diag.json"
        matrix.write_text(json.dumps({"matrix": [[300, 0], [0, 0], [0, 0], [1, 0]]}))
        code, out, _ = run(capsys, ["transform", "--matrix", str(matrix), str(state)])
        assert code == 0
        logs = np.log(np.abs(s.amps)) - np.arange(65) * math.log(300.0)
        exact = np.exp(logs - logs.max()) * np.exp(1j * np.angle(s.amps))
        assert 1.0 - fidelity(state_from_doc(json.loads(out)), SymmetricState(exact)) <= 1e-12

    def test_decompose_affine_values(self, tmp_path, capsys):
        root_a = math.sqrt(2.5)
        path = tmp_path / "aff.json"
        path.write_text(
            json.dumps({"matrix": [[root_a, 0], [0, 0], [0, 0], [1 / root_a, 0]]})
        )
        code, out, _ = run(capsys, ["decompose", "--matrix", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["A"] == pytest.approx(2.5, abs=1e-12)
        assert doc["B"] == [0.0, 0.0]
        assert doc["alpha"] == [1.0, 0.0]
        assert doc["lambda"] == pytest.approx(math.sqrt(2.5), abs=1e-12)


class TestPlot:
    def test_writes_valid_svg(self, workdir, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        code, out, _ = run(capsys, ["plot", workdir["ghz"], "--svg", str(svg)])
        assert code == 0
        tree = ET.parse(svg)
        assert tree.getroot().tag.endswith("svg")
        markers = [
            el
            for el in tree.getroot().iter()
            if el.tag.endswith("circle") and el.get("fill") == "white"
        ]
        assert len(markers) >= 3

    def test_multiplicity_badge(self, capsys, tmp_path):
        path = tmp_path / "w3.json"
        path.write_text(json.dumps(state_to_doc(dicke(3, 1))))
        svg = tmp_path / "w.svg"
        code, _, _ = run(capsys, ["plot", str(path), "--svg", str(svg)])
        assert code == 0
        assert "x2" in svg.read_text()

    def test_each_view_draws_its_equator_once(self, capsys, tmp_path):
        # the equator is seen edge-on: one horizontal line across each view
        path = tmp_path / "w3.json"
        path.write_text(json.dumps(state_to_doc(dicke(3, 1))))
        svg = tmp_path / "w.svg"
        code, _, _ = run(capsys, ["plot", str(path), "--svg", str(svg)])
        assert code == 0
        elements = [(el.tag.rsplit("}", 1)[-1], el) for el in ET.parse(svg).getroot().iter()]
        rims = [el for tag, el in elements if tag == "circle" and el.get("fill") == "none"]
        lines = [el for tag, el in elements if tag == "line"]
        assert "polyline" not in {tag for tag, _ in elements}
        assert len(rims) == len(lines) == 2
        for rim, line in zip(rims, lines):
            cx, cy, radius = (float(rim.get(k)) for k in ("cx", "cy", "r"))
            assert float(line.get("y1")) == float(line.get("y2")) == cy
            assert float(line.get("x1")) == cx - radius
            assert float(line.get("x2")) == cx + radius
        # the sites at 0 and at infinity sit on the rim, so both views show them
        dots = [el for tag, el in elements if tag == "circle" and el.get("fill") == "white"]
        assert len(dots) == 4
        assert "x2" in svg.read_text()

    def test_roots_document_input(self, capsys, tmp_path):
        path = tmp_path / "roots.json"
        path.write_text(json.dumps({"n": 2, "roots": [[0, 0]], "at_infinity": 1}))
        svg = tmp_path / "r.svg"
        code, _, _ = run(capsys, ["plot", str(path), "--svg", str(svg)])
        assert code == 0

    def test_missing_svg_flag(self, workdir, capsys):
        code, _, err = run(capsys, ["plot", workdir["ghz"]])
        assert code == 1 and "svg" in err

    def test_format_is_refused(self, workdir, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        code, _, _ = run(capsys, ["plot", workdir["ghz"], "--svg", str(svg), "--format", "text"])
        assert code == 1
        assert not svg.exists()


class TestBatchAndErrors:
    def test_batch_order(self, workdir, capsys, tmp_path):
        listfile = tmp_path / "list.txt"
        listfile.write_text(f"{workdir['ghz']}\n{workdir['w3']}\n")
        code, out, _ = run(capsys, ["classify", "--batch", str(listfile)])
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["partition"] == [1, 1, 1]
        assert json.loads(lines[1])["partition"] == [2, 1]

    def test_batch_rejects_text_format(self, workdir, capsys, tmp_path):
        listfile = tmp_path / "list.txt"
        listfile.write_text(f"{workdir['ghz']}\n")
        code, _, err = run(
            capsys, ["classify", "--batch", str(listfile), "--format", "text"]
        )
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["roots", "no_such_file.json"])
        assert code == 1
        assert err

    def test_root_whose_modulus_overflows(self, capsys, tmp_path):
        path = tmp_path / "far.json"
        # both parts are finite, but the modulus overflows a double
        doc = {"n": 2, "roots": [[1.5e308, 1.5e308], [0.5, 0]], "at_infinity": 0}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["from-roots", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("majsphere: ") and err.count("\n") == 1

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "dicke": [[1, 0]]}')
        code, _, err = run(capsys, ["roots", str(path)])
        assert code == 1

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["roots", str(path)])
        assert code == 1

    def test_missing_input(self, workdir, capsys):
        code, _, err = run(capsys, ["roots"])
        assert code == 1

    def test_usage_error_is_exit_one(self, capsys):
        code, _, _ = run(capsys, ["no-such-command"])
        assert code == 1

    @pytest.mark.parametrize("command", ["roots", "from-roots", "transform", "decompose"])
    def test_tol_is_refused_where_nothing_reads_it(self, workdir, capsys, command):
        roots = workdir["dir"] / "roots.json"
        roots.write_text('{"n": 2, "roots": [[0.5, 0.0]], "at_infinity": 1}')
        argv = {
            "roots": ["roots", workdir["ghz"]],
            "from-roots": ["from-roots", str(roots)],
            "transform": ["transform", "--matrix", workdir["half"], workdir["ghz"]],
            "decompose": ["decompose", "--matrix", workdir["half"]],
        }[command]
        assert run(capsys, argv)[0] == 0
        assert run(capsys, argv + ["--tol", "1e-7"])[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [["classify", "w3"], ["canonical", "w3"], ["equiv", "ghz", "rotated"]],
        ids=["classify", "canonical", "equiv"],
    )
    def test_tol_is_read_where_it_is_taken(self, workdir, capsys, argv):
        argv = [workdir.get(a, a) for a in argv]
        plain = run(capsys, argv)
        assert plain[0] == 0
        assert run(capsys, argv + ["--tol", "1e-7"]) == plain
