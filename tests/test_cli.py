"""End-to-end CLI checks: JSON stability, golden values, exit codes, figures."""

import json
import os
import xml.etree.ElementTree as ET
from fractions import Fraction as Q

import pytest

from weylkit.cli import EXIT_CAP, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestRootsys:
    def test_json_shape(self, capsys):
        code, obj = run_json(capsys, "rootsys", "--type", "A2")
        assert code == EXIT_OK
        assert obj["label"] == "A2" and obj["rank"] == 2
        assert obj["cartan"] == [["2", "-1"], ["-1", "2"]]
        assert len(obj["positive_roots"]) == 3

    def test_number_field_serialization(self, capsys):
        code, obj = run_json(capsys, "rootsys", "--type", "I2(8)")
        assert code == EXIT_OK
        entry = obj["cartan"][0][1]
        assert entry["minpoly"] == "x^4-4*x^2+2"
        assert entry["coeffs"] == ["0", "-1", "0", "0"]

    def test_determinism(self, capsys):
        _, first = run_cli(capsys, "rootsys", "--type", "G2")
        _, second = run_cli(capsys, "rootsys", "--type", "G2")
        assert first == second

    @pytest.mark.parametrize("n, order", [(3, 6), (4, 8), (6, 12)])
    def test_dihedral_forms_of_crystallographic_types(self, capsys, n, order):
        # the equal-length realisation of A2, B2 and G2 has number-field
        # Cartan entries, so it is described but takes no lattice command
        code, obj = run_json(capsys, "rootsys", "--type", f"I2({n})")
        assert code == EXIT_OK
        assert obj["weyl_order"] == order and len(obj["positive_roots"]) == n
        assert obj["crystallographic"] is False
        code, out = run_cli(capsys, "hull", "--type", f"I2({n})", "--point", "1,1")
        assert code == EXIT_USAGE and out == ""

    def test_parser_state_does_not_leak_between_calls(self, capsys, monkeypatch):
        from weylkit import cli

        cli._build_parser.cache_clear()
        _, fresh = run_cli(capsys, "rootsys", "--type", "B2")
        assert cli._build_parser() is cli._build_parser()
        assert main(["hull", "--type", "A2"]) == EXIT_USAGE
        capsys.readouterr()
        _, again = run_cli(capsys, "rootsys", "--type", "B2")
        assert again == fresh
        # the parser is built once, yet a command rebound after that is called
        calls = []
        real = cli.cmd_rootsys
        monkeypatch.setattr(cli, "cmd_rootsys", lambda args: calls.append(args.type) or real(args))
        _, wrapped = run_cli(capsys, "rootsys", "--type", "B2")
        assert wrapped == fresh and calls == ["B2"]


class TestHull:
    def test_golden_count(self, capsys):
        code, obj = run_json(capsys, "hull", "--type", "A2", "--point", "3,3")
        assert code == EXIT_OK
        assert obj["count"] == 37
        assert ["3", "3"] in obj["points"] and ["-3", "-3"] in obj["points"]
        assert ["4", "2"] not in obj["points"]

    def test_round_trip(self, capsys):
        _, obj = run_json(capsys, "hull", "--type", "G2", "--point", "2,1")
        assert obj["count"] == 13
        again = json.loads(json.dumps(obj, sort_keys=True))
        assert again == obj

    def test_svg_output(self, capsys, tmp_path):
        svg = tmp_path / "hull.svg"
        code, obj = run_json(
            capsys, "hull", "--type", "A2", "--point", "1,1", "--svg", str(svg)
        )
        assert code == EXIT_OK
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        markers = [el for el in root.iter() if el.tag.endswith("circle")]
        # six orbit markers, seven hull points, one origin
        assert len(markers) == 6 + obj["count"] + 1

    def test_output_file_atomic(self, capsys, tmp_path):
        out = tmp_path / "hull.json"
        code, _ = run_cli(
            capsys, "hull", "--type", "A1", "--point", "2", "--output", str(out)
        )
        assert code == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["count"] == 5
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".weylkit-")]

    def test_cap_flag(self, capsys):
        # the box around the orbit of (20, 20) holds 1681 candidates
        argv = ["hull", "--type", "A2", "--point", "20,20"]
        assert main(argv + ["--cap", "10"]) == EXIT_CAP
        captured = capsys.readouterr()
        assert captured.out == "" and "cap exceeded" in captured.err
        code, obj = run_json(capsys, *argv, "--cap", "1681")
        assert code == EXIT_OK and obj["count"] == 1261

    def test_one_candidate_box_per_job(self, capsys, monkeypatch):
        from weylkit import model_space as ms

        calls = []
        real = ms.hull_candidates
        monkeypatch.setattr(ms, "hull_candidates", lambda *a, **k: calls.append(a) or real(*a, **k))
        for argv in (["A2", "3,3"], ["G2", "2,1"], ["B2", "2,2"]):
            calls.clear()
            code, _ = run_cli(capsys, "hull", "--type", argv[0], "--point", argv[1])
            assert code == EXIT_OK and len(calls) == 1

    def test_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYLKIT_CAP", "10")
        assert main(["hull", "--type", "A2", "--point", "20,20"]) == EXIT_CAP
        assert capsys.readouterr().out == ""
        monkeypatch.setenv("WEYLKIT_CAP", "0")
        assert main(["hull", "--type", "A1", "--point", "2"]) == EXIT_CAP


class TestFold:
    def test_fold_reaches_target(self, capsys, tmp_path):
        svg = tmp_path / "fold.svg"
        code, obj = run_json(
            capsys,
            "fold",
            "--type",
            "A2",
            "--point",
            "3,3",
            "--target",
            "2,2",
            "--svg",
            str(svg),
        )
        assert code == EXIT_OK
        assert obj["endpoint"] == ["2", "2"]
        assert obj["descent"][0] == ["2", "2"]
        assert obj["descent"][-1] == ["-3", "-3"]
        root = ET.parse(svg).getroot()
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1
        drawn = polylines[0].attrib["points"].split()
        assert len(drawn) == len(obj["breakpoints"])

    def test_custom_word(self, capsys):
        code, obj = run_json(
            capsys,
            "fold",
            "--type",
            "A2",
            "--point",
            "1,1",
            "--target",
            "0,0",
            "--w0-word",
            "1,0,1",
        )
        assert code == EXIT_OK
        assert obj["endpoint"] == ["0", "0"]

    def test_target_outside_hull(self, capsys):
        code, _ = run_cli(capsys, "fold", "--type", "A2", "--point", "3,3", "--target", "4,2")
        assert code == EXIT_USAGE

    def test_one_descent_chain_per_job(self, capsys, monkeypatch):
        from weylkit import path_model as pm

        calls = []
        real = pm.parkinson_ram_chain
        monkeypatch.setattr(
            pm, "parkinson_ram_chain", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        for argv in (["A2", "3,3", "2,2"], ["G2", "2,1", "0,0"], ["B2", "2,2", "1,0"]):
            calls.clear()
            code, _ = run_cli(capsys, "fold", "--type", argv[0], "--point", argv[1], "--target", argv[2])
            assert code == EXIT_OK and len(calls) == 1


class TestVerifyConvexity:
    def test_a1_passes(self, capsys):
        code, obj = run_json(capsys, "verify-convexity", "--type", "A1", "--point", "2")
        assert code == EXIT_OK
        assert obj["status"] == "pass"
        assert obj["endpoints"] == [["-2"], ["-1"], ["0"], ["1"], ["2"]]
        assert obj["counts"]["hull_points"] == 5

    def test_g2_passes(self, capsys):
        code, obj = run_json(capsys, "verify-convexity", "--type", "G2", "--point", "2,1")
        assert code == EXIT_OK
        assert obj["counts"] == {
            "gallery_endpoints": 13,
            "gallery_length": 5,
            "hull_points": 13,
            "path_endpoints": 13,
        }

    @pytest.mark.parametrize(
        "label, point, dominant, hull",
        [("A2", "1,3", "2,3", 25), ("G2", "-1,0", "2,1", 13)],
    )
    def test_non_dominant_point_folds_from_its_dominant_image(
        self, capsys, label, point, dominant, hull
    ):
        code, obj = run_json(capsys, "verify-convexity", "--type", label, f"--point={point}")
        assert code == EXIT_OK and obj["status"] == "pass"
        assert obj["counts"]["hull_points"] == obj["counts"]["path_endpoints"] == hull
        assert obj["counts"]["gallery_endpoints"] == hull
        _, ref = run_json(capsys, "verify-convexity", "--type", label, f"--point={dominant}")
        assert obj["endpoints"] == ref["endpoints"]

    def test_cap_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYLKIT_CAP", "3")
        code = main(["verify-convexity", "--type", "A2", "--point", "3,3"])
        capsys.readouterr()
        assert code == EXIT_CAP

    def test_cap_bounds_the_hull_box(self, capsys):
        # 1681 candidates, one more than the cap: the hull box is refused before it is built
        code = main(["verify-convexity", "--type", "A2", "--point", "20,20", "--cap", "1680"])
        captured = capsys.readouterr()
        assert code == EXIT_CAP and captured.out == ""
        assert "hull enumeration exceeded 1680 candidates (1681 in the box)" in captured.err

    def test_cap_zero_is_honoured(self, capsys, monkeypatch):
        argv = ["verify-convexity", "--type", "A2", "--point", "3,3"]
        assert main(argv + ["--cap", "0"]) == EXIT_CAP
        monkeypatch.setenv("WEYLKIT_CAP", "0")
        assert main(argv) == EXIT_CAP
        capsys.readouterr()


class TestTree:
    def _write_star(self, tmp_path):
        ends = ["a", "b", "c", "d"]
        values = {}
        import itertools

        for q in itertools.permutations(ends, 4):
            values[",".join(q)] = "0"
        path = tmp_path / "star4.json"
        path.write_text(json.dumps({"ends": ends, "values": values}))
        return path

    def test_star_round_trip(self, capsys, tmp_path):
        path = self._write_star(tmp_path)
        code, out = run_cli(capsys, "tree", "--input", str(path), "--text")
        assert code == EXIT_OK
        obj, end = json.JSONDecoder().raw_decode(out)
        text_part = out[end:]
        assert obj["pv_ok"] and obj["rt_ok"] and obj["roundtrip_ok"]
        assert obj["violations"] == []
        assert any("end d" in line for line in obj["rendering"])
        assert "end d" in text_part

    def test_partial_table_completed_by_symmetry(self, capsys, tmp_path):
        from weylkit import lambda_tree as lt
        from weylkit.scalars import format_scalar

        pv = lt.h_tree(Q(3), Q(1)).valuation()
        # keep one representative per symmetry orbit only
        seen, values = set(), {}
        for quad, val in sorted(pv.table.items()):
            if quad in seen:
                continue
            plus, minus = lt._pv1_orbit(quad)
            seen.update(plus)
            seen.update(minus)
            values[",".join(quad)] = format_scalar(val)
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"ends": list(pv.ends), "values": values}))
        code, obj = run_json(capsys, "tree", "--input", str(path))
        assert code == EXIT_OK and obj["roundtrip_ok"]

    def test_invalid_table_fails(self, capsys, tmp_path):
        from weylkit import lambda_tree as lt
        from weylkit.scalars import format_scalar

        pv = lt.h_tree(Q(3), Q(1)).valuation()
        values = {",".join(q): format_scalar(v) for q, v in pv.table.items()}
        values["a,c,b,d"] = "-3"  # break one symmetry orbit
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ends": list(pv.ends), "values": values}))
        code, _ = run_cli(capsys, "tree", "--input", str(path))
        assert code == EXIT_USAGE  # inconsistent table is unusable input

    def _write_table(self, tmp_path, pv, bump=None):
        """Write pv's table; ``bump`` moves one quadruple's whole symmetry orbit up by 1."""
        from weylkit import lambda_tree as lt
        from weylkit.scalars import format_scalar

        table = dict(pv.table)
        if bump is not None:
            plus, minus = lt._pv1_orbit(bump)
            new = table[bump] + 1
            table.update({q: new for q in plus})
            table.update({q: -new for q in minus})
        values = {",".join(q): format_scalar(v) for q, v in table.items()}
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"ends": list(pv.ends), "values": values}))
        return path

    def test_one_axiom_check_per_job(self, capsys, tmp_path, monkeypatch):
        from weylkit import lambda_tree as lt

        calls = []
        real = lt.check_pv
        monkeypatch.setattr(lt, "check_pv", lambda pv: calls.append(pv) or real(pv))
        path = self._write_table(tmp_path, lt.tree_generator(5, 6, "Z")[1])
        for argv in ([], ["--base", "f,c,a"], ["--text"]):
            calls.clear()
            code, _ = run_cli(capsys, "tree", "--input", str(path), *argv)
            assert code == EXIT_OK and len(calls) == 1

    @pytest.mark.parametrize("base", ["a,a,b", "a,b,zz", "a,b"])
    def test_bad_base_on_valid_table(self, capsys, tmp_path, base):
        from weylkit import lambda_tree as lt

        path = self._write_table(tmp_path, lt.h_tree(Q(3), Q(1)).valuation())
        code, _ = run_cli(capsys, "tree", "--input", str(path), "--base", base)
        assert code == EXIT_USAGE

    def test_non_default_base(self, capsys, tmp_path):
        from weylkit import lambda_tree as lt

        path = self._write_table(tmp_path, lt.tree_generator(11, 7, "Z2lex")[1])
        code, obj = run_json(capsys, "tree", "--input", str(path), "--base", "g,d,b")
        assert code == EXIT_OK
        assert obj["pv_ok"] and obj["rt_ok"] and obj["roundtrip_ok"]
        assert obj["violations"] == []
        assert obj["rendering"][0] == "root (base triple g, d, b)"

    @pytest.mark.parametrize("base", [None, "a,a,b", "a,b,zz"])
    def test_non_valuation_reported_whatever_the_base(self, capsys, tmp_path, base):
        from weylkit import lambda_tree as lt

        path = self._write_table(tmp_path, lt.h_tree(Q(3), Q(1)).valuation(), bump=("a", "c", "b", "d"))
        argv = ["--base", base] if base else []
        code, obj = run_json(capsys, "tree", "--input", str(path), *argv)
        assert code == 1
        assert obj["pv_ok"] is False and obj["violations"]
        assert "rt_ok" not in obj and "rendering" not in obj


class TestSr:
    def test_norm_case_b(self, capsys):
        code, obj = run_json(
            capsys, "sr", "norm", "--case", "B", "--args", "x^1+x^{2+1r},x^1"
        )
        assert code == EXIT_OK
        assert obj["agree"] is True
        assert obj["nu"] == "1r"

    def test_norm_case_g(self, capsys):
        code, obj = run_json(capsys, "sr", "norm", "--case", "G", "--args", "x^1,0,0")
        assert code == EXIT_OK
        assert obj["nu"] == "4+2r"

    def test_check_report(self, capsys):
        code, obj = run_json(
            capsys, "sr", "check", "--case", "F", "--samples", "120", "--seed", "7"
        )
        assert code == EXIT_OK
        assert obj["status"] == "pass"
        assert obj["samples"] == 120
        assert obj["failures"] == []

    def test_determinism(self, capsys):
        args = ("sr", "check", "--case", "G", "--samples", "60", "--seed", "1")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_point(self, capsys):
        code, _ = run_cli(capsys, "hull", "--type", "A2", "--point", "1")
        assert code == EXIT_USAGE

    def test_bad_label(self, capsys):
        code, _ = run_cli(capsys, "hull", "--type", "Z9", "--point", "1")
        assert code == EXIT_USAGE

    def test_missing_tree_input(self, capsys):
        code, _ = run_cli(capsys, "tree", "--input", "/nonexistent/x.json")
        assert code == EXIT_USAGE


class TestSvgModule:
    def test_empty_scene_is_valid(self):
        from weylkit.root_system import build
        from weylkit.svg import Scene, emit_svg

        text = emit_svg(build("A2"), Scene(draw_walls=False, title="empty"))
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")

    def test_rank_restriction(self):
        from weylkit.root_system import build
        from weylkit.svg import Scene, SvgError, emit_svg

        with pytest.raises(SvgError):
            emit_svg(build("A1"), Scene())

    def test_byte_stability(self):
        from weylkit.root_system import build
        from weylkit.svg import Scene, emit_svg

        rs = build("G2")
        scene = Scene(orbit=list(rs.weyl_orbit((Q(1), Q(1)))), title="orbit")
        assert emit_svg(rs, scene) == emit_svg(rs, scene)
