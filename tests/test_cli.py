"""End-to-end CLI checks: JSON stability, golden values, exit codes, figures."""

import hashlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from fractions import Fraction as Q

import pytest

from weylkit.cli import EXIT_CAP, EXIT_OK, EXIT_USAGE, main
from weylkit.root_system import build


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# sha256 of the rootsys output of every label that was built by hand before the Dynkin table
ROOTSYS_SHA256 = {
    "A1": "e7853f29b03ed49001fec131f41a33b925cc9fb021e4fa3de4c4b2e6d439c8c9",
    "A2": "7bc751220beb2b850ad582ff702b297e2909e84459cd16984e65ffc8685e6308",
    "A3": "3ffc302dd570a870990f9aff4f4b0890f4b8a06e4de8d7266acae1b8a2f4c134",
    "A4": "7daa4aca9058d8c24c880dc65f3ac63be3179e11e082645dd32a5eab0b8c9f49",
    "B2": "8b6b8be70855f4b5015011e77716ff07cd84a267ac5009904f4e7a38488d7b5a",
    "C2": "6b81f7d4fc2991e8770b3643f4f0c595996b5b4f834b619e95c1ebd29e9a0689",
    "G2": "cd0db11a1698af855dac9c83416888bed58f4d9bd4e00e1e2980c5838df2efcd",
    "F4": "6310100bf67ba6cffed6f41ff9cab3e52118e0d4f0a8f37ae3b57463bca39380",
    "I2(5)": "0a16eae29dd57220853cbbadc0c2b0f770d7433f5d58486bda3dafcd0174e86b",
    "I2(8)": "6bcec54bda5eb4ba367f045729f00674c4d6f9179a286684265afcaf50b42e06",
}


class TestRootsys:
    @pytest.mark.parametrize("label", sorted(ROOTSYS_SHA256))
    def test_pinned_output(self, capsys, label):
        code, out = run_cli(capsys, "rootsys", "--type", label)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == ROOTSYS_SHA256[label]

    @pytest.mark.parametrize("label, order", [("B3", 48), ("C3", 48), ("D4", 192), ("E6", 51_840)])
    def test_table_types(self, capsys, label, order):
        code, obj = run_json(capsys, "rootsys", "--type", label)
        assert code == EXIT_OK
        assert obj["weyl_order"] == order and obj["crystallographic"] is True

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

    @pytest.mark.parametrize(
        "label, message",
        [
            ("A17", "A17: ranks above 16 are not supported"),
            ("D17", "D17: ranks above 16 are not supported"),
            ("A1000", "A1000: ranks above 16 are not supported"),
            ("I2(49)", "I2(n) needs n <= 48, got 49"),
            ("I2(1000)", "I2(n) needs n <= 48, got 1000"),
        ],
        ids=["A17", "D17", "A1000", "I2(49)", "I2(1000)"],
    )
    def test_label_bounds(self, capsys, label, message):
        assert main(["rootsys", "--type", label]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"weylkit: {message}\n")

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
        # the hull of (20, 20) holds 1261 points, walked from 221 dominant candidates: 1482 states
        argv = ["hull", "--type", "A2", "--point", "20,20"]
        assert main(argv + ["--cap", "1481"]) == EXIT_CAP
        captured = capsys.readouterr()
        assert captured.out == "" and "cap exceeded" in captured.err
        code, obj = run_json(capsys, *argv, "--cap", "1482")
        assert code == EXIT_OK and obj["count"] == 1261

    def test_no_candidate_box_per_job(self, capsys, monkeypatch):
        from weylkit import model_space as ms

        calls = []
        real = ms.hull_candidates
        monkeypatch.setattr(ms, "hull_candidates", lambda *a, **k: calls.append(a) or real(*a, **k))
        for argv in (["A2", "3,3"], ["G2", "2,1"], ["B2", "2,2"]):
            code, _ = run_cli(capsys, "hull", "--type", argv[0], "--point", argv[1])
            assert code == EXIT_OK
        assert calls == []

    def test_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYLKIT_CAP", "10")
        assert main(["hull", "--type", "A2", "--point", "20,20"]) == EXIT_CAP
        assert capsys.readouterr().out == ""
        monkeypatch.setenv("WEYLKIT_CAP", "0")
        assert main(["hull", "--type", "A1", "--point", "2"]) == EXIT_CAP
        monkeypatch.setenv("WEYLKIT_CAP", "1481")
        assert main(["hull", "--type", "A2", "--point", "20,20"]) == EXIT_CAP
        assert capsys.readouterr().out == ""
        monkeypatch.setenv("WEYLKIT_CAP", "1482")
        code, obj = run_json(capsys, "hull", "--type", "A2", "--point", "20,20")
        assert code == EXIT_OK and obj["count"] == 1261


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

    @pytest.mark.parametrize("point", ["1/2,1", "1/2,1/2"])
    def test_point_off_the_coweight_lattice(self, capsys, point):
        # w0.x is not in the co-root coset of x there, so the descent is refused before it starts
        assert main(["fold", "--type", "A2", f"--point={point}", f"--target={point}"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "weylkit: the orbit generator must be a special vertex (a co-weight lattice point)\n"

    def test_origin_folds_onto_itself(self, capsys):
        code, obj = run_json(capsys, "fold", "--type", "A2", "--point", "0,0", "--target", "0,0")
        assert code == EXIT_OK
        assert obj["endpoint"] == ["0", "0"]
        assert obj["breakpoints"] == [["0", "0", "0"]]

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

    def test_one_word_check_and_one_w0_image_per_job(self, capsys, monkeypatch):
        from weylkit import path_model as pm
        from weylkit.root_system import WeylElement

        checks, images = [], []
        check, apply = pm._validate_w0_word, WeylElement.apply
        monkeypatch.setattr(pm, "_validate_w0_word", lambda *a: checks.append(a) or check(*a))
        monkeypatch.setattr(WeylElement, "apply", lambda w, x: images.append(w.word) or apply(w, x))
        for argv in (["A2", "3,3", "2,2"], ["B2", "2,2", "1,0"], ["G2", "2,1", "0,0"]):
            checks.clear()
            images.clear()
            code, _ = run_cli(capsys, "fold", "--type", argv[0], "--point", argv[1], "--target", argv[2])
            assert code == EXIT_OK and len(checks) == 1
            assert images == [build(argv[0]).longest_element().word]

    def test_default_word_is_not_rebuilt(self, capsys, monkeypatch):
        # w0's own word needs no check: a default job, run a second time so that
        # w0 exists, builds no Weyl element (it built w0 again to compare matrices)
        from weylkit.root_system import RootSystem

        words, element = [], RootSystem.element
        monkeypatch.setattr(RootSystem, "element", lambda rs, word: words.append(word) or element(rs, word))
        for argv in (["A2", "3,3", "2,2"], ["B2", "2,2", "1,0"], ["G2", "2,1", "0,0"]):
            first = run_cli(capsys, "fold", "--type", argv[0], "--point", argv[1], "--target", argv[2])
            words.clear()
            second = run_cli(capsys, "fold", "--type", argv[0], "--point", argv[1], "--target", argv[2])
            assert first == second and first[0] == EXIT_OK
            assert words == []


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

    @pytest.mark.parametrize(
        "change, missing, extra",
        [
            (lambda pts: pts[1:], [["-3", "-3"]], []),  # the least point dropped
            (lambda pts: pts + ((Q(1, 2), Q(9)),), [], [["1/2", "9"]]),  # a point off the hull's denominator
            (lambda pts: pts[:-1] + ((Q(7, 2), Q(3)),), [["3", "3"]], [["7/2", "3"]]),  # one point moved
        ],
    )
    def test_a_wrong_gallery_oracle_is_named(self, capsys, monkeypatch, change, missing, extra):
        # a gallery oracle that disagrees with the hull fails the job and names
        # the points it misses and adds
        from weylkit import path_model as pm

        real = pm.folded_gallery_endpoints
        monkeypatch.setattr(pm, "folded_gallery_endpoints", lambda *a, **k: change(real(*a, **k)))
        code, obj = run_json(capsys, "verify-convexity", "--type", "A2", "--point", "3,3", "--gallery-max-length=12")
        assert code == 1 and obj["status"] == "fail"
        assert obj["witnesses"] == [{"check": "gallery vs hull", "missing": missing, "extra": extra}]

    def test_origin_passes(self, capsys):
        code, obj = run_json(capsys, "verify-convexity", "--type", "A2", "--point", "0,0")
        assert code == EXIT_OK and obj["status"] == "pass"
        assert obj["endpoints"] == [["0", "0"]]
        assert obj["counts"]["gallery_length"] == 0

    @pytest.mark.parametrize(
        "label, point", [("B2", "5,8"), ("G2", "7,4"), ("C2", "7,5"), ("A2", "14/3,16/3")]
    )
    def test_vertex_on_the_base_point_ray_passes(self, capsys, label, point):
        # 2w1 + 3w2 or 4w1 + 6w2 in co-weight coordinates: a straight segment
        # from the base alcove meets two walls at once, so its crossings give
        # no single type word
        code, obj = run_json(capsys, "verify-convexity", "--type", label, f"--point={point}")
        assert code == EXIT_OK and obj["status"] == "pass"
        assert obj["counts"]["hull_points"] == obj["counts"]["path_endpoints"]

    def test_cap_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYLKIT_CAP", "3")
        code = main(["verify-convexity", "--type", "A2", "--point", "3,3"])
        capsys.readouterr()
        assert code == EXIT_CAP

    def test_cap_bounds_the_hull_box(self, capsys):
        # 221 dominant candidates and 1261 hull points: one state more than the cap refuses the hull
        argv = ["verify-convexity", "--type", "A2", "--point", "20,20"]
        code = main(argv + ["--cap", "1481"])
        captured = capsys.readouterr()
        assert code == EXIT_CAP and captured.out == ""
        assert "hull enumeration exceeded 1481 states (221 dominant candidates and 1261 hull points so far)" in captured.err
        # at the exact count the hull passes, and the path closure is what the cap stops
        code = main(argv + ["--cap", "1482"])
        captured = capsys.readouterr()
        assert code == EXIT_CAP and captured.out == ""
        assert "hull enumeration" not in captured.err and "positive fold closure exceeded 1482 paths" in captured.err

    def test_cap_bounds_the_gallery_walk_tree(self, capsys):
        # the A2 (3,3) walks of the 9-letter type have 311 walk-tree states, its 6 starts included
        argv = ["verify-convexity", "--type", "A2", "--point=3,3", "--gallery-max-length=12"]
        code, obj = run_json(capsys, *argv, "--cap", "311")
        assert code == EXIT_OK and obj["counts"]["gallery_endpoints"] == obj["counts"]["hull_points"]
        assert main(argv + ["--cap", "310"]) == EXIT_CAP
        captured = capsys.readouterr()
        assert captured.out == "" and "gallery enumeration exceeded 310 states" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # no special vertex: refused before the 5,460-point hull box, so the cap never trips
            (["--type", "F4", "--point", "3,3,3,3", "--cap", "100"], "gallery targets must be special vertices"),
            (["--type", "I2(5)", "--point", "1,1"], "galleries need a crystallographic system"),
        ],
    )
    def test_gallery_refusal_comes_before_enumeration(self, capsys, argv, message):
        assert main(["verify-convexity", *argv]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_cap_zero_is_honoured(self, capsys, monkeypatch):
        argv = ["verify-convexity", "--type", "A2", "--point", "3,3"]
        assert main(argv + ["--cap", "0"]) == EXIT_CAP
        monkeypatch.setenv("WEYLKIT_CAP", "0")
        assert main(argv) == EXIT_CAP
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["hull", "verify-convexity"])
    @pytest.mark.parametrize(
        "flag, env, message",
        [
            (["--cap", "-1"], None, "--cap must be an integer >= 0, got -1"),
            ([], "-1", "WEYLKIT_CAP must be an integer >= 0, got '-1'"),
            ([], "abc", "WEYLKIT_CAP must be an integer >= 0, got 'abc'"),
        ],
        ids=["flag-negative", "env-negative", "env-not-an-integer"],
    )
    def test_bad_cap_refused(self, capsys, monkeypatch, command, flag, env, message):
        monkeypatch.delenv("WEYLKIT_CAP", raising=False)
        if env is not None:
            monkeypatch.setenv("WEYLKIT_CAP", env)
        assert main([command, "--type", "A2", "--point", "3,3", *flag]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"weylkit: {message}\n")


def pinned_tree_table(name, perturbed):
    """(ends, table) of a byte-pinned ``tree`` job: a value view no benchmark table reaches.

    ``perturbed`` moves one quadruple's symmetry orbit up by one, as the
    benchmark's rejected tables are moved.
    """
    from test_lambda_tree import bumped_orbit, fractional_tree

    from weylkit import lambda_tree as lt
    from weylkit.scalars import LexPair, QuadInt

    if name == "quadint":  # Z[sqrt 2]: the values themselves are the view
        pv = lt.tree_generator(2, 6, "Z")[1]
        table = {q: QuadInt(int(w), int(w), 2) for q, w in pv.table.items()}
    elif name == "lex-thirds":  # lex pairs whose lo parts have denominator 3
        pv = lt.tree_generator(12, 6, "Z2lex")[1]
        table = {q: LexPair(w.hi, w.lo / 3) for q, w in pv.table.items()}
    else:  # rationals of denominators 2, 3 and 6
        pv = fractional_tree()
        table = dict(pv.table)
    if perturbed:
        table = bumped_orbit(table, sorted(table)[len(table) // 3])
    return pv.ends, table


# (exit code, sha256 of stdout) of `tree --input` on pinned_tree_table(name, perturbed).
# The rational tables print their branch heights as Fraction reprs.
TREE_PINS = {
    ("quadint", False): (0, "3447a5b205f408c3366f074f46fec9d5f541ab9a5f28e25652f19586ad14da80"),
    ("quadint", True): (1, "e002d857a2297ec6b72ad67e9cb347fff5a8b5ada5e7972e5c875d85ff12cbcf"),
    ("lex-thirds", False): (0, "6696b0095c549c438e77652b08015bbbea92c8ccbed10ced28a74fb6d1b22cba"),
    ("lex-thirds", True): (1, "6a9c613d8157c6e63a279867d2dd7602aac4db558c952e4a962e87ab559c5230"),
    ("halves-thirds", False): (0, "c053dd09db2a8e8c1cb4638ac58fe2256accf8d061b85428f90f0ca269df3118"),
    ("halves-thirds", True): (1, "e002d857a2297ec6b72ad67e9cb347fff5a8b5ada5e7972e5c875d85ff12cbcf"),
}


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

    def test_quadint_table_written_by_format_scalar(self, capsys, tmp_path):
        # a b = 0 value is written a+0√2, so it reads back in Z[sqrt 2] and not as a rational
        from weylkit import lambda_tree as lt
        from weylkit.scalars import QuadInt

        path = self._write_table(tmp_path, lt.h_tree(QuadInt(1, 1, 2), QuadInt(2, 0, 2)).valuation())
        code, obj = run_json(capsys, "tree", "--input", str(path))
        assert code == EXIT_OK and obj["pv_ok"] and obj["roundtrip_ok"]

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

    @pytest.mark.parametrize("name, perturbed", sorted(TREE_PINS))
    def test_value_views_pinned(self, capsys, tmp_path, name, perturbed):
        from weylkit.scalars import format_scalar

        ends, table = pinned_tree_table(name, perturbed)
        path = tmp_path / "table.json"
        values = {",".join(q): format_scalar(v) for q, v in table.items()}
        path.write_text(json.dumps({"ends": list(ends), "values": values}))
        code, out = run_cli(capsys, "tree", "--input", str(path))
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == TREE_PINS[name, perturbed]

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

    def test_one_pass_read_builds_no_name_table(self, capsys, tmp_path, monkeypatch):
        # a job reads its table on positions: the valuation it checks holds no dict
        # keyed by name quadruples, and each distinct value is cleared of denominators once
        from weylkit import lambda_tree as lt

        path = self._write_table(tmp_path, lt.tree_generator(3, 9, "Z")[1])
        strings = set(json.loads(path.read_text())["values"].values())
        checked, cleared = [], []
        check, clear = lt.check_pv, lt._clear_denominators
        monkeypatch.setattr(lt, "check_pv", lambda pv: checked.append(pv) or check(pv))
        monkeypatch.setattr(lt, "_clear_denominators", lambda values: cleared.append(len(values)) or clear(values))
        code, _ = run_cli(capsys, "tree", "--input", str(path))
        assert code == EXIT_OK and len(checked) == 1
        assert "table" not in vars(checked[0])
        assert 0 < sum(cleared) <= len(strings) < 30

    @pytest.mark.parametrize("base", ["a,a,b", "a,b,zz", "a,b"])
    def test_bad_base_on_valid_table(self, capsys, tmp_path, base):
        from weylkit import lambda_tree as lt

        path = self._write_table(tmp_path, lt.h_tree(Q(3), Q(1)).valuation())
        code, _ = run_cli(capsys, "tree", "--input", str(path), "--base", base)
        assert code == EXIT_USAGE

    def test_base_labels_follow_the_key_spacing_rule(self, capsys, tmp_path):
        from weylkit import lambda_tree as lt

        path = self._write_table(tmp_path, lt.h_tree(Q(3), Q(1)).valuation())
        tight = run_cli(capsys, "tree", "--input", str(path), "--base", "a,b,c")
        spaced = run_cli(capsys, "tree", "--input", str(path), "--base", " a, b ,c ")
        assert tight[0] == EXIT_OK and spaced == tight

    def test_non_default_base(self, capsys, tmp_path):
        from weylkit import lambda_tree as lt

        path = self._write_table(tmp_path, lt.tree_generator(11, 7, "Z2lex")[1])
        code, obj = run_json(capsys, "tree", "--input", str(path), "--base", "g,d,b")
        assert code == EXIT_OK
        assert obj["pv_ok"] and obj["rt_ok"] and obj["roundtrip_ok"]
        assert obj["violations"] == []
        assert obj["rendering"][0] == "root (base triple g, d, b)"

    @pytest.mark.parametrize("base", [None, "d,c,b"])
    def test_non_valuation_reported_whatever_the_base(self, capsys, tmp_path, base):
        from weylkit import lambda_tree as lt

        path = self._write_table(tmp_path, lt.h_tree(Q(3), Q(1)).valuation(), bump=("a", "c", "b", "d"))
        argv = ["--base", base] if base else []
        code, obj = run_json(capsys, "tree", "--input", str(path), *argv)
        assert code == 1
        assert obj["pv_ok"] is False and obj["violations"]
        assert "rt_ok" not in obj and "rendering" not in obj

    @pytest.mark.parametrize("base", ["a,a,b", "a,b,zz", "a,b"])
    def test_bad_base_refused_before_the_axiom_check(self, capsys, tmp_path, base):
        # a table that fails PV2 gets the refusal a valid table gets
        from weylkit import lambda_tree as lt

        path = self._write_table(tmp_path, lt.h_tree(Q(3), Q(1)).valuation(), bump=("a", "c", "b", "d"))
        assert main(["tree", "--input", str(path), "--base", base]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "weylkit: base triple must be three distinct ends\n")


    @staticmethod
    def _write_styled(tmp_path, ends, table, style):
        """Write a table in full style (every quadruple) or orbit style (one per symmetry orbit)."""
        import itertools

        from weylkit import lambda_tree as lt
        from weylkit.scalars import format_scalar

        values, covered = {}, set()
        for q in itertools.permutations(ends, 4):
            if style == "full" or q not in covered:
                values[",".join(q)] = format_scalar(table[q])
                covered.update(itertools.chain(*lt._pv1_orbit(q)))
        path = tmp_path / f"{style}.json"
        path.write_text(json.dumps({"ends": list(ends), "values": values}))
        return path

    @staticmethod
    def _with_orbit(table, quad, value):
        from weylkit import lambda_tree as lt

        plus, minus = lt._pv1_orbit(quad)
        return {**table, **{q: value for q in plus}, **{q: -value for q in minus}}

    def _pinned(self, capsys, path, code, out, err):
        got = main(["tree", "--input", str(path)])
        captured = capsys.readouterr()
        expected_out = json.dumps(out, sort_keys=True, indent=2) + "\n" if out is not None else ""
        assert (got, captured.out, captured.err) == (code, expected_out, err)

    @pytest.mark.parametrize("style", ["full", "orbit"])
    def test_quadint_table_pinned(self, capsys, tmp_path, style):
        # Z[sqrt 2] values are outside the integer encoding: the loops run on the values
        from weylkit import lambda_tree as lt
        from weylkit.scalars import QuadInt

        pv = lt.tree_generator(2, 5, "Z")[1]
        table = {q: QuadInt(int(v), int(v), 2) for q, v in pv.table.items()}
        rendering = [
            "root (base triple a, b, c)",
            "  end a",
            "  end b",
            "  branch at height 3+3√2",
            "    branch at height 5+5√2",
            "      end c",
            "      end d",
            "    end e",
        ]
        out = {
            "ends": list("abcde"),
            "pv_ok": True,
            "rendering": rendering,
            "roundtrip_ok": True,
            "rt_ok": True,
            "violations": [],
        }
        self._pinned(capsys, self._write_styled(tmp_path, pv.ends, table, style), 0, out, "")
        bumped = self._with_orbit(table, tuple("abcd"), table[tuple("abcd")] + QuadInt(0, 1, 2))
        exchange, companion = "exchange of b and d changed a positive value", "companion quadruple is not zero"
        where = [
            ("abcd", exchange), ("abcd", companion), ("acbd", companion), ("adbc", companion),
            ("badc", exchange), ("badc", companion), ("bcad", companion), ("bdac", companion),
            ("cadb", companion), ("cbda", companion),
        ]  # fmt: skip
        out = {
            "ends": list("abcde"),
            "pv_ok": False,
            "violations": [{"axiom": "PV2", "detail": d, "where": list(q)} for q, d in where],
        }
        self._pinned(capsys, self._write_styled(tmp_path, pv.ends, bumped, style), 1, out, "")

    @pytest.mark.parametrize("style", ["full", "orbit"])
    @pytest.mark.parametrize(
        "other, message",
        [("quadint", "cannot coerce Fraction into Z[sqrt2]"), ("lexpair", "lex pair compared with non lex pair")],
    )
    def test_mixed_domain_table_pinned(self, capsys, tmp_path, style, other, message):
        from weylkit import lambda_tree as lt
        from weylkit.scalars import LexPair, QuadInt

        pv = lt.h_tree(Q(3), Q(2)).valuation()
        zero = QuadInt(0, 0, 2) if other == "quadint" else LexPair(Q(0), Q(0))
        table = self._with_orbit(pv.table, tuple("abcd"), zero)
        path = self._write_styled(tmp_path, pv.ends, table, style)
        self._pinned(capsys, path, EXIT_USAGE, None, f"weylkit: {message}\n")

    @pytest.mark.parametrize("style", ["full", "orbit"])
    def test_rational_plus_lex_pair_exits_2(self, capsys, tmp_path, style):
        # an all-zero table with one lex orbit passes PV1 and PV2; the PV3
        # enumeration then adds a rational to a lex pair, which is refused
        import itertools

        from weylkit.scalars import LexPair

        ends = tuple("abcde")
        zeros = {q: Q(0) for q in itertools.permutations(ends, 4)}
        table = self._with_orbit(zeros, tuple("bcde"), LexPair(Q(0), Q(0)))
        path = self._write_styled(tmp_path, ends, table, style)
        self._pinned(capsys, path, EXIT_USAGE, None, "weylkit: lex pair added to non lex pair\n")

    @pytest.mark.parametrize("style", ["full", "orbit"])
    def test_denominators_pinned(self, capsys, tmp_path, style):
        from weylkit import lambda_tree as lt

        pv = lt.tree_generator(3, 6, "Z")[1]
        table = {q: v / 3 for q, v in pv.table.items()}
        rendering = [
            "root (base triple a, b, c)",
            "  end a",
            "  end b",
            "  branch at height Fraction(5, 3)",
            "    end c",
            "    end d",
            "    branch at height Fraction(8, 3)",
            "      end e",
            "      end f",
        ]
        out = {
            "ends": list("abcdef"),
            "pv_ok": True,
            "rendering": rendering,
            "roundtrip_ok": True,
            "rt_ok": True,
            "violations": [],
        }
        self._pinned(capsys, self._write_styled(tmp_path, pv.ends, table, style), 0, out, "")

    @pytest.mark.parametrize(
        "ends, extra, message",
        [
            ("abcd", {"a,b,c,z": "0"}, "bad quadruple key ('a', 'b', 'c', 'z'): 'z' is not an end"),
            ("abcd", {"a,b,a,b": "0"}, "bad quadruple key ('a', 'b', 'a', 'b'): it must name four distinct ends"),
            ("abcd", {"a,a,b,c": "1"}, "bad quadruple key ('a', 'a', 'b', 'c'): it must name four distinct ends"),
            ("abcda", {}, "end 'a' is listed twice"),
        ],
        ids=["unknown-end", "repeated-pair", "repeated-end", "duplicate-end"],
    )
    def test_bad_quadruple_keys_rejected(self, capsys, tmp_path, ends, extra, message):
        from weylkit import lambda_tree as lt
        from weylkit.scalars import format_scalar

        pv = lt.h_tree(Q(3), Q(1)).valuation()
        values = {",".join(q): format_scalar(v) for q, v in pv.table.items()}
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"ends": list(ends), "values": {**values, **extra}}))
        assert main(["tree", "--input", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"weylkit: {message}\n")

    # Tables with two faults: the refusal names the one that comes first in the
    # order an end listed twice; a value whose negation or comparison raises;
    # a bad key; a conflict; a missing quadruple.  Each edit sets a key's value
    # in place, puts a new entry first or last, or drops a key's symmetry orbit.
    @pytest.mark.parametrize(
        "ends, edits, message",
        [
            ("abcda", [("last", "a,b,c,z", "0")], "end 'a' is listed twice"),
            ("abcd", [("set", "a,b,c,d", "+inf"), ("last", "a,b,c,z", "0")], "negative infinity is not modeled"),
            ("abcd", [("first", "a,b,c,z", "0"), ("set", "a,b,c,d", "+inf")], "negative infinity is not modeled"),
            ("abcd", [("set", "a,b,c,d", "5"), ("last", "a,b,c,z", "0")],
             "bad quadruple key ('a', 'b', 'c', 'z'): 'z' is not an end"),
            ("abcd", [("first", "a,a,b,c", "0"), ("set", "c,d,a,b", "5")],
             "bad quadruple key ('a', 'a', 'b', 'c'): it must name four distinct ends"),
            ("abcd", [("drop", "a,c,b,d", None), ("set", "a,b,c,d", "5")],
             "inconsistent table under the symmetry axiom: [('PV1', ('a', 'b', 'd', 'c'), 'Fraction(-5, 1) vs "
             "Fraction(0, 1)'), ('PV1', ('b', 'a', 'c', 'd'), 'Fraction(-5, 1) vs Fraction(0, 1)'), ('PV1', ('d', "
             "'c', 'a', 'b'), 'Fraction(-5, 1) vs Fraction(0, 1)')]"),
            ("abcd", [("set", "a,b,c,d", "1"), ("set", "c,d,a,b", "1+1√2")], "cannot coerce Fraction into Z[sqrt2]"),
            ("abcd", [("set", "a,b,c,d", "(1;0)"), ("set", "c,d,a,b", "1")], "lex pair compared with non lex pair"),
        ],
        ids=["repeated-end+bad-key", "inf+bad-key", "bad-key+inf", "conflict+bad-key", "bad-key+conflict",
             "missing+conflict", "rational+sqrt2", "lex+rational"],
    )  # fmt: skip
    def test_refusal_precedence_pinned(self, capsys, tmp_path, ends, edits, message):
        import itertools

        from weylkit import lambda_tree as lt
        from weylkit.scalars import format_scalar

        pv = lt.h_tree(Q(3), Q(1)).valuation()
        items = [(",".join(q), format_scalar(v)) for q, v in pv.table.items()]
        for where, key, val in edits:
            if where == "set":
                items = [(k, val if k == key else v) for k, v in items]
            elif where == "drop":
                orbit = {",".join(q) for q in itertools.chain(*lt._pv1_orbit(tuple(key.split(","))))}
                items = [(k, v) for k, v in items if k not in orbit]
            else:
                items = [(key, val), *items] if where == "first" else [*items, (key, val)]
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"ends": list(ends), "values": dict(items)}))
        assert main(["tree", "--input", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"weylkit: {message}\n")


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fold", "--type", "A2", "--point", "1,1", "--target", "0,0", "--w0-word", "0,5,0"], "0..1"),
            # a negative letter must not wrap around to the last simple reflection
            (["fold", "--type", "A2", "--point", "1,1", "--target", "0,0", "--w0-word=-1,0,1"], "0..1"),
            (["hull", "--type", "A2", "--point", "1/0,1"], "zero denominator"),
            # points are rational: a Z[sqrt p] or lex-pair literal is refused
            (["hull", "--type", "A2", "--point", "1r2,1"], "1r2"),
            (["verify-convexity", "--type", "A2", "--point", "(1;0),1"], "(1;0)"),
            # nothing may follow the radical of an exponent
            (["sr", "norm", "--case", "B", "--args", "x^{1r7},x^1"], "malformed exponent"),
            # an empty coordinate is an error, not a coordinate left out
            (["hull", "--type", "A2", "--point=1,,1"], "weylkit: empty coordinate in point '1,,1'"),
            (["hull", "--type", "A2", "--point=1,1,"], "weylkit: empty coordinate in point '1,1,'"),
            (["fold", "--type", "A2", "--point=1,,1", "--target=0,0"], "weylkit: empty coordinate in point '1,,1'"),
            (["fold", "--type", "A2", "--point=1,1", "--target=1, ,0"], "weylkit: empty coordinate in point '1, ,0'"),
            (["verify-convexity", "--type", "A2", "--point=1,,1"], "weylkit: empty coordinate in point '1,,1'"),
        ],
    )
    def test_malformed_input(self, capsys, argv, message):
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag, env",
        [
            (["rootsys", "--type", "A2"], "-1", None),
            (["fold", "--type", "A2", "--point", "1,1", "--target", "0,0"], "-5", None),
            (["tree", "--input", "TABLE"], None, "-1"),
            (["sr", "norm", "--case", "B", "--args", "x^1,x^1"], None, "-1"),
        ],
        ids=["rootsys", "fold", "tree", "sr-norm"],
    )
    def test_bad_cap_refused_by_every_subcommand(self, capsys, monkeypatch, tmp_path, argv, flag, env):
        # hull and verify-convexity spend the cap; the other subcommands only check it
        from weylkit import lambda_tree as lt
        from weylkit.scalars import format_scalar

        pv = lt.h_tree(Q(3), Q(1)).valuation()
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"ends": list(pv.ends), "values": {",".join(q): format_scalar(v) for q, v in pv.table.items()}}))
        argv = [str(table) if a == "TABLE" else a for a in argv]
        monkeypatch.delenv("WEYLKIT_CAP", raising=False)
        assert main(argv) == EXIT_OK  # the job itself is valid
        capsys.readouterr()
        if flag is not None:
            argv, message = argv + ["--cap", flag], f"--cap must be an integer >= 0, got {flag}"
        else:
            monkeypatch.setenv("WEYLKIT_CAP", env)
            message = f"WEYLKIT_CAP must be an integer >= 0, got {env!r}"
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"weylkit: {message}\n")

    def test_zero_denominator_in_tree_table(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"ends": ["a", "b", "c", "d"], "values": {"a,b,c,d": "1/0"}}))
        assert main(["tree", "--input", str(path)]) == EXIT_USAGE
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, message",
        [
            ([1, 2], "JSON object"),  # not an object
            ({"values": {}}, "'ends' list"),  # no ends
            ({"ends": [1, 2, 3, 4], "values": {"1,2,3,4": "0"}}, "list of strings"),  # keys name ends by strings
            ({"ends": ["a", "b", "c", "d"], "values": {"a,b,c,d": 3}}, "must be a string"),  # a bare number
        ],
        ids=["list", "no-ends", "number-ends", "number-value"],
    )
    def test_malformed_tree_table(self, capsys, tmp_path, table, message):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        assert main(["tree", "--input", str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("weylkit: ") and message in err and "Traceback" not in err


class TestLazyLayers:
    # the CLI imports the layers every subcommand runs; tree, sr and --svg
    # import theirs when they run
    def test_cli_import_loads_no_tree_twisted_or_svg_module(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import json, sys, weylkit.cli; "
            "print(json.dumps([m for m in sys.modules if m.startswith('weylkit.')]))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
        loaded = set(json.loads(out))
        assert "weylkit.path_model" in loaded  # the benchmark tracer reads it from sys.modules
        assert not loaded & {"weylkit.lambda_tree", "weylkit.twisted_algebra", "weylkit.svg"}

    def test_error_classes_main_reports_are_value_errors(self):
        # main catches (ScalarDomainError, ValueError, OSError): every layer's
        # error class must stay a ValueError to exit 2
        from weylkit import lambda_tree, model_space, path_model, root_system, svg, twisted_algebra

        for cls in (
            root_system.RootSystemError,
            model_space.ModelSpaceError,
            path_model.PathModelError,
            lambda_tree.TreeError,
            twisted_algebra.TwistedAlgebraError,
            svg.SvgError,
            json.JSONDecodeError,
        ):
            assert issubclass(cls, ValueError), cls

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"a,b,c": "0"}, "bad quadruple key 'a,b,c'"),
            ({"a,b,c,d,e": "0"}, "bad quadruple key 'a,b,c,d,e'"),
            # a short key and a long one hold four labels each on average
            ({"a,b,c": "0", "a,b,c,d,e": "1"}, "bad quadruple key 'a,b,c'"),
            ({"a,b,c,d": 3}, "value of 'a,b,c,d' must be a string, got 3"),
            ({"a,b,c,d": None}, "value of 'a,b,c,d' must be a string, got None"),
            # the first bad entry is named, whether its key or its value is bad
            ({"a,b,c,d": "1/0", "x,y": "1"}, "zero denominator: '1/0'"),
            ({"x,y": "1", "a,b,c,d": "1/0"}, "bad quadruple key 'x,y'"),
            ({"a,b,c,d": "1/0", "a,b,d,c": 2}, "zero denominator: '1/0'"),
        ],
        ids=["short-key", "long-key", "short-and-long", "number", "null", "value-first", "key-first", "parse-first"],
    )
    def test_bad_tree_table_exits_2(self, capsys, tmp_path, values, message):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"ends": list("abcd"), "values": values}))
        assert main(["tree", "--input", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"weylkit: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--case", "B", "--args", "x^{1r7},x^1"], "malformed exponent in 'x^{1r7}': unexpected '7' after the radical"),
            (["--case", "F", "--args", "x^1"], "case F takes 2 comma-separated series"),
        ],
    )
    def test_bad_sr_norm_literal_exits_2(self, capsys, argv, message):
        assert main(["sr", "norm", *argv]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"weylkit: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["hull", "--type", "A2", "--point", "1,1"],
            ["fold", "--type", "A2", "--point", "1,1", "--target", "0,0"],
        ],
        ids=["hull", "fold"],
    )
    def test_unwritable_svg_path_exits_2(self, capsys, tmp_path, argv):
        # the JSON is written first; the figure's temporary file cannot be made
        missing = tmp_path / "missing" / "figure.svg"
        assert main([*argv, "--svg", str(missing)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert json.loads(out)
        pattern = rf"weylkit: \[Errno 2\] No such file or directory: '{re.escape(str(missing.parent))}/\.weylkit-[^']+'\n"
        assert re.fullmatch(pattern, err), err


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


class TestWorkCounts:
    # Fraction constructions in one in-process `verify-convexity --type A2
    # --point=3,4`, counted on a second run so that every lazily derived value
    # of A2 exists.  The convexity kernels run on ints and build Fractions only
    # for what they return: CPython 3.11 counted 9,018 constructions with
    # Fraction kernels and 762 with integer ones.  The bound is about 1.5x the
    # latter.
    FRACTION_BOUND = 1150

    def test_verify_convexity_fraction_constructions(self, capsys):
        argv = ("verify-convexity", "--type", "A2", "--point=3,4")
        first = run_cli(capsys, *argv)
        count = 0
        new = vars(Q)["__new__"]
        real = new.__func__

        def counting(cls, *args, **kwargs):
            nonlocal count
            count += 1
            return real(cls, *args, **kwargs)

        Q.__new__ = staticmethod(counting)
        try:
            second = run_cli(capsys, *argv)
        finally:
            Q.__new__ = new
        assert first == second and first[0] == EXIT_OK
        assert 0 < count <= self.FRACTION_BOUND
