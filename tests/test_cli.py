"""End-to-end command-line checks, run in process through ``cli.main``."""

import csv
import io
import json

import pytest

from meanset import cli, load_bundled

CORNER_FAN = {
    "ambient_dim": 3,
    "cells": [
        {"base": [0, 0, 0], "axes": [0, 1]},
        {"base": [0, 0, 0], "axes": [0, 2]},
        {"base": [0, 0, 0], "axes": [1, 2]},
    ],
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_validate_bundled_ok(capsys):
    code, out, _ = run(capsys, "validate", "--complex", "squares3")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["link_violations"] == []


def test_validate_flags_link_violation(capsys, tmp_path):
    path = tmp_path / "corner.json"
    path.write_text(json.dumps(CORNER_FAN))
    code, out, _ = run(capsys, "validate", "--complex", str(path))
    assert code == 2
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["link_violations"]


def test_distance_bundled(capsys):
    code, out, _ = run(capsys, "distance", "--complex", "tripod",
                       "--from", "[1,0]", "--to", "[-1,0]")
    assert code == 0
    assert json.loads(out)["distance"] == pytest.approx(2.0, abs=1e-9)


def test_geodesic_reports_polyline(capsys):
    cx, A = load_bundled("cube_square")
    q = json.dumps(list(A.coords("q")))
    r = json.dumps(list(A.coords("r")))
    code, out, _ = run(capsys, "geodesic", "--complex", "cube_square",
                       "--from", q, "--to", r)
    assert code == 0
    doc = json.loads(out)
    assert doc["length"] == pytest.approx(2.6131259297527527, abs=1e-9)
    assert len(doc["breakpoints"]) == 3
    assert doc["breakpoints"][1] == pytest.approx([0.0, 0.41421356237309515, 0.0])
    assert all(isinstance(c, str) for c in doc["cells"])


def test_recognize_member_json(capsys):
    code, out, _ = run(capsys, "recognize", "--complex", "tripod",
                       "--set", "tripod", "--at", "[0.5,0]")
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "member"
    cert = doc["certificate"]
    assert cert["kind"] == "membership"
    assert cert["weights"]["a"] == pytest.approx(0.75, abs=1e-7)
    assert cert["weights"]["b"] == pytest.approx(0.25, abs=1e-7)


def test_recognize_non_member_json(capsys):
    code, out, _ = run(capsys, "recognize", "--complex", "tripod",
                       "--set", "tripod", "--at", "[0,0.5]")
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "non-member"
    assert doc["certificate"]["kind"] == "non-membership"
    assert len(doc["certificate"]["witness"]) == 2


def test_recognize_json_has_one_shape(capsys):
    # a square's interior, an edge shared by two squares, and a set point
    docs = []
    for at in ("[0.5,-0.5]", "[0,-0.5]", "[1,0]"):
        code, out, _ = run(capsys, "recognize", "--complex", "squares3",
                           "--set", "squares3", "--at", at)
        assert code == 0
        docs.append(json.loads(out))
    for doc in docs:
        assert sorted(doc) == ["certificate", "decision", "deficit", "per_cell"]
        assert doc["per_cell"]
    assert len(docs[0]["per_cell"]) == 1 and len(docs[1]["per_cell"]) == 2
    assert docs[0]["deficit"] == pytest.approx(0.5, abs=1e-9)


def test_deficit_json(capsys):
    code, out, _ = run(capsys, "deficit", "--complex", "tripod",
                       "--set", "tripod", "--at", "[0,0.5]")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1.5, abs=1e-7)
    assert doc["per_cell"]


def test_heatmap_csv_stdout(capsys):
    code, out, _ = run(capsys, "heatmap", "--complex", "tripod",
                       "--set", "tripod", "--samples", "16", "--seed", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["cell", "x0", "x1", "deficit", "decision"]
    assert len(rows) == 17
    for row in rows[1:]:
        assert row[0].startswith("c")
        float(row[3])
        assert row[4] in {"0", "1"}


def test_heatmap_segment_and_out(capsys, tmp_path):
    out_path = tmp_path / "probe.csv"
    code, out, _ = run(capsys, "heatmap", "--complex", "tripod",
                       "--set", "tripod", "--samples", "8", "--seed", "3",
                       "--segment", "[-1,0]", "[1,0]", "5",
                       "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["rows"] == 13
    assert summary["out"] == str(out_path)
    assert 0.0 <= summary["light_fraction"] <= 1.0
    rows = list(csv.reader(out_path.open()))
    assert len(rows) == 14
    # the five probe rows sit on the set's connecting segment, all means
    for row in rows[-5:]:
        assert row[4] == "1"


def test_bad_point_is_reported(capsys):
    code, _, err = run(capsys, "distance", "--complex", "tripod",
                       "--from", "oops", "--to", "[0,0]")
    assert code == 1
    assert "error:" in err


def test_point_outside_complex(capsys):
    code, _, err = run(capsys, "deficit", "--complex", "tripod",
                       "--set", "tripod", "--at", "[9,9]")
    assert code == 1
    assert "error:" in err


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "recognize", "--complex", "no_such_thing",
                       "--set", "tripod", "--at", "[0,0]")
    assert code == 1
    assert "no such file or bundled entry" in err


def test_installed_entry_point_help():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "meanset.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "recognize" in proc.stdout


def test_import_loads_no_scipy():
    # scipy is a test-only dependency, and importing it would dominate the
    # package's start-up time
    import os
    import subprocess
    import sys

    import meanset
    src = os.path.dirname(os.path.dirname(os.path.abspath(meanset.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, meanset, meanset.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
