"""End-to-end command-line checks, run in process through ``cli.main``."""

import csv
import io
import json
import math
import os
from concurrent import futures

import pytest

from meanset import cli, heatmap, load_bundled, run_heatmap, segment_probes

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


def test_heatmap_rejects_negative_segment_count(capsys, tmp_path):
    """``--segment P Q -1`` exits 1 naming the count and writes no file."""
    out_path = tmp_path / "probe.csv"
    code, out, err = run(capsys, "heatmap", "--complex", "squares3",
                         "--set", "squares3", "--samples", "2", "--seed", "0",
                         "--segment", "[0.1,0.1]", "[0.9,0.1]", "-1",
                         "--out", str(out_path))
    assert code == 1 and out == ""
    assert "count must be an integer of at least 0, got -1" in err
    assert not out_path.exists()


def test_bad_point_is_reported(capsys):
    code, _, err = run(capsys, "distance", "--complex", "tripod",
                       "--from", "oops", "--to", "[0,0]")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("point", ["[Infinity,0]", "[NaN,0]"])
def test_non_finite_point_is_reported(capsys, point):
    code, _, err = run(capsys, "distance", "--complex", "tripod",
                       "--from", point, "--to", "[0,0]")
    assert code == 1
    assert "error:" in err and "non-finite" in err


@pytest.mark.parametrize("command", [
    ["recognize", "--at", "[0.5,-0.5]"],
    ["heatmap", "--samples", "5", "--seed", "1"],
])
def test_non_finite_tolerance_is_reported(capsys, command):
    code, out, err = run(capsys, *command, "--complex", "squares3", "--set", "squares3",
                         "--tol", "nan")
    assert code == 1 and out == ""
    assert "error:" in err and "tolerance" in err


@pytest.mark.parametrize("eps", [math.nan, math.inf, -0.1])
def test_heatmap_rejects_bad_threshold(eps):
    """A NaN threshold would mark every row dark, even a deficit of 1e-16."""
    _, A = load_bundled("squares3")
    with pytest.raises(ValueError, match="tolerance"):
        run_heatmap(A, 5, 1, eps)
    with pytest.raises(ValueError, match="tolerance"):
        segment_probes(A, (0.0, 0.0), (1.0, 0.0), 3, eps)


def test_heatmap_rejects_non_integer_counts():
    """A sample count or a probe count that is not an integer, or a
    negative probe count, is a ValueError naming what is wrong."""
    _, A = load_bundled("squares3")
    with pytest.raises(ValueError, match="sample count must be an integer"):
        run_heatmap(A, 2.5, 1, 0.1)
    for count in (2.5, -1):
        with pytest.raises(ValueError, match="count must be an integer of at least 0"):
            segment_probes(A, (0.0, 0.0), (1.0, 0.0), count, 0.1)


def _record_pool_sizes(monkeypatch) -> list:
    """The ``max_workers`` of every thread pool opened from now on.  The
    heat map imports the pool class on first use, so the class is replaced
    where it is defined."""
    sizes = []

    class Recording(futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", Recording)
    return sizes


def test_heatmap_starts_no_more_threads_than_samples(monkeypatch):
    """Asked for 64 threads, a heat map of three samples opens a pool of
    three workers and writes the rows of a serial run."""
    sizes = _record_pool_sizes(monkeypatch)
    _, A = load_bundled("squares3")
    serial = run_heatmap(A, 3, 1, 0.1, threads=1)
    assert sizes == []
    assert run_heatmap(A, 3, 1, 0.1, threads=64) == serial
    assert sizes == [3]


@pytest.mark.parametrize("value", ["abc", "4"])
def test_heatmap_reads_no_environment_variable(monkeypatch, value):
    """``MEANSET_THREADS``, once read for the default worker count, is
    ignored: a heat map that passes no ``threads`` runs serially, opens no
    pool and writes the rows of a ``threads=1`` run."""
    sizes = _record_pool_sizes(monkeypatch)
    _, A = load_bundled("squares3")
    serial = run_heatmap(A, 3, 1, 0.1, threads=1)
    monkeypatch.setenv("MEANSET_THREADS", value)
    assert heatmap.worker_count() == 1
    assert run_heatmap(A, 3, 1, 0.1) == serial
    assert sizes == []


def test_boolean_point_is_rejected(capsys):
    code, _, err = run(capsys, "distance", "--complex", "tripod",
                       "--from", "[true,false]", "--to", "[0,0]")
    assert code == 1
    assert "must be a JSON array of numbers" in err


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


@pytest.mark.parametrize("kind, doc", [
    ("set", {"points": {"a": 5}}),
    ("set", {"points": {"a": [0.5, "x"]}}),
    ("complex", {"ambient_dim": 2, "cells": [{"base": 5, "axes": [0, 1]}]}),
    ("complex", {"ambient_dim": 2, "cells": [{"base": [0, 0], "axes": 3}]}),
])
def test_malformed_document_is_reported(capsys, tmp_path, kind, doc):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    complex_arg, set_arg = (str(path), "tripod") if kind == "complex" else ("tripod", str(path))
    code, _, err = run(capsys, "recognize", "--complex", complex_arg, "--set", set_arg,
                       "--at", "[0,0]")
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


BAD_POINTS = ["x", "[]", "[true, 0]", "[1e999, 0]", "[NaN, 0]", "[0.5]", "[[0.5, 0]]", "{}",
              '["a", 0]', "[0.5, 0, 0]", "[9, 9]", "[1" + "0" * 400 + ", 0]"]


def _malformed_argument_lists(tmp_path) -> list:
    """Argument lists of every command with one argument malformed: a bad
    point, a directory, a missing file or an empty one as an input or
    output, a complex whose base coordinate no float holds, or a bad count,
    seed or tolerance."""
    sq = ["--complex", "squares3"]
    heat = ["heatmap", *sq, "--set", "squares3", "--samples", "1", "--seed", "0"]
    calls = []
    for point in BAD_POINTS:
        calls += [["distance", *sq, "--from", point, "--to", "[0.5, 0]"],
                  ["geodesic", *sq, "--from", "[0.5, 0]", "--to", point],
                  ["recognize", *sq, "--set", "squares3", "--at", point],
                  ["deficit", *sq, "--set", "squares3", "--at", point],
                  [*heat, "--segment", point, "[0.5, 0]", "1"]]
    for path in (str(tmp_path), str(tmp_path / "missing.json"), os.devnull):
        calls += [["validate", "--complex", path],
                  ["recognize", "--complex", "squares3", "--set", path, "--at", "[0.5, 0]"],
                  [*heat, "--out", path]]
    huge = tmp_path / "huge_base.json"
    huge.write_text('{"ambient_dim": 1, "cells": [{"base": [1' + "0" * 400 + '], "axes": [0]}]}')
    calls += [["validate", "--complex", str(huge)]]
    for flag, values in (("--samples", ["0", "-1", "2.5", "x", ""]),
                         ("--seed", ["-1", "1.5", "x"]),
                         ("--tol", ["nan", "inf", "-1", "x", "true"])):
        calls += [[*heat, flag, v] for v in values]   # the last value of an option wins
    calls += [["recognize", *sq, "--set", "squares3", "--at", "[0.5, 0]", "--tol", v]
              for v in ("nan", "-1", "x")]
    calls += [[*heat, "--segment", "[0.1, 0.1]", "[0.9, 0.1]", k]
              for k in ("-1", "2.5", "x", "1e9", "")]
    return calls


def test_malformed_arguments_exit_with_a_code_not_a_traceback(capsys, tmp_path):
    """Every command, given one malformed argument, returns 0, 1 or 2 (argparse
    exits 2 on an option it cannot parse) and raises nothing; an exit of 1
    writes one ``error:`` line.  A directory where a file is read or written
    is such an error, as a missing file is, and so is a complex whose base
    coordinate is 10**400."""
    escaped, codes = [], {}
    for argv in _malformed_argument_lists(tmp_path):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:   # what the test looks for: nothing may escape
            escaped.append((argv, repr(exc)))
            continue
        err = capsys.readouterr().err
        codes[tuple(argv)] = code
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
    assert escaped == []
    directory = [argv for argv in codes if str(tmp_path) in argv]
    assert len(directory) == 3 and all(codes[argv] == 1 for argv in directory)
    assert codes[("validate", "--complex", str(tmp_path / "huge_base.json"))] == 1


def _env_with_src():
    """The environment with the package's source directory on PYTHONPATH,
    so that a subprocess imports the package under test."""
    import os

    import meanset
    src = os.path.dirname(os.path.dirname(os.path.abspath(meanset.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_installed_entry_point_help():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "meanset.cli", "--help"],
                          capture_output=True, text=True, env=_env_with_src(), timeout=120)
    assert proc.returncode == 0
    assert "recognize" in proc.stdout


@pytest.mark.parametrize("module", ["boundary", "recognition", "heatmap", "cli"])
def test_any_module_imported_first_works(module):
    """``recognition`` imports the decision layer, ``boundary``, at its end,
    and ``boundary`` imports ``recognition``: whichever module a fresh
    interpreter imports first, the import works and ``recognize`` answers."""
    import subprocess
    import sys
    code = (f"import meanset.{module}; from meanset import load_bundled, recognize; "
            "print(recognize(load_bundled('squares3')[1], (0.5, 0.0)).decision)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_env_with_src(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "member"


def test_import_loads_no_scipy():
    # scipy is a test-only dependency, and importing it would dominate the
    # package's start-up time
    import subprocess
    import sys
    code = ("import sys, meanset, meanset.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_env_with_src(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_numpy():
    """A fresh ``import meanset, meanset.cli`` loads none of numpy (only the
    samplers use it), dataclasses (the records are named tuples), or
    concurrent.futures and logging (the heat map's thread pool, imported
    when a heat map asks for threads)."""
    import subprocess
    import sys
    heavy = ("numpy", "dataclasses", "concurrent.futures", "logging")
    code = ("import sys, meanset, meanset.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({heavy})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_env_with_src(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_and_verification_load_no_numpy():
    """No command and no certificate check loads numpy: every command at the
    vertex where five squares meet, a member by weights shared across them,
    and at a non-member on an edge of two squares, with a witness to find,
    the heat map with probes on a segment from there; then a sampled check
    of the member's certificate."""
    import subprocess
    import sys
    code = """if True:
        import contextlib, io, sys
        from meanset import cli, load_bundled, recognize, verify_certificate
        queries = [("squares5", "[0,0,0]", "[1,-1,0]", "[1,-1,0]"),
                   ("quadrant_window", "[1.0,-0.0010957907691939717]", "[0,1]", "[1.5,0]")]
        with contextlib.redirect_stdout(io.StringIO()):
            for name, x, a, end in queries:
                for argv in (["recognize", "--set", name, "--at", x],
                             ["deficit", "--set", name, "--at", x],
                             ["distance", "--from", x, "--to", a],
                             ["geodesic", "--from", x, "--to", a],
                             ["validate"],
                             ["heatmap", "--set", name, "--samples", "2", "--seed", "1",
                              "--segment", x, end, "2"]):
                    assert cli.main(argv[:1] + ["--complex", name] + argv[1:]) == 0, argv
                    assert "numpy" not in sys.modules, argv
        cx, A = load_bundled("squares5")
        cert = recognize(A, (0.0, 0.0, 0.0)).certificate
        assert verify_certificate(A, (0.0, 0.0, 0.0), cert, samples=20).ok
        print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_env_with_src(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_heatmap_csv_is_independent_of_the_hash_seed():
    """The per-sample streams are seeded without ``hash()``, so string
    hashing cannot change a CSV."""
    import subprocess
    import sys
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(_env_with_src(), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-m", "meanset.cli", "heatmap", "--complex",
                               "squares3", "--set", "squares3", "--samples", "16",
                               "--seed", "1"],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 17
