import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wreathsph.acceptance import run_criteria
from wreathsph.cli import main
from wreathsph.groups import bundled_group_path, bundled_table_path


def paths(name):
    return str(bundled_group_path(name)), str(bundled_table_path(name))


def test_validate_ok(capsys):
    g, t = paths("q8")
    assert main(["validate", "--group", g, "--table", t]) == 0
    g, t = paths("gl2f3")
    assert main(["validate", "--group", g, "--table", t]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_corrupted_table(tmp_path, capsys):
    g, t = paths("q8")
    obj = json.loads(open(t).read())
    obj["chars"][4][1] = "2"
    bad = tmp_path / "bad_table.json"
    bad.write_text(json.dumps(obj))
    assert main(["validate", "--group", g, "--table", str(bad)]) == 1
    assert "orthogonality" in capsys.readouterr().out


def test_nu2_matrix(capsys):
    g, t = paths("gl2f3")
    assert main(["nu2", "--group", g, "--table", t, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    col = [row[obj["cols"].index("chi2")] for row in obj["matrix"]]
    assert col == [0, 0, -1, 0, 0, -1, -1, -1]


def test_decompose_output(capsys):
    g, t = paths("q8")
    rc = main(
        ["decompose", "--group", g, "--table", t, "--xi", "chi2", "--pi", "triv",
         "--n", "1", "--format", "json"]
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert all(c["multiplicity"] == 1 for c in obj["components"])
    assert len(obj["components"]) == 3


def test_unknown_pi_is_usage_error(capsys):
    g, t = paths("q8")
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--group", g, "--table", t, "--xi", "chi2",
              "--pi", "bogus", "--n", "1"])
    assert exc.value.code == 2


def test_unknown_xi_is_error():
    g, t = paths("q8")
    assert main(["decompose", "--group", g, "--table", t, "--xi", "chi9",
                 "--pi", "triv", "--n", "1"]) == 1


def test_cap_exceeded_names_cap(capsys):
    g, t = paths("q8")
    rc = main(["spherical", "--group", g, "--table", t, "--xi", "chi2",
               "--pi", "triv", "--n", "3", "--cap-elements", "100"])
    assert rc == 3
    assert "cap-elements" in capsys.readouterr().err


def test_closed_table_refuses_hyperoctahedral_group_over_the_element_cap(capsys):
    # the closed engine walks H_n (2^n n! elements) for its classical
    # values: refused with exit 3 before the walk when H_n is over the
    # element cap, checked first at |H_3| = 48 so that a missing check fails
    # here cheaply, then at n = 8, where |H_8| = 10,321,920 is past the
    # default cap
    g, t = paths("c1")
    run = ["spherical", "--group", g, "--table", t, "--xi", "chi1", "--pi", "triv",
           "--engine", "closed"]
    assert main([*run, "--n", "3", "--cap-elements", "48"]) == 0
    capsys.readouterr()
    for argv, needed, limit in ((["--n", "3", "--cap-elements", "47"], 48, 47),
                                (["--n", "8"], 10321920, 1000000)):
        assert main([*run, *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"cap cap-elements exceeded: needed {needed}, limit {limit}" in err


def test_spherical_deterministic_bytes(tmp_path):
    g, t = paths("c2")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        rc = main(["spherical", "--group", g, "--table", t, "--xi", "chi2",
                   "--pi", "iota", "--n", "2", "--format", "json",
                   "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_spherical_cache_roundtrip(tmp_path):
    g, t = paths("c2")
    cache = tmp_path / "cache"
    args = ["spherical", "--group", g, "--table", t, "--xi", "chi2",
            "--pi", "triv", "--n", "2", "--format", "json",
            "--cache-dir", str(cache)]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert len(list(cache.iterdir())) == 1
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cache_hit_loads_neither_file(tmp_path, monkeypatch, capsys):
    from wreathsph import cli

    g, t = paths("q8")
    args = ["spherical", "--group", g, "--table", t, "--xi", "chi2",
            "--pi", "iota", "--n", "2", "--engine", "symfunc",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(args + ["--format", "json"]) == 0
    fresh = capsys.readouterr().out

    def refuse(*_a, **_k):
        raise AssertionError("a cache hit loaded a data file")

    monkeypatch.setattr(cli, "load_group", refuse)
    monkeypatch.setattr(cli, "load_table", refuse)
    assert main(args + ["--format", "json"]) == 0
    assert capsys.readouterr().out == fresh
    assert main(args + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("label,")


def test_bad_group_with_empty_cache_is_data_error(tmp_path, capsys):
    _, t = paths("q8")
    bad = tmp_path / "group.json"
    bad.write_text('{"name": "broken"')
    cache = tmp_path / "cache"
    rc = main(["spherical", "--group", str(bad), "--table", t, "--xi", "chi2",
               "--pi", "triv", "--n", "2", "--cache-dir", str(cache)])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert not cache.exists() or not list(cache.iterdir())


def test_truncated_cache_entry_is_recomputed(tmp_path, capsys):
    g, t = paths("c2")
    args = ["spherical", "--group", g, "--table", t, "--xi", "chi2",
            "--pi", "triv", "--n", "2"]
    cache = tmp_path / "cache"
    want = {}
    for fmt in ("json", "csv"):
        assert main(args + ["--format", fmt]) == 0
        want[fmt] = capsys.readouterr().out
    assert main(args + ["--format", "json", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    (entry,) = cache.iterdir()
    full = entry.read_text()
    for cut in (len(full) // 2, len(full) - 1):
        for fmt in ("json", "csv"):
            entry.write_text(full[:cut])
            assert main(args + ["--format", fmt, "--cache-dir", str(cache)]) == 0
            assert capsys.readouterr().out == want[fmt]
            assert entry.read_text() == full
    assert list(cache.iterdir()) == [entry]


def test_spherical_csv_format(capsys):
    g, t = paths("c2")
    rc = main(["spherical", "--group", g, "--table", t, "--xi", "chi2",
               "--pi", "triv", "--n", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("label,")
    assert len(lines) == 4  # three rows plus header


def test_reconcile_cli(capsys):
    g, t = paths("c2")
    rc = main(["reconcile", "--group", g, "--table", t, "--xi", "chi2",
               "--pi", "triv", "--n", "2", "--format", "json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is True and obj["mismatches"] == []


def test_reconcile_mismatch_exits_1_and_writes_the_report(tmp_path, monkeypatch, capsys):
    import wreathsph.spherical as spherical

    closed = spherical.spherical_closed

    def off_by_one(ctx, lam, rho):
        val = closed(ctx, lam, rho)
        return None if val is None else val + 1

    monkeypatch.setattr(spherical, "spherical_closed", off_by_one)
    g, t = paths("c2")
    out = tmp_path / "report.json"
    rc = main(["reconcile", "--group", g, "--table", t, "--xi", "chi2",
               "--pi", "triv", "--n", "2", "--out", str(out)])
    assert rc == 1
    obj = json.loads(out.read_text())
    assert obj["ok"] is False
    assert {m["kind"] for m in obj["mismatches"]} == {"closed-vs-brute"}
    err = capsys.readouterr().err
    assert err == f"reconcile: {len(obj['mismatches'])} mismatches\n"


def test_selftest_subset(capsys):
    assert main(["selftest", "--criteria", "1,2,6"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3


def test_selftest_rejects_unknown_criteria(capsys):
    for value in ("0", "-1", "11", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--criteria", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "numbered 1 to 10" in captured.err and captured.out == ""
    for numbers in ([0], [-1], [11]):
        with pytest.raises(ValueError):
            run_criteria(numbers)


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("group", {"name": "empty", "perm_gens": []}),
        ("group", [[0, 1], [1, 0]]),
        ("table", {"names": ["chi1", "chi2"]}),
        ("group", {"perm_gens": [5]}),
        ("group", {"mul": 5}),
        ("group", {"perm_gens": [[2, 1]], "cap": "10"}),
        ("group", {"mul": [[0, 1], [1, 0]], "order": "2"}),
        ("table", {"classes": 5, "chars": [["1", "1"], ["1", "-1"]]}),
        ("table", {"classes": [0, 1], "chars": [[1]]}),
        ("table", {"classes": [0, 1], "chars": [["1", "1"], ["1"]]}),
        ("table", {"classes": [0, 1], "chars": [["1", "1"], ["1", "-1"]], "names": ["a"]}),
        ("table", {"classes": [0, 1], "chars": [["1", "1"], ["1", "-1"]], "names": ["a", "a"]}),
    ],
)
def test_malformed_input_is_data_error(tmp_path, capsys, kind, payload):
    g, t = paths("c2")
    bad = tmp_path / f"{kind}.json"
    bad.write_text(json.dumps(payload))
    files = {"group": g, "table": t, kind: str(bad)}
    for cmd in ("validate", "nu2"):
        assert main([cmd, "--group", files["group"], "--table", files["table"]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_missing_file_is_data_error(capsys):
    assert main(["validate", "--group", "/nonexistent.json",
                 "--table", "/nonexistent2.json"]) == 1


def test_directory_as_input_file_is_data_error(tmp_path, capsys):
    # IsADirectoryError is an OSError other than FileNotFoundError
    assert main(["validate", "--group", str(tmp_path), "--table", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_nonpositive_n_is_usage_error(capsys):
    g, t = paths("q8")
    for n in ("0", "-2", "x", "1.5"):
        with pytest.raises(SystemExit) as exc:
            main(["spherical", "--group", g, "--table", t, "--xi", "chi2",
                  "--pi", "triv", "--n", n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"must be a positive integer, got '{n}'" in err
        assert "_positive_int" not in err


@pytest.mark.parametrize("flag", ["--cap-elements", "--cap-classwork"])
def test_nonpositive_cap_is_usage_error(capsys, flag):
    g, t = paths("q8")
    for value in ("-1", "0", "x", "1.5"):
        with pytest.raises(SystemExit) as exc:
            main(["spherical", "--group", g, "--table", t, "--xi", "chi2",
                  "--pi", "triv", "--n", "1", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"must be a positive integer, got '{value}'" in err
        assert "_positive_int" not in err


def test_brute_classwork_cap_counts_passes_over_k(capsys):
    # 2 rows x 2 columns is within the cap, but the brute engine makes
    # 2 + 1 passes over the 32 elements of K
    g, t = paths("c2")
    args = ["--group", g, "--table", t, "--xi", "chi2", "--pi", "triv", "--n", "2",
            "--cap-classwork", "30"]
    for cmd in (["spherical", "--engine", "brute"], ["reconcile"]):
        assert main(cmd + args) == 3
        assert "cap-classwork" in capsys.readouterr().err
    assert main(["spherical", "--engine", "symfunc"] + args) == 0


def test_cache_key_names_version_and_format(tmp_path, capsys):
    from wreathsph.spherical import cache_key

    g, t = paths("c2")
    args = ["spherical", "--group", g, "--table", t, "--xi", "chi2",
            "--pi", "triv", "--n", "2", "--engine", "brute", "--format", "json"]
    assert main(args) == 0
    fresh = capsys.readouterr().out
    # a well-formed entry with a wrong value, under the key without the
    # package version and the table format
    planted = json.loads(fresh)
    planted["values"][0][0] = "99"
    cache = tmp_path / "cache"
    cache.mkdir()
    old_key = cache_key(open(g, "rb").read(), open(t, "rb").read(),
                        "chi2", "triv", 2, "brute")
    (cache / f"{old_key}.json").write_text(
        json.dumps(planted, indent=2, sort_keys=True) + "\n"
    )
    assert main(args + ["--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out == fresh
    assert len(list(cache.iterdir())) == 2


def run_python(*args):
    """A fresh interpreter with the package on its path."""
    import wreathsph

    env = dict(os.environ)
    src = str(Path(wreathsph.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_python_dash_m_runs_the_command_line():
    proc = run_python("-m", "wreathsph", "selftest", "--criteria", "1")
    assert proc.returncode == 0, proc.stderr
    assert "criterion  1 [PASS]" in proc.stdout


def test_only_selftest_loads_the_acceptance_suite():
    loaded = "print('acceptance loaded:', 'wreathsph.acceptance' in sys.modules)"
    proc = run_python("-c", "\n".join([
        "import sys",
        "from wreathsph.cli import main",
        "from wreathsph.groups import bundled_group_path, bundled_table_path",
        loaded,
        "main(['nu2', '--group', str(bundled_group_path('c2')),"
        " '--table', str(bundled_table_path('c2'))])",
        loaded,
        "main(['selftest', '--criteria', '1'])",
        loaded,
    ]))
    assert proc.returncode == 0, proc.stderr
    flags = [line for line in proc.stdout.splitlines() if line.startswith("acceptance")]
    assert flags == [f"acceptance loaded: {v}" for v in ("False", "False", "True")]
