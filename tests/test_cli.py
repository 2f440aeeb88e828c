import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wreathsph.acceptance import run_criteria
from wreathsph.cli import main
from wreathsph.groups import bundled, bundled_group_path, bundled_table_path
from wreathsph.spherical import SphericalContext, build_table
from wreathsph.wreath import PI_NAMES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


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


@pytest.mark.parametrize("entry", ["z(2003)", "1 + z( 2003 )^5"])
def test_validate_refuses_a_conductor_not_dividing_twice_the_order(tmp_path, capsys, entry):
    # refused before any arithmetic at conductor 2003, which would take
    # seconds and hundreds of MB; the message names the literal
    g, t = paths("q8")
    obj = json.loads(open(t).read())
    obj["chars"][4][1] = entry
    bad = tmp_path / "bad_table.json"
    bad.write_text(json.dumps(obj))
    assert main(["validate", "--group", g, "--table", str(bad)]) == 1
    err = capsys.readouterr().err
    assert repr(entry) in err and "2|G| = 16" in err


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


def test_closed_table_at_n8_equals_the_symfunc_table(tmp_path):
    # the closed engine reads its classical values off power-sum
    # coefficients, so it answers at n = 8, where |H_8| = 10,321,920 is past
    # the default element cap, with the symfunc engine's values
    g, t = paths("c1")
    for pi in ("triv", "iota"):
        tables = {}
        for engine in ("closed", "symfunc"):
            out = tmp_path / f"{pi}_{engine}.json"
            assert main(["spherical", "--group", g, "--table", t, "--xi", "chi1",
                         "--pi", pi, "--n", "8", "--engine", engine, "--format", "json",
                         "--out", str(out)]) == 0
            tables[engine] = json.loads(out.read_text())
            del tables[engine]["engines"]
        assert tables["closed"]["values"] and tables["closed"] == tables["symfunc"]


@pytest.mark.parametrize(
    "name,xi,pi,n,engines",
    [
        # 15 x 15 with a self-paired row of indicator -1
        ("q8", "chi1", "delta-iota", 2, ("brute",)),
        # split pairs and indicator -1 rows, every row a single block
        ("gl2f3", "chi2", "delta", 1, ("brute", "closed")),
    ],
)
def test_delta_type_goldens(tmp_path, name, xi, pi, n, engines):
    # the symfunc table byte for byte, and the other engines' values
    golden = GOLDEN / f"{name}_{xi}_{pi}_n{n}_spherical.json"
    g, t = paths(name)
    args = ["spherical", "--group", g, "--table", t, "--xi", xi, "--pi", pi,
            "--n", str(n), "--format", "json"]
    out = tmp_path / "symfunc.json"
    assert main(args + ["--engine", "symfunc", "--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()
    values = json.loads(golden.read_text())["values"]
    for engine in engines:
        out = tmp_path / f"{engine}.json"
        assert main(args + ["--engine", engine, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["values"] == values


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
        ("table", {"classes": [0, 1], "chars": [["1", "1"], ["1", "1/0"]]}),
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


def test_reconcile_script_sweeps_the_bundled_groups():
    proc = run_python(str(SCRIPTS / "run_reconcile.py"), "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all engines agree"
    assert "MISMATCH" not in proc.stdout


# SHA-256 of scripts/output_digest.py's symfunc tables, closed cells and
# classical values; a change that alters output on purpose updates it and
# says why in CHANGES.md, as for a golden file.
OUTPUT_DIGEST = "9c43223dd90b0ab09740c1987f15d904ba36ad7c0a556d39a6e383621560d558"


def test_output_digest_script_prints_the_pinned_digest():
    proc = run_python(str(SCRIPTS / "output_digest.py"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == OUTPUT_DIGEST + "\n"


def test_make_tables_script_writes_one_csv_per_configuration(tmp_path):
    # c1 at n <= 3: its one linear xi, chi1, with the four pi
    proc = run_python(str(SCRIPTS / "make_tables.py"), str(tmp_path), "c1")
    assert proc.returncode == 0, proc.stderr
    group, table = bundled("c1")
    expect = {
        f"c1_chi1_{pi}_n{n}.csv": build_table(SphericalContext(group, table, 0, pi, n)).to_csv()
        for pi in PI_NAMES
        for n in (1, 2, 3)
    }
    assert len(expect) == 12
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == expect


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


# Runs the command line in a child whose files may not grow past 4,096
# bytes (RLIMIT_FSIZE binds this one process); the table it writes is
# 9,306 bytes, so the write fails part way.
SIZE_LIMITED_MAIN = "\n".join([
    "import resource, sys",
    "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))",
    "from wreathsph.cli import main",
    "sys.exit(main(sys.argv[1:]))",
])


def size_limited_spherical(*extra):
    g, t = paths("q8")
    return run_python("-c", SIZE_LIMITED_MAIN, "spherical", "--group", g, "--table", t,
                      "--xi", "chi1", "--pi", "delta-iota", "--n", "2", "--format", "json",
                      "--engine", "symfunc", *extra)


@pytest.mark.parametrize("before", [None, b"the old table\n"])
def test_failed_out_write_keeps_the_target(tmp_path, before):
    target = tmp_path / "table.json"
    if before is not None:
        target.write_bytes(before)
    proc = size_limited_spherical("--out", str(target))
    assert proc.returncode == 1, proc.stderr
    assert "File too large" in proc.stderr
    if before is None:
        assert not target.exists()
    else:
        assert target.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_failed_cache_store_leaves_no_entry(tmp_path):
    cache = tmp_path / "cache"
    proc = size_limited_spherical("--cache-dir", str(cache))
    assert proc.returncode == 1, proc.stderr
    assert list(cache.iterdir()) == []


def test_out_writes_through_a_link_and_keeps_the_mode(tmp_path):
    g, t = paths("c2")
    target, link = tmp_path / "table.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    target.chmod(0o600)
    link.symlink_to(target)
    umask = os.umask(0o022)
    try:
        assert main(["nu2", "--group", g, "--table", t, "--out", str(link)]) == 0
        fresh = tmp_path / "fresh.csv"
        assert main(["nu2", "--group", g, "--table", t, "--out", str(fresh)]) == 0
    finally:
        os.umask(umask)
    assert link.is_symlink() and target.read_text().startswith("chi,")
    assert target.stat().st_mode & 0o777 == 0o600
    assert fresh.stat().st_mode & 0o777 == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "link.csv", "table.csv"]


def test_out_to_a_pipe_writes_into_it():
    g, t = paths("c2")
    proc = run_python("-m", "wreathsph", "nu2", "--group", g, "--table", t,
                      "--out", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("chi,")
