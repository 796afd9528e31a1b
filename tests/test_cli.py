"""Unit tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro import persist
from repro.cli import main
from repro.engine import FDB
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.relational.csvio import dump_database
from repro.workloads import grocery_database


@pytest.fixture
def csv_dir(tmp_path):
    paths = dump_database(grocery_database(), str(tmp_path))
    return {os.path.basename(p).split(".")[0]: p for p in paths}


def test_query_command(csv_dir, capsys):
    code = main(
        [
            "query",
            "SELECT * FROM Orders, Store WHERE o_item = s_item",
            "--csv",
            csv_dir["Orders"],
            csv_dir["Store"],
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "f-tree:" in out
    assert "singletons" in out
    assert "s(T) =" in out


def test_query_flat_output_with_limit(csv_dir, capsys):
    code = main(
        [
            "query",
            "SELECT * FROM Orders",
            "--csv",
            csv_dir["Orders"],
            "--flat",
            "--limit",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "..." in out  # truncated at limit 2 of 5 rows


def test_query_greedy_planner(csv_dir, capsys):
    """``--planner`` picks the f-plan search, so only ``explain`` (the
    one command that plans an f-plan) takes it, and it prints the plan
    ``FDB(plan_search="greedy")`` chooses -- here not the exhaustive
    one."""
    sql = (
        "SELECT * FROM Store, Disp, Serve "
        "WHERE s_location = d_location AND d_location = v_location"
    )
    query = parse_query(sql)
    pairs = [(eq.left, eq.right) for eq in query.equalities]

    def steps(plan_search):
        fdb = FDB(grocery_database(), plan_search=plan_search)
        base = Query.make(query.relations)
        tree = fdb.factorise_query(base, fdb.optimal_tree(base)).tree
        return [str(step) for step in fdb.plan_for(tree, pairs).steps]

    paths = [csv_dir[name] for name in ("Store", "Disp", "Serve")]
    code = main(["explain", sql, "--csv", *paths, "--planner", "greedy"])
    assert code == 0
    out = capsys.readouterr().out
    printed = [
        line.split("] ", 1)[1]
        for line in out.splitlines()
        if line.startswith("  [")
    ]
    assert printed == steps("greedy") != steps("exhaustive")
    for command in (["query", sql], ["batch", "--sql", sql], ["serve"]):
        argv = command + ["--csv", *paths, "--planner", "greedy"]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_compile_and_stats_round_trip(csv_dir, tmp_path, capsys):
    out_path = str(tmp_path / "compiled.fdbp")
    code = main(
        [
            "compile",
            "SELECT * FROM Produce, Serve "
            "WHERE p_supplier = v_supplier",
            "--csv",
            csv_dir["Produce"],
            csv_dir["Serve"],
            "-o",
            out_path,
        ]
    )
    assert code == 0
    assert os.path.exists(out_path)
    assert persist.inspect(out_path)["kind"] == "offset-arena"

    code = main(["stats", out_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "6 tuples, 15 singletons" in out


def test_stats_refuses_files_that_hold_no_factorisation(csv_dir, tmp_path):
    db_path = str(tmp_path / "db.fdbp")
    assert main(["save", "--csv", csv_dir["Orders"], "-o", db_path]) == 0
    with pytest.raises(SystemExit, match="not a factorisation"):
        main(["stats", db_path])
    with pytest.raises(SystemExit, match="cannot load"):
        main(["stats", str(tmp_path / "missing.fdbp")])


def test_the_arena_flags_are_gone(csv_dir, capsys):
    """``--arena`` / ``--encoding`` selected between two encodings;
    with one left they are argparse errors, not silently accepted."""
    for argv in (
        ["batch", "--arena", "--csv", csv_dir["Orders"], "--sql", "x"],
        ["query", "SELECT oid FROM Orders", "--arena"],
        ["serve", "--csv", csv_dir["Orders"], "--encoding", "arena"],
    ):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_experiment_command(capsys):
    code = main(
        [
            "experiment",
            "1",
            "--relations",
            "2",
            "--equalities",
            "1",
            "--repeats",
            "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "opt time" in out


def test_experiment_3_command(capsys):
    code = main(
        [
            "experiment",
            "3",
            "--sizes",
            "200",
            "--equalities",
            "2",
            "--timeout",
            "10",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "FDB size" in out


def test_batch_command(csv_dir, capsys):
    code = main(
        [
            "batch",
            "--csv",
            csv_dir["Orders"],
            csv_dir["Store"],
            "--sql",
            "SELECT * FROM Orders, Store WHERE o_item = s_item",
            "SELECT * FROM Store, Orders WHERE s_item = o_item",
            "--repeat",
            "2",
            "--verbose",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "4 queries in" in out
    assert "1 compiled" in out
    assert "3 batch-deduplicated" in out
    assert "dedup" in out  # verbose per-query lines


def test_batch_command_from_file(csv_dir, tmp_path, capsys):
    queries = tmp_path / "workload.sql"
    queries.write_text(
        "# repeated traffic\n"
        "SELECT * FROM Orders, Store WHERE o_item = s_item;\n"
        "\n"
        "SELECT oid FROM Orders;\n"
    )
    code = main(
        [
            "batch",
            str(queries),
            "--csv",
            csv_dir["Orders"],
            csv_dir["Store"],
            "--engine",
            "flat",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 queries in" in out


def test_batch_sharded_parallel_matches_serial(csv_dir, capsys):
    args = [
        "batch",
        "--csv",
        csv_dir["Orders"],
        csv_dir["Store"],
        "--sql",
        "SELECT * FROM Orders, Store WHERE o_item = s_item",
        "SELECT oid FROM Orders",
        "--verbose",
    ]
    assert main(args) == 0
    serial_out = capsys.readouterr().out

    assert (
        main(
            args
            + ["--shards", "2", "--workers", "2", "--cache-size", "4"]
        )
        == 0
    )
    sharded_out = capsys.readouterr().out
    assert "2 shards (hash)" in sharded_out
    assert "parallel" in sharded_out

    def tuple_counts(text):
        return [
            line.split("tuples")[0].split()[-1]
            for line in text.splitlines()
            if "tuples" in line
        ]

    assert tuple_counts(sharded_out) == tuple_counts(serial_out)


def test_batch_cache_size_reports_evictions(csv_dir, capsys):
    code = main(
        [
            "batch",
            "--csv",
            csv_dir["Orders"],
            csv_dir["Store"],
            "--sql",
            "SELECT * FROM Orders",
            "SELECT * FROM Store",
            "SELECT oid FROM Orders",
            "--cache-size",
            "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 evicted" in out


def test_save_load_round_trip_commands(csv_dir, tmp_path, capsys):
    db_path = str(tmp_path / "db.fdbp")
    code = main(
        [
            "save",
            "--csv",
            csv_dir["Orders"],
            csv_dir["Store"],
            "-o",
            db_path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "saved 2 relations" in out
    assert "FDBP format" in out

    code = main(
        [
            "load",
            db_path,
            "--sql",
            "SELECT * FROM Orders, Store WHERE o_item = s_item",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "kind: database" in out
    assert "Orders(oid, o_item)" in out
    assert "9 tuples" in out


def test_save_sharded_and_batch_from_saved(csv_dir, tmp_path, capsys):
    db_path = str(tmp_path / "sharded.fdbp")
    assert (
        main(
            [
                "save",
                "--csv",
                csv_dir["Orders"],
                csv_dir["Store"],
                "-o",
                db_path,
                "--shards",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "2 shards (hash)" in out

    code = main(
        [
            "batch",
            "--db",
            db_path,
            "--sql",
            "SELECT * FROM Orders, Store WHERE o_item = s_item",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1 queries in" in out
    assert "2 shards (hash)" in out  # saved layout survives the trip


def test_batch_plan_store_reports_cross_run_hits(
    csv_dir, tmp_path, capsys
):
    store_dir = str(tmp_path / "plans")
    args = [
        "batch",
        "--csv",
        csv_dir["Orders"],
        csv_dir["Store"],
        "--sql",
        "SELECT * FROM Orders, Store WHERE o_item = s_item",
        "--plan-store",
        store_dir,
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "plan store: 0 hits, 1 misses, 1 written" in first

    # Second invocation builds everything afresh (new session, new
    # store handle) and must serve the plan from disk.
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "plan store: 1 hits, 0 misses" in second
    assert "0 compiled, 1 cache hits" in second


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "garbage.fdbp"
    bad.write_bytes(b"this is not an FDBP file")
    with pytest.raises(SystemExit):
        main(["load", str(bad)])


def test_load_rejects_missing_path(tmp_path):
    with pytest.raises(SystemExit):
        main(["load", str(tmp_path / "missing.fdbp")])


@pytest.fixture
def no_socket(monkeypatch):
    """A ``serve`` that got past its checks fails instead of serving."""
    from repro.net.server import QueryServer

    async def refuse(self):
        raise AssertionError("serve opened a socket")

    monkeypatch.setattr(QueryServer, "start", refuse)


def _local_argv(command, *options):
    """``batch`` (with one query) or ``serve`` over ``options``."""
    argv = [command, *options]
    if command == "batch":
        argv += ["--sql", "SELECT oid FROM Orders"]
    return argv


@pytest.mark.parametrize("command", ["batch", "serve"])
def test_batch_rejects_conflicting_shard_layout(
    command, csv_dir, tmp_path, capsys, no_socket
):
    """``batch`` and ``serve`` build their session through one helper:
    both refuse a ``--shards`` that contradicts a saved layout, and
    ``serve`` does so before it opens a socket."""
    db_path = str(tmp_path / "sharded.fdbp")
    assert (
        main(
            [
                "save",
                "--csv",
                csv_dir["Orders"],
                "-o",
                db_path,
                "--shards",
                "2",
            ]
        )
        == 0
    )
    capsys.readouterr()
    with pytest.raises(SystemExit, match="conflicts with the saved"):
        main(_local_argv(command, "--db", db_path, "--shards", "4"))


def test_batch_without_queries_fails(csv_dir):
    with pytest.raises(SystemExit):
        main(["batch", "--csv", csv_dir["Orders"]])


@pytest.mark.parametrize(
    "command,flag",
    [
        pytest.param(command, flag, id=f"{prefix}{flag}-0")
        for command, prefix in (("batch", ""), ("serve", "serve-"))
        for flag in ("--shards", "--workers", "--cache-size")
    ],
)
def test_batch_rejects_invalid_layout_values(
    command, flag, csv_dir, no_socket
):
    with pytest.raises(SystemExit, match=f"{flag} must be >= 1"):
        main(_local_argv(command, "--csv", csv_dir["Orders"], flag, "0"))


def test_python_dash_m_repro_smoke():
    """``python -m repro`` must resolve to the CLI (src/repro/__main__)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "factorised databases" in proc.stdout
    assert "batch" in proc.stdout


def test_missing_csv_fails():
    with pytest.raises(SystemExit):
        main(["query", "SELECT * FROM R"])


def test_shell_command(csv_dir, capsys, monkeypatch):
    lines = iter(
        ["SELECT oid FROM Orders", "not sql", "\\q"]
    )
    monkeypatch.setattr(
        "builtins.input", lambda prompt="": next(lines)
    )
    code = main(["shell", "--csv", csv_dir["Orders"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "loaded: Orders" in out
    assert "error:" in out  # the bad query was reported, loop kept
