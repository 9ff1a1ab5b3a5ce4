import contextlib
import io
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotgrammar import validate_dot
from scubasearch import (PROFILE_HEADER, NkqLandscape, deserialize, generate, heuristics,
                         save_landscape)
from scubasearch.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_writes_loadable_landscape(self, tmp_path):
        out = tmp_path / "land.txt"
        assert run_cli("gen", "--n", "8", "--k", "2", "--q", "3",
                       "--seed", "11", "--out", str(out)) == 0
        landscape = deserialize(out.read_text())
        assert (landscape.n, landscape.k, landscape.q, landscape.seed) == (8, 2, 3, 11)
        assert landscape == generate(8, 2, 3, seed=11)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["gen", "--n", "8", "--k", "3", "--q", "4", "--mode", "adjacent",
                "--seed", "5"]
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_module_entry_point_matches_in_process(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli("gen", "--n", "6", "--k", "1", "--q", "2", "--seed", "3",
                "--out", str(a))
        proc = subprocess.run(
            [sys.executable, "-m", "scubasearch", "gen", "--n", "6", "--k", "1",
             "--q", "2", "--seed", "3", "--out", str(b)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    def test_summary_is_deterministic(self, capsys):
        argv = ["run", "--heuristic", "ss", "--n", "8", "--k", "2", "--q", "2",
                "--seed", "7"]
        assert run_cli(*argv) == 0
        first = capsys.readouterr().out
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == first
        assert "fitness:" in first and "evaluations:" in first

    def test_trace_lines(self, capsys):
        assert run_cli("run", "--heuristic", "hc", "--n", "6", "--k", "1",
                       "--q", "2", "--seed", "3", "--trace") == 0
        out = capsys.readouterr().out
        assert "trace: 0 init" in out

    def test_runs_from_landscape_file(self, tmp_path, capsys):
        path = tmp_path / "land.txt"
        save_landscape(generate(8, 2, 3, seed=21), path)
        assert run_cli("run", "--heuristic", "nc", "--landscape", str(path),
                       "--seed", "4") == 0
        out = capsys.readouterr().out
        assert "steps: 300" in out

    def test_requires_params_or_file(self):
        assert run_cli("run", "--heuristic", "hc", "--seed", "1") == 1

    def test_landscape_conflicts_with_params(self, tmp_path):
        path = tmp_path / "land.txt"
        save_landscape(generate(6, 1, 2, seed=2), path)
        assert run_cli("run", "--heuristic", "hc", "--landscape", str(path),
                       "--n", "6", "--seed", "1") == 1


class TestSweep:
    def test_deterministic_files(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            recs = tmp_path / f"{name}-recs.csv"
            prof = tmp_path / f"{name}-prof.csv"
            steps = tmp_path / f"{name}-steps.csv"
            assert run_cli(
                "sweep", "--n", "10", "--k", "0,2", "--q", "2", "--heuristics",
                "nc,ss", "--runs", "4", "--instances", "2", "--seed", "9",
                "--out", str(out), "--records-out", str(recs),
                "--profile-out", str(prof), "--stepstats-out", str(steps),
            ) == 0
            outs.append((out.read_bytes(), recs.read_bytes(),
                         prof.read_bytes(), steps.read_bytes()))
        assert outs[0] == outs[1]

    def test_profile_counts_only_what_it_writes(self, tmp_path, monkeypatch):
        # The profile file holds nc's and ss's rows alone, so only their
        # batches count steps; a sweep of neither writes the header alone.
        counted = []
        search = heuristics._search

        def recording_search(group, heuristic, *args):
            counted.append((heuristic, args[-1] is not None))
            return search(group, heuristic, *args)

        monkeypatch.setattr(heuristics, "_search", recording_search)
        prof = tmp_path / "prof.csv"
        for names, want in (("hc,nc,hc2,ss", {"nc", "ss"}), ("hc,hc2", set())):
            counted.clear()
            assert run_cli(
                "sweep", "--n", "8", "--k", "1", "--q", "2", "--heuristics", names,
                "--runs", "2", "--instances", "1", "--seed", "3",
                "--out", str(tmp_path / "out.csv"), "--profile-out", str(prof),
            ) == 0
            assert {h for h, profiled in counted if profiled} == want
            header, *rows = prof.read_text().splitlines()
            assert header == PROFILE_HEADER
            assert {row.split(",")[0] for row in rows} == want

    def test_paper_grid_flags_accepted(self, tmp_path):
        # the full experimental grid parses; tiny budgets keep it quick
        out = tmp_path / "grid.csv"
        assert run_cli(
            "sweep", "--n", "16", "--k", "0,2,4,8,12", "--q", "2,3,4,100",
            "--heuristics", "hc,hc2,nc,ss", "--runs", "1", "--instances", "1",
            "--step-max", "20", "--seed", "42", "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4 * 5 * 4

    def test_bad_values(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert run_cli("sweep", "--n", "8", "--k", "9", "--q", "2",
                       "--seed", "1", "--out", out) == 1
        assert run_cli("sweep", "--n", "8", "--k", "1", "--q", "1",
                       "--seed", "1", "--out", out) == 1
        assert run_cli("sweep", "--n", "8", "--k", "1", "--q", "2",
                       "--heuristics", "hc,zz", "--seed", "1", "--out", out) == 1
        assert run_cli("sweep", "--n", "8", "--k", "x", "--q", "2",
                       "--seed", "1", "--out", out) == 1


class TestDegn:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["degn", "--n", "16", "--k", "0,2", "--q", "2,3", "--samples",
                "100", "--instances", "3", "--seed", "5"]
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "n,k,q,mode,instances,samples,mean_degn,se_degn"
        assert len(lines) == 1 + 4


class TestGraph:
    def test_valid_dot_and_census(self, tmp_path):
        dot_path = tmp_path / "g.dot"
        census_path = tmp_path / "c.csv"
        assert run_cli("graph", "--n", "5", "--k", "2", "--q", "2", "--mode",
                       "random", "--seed", "3", "--heuristic", "ss",
                       "--out", str(dot_path), "--census", str(census_path)) == 0
        validate_dot(dot_path.read_text())
        lines = census_path.read_text().splitlines()
        assert lines[0].startswith("n,k,q,mode,seed")
        assert lines[1].split(",")[5] == "32"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        argv = ["graph", "--n", "5", "--k", "2", "--q", "2", "--seed", "3",
                "--heuristic", "hc"]
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_from_landscape_file(self, tmp_path):
        path = tmp_path / "land.txt"
        save_landscape(generate(4, 1, 2, seed=8), path)
        out = tmp_path / "g.dot"
        assert run_cli("graph", "--landscape", str(path), "--heuristic", "nc",
                       "--seed", "1", "--out", str(out)) == 0
        validate_dot(out.read_text())

    def test_oversized_n_is_usage_error(self, tmp_path):
        assert run_cli("graph", "--n", "20", "--k", "2", "--q", "2",
                       "--seed", "1", "--heuristic", "hc",
                       "--out", str(tmp_path / "g.dot")) == 1

    def test_oversized_n_refused_before_seed_and_tables(self, tmp_path, capsys,
                                                        monkeypatch):
        def no_generate(*args, **kwargs):
            raise AssertionError("generated a landscape too large to enumerate")

        monkeypatch.setattr("scubasearch.cli.generate", no_generate)
        assert run_cli("graph", "--n", "13", "--k", "1", "--q", "2",
                       "--heuristic", "hc", "--out", str(tmp_path / "g.dot")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n=13" in err


class TestCornerInvocations:
    # Each command must exit 0 and write non-empty files.
    COMMANDS = [
        # int8, int16 and int64 tables and pair sums, a netcrawler budget past
        # one 512-proposal chunk, a two-word base seed, a profile.
        "sweep --n 10 --k 0,2 --q 2,300,8589934592 --runs 4 --instances 2 --seed 4294967297"
        " --step-max 600 --out sweep.csv --records-out records.csv --profile-out profile.csv",
        # A run whose seed must be one of the sweep's records.
        "run --heuristic ss --n 10 --k 2 --q 300 --seed 4294967297",
        # A landscape written to a file,
        "gen --n 10 --k 2 --q 3 --seed 1 --out landscape.txt",
        # and hc2 on it once loaded, scanned by its cached group.
        "run --heuristic hc2 --landscape landscape.txt --seed 1",
        # int8, int16 and int64 deltas, and 4000 samples past a scan block.
        "degn --n 10 --k 0,2 --q 2,300,8589934592 --samples 4000 --instances 2 --seed 1"
        " --out degn.csv",
        # scuba's moves over every genotype of an n = 8 landscape, and its census.
        "graph --heuristic ss --n 8 --k 2 --q 2 --seed 1 --out graph.dot --census census.csv",
    ]

    def test_commands_write_their_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        printed = []
        for command in self.COMMANDS:
            assert main(command.split()) == 0, command
            printed.append(capsys.readouterr().out)
        for name in ("sweep.csv", "records.csv", "profile.csv", "landscape.txt", "degn.csv",
                     "graph.dot", "census.csv"):
            assert (tmp_path / name).stat().st_size > 0, name
        run_seed, = [line.split(": ")[1] for line in printed[1].splitlines()
                     if line.startswith("run seed: ")]
        assert f",{run_seed}," in (tmp_path / "records.csv").read_text()


class TestErrorHandling:
    def test_unknown_flag(self):
        assert run_cli("gen", "--n", "4", "--k", "1", "--q", "2", "--seed", "1",
                       "--frobnicate", "yes", "--out", "x") == 1

    def test_stray_words_are_one_line(self, capsys):
        # argparse joins unrecognized words raw; main escapes what is not
        # printable, so a newline among them cannot split the diagnostic.
        assert run_cli("gen", "--n", "4", "--k", "1", "--q", "2", "--seed", "1",
                       "--out", "a", "x\ny") == 1
        err = capsys.readouterr().err
        assert err == "scubasearch: error: unrecognized arguments: x\\ny\n"

    def test_unknown_subcommand(self):
        assert run_cli("explode") == 1

    def test_missing_landscape_file(self):
        assert run_cli("run", "--heuristic", "hc", "--landscape",
                       "/no/such/file", "--seed", "1") == 2

    def test_malformed_landscape_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("format nkq-landscape-1\nn 2\nk 0\nq 2\nmode random\n"
                        "seed 1\n0 5 0\n1 0 1\n")
        assert run_cli("run", "--heuristic", "hc", "--landscape", str(path),
                       "--seed", "1") == 2
        assert "malformed" in capsys.readouterr().err

    def test_oversized_tables_are_usage_errors(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert run_cli("gen", "--n", "64", "--k", "63", "--q", "2", "--seed", "1",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "table entries" in err
        assert not out.exists()

    def test_oversized_landscape_header(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("format nkq-landscape-1\nn 70\nk 40\nq 2\nmode random\n"
                        "seed 1\n" + "".join(f"{i} 0\n" for i in range(70)))
        assert run_cli("run", "--heuristic", "hc", "--landscape", str(path),
                       "--seed", "1") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "malformed landscape file" in err

    def test_negative_landscape_seed(self, tmp_path, capsys):
        path = tmp_path / "neg.txt"
        path.write_text("format nkq-landscape-1\nn 2\nk 0\nq 2\nmode random\n"
                        "seed -1\n0 0 1\n1 1 0\n")
        assert run_cli("run", "--heuristic", "hc", "--landscape", str(path),
                       "--seed", "1") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "line 6: seed must be non-negative" in err

    def test_bad_step_max_before_seed(self, capsys):
        # Rejected before a seed is drawn and printed or a landscape is made.
        assert run_cli("run", "--heuristic", "nc", "--n", "8", "--k", "1",
                       "--q", "2", "--step-max", "0") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--step-max must be >= 1" in err

    @pytest.mark.parametrize("command", [
        ["run", "--heuristic", "nc", "--n", "8", "--k", "0", "--q", "2"],
        ["sweep", "--n", "8", "--k", "0", "--q", "2", "--heuristics", "nc"],
    ], ids=["run", "sweep"])
    def test_oversized_step_max(self, command, tmp_path, capsys):
        # 2**61 proposals fit in no memory: refused by the bound's name, in
        # one line, before a seed or a proposal is drawn or a file is written.
        out = tmp_path / "out.csv"
        argv = command + ["--step-max", str(2**61)]
        if command[0] == "sweep":
            argv += ["--out", str(out)]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "STEP_MAX_LIMIT" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--heuristic", "hc2", "--n", "100000", "--k", "0", "--q", "2"],
        ["sweep", "--n", "30000", "--k", "0", "--q", "2", "--heuristics", "hc2",
         "--runs", "1", "--instances", "1"],
    ], ids=["run", "sweep"])
    def test_oversized_hc2_pair_totals(self, command, tmp_path, capsys, monkeypatch):
        # hc2's (n, n) pair totals would take 74.5 or 6.7 GiB: refused in one
        # line, before a seed is drawn, a landscape made or a file written.
        def refuse(*args, **kwargs):
            raise AssertionError("landscape generated")

        monkeypatch.setattr(NkqLandscape, "generate", refuse)
        out = tmp_path / "out.csv"
        argv = command + (["--out", str(out)] if command[0] == "sweep" else [])
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "hc2 needs n*n" in err
        assert not out.exists()

    def test_oversized_hc2_landscape_file(self, tmp_path, capsys):
        # A loaded landscape is refused by the same check, before a seed is
        # drawn and printed.
        path = tmp_path / "wide.txt"
        n = 11586
        path.write_text(f"format nkq-landscape-1\nn {n}\nk 0\nq 2\nmode random\nseed 1\n"
                        + "".join(f"{i} 0 1\n" for i in range(n)))
        assert run_cli("run", "--heuristic", "hc2", "--landscape", str(path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "hc2 needs n*n = 11586*11586" in err

    @pytest.mark.parametrize("command", [
        ["degn", "--samples", str(heuristics.COUNT_LIMIT + 1), "--instances", "1"],
        ["degn", "--samples", "1", "--instances", str(heuristics.COUNT_LIMIT + 1)],
        ["sweep", "--heuristics", "hc", "--runs", str(heuristics.COUNT_LIMIT + 1),
         "--instances", "1"],
        ["degn", "--samples", "1024", "--instances", "1024", "--k", "0,2"],
        ["sweep", "--heuristics", "hc,ss", "--runs", str(heuristics.COUNT_LIMIT // 4),
         "--instances", "1", "--q", "2,3,4"],
    ], ids=["degn-samples", "degn-instances", "sweep-runs", "degn-product", "sweep-product"])
    def test_oversized_count_is_refused(self, command, tmp_path, capsys, monkeypatch):
        # Work above COUNT_LIMIT, one count or the product of counts within
        # it and the cells, would loop for days or fill memory: refused by
        # the bound's name, in one line, before a seed is drawn (none is
        # given, so a drawn one would print), a landscape made or a file
        # written.
        def refuse(*args, **kwargs):
            raise AssertionError("landscape generated")

        monkeypatch.setattr(NkqLandscape, "generate", refuse)
        out = tmp_path / "out.csv"
        # A grid flag the command gives again overrides this default one.
        argv = [command[0], "--n", "8", "--k", "0", "--q", "2", *command[1:]]
        assert run_cli(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "COUNT_LIMIT" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["sweep", "--heuristics", "hc", "--runs", str(10**15), "--instances", "1"],
        ["degn", "--samples", "1", "--instances", str(10**15)],
    ], ids=["sweep-runs", "degn-instances"])
    def test_unallocatable_size_is_one_line(self, command, tmp_path, capsys, monkeypatch):
        # With COUNT_LIMIT lifted, 10**15 records or means need petabytes, so
        # the allocation fails at once: one diagnostic line and exit 2, no
        # traceback and no output.
        monkeypatch.setattr(heuristics, "COUNT_LIMIT", 10**16)
        out = tmp_path / "out.csv"
        argv = command + ["--n", "8", "--k", "0", "--q", "2", "--seed", "1", "--out", str(out)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "out of memory" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_interrupt_is_one_line(self, tmp_path, capsys, monkeypatch):
        # Ctrl-C during a command ends it with exit 2 and one line, no
        # traceback.
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("scubasearch.cli._cmd_sweep", interrupted)
        assert run_cli("sweep", "--n", "8", "--k", "0", "--q", "2", "--seed", "1",
                       "--out", str(tmp_path / "out.csv")) == 2
        assert capsys.readouterr().err == "scubasearch: error: interrupted\n"

    @pytest.mark.parametrize("grid", [["--k", "", "--q", "2"], ["--k", "0", "--q", ","]],
                             ids=["k", "q"])
    def test_degn_refuses_empty_grid(self, grid, tmp_path, capsys):
        # Refused like an empty sweep grid, before a seed is drawn and printed.
        out = tmp_path / "out.csv"
        assert run_cli("degn", "--n", "8", *grid, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be non-empty" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["sweep", "--heuristics", "hc", "--runs", "3", "--instances", "1"],
        ["degn", "--samples", "10", "--instances", "1"],
    ], ids=["sweep", "degn"])
    @pytest.mark.parametrize("grid,name", [
        (["--k", "2,2", "--q", "2"], "k_values"),
        (["--k", "0,2", "--q", "3,2,3"], "q_values"),
    ], ids=["k", "q"])
    def test_refuses_repeated_grid_value(self, command, grid, name, tmp_path, capsys):
        # A repeated value used to run or sample its cells twice and write
        # each twice; it is refused before a seed is drawn and printed.
        out = tmp_path / "out.csv"
        argv = command + ["--n", "8", *grid, "--out", str(out)]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err == f"scubasearch: error: {name} must not repeat\n"
        assert not out.exists()

    def test_unwritable_output(self):
        assert run_cli("gen", "--n", "4", "--k", "1", "--q", "2", "--seed", "1",
                       "--out", "/no/such/dir/file.txt") == 2

    def test_negative_seed(self, tmp_path):
        assert run_cli("gen", "--n", "4", "--k", "1", "--q", "2", "--seed",
                       "-3", "--out", str(tmp_path / "x.txt")) == 1

    def test_entropy_seed_printed(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert run_cli("gen", "--n", "4", "--k", "1", "--q", "2",
                       "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert "system entropy" in err and "--seed" in err

    @pytest.mark.parametrize("sub", ["gen", "run", "sweep", "degn", "graph"])
    def test_help_exits_zero(self, sub, capsys):
        assert run_cli(sub, "--help") == 0
        out = capsys.readouterr().out
        assert "--seed" in out

    def test_help_documents_file_formats(self, capsys):
        run_cli("gen", "--help")
        assert "key value" in capsys.readouterr().out
        run_cli("sweep", "--help")
        assert "mean_fitness" in capsys.readouterr().out


class TestRefusalsBeforeSeed:
    """Without --seed, a refusal writes its one diagnostic line and no drawn
    seed line."""

    @pytest.mark.parametrize("argv, code", [
        (["run", "--heuristic", "hc", "--n", "4", "--k", "9", "--q", "2"], 1),
        (["run", "--heuristic", "hc", "--landscape", "/no/such/file"], 2),
        (["gen", "--n", "4", "--k", "1", "--q", "2", "--out", "a\x00b"], 1),
        (["degn", "--n", "4", "--k", "1", "--q", "2", "--out", "a\x00b"], 1),
        (["run", "--heuristic", "hc", "--landscape", "a\x00b"], 1),
        (["gen", "--n", "4", "--k", "1", "--q", "2", "--out", "\ud800"], 1),
    ], ids=["run-params", "run-missing-file", "gen-nul-path", "degn-nul-path",
            "run-nul-path", "gen-unencodable-path"])
    def test_one_line(self, argv, code, capsys):
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("scubasearch: error: ")

    def test_graph_of_oversized_landscape_file(self, tmp_path, capsys):
        # The graph's node bound holds on a loaded file's n too.
        path = tmp_path / "wide.txt"
        path.write_text("format nkq-landscape-1\nn 13\nk 0\nq 2\nmode random\nseed 1\n"
                        + "".join(f"{i} 0 1\n" for i in range(13)))
        out = tmp_path / "g.dot"
        assert run_cli("graph", "--heuristic", "hc", "--landscape", str(path),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n=13 would enumerate" in err
        assert not out.exists()


# Each flag's good values, then its hostile ones: refused, huge, float or
# empty, holding a newline or a lone surrogate, or a path kind that is
# missing, a directory, holds a NUL byte, a newline or a lone surrogate. n
# and the counts are large only where they are refused, so a valid argv runs
# in milliseconds.
_N = ([*map(str, range(1, 9))], ["-1", "0", "13", str(2**40), "4.0", ""])
_K = (["0", "1", "2"], ["7", "-1", str(2**40), "0.5", ""])
_Q = (["2", "3", "100", str(2**40)], ["1", "-3", "2.5", ""])
_K_LIST = (["0", "1", "0,2"], [*_K[1], "1,1", ",", "0,x"])
_Q_LIST = (["2", "3", "2,100"], [*_Q[1], "3,3", ",", "2,2.5"])
_COUNT = (["1", "2", "3"], ["0", "-1", str(2**40), "1.5", ""])
_STEP_MAX = (["1", "5"], ["0", "-1", str(2**61), "5.0", ""])
_SEED = (["0", "7", str(2**64)], ["-1", "1e3", "", "7\n"])
_MODE = (["random", "adjacent"], ["bogus", "", "random\n", "\ud800"])
_HEURISTIC = (list(heuristics.HEURISTICS), ["zz", ""])
_HEURISTICS = (["hc", "nc,ss", "hc,nc,hc2,ss"], ["hc,hc", "hc,zz", ""])
_OUT = (["file"], ["missing", "dir", "nul", "newline", "surrogate"])
_LANDSCAPE = (["landscape"], ["malformed", *_OUT[1]])
_SWITCH = ([None], [])
_PARAMS = {"--n": _N, "--k": _K, "--q": _Q}
_GRID = {"--n": _N, "--k": _K_LIST, "--q": _Q_LIST}
# Per subcommand, the flags it is always given (--runs and --instances to keep
# a sweep small) and its optional ones.
_COMMANDS = {
    "gen": ({**_PARAMS, "--out": _OUT}, {"--mode": _MODE, "--seed": _SEED}),
    "run": ({"--heuristic": _HEURISTIC, **_PARAMS},
            {"--mode": _MODE, "--step-max": _STEP_MAX, "--trace": _SWITCH, "--seed": _SEED}),
    "sweep": ({**_GRID, "--runs": _COUNT, "--instances": _COUNT, "--out": _OUT},
              {"--mode": _MODE, "--heuristics": _HEURISTICS, "--step-max": _STEP_MAX,
               "--seed": _SEED, "--records-out": _OUT, "--profile-out": _OUT,
               "--stepstats-out": _OUT}),
    "degn": ({**_GRID, "--out": _OUT},
             {"--mode": _MODE, "--samples": _COUNT, "--instances": _COUNT, "--seed": _SEED}),
    "graph": ({"--heuristic": _HEURISTIC, **_PARAMS, "--out": _OUT},
              {"--mode": _MODE, "--seed": _SEED, "--census": _OUT}),
}


@st.composite
def _argv(draw):
    """A subcommand (or an unknown one, or none) and its flags: required ones
    given once, optional ones once or not, with good values, except for up
    to two faulted flags, which are dropped, given once or repeated, with any
    values; ``run`` and ``graph`` may load a landscape instead of generating
    one. Paths are kinds that :func:`_paths` resolves."""
    command = draw(st.sampled_from([*_COMMANDS, "explode", None]))
    required, optional = _COMMANDS.get(command, ({}, {}))
    if command in ("run", "graph") and draw(st.booleans()):
        required = {**{f: v for f, v in required.items() if f not in _PARAMS},
                    "--landscape": _LANDSCAPE}
    flags = {**required, **optional}
    # Path flags are faulted three times as often, so that runtime failures
    # (exit 2) are drawn as well as refusals.
    pool = [f for f in sorted(flags) for _ in range(3 if flags[f] in (_OUT, _LANDSCAPE) else 1)]
    faults = draw(st.sets(st.sampled_from(pool), max_size=2)) if flags else set()
    argv = [] if command is None else [command]
    for flag, (good, bad) in flags.items():
        if flag in faults:
            times, values = draw(st.sampled_from([0, 1, 2])), good + bad
        else:
            times, values = 1 if flag in required else draw(st.sampled_from([0, 1])), good
        for _ in range(times):
            value = draw(st.sampled_from(values))
            argv += [flag] if value is None else [flag, value]
    return argv + draw(st.sampled_from([[], [], [], ["--frobnicate"], ["stray"], ["x\ny"],
                                        ["\ud800"]]))


def _paths(argv, root):
    """``argv`` with each path kind made a path under ``root``: a landscape
    file, a malformed one, a writable file, one in a missing directory, a
    directory or a path holding a NUL byte, a newline or a lone surrogate."""
    save_landscape(generate(6, 1, 2, seed=4), os.path.join(root, "landscape.txt"))
    with open(os.path.join(root, "malformed.txt"), "w") as fh:
        fh.write("format nkq-landscape-1\nn 2\n")
    kinds = {"landscape": "landscape.txt", "malformed": "malformed.txt", "file": "out",
             "missing": "missing/out", "dir": ".", "nul": "a\x00b", "newline": "a\nb",
             "surrogate": "a\ud800b"}
    return [os.path.join(root, kinds[a]) if a in kinds else a for a in argv]


class TestExitContract:
    @settings(max_examples=300)
    @given(_argv())
    def test_fuzzed_argv(self, argv):
        # Exit 0, 1 or 2 and never an exception. A refusal (exit 1) is one
        # line, before any seed is drawn; a runtime failure (exit 2) is one
        # line, after at most the drawn seed's line.
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as root:
            argv = _paths(argv, root)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        lines = err.getvalue().splitlines()
        seeds = [line for line in lines if "(drawn from system entropy" in line]
        assert code in (0, 1, 2)
        if code == 0:
            assert lines == seeds and len(seeds) <= 1
        elif code == 1:
            assert len(lines) == 1 and not seeds
            assert lines[0].startswith("scubasearch: error: ")
        else:
            assert lines[-1].startswith("scubasearch: error: ")
            assert lines[:-1] == seeds and len(seeds) <= 1
