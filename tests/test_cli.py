import subprocess
import sys

import pytest

from dotgrammar import validate_dot
from scubasearch import deserialize, generate, save_landscape
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


class TestErrorHandling:
    def test_unknown_flag(self):
        assert run_cli("gen", "--n", "4", "--k", "1", "--q", "2", "--seed", "1",
                       "--frobnicate", "yes", "--out", "x") == 1

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
