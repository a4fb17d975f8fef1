import errno
import os
import re
import select
import signal
import subprocess
import sys
import textwrap

import pytest

import knightcycles
from knightcycles.analysis import write_cycles
from knightcycles import analysis, cli
from knightcycles.cli import main, _default_jobs
from conftest import MINIMAL_K8_W5


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_output_shape(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--length", "6")
        assert code == 0
        assert re.fullmatch(r"k=6 total=25 elapsed=\d+\.\d\d\n", out)

    def test_simple_included_when_requested(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--length", "6", "--simple-only")
        assert code == 0
        assert re.fullmatch(r"k=6 total=25 simple=13 elapsed=\d+\.\d\d\n", out)

    def test_mitm_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--length", "8",
                               "--algorithm", "mitm")
        assert code == 0
        assert "total=480" in out

    def test_odd_length_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "--length", "7")
        assert code == 2
        assert "even" in err


class TestListAndCheck:
    def test_list_then_check(self, tmp_path, capsys):
        out_file = tmp_path / "k6.cycles"
        code, out, _ = run_cli(capsys, "list", "--length", "6",
                               "--out", str(out_file))
        assert code == 0
        assert "wrote 25 cycles" in out
        code, out, _ = run_cli(capsys, "check", "--in", str(out_file))
        assert code == 0
        assert "OK, 25 cycles" in out

    def test_list_simple_only(self, tmp_path, capsys):
        out_file = tmp_path / "k6-simple.cycles"
        code, out, _ = run_cli(capsys, "list", "--length", "6", "--simple-only",
                               "--out", str(out_file))
        assert code == 0
        assert "wrote 13 cycles" in out
        header = out_file.read_text().splitlines()[0]
        assert "count=13" in header
        assert "filter=simple" in header
        assert run_cli(capsys, "check", "--in", str(out_file))[0] == 0

    def test_list_with_jobs_is_identical(self, tmp_path, capsys):
        one = tmp_path / "j1.cycles"
        two = tmp_path / "j2.cycles"
        assert run_cli(capsys, "list", "--length", "6", "--out", str(one),
                       "--jobs", "1")[0] == 0
        assert run_cli(capsys, "list", "--length", "6", "--out", str(two),
                       "--jobs", "2", "--algorithm", "mitm")[0] == 0
        assert one.read_bytes() == two.read_bytes()

    def test_list_into_directory_names_the_real_error(self, tmp_path, capsys):
        target = tmp_path / "D"
        target.mkdir()
        code, _, err = run_cli(capsys, "list", "--length", "6", "--out", str(target))
        assert code == 2
        assert os.strerror(errno.EISDIR) in err
        assert ".knightcycles-body-" not in err
        assert not list(tmp_path.rglob(".knightcycles-*"))

    def test_list_refuses_a_length_the_reader_refuses(self, tmp_path, capsys,
                                                       monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumerated a length with no listing format")

        monkeypatch.setattr(cli, "enumerate_cycles", never)
        out_file = tmp_path / "k18.cycles"
        code, _, err = run_cli(capsys, "list", "--length", "18", "--out", str(out_file))
        assert code == 2
        assert "k=18" in err
        assert list(tmp_path.iterdir()) == []

    def test_check_flags_corruption(self, tmp_path, capsys):
        out_file = tmp_path / "k4.cycles"
        run_cli(capsys, "list", "--length", "4", "--out", str(out_file))
        lines = out_file.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]  # break the ordering
        out_file.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "check", "--in", str(out_file))
        assert code == 1
        assert "ascending" in err

    def test_check_flags_noncanonical_line(self, tmp_path, capsys):
        out_file = tmp_path / "k8.cycles"
        run_cli(capsys, "list", "--length", "8", "--out", str(out_file))
        text = out_file.read_text().splitlines()
        # a rotated start is the same cycle but not the canonical sequence
        first = text[1].split()
        rotated = " ".join(first[1:] + first[:1])
        body = sorted(text[1:] + [rotated], key=lambda s: [int(x) for x in s.split()])
        header = text[0].split()
        header[4] = f"count={len(body)}"
        out_file.write_text("\n".join([" ".join(header)] + body) + "\n")
        code, _, err = run_cli(capsys, "check", "--in", str(out_file))
        assert code == 1
        assert "canonical" in err

    def test_check_tests_the_simple_claim(self, tmp_path, capsys):
        """A filter=simple listing must hold only simple cycles: a canonical
        but self-intersecting one fails check, and a real --simple-only
        listing still passes."""
        crossed = (1, 10, 5, 18, 3, 16)
        out_file = tmp_path / "k6-crossed.cycles"
        write_cycles([crossed], out_file, filter_tag="simple")
        code, _, err = run_cli(capsys, "check", "--in", str(out_file))
        assert code == 1
        assert "not simple at cycle 1: 1,10,5,18,3,16" in err
        write_cycles([crossed], out_file, filter_tag="all")
        assert run_cli(capsys, "check", "--in", str(out_file))[0] == 0
        out_file = tmp_path / "k8-simple.cycles"
        assert run_cli(capsys, "list", "--length", "8", "--simple-only",
                       "--out", str(out_file))[0] == 0
        code, out, _ = run_cli(capsys, "check", "--in", str(out_file))
        assert code == 0
        assert "filter=simple" in out

    def test_check_rejects_a_header_board_off_standard(self, tmp_path, capsys):
        """A header naming any board but (k+1) x (k+1) fails on line 1,
        before check builds a table for that board."""
        out_file = tmp_path / "k12-big.cycles"
        out_file.write_text(
            "KNIGHT-CYCLES v1 k=12 board=40x40 count=0 filter=simple\n")
        code, _, err = run_cli(capsys, "check", "--in", str(out_file))
        assert code == 1
        assert "line 1: bad header" in err
        assert "(k+1)x(k+1) board" in err

    def test_check_names_an_undecodable_byte(self, tmp_path, capsys):
        """A byte outside ASCII is a malformed line: exit 1 with the file
        and line, not a decode error reported as a usage error."""
        out_file = tmp_path / "k4.cycles"
        write_cycles([(1, 8, 19, 12), (2, 9, 18, 11)], out_file)
        out_file.write_bytes(out_file.read_bytes().replace(b"8 19", b"8 \xff19"))
        code, _, err = run_cli(capsys, "check", "--in", str(out_file))
        assert code == 1
        assert err.startswith(f"{out_file}: line 2: malformed line")

    def test_check_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "--in", "/nonexistent.cycles")
        assert code == 1


class TestVerify:
    def test_passes_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-length", "6",
                               "--algorithm", "both")
        assert code == 0
        assert out.count("PASS") == 4
        assert "all counts match" in out

    def test_mismatch_fails_with_the_row_and_the_reason(self, capsys,
                                                        monkeypatch):
        monkeypatch.setitem(analysis.EXPECTED_COUNTS, 6, (26, 13))
        code, out, err = run_cli(capsys, "verify", "--max-length", "6",
                                 "--algorithm", "dfs")
        assert code == 1
        rows = out.splitlines()
        assert len(rows) == 2
        assert rows[0].startswith("k=4   dfs  total=3 (expect 3)")
        assert rows[0].endswith("PASS")
        assert rows[1].startswith("k=6   dfs  total=25 (expect 26)")
        assert rows[1].endswith("FAIL")
        assert err == "MISMATCH: k=6 dfs: expected 26 classes, got 25\n"

    def test_each_row_is_printed_before_the_next_enumeration(self, capsys,
                                                             monkeypatch):
        chunks = []  # stdout written since the previous enumeration began
        enumerate_cycles = analysis.enumerate_cycles

        def recording(*args, **kwargs):
            chunks.append(capsys.readouterr().out)
            return enumerate_cycles(*args, **kwargs)

        monkeypatch.setattr(analysis, "enumerate_cycles", recording)
        code, out, _ = run_cli(capsys, "verify", "--max-length", "8")
        assert code == 0
        assert [chunk.count("PASS") for chunk in chunks] == [0, 1, 1, 1, 1, 1]
        assert out.count("PASS") == 1
        assert out.endswith("all counts match\n")

    def test_rows_reach_a_pipe_as_they_are_printed(self, tmp_path):
        """With stdout on a pipe and PYTHONUNBUFFERED unset, the k=4 row
        arrives while the k=6 enumeration still waits for a flag file the
        test creates only after reading that row."""
        flag = tmp_path / "go"
        script = textwrap.dedent("""
            import os, sys, time
            from knightcycles import analysis, cli

            flag = sys.argv[1]
            enumerate_cycles = analysis.enumerate_cycles

            def gated(k, *args, **kwargs):
                deadline = time.monotonic() + 60
                while k == 6 and not os.path.exists(flag):
                    if time.monotonic() > deadline:
                        sys.exit("no flag file within 60 s")
                    time.sleep(0.01)
                return enumerate_cycles(k, *args, **kwargs)

            analysis.enumerate_cycles = gated
            sys.exit(cli.main(["verify", "--max-length", "8",
                               "--algorithm", "dfs"]))
            """)
        src = os.path.dirname(os.path.dirname(knightcycles.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen([sys.executable, "-c", script, str(flag)],
                                env=env, start_new_session=True, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            first = proc.stdout.readline() if ready else ""
            flag.touch()
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("child still running after 60 s")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            rest = proc.stdout.read()
            err = proc.stderr.read()
            proc.stdout.close()
            proc.stderr.close()
        assert first.startswith("k=4   dfs  total=3 (expect 3)"), (first, err)
        assert code == 0, err
        assert rest.count("PASS") == 2
        assert rest.endswith("all counts match\n")


class TestTwins:
    def test_length8_block_output(self, capsys):
        code, out, _ = run_cli(capsys, "twins", "--length", "8")
        assert code == 0
        assert "1 twin groups among 480 cycles" in out
        blocks = [b for b in out.split("\n\n") if b.startswith("cells ")]
        assert len(blocks) == 1
        assert blocks[0].count("\n") == 3  # key line + three members

    def test_length6_empty(self, capsys, tmp_path):
        out_file = tmp_path / "twins6.txt"
        code, out, _ = run_cli(capsys, "twins", "--length", "6",
                               "--out", str(out_file))
        assert code == 0
        assert "0 twin groups among 25 cycles" in out_file.read_text()

    @pytest.mark.parametrize("where, error", [
        ("", f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"),
        ("missing/twins.txt", f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"),
    ])
    def test_unusable_out_is_refused_before_enumerating(
            self, where, error, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumerated for an unusable --out")

        monkeypatch.setattr(cli, "enumerate_cycles", never)
        out_file = os.path.join(tmp_path, where)
        code, out, err = run_cli(capsys, "twins", "--length", "10",
                                 "--out", out_file)
        assert code == 2
        assert out == ""
        assert err == f"error: {error}: {out_file!r}\n"

    def test_failed_run_leaves_an_earlier_report_intact(
            self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("enumeration failed")

        monkeypatch.setattr(cli, "enumerate_cycles", failing)
        out_file = tmp_path / "twins.txt"
        out_file.write_text("earlier report\n")
        code, _, err = run_cli(capsys, "twins", "--length", "10",
                               "--out", str(out_file))
        assert (code, err) == (2, "error: enumeration failed\n")
        assert out_file.read_text() == "earlier report\n"


class TestRender:
    def test_ascii_to_stdout(self, capsys):
        seq = ",".join(map(str, MINIMAL_K8_W5))
        code, out, _ = run_cli(capsys, "render", "--seq", seq, "--width", "5",
                               "--format", "ascii")
        assert code == 0
        assert out.splitlines()[0] == ". 1 . . ."

    def test_svg_to_file(self, tmp_path, capsys):
        seq = ",".join(map(str, MINIMAL_K8_W5))
        out_file = tmp_path / "cycle.svg"
        code, _, _ = run_cli(capsys, "render", "--seq", seq, "--width", "5",
                             "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("<svg ")

    def test_invalid_sequence_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "render", "--seq", "1,2,3,4",
                               "--width", "5")
        assert code == 2

    def test_non_numeric_sequence(self, capsys):
        code, _, err = run_cli(capsys, "render", "--seq", "a,b", "--width", "5")
        assert code == 2
        assert "comma-separated" in err

    def test_width_is_checked_before_any_board_table(self, capsys, monkeypatch):
        """A board table grows with W^2, so a mistyped width is refused
        before validate_cycle builds one."""
        def never(*args, **kwargs):
            raise AssertionError("validated a cycle on an oversized board")

        monkeypatch.setattr(cli, "validate_cycle", never)
        seq = ",".join(map(str, MINIMAL_K8_W5))
        code, out, err = run_cli(capsys, "render", "--seq", seq,
                                 "--width", "1000000")
        assert code == 2
        assert out == ""
        assert err == "error: --width must be at most 64, got 1000000\n"


class TestJobsEnvironment:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("KNIGHT_CYCLES_JOBS", "3")
        assert _default_jobs() == 3

    def test_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("KNIGHT_CYCLES_JOBS", "many")
        assert _default_jobs() == 1

    def test_env_used_by_command(self, capsys, monkeypatch):
        monkeypatch.setenv("KNIGHT_CYCLES_JOBS", "2")
        code, out, _ = run_cli(capsys, "count", "--length", "6")
        assert code == 0
        assert "total=25" in out
