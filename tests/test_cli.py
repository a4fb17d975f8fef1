import errno
import os
import re

import pytest

from knightcycles.analysis import write_cycles
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
