import contextlib
import errno
import fcntl
import os
import re
import resource
import select
import signal
import stat
import subprocess
import sys
import tempfile
import textwrap
import threading

import pytest

import knightcycles
from knightcycles.analysis import write_cycles
from knightcycles import analysis, cli, search
from knightcycles.cli import main
from conftest import MINIMAL_K8_W5


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_unusable_out(path):
    """Put a FIFO at a path named pipe.*, a symlink into a missing directory
    at one named link.* and a symlink to itself at one named loop.*; leave
    any other path alone."""
    name = os.path.basename(path)
    if name.startswith("pipe."):
        os.mkfifo(path)
    elif name.startswith("link."):
        os.symlink(os.path.join("missing", "x"), path)
    elif name.startswith("loop."):
        os.symlink(name, path)


def never(*args, **kwargs):
    raise AssertionError("worked for an unusable --out")


def fail_enumeration(*args, **kwargs):
    raise ValueError("run failed")


def groups_failing_part_way(cycles):
    """Twin groups whose iteration fails after one group is written."""
    yield analysis.TwinGroup(key=(1, 2), members=((1, 2), (2, 1)))
    raise ValueError("run failed")


RENDER_K8 = ("render", "--seq", ",".join(map(str, MINIMAL_K8_W5)), "--width", "5")
ENOENT = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"


GATED_CLI = textwrap.dedent("""
    import os, sys, time
    from knightcycles import cli

    flag, argv = sys.argv[1], sys.argv[2:]
    enumerate_cycles = cli.enumerate_cycles

    def gated(k, *args, **kwargs):
        deadline = time.monotonic() + 60
        while k == 6 and not os.path.exists(flag):
            if time.monotonic() > deadline:
                sys.exit("no flag file within 60 s")
            time.sleep(0.01)
        return enumerate_cycles(k, *args, **kwargs)

    cli.enumerate_cycles = gated
    sys.exit(cli.main(argv))
    """)


def start_gated_cli(flag, *argv, stdout):
    """Run the CLI in a child with PYTHONUNBUFFERED unset, its k=6
    enumeration held until the file ``flag`` exists."""
    src = os.path.dirname(os.path.dirname(knightcycles.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-c", GATED_CLI, str(flag), *argv],
                            env=env, start_new_session=True, text=True,
                            stdout=stdout, stderr=subprocess.PIPE)


def finish(proc):
    """The child's exit code and stderr; its group is killed if it still
    runs after 60 s."""
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("child still running after 60 s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        with proc.stderr:
            err = proc.stderr.read()
    return code, err


def check_in_child(path, **kwargs):
    """Run `check --in path` in a child, killed if it still runs after 60 s."""
    src = os.path.dirname(os.path.dirname(knightcycles.__file__))
    return subprocess.run(
        [sys.executable, "-m", "knightcycles.cli", "check", "--in", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60, **kwargs)


def feed_fifo(path, data: bytes):
    """Write data into the FIFO at path; a reader that leaves early ends it."""
    try:
        with open(path, "wb") as out:
            out.write(data)
    except BrokenPipeError:
        pass


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

    @pytest.mark.parametrize("argv", [
        ("count", "--length", "18"),
        ("twins", "--length", "18"),
        ("verify", "--max-length", "18"),
    ], ids=lambda argv: argv[0])
    def test_length_past_16_is_usage_error(self, argv, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("planned or ran a shard for k=18")

        monkeypatch.setattr(search, "_run_shard", never)
        monkeypatch.setattr(search, "_mitm_pairs_for_start", never)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: no cycle length k=18: want an even k within 4..16\n"

    def test_workers_come_only_from_the_jobs_flag(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("started a pool without --jobs")

        monkeypatch.setenv("KNIGHT_CYCLES_JOBS", "3")
        monkeypatch.setattr(search, "_run_in_pool", never)
        code, out, _ = run_cli(capsys, "count", "--length", "6")
        assert code == 0
        assert "total=25" in out


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

    def test_list_into_a_missing_directory_names_the_out_path(
            self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumerated for an unusable --out")

        monkeypatch.setattr(cli, "enumerate_cycles", never)
        out_file = os.path.join(tmp_path, "nope", "x.cycles")
        code, out, err = run_cli(capsys, "list", "--length", "8", "--out", out_file)
        assert (code, out) == (2, "")
        assert err == (f"error: [Errno {errno.ENOENT}] "
                       f"{os.strerror(errno.ENOENT)}: {out_file!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("list", "--length", "4"), ("twins", "--length", "6"), RENDER_K8,
    ], ids=lambda argv: argv[0])
    def test_out_through_a_symlink_writes_its_target(self, argv, tmp_path, capsys):
        plain, real, link = (tmp_path / name for name in
                             ("plain.out", "real.txt", "link.out"))
        real.write_text("earlier text\n")
        link.symlink_to(real)
        for out_file in (plain, link):
            assert run_cli(capsys, *argv, "--out", str(out_file))[0] == 0
        assert link.is_symlink()
        assert real.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("argv", [
        ("list", "--length", "8"), ("twins", "--length", "8"), RENDER_K8,
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("name", ["q/", "q/."])
    def test_out_naming_a_directory_by_its_last_part_is_refused(
            self, argv, name, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, "--out", name)
        assert (code, out) == (2, "")
        assert err == (f"error: [Errno {errno.EISDIR}] "
                       f"{os.strerror(errno.EISDIR)}: {name!r}\n")
        assert os.listdir() == []

    def test_full_disk_during_list_gives_exit_1(self, tmp_path, capsys, monkeypatch):
        write = analysis.CycleFileWriter.write

        def filling_up(writer, cells):
            if writer.count == 100:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write(writer, cells)

        monkeypatch.setattr(analysis.CycleFileWriter, "write", filling_up)
        out_file = tmp_path / "x.cycles"
        code, out, err = run_cli(capsys, "list", "--length", "8", "--out", str(out_file))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_spool_that_cannot_be_made_gives_exit_1(self, tmp_path, capsys,
                                                      monkeypatch):
        """An OSError while the writer makes its spool beside --out (here
        EACCES) is a failed write, not a refused argument: exit 1 with one
        line, and nothing in the directory."""
        def refused(*args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

        monkeypatch.setattr(tempfile, "TemporaryFile", refused)
        out_file = tmp_path / "x.cycles"
        code, out, err = run_cli(capsys, "list", "--length", "8", "--out", str(out_file))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_run_is_one_line_and_a_bug_a_traceback(
            self, tmp_path, capsys, monkeypatch):
        """A shard emitted out of order ends `list` with exit 1 and one line;
        any other RuntimeError from an engine is a bug and propagates.
        Neither leaves anything at --out, beside it or in TMPDIR."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        out_file = str(tmp_path / "x.cycles")
        engine = search._dfs_one_start

        def reversed_engine(board, k, s, emit):
            emitted: list = []
            engine(board, k, s, lambda path, extremes:
                   emitted.append((tuple(path), extremes)))
            for seq, extremes in reversed(emitted):
                emit(seq, extremes)

        monkeypatch.setattr(search, "_dfs_one_start", reversed_engine)
        code, out, err = run_cli(capsys, "list", "--length", "8", "--out", out_file)
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: shard dfs-1 emitted \(.*\) after \(.*\), out of order\n",
                            err)
        assert list(tmp_path.iterdir()) == []

        def broken_engine(board, k, s, emit):
            raise RuntimeError("bug")

        monkeypatch.setattr(search, "_dfs_one_start", broken_engine)
        with pytest.raises(RuntimeError, match="^bug$"):
            main(["list", "--length", "8", "--out", out_file])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, error", [
        ("pipe.cycles", "not a regular file"),
        ("link.cycles", ENOENT),
        ("loop.cycles", "not a regular file"),
        ("", ENOENT),
    ], ids=["fifo", "dangling-link", "symlink-loop", "empty"])
    def test_list_refuses_a_pipe_or_an_empty_path_before_enumerating(
            self, name, error, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(search, "_run_shard", never)
        monkeypatch.chdir(tmp_path)
        make_unusable_out(name)
        code, out, err = run_cli(capsys, "list", "--length", "8", "--out", name)
        assert (code, out) == (2, "")
        assert err == f"error: {error}: {name!r}\n"
        if name.startswith("pipe."):
            assert stat.S_ISFIFO(os.lstat(name).st_mode)
        assert os.listdir() == ([name] if name else [])

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
        write_cycles([crossed], out_file, 6, filter_tag="simple")
        code, _, err = run_cli(capsys, "check", "--in", str(out_file))
        assert code == 1
        assert f"{out_file}: line 2: not simple: 1,10,5,18,3,16" in err
        write_cycles([crossed], out_file, 6, filter_tag="all")
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

    def test_check_reads_a_bounded_line_1(self, tmp_path, capsys):
        """1 MiB with no LF fails on line 1 as a header with no final LF, in
        one short stderr line: line 1 is read only up to a bound above the
        writer's longest header."""
        out_file = tmp_path / "x.cycles"
        out_file.write_bytes(b"x" * (1 << 20))
        code, _, err = run_cli(capsys, "check", "--in", str(out_file))
        assert code == 1
        assert err.startswith(f"{out_file}: line 1: bad header 'xxx")
        assert err.endswith("': want a final LF\n")
        assert err.count("\n") == 1 and len(err.encode()) < 512

    @pytest.mark.parametrize("endless", [True, False])
    def test_check_reads_a_bounded_body_line(self, tmp_path, endless):
        """A valid header, then /dev/zero or 1 MiB with no LF: line 2 is read
        only up to the writer's longest body line, so check exits 1 at once
        with one short stderr line.  The child's address space is capped, so
        a reader that grows the line fails instead of filling memory."""
        header = analysis._header_line(8, 480, "all") + "\n"
        limit = (1 << 30, 1 << 30)
        cap = lambda: resource.setrlimit(resource.RLIMIT_AS, limit)
        if not endless:
            path = tmp_path / "no-lf.cycles"
            path.write_text(header + "x" * (1 << 20))
            done = check_in_child(path, preexec_fn=cap)
        else:
            path = "/dev/stdin"
            read_fd, write_fd = os.pipe()

            def feed_zeros():
                with open(write_fd, "wb", buffering=0) as out:
                    with contextlib.suppress(BrokenPipeError):
                        out.write(header.encode())
                        while True:
                            out.write(bytes(1 << 16))

            feeder = threading.Thread(target=feed_zeros)
            feeder.start()
            try:
                with open(read_fd, "rb") as stdin:
                    done = check_in_child(path, stdin=stdin, preexec_fn=cap)
            finally:
                feeder.join()
        assert done.returncode == 1
        assert done.stderr.startswith(f"{path}: line 2: malformed line ")
        assert done.stderr.count("\n") == 1 and len(done.stderr.encode()) < 512

    def test_check_names_an_undecodable_byte(self, tmp_path, capsys):
        """A byte outside ASCII is a malformed line: exit 1 with the file
        and line, not a decode error reported as a usage error."""
        out_file = tmp_path / "k4.cycles"
        write_cycles([(1, 8, 19, 12), (2, 9, 18, 11)], out_file, 4)
        out_file.write_bytes(out_file.read_bytes().replace(b"8 19", b"8 \xff19"))
        code, _, err = run_cli(capsys, "check", "--in", str(out_file))
        assert code == 1
        assert err.startswith(f"{out_file}: line 2: malformed line")

    def test_check_reports_flaws_in_body_order(self, tmp_path, capsys, keys_by_k):
        """A non-canonical line, then a malformed one in the same chunk of the
        body: check names the non-canonical cycle, the first flaw it reads."""
        listed = keys_by_k(8)
        backwards = (listed[3][0], *listed[3][:0:-1])  # line 5's class, walked back
        assert backwards not in listed
        body = sorted([*listed, backwards])
        at = body.index(backwards)
        out_file = tmp_path / "k8.cycles"
        write_cycles(body[at - 20:at + 21], out_file, 8)  # backwards is cycle 21
        lines = out_file.read_text().splitlines(keepends=True)
        lines[23] = lines[23].replace(" ", "  ", 1)  # cycle 23
        assert len("".join(lines[1:])) < analysis._CHUNK
        out_file.write_text("".join(lines))
        code, _, err = run_cli(capsys, "check", "--in", str(out_file))
        assert code == 1
        assert err == f"{out_file}: line 22: not canonical: {','.join(map(str, backwards))}\n"

    def test_check_names_a_flaw_deep_in_the_body(self, tmp_path, capsys, keys_by_k):
        """The k=10 listing with a repeated cell on line 5001 only."""
        out_file = tmp_path / "k10.cycles"
        write_cycles(keys_by_k(10), out_file, 10)
        lines = out_file.read_text().splitlines(keepends=True)
        cells = lines[5000].split()
        cells[-1] = cells[-3]  # still a knight move from the cell before it
        lines[5000] = " ".join(cells) + "\n"
        out_file.write_text("".join(lines))
        code, _, err = run_cli(capsys, "check", "--in", str(out_file))
        assert code == 1
        assert err == f"{out_file}: line 5001: cell {cells[-1]} repeated at position 9\n"

    @pytest.mark.parametrize("source", ["stdin", "fifo"])
    def test_check_reads_a_stream_once(self, source, tmp_path, keys_by_k):
        """The k=10 listing, larger than a pipe's buffer, checks the same
        through /dev/stdin or a FIFO as by path: check reads its input once."""
        listing = tmp_path / "k10.cycles"
        write_cycles(keys_by_k(10), listing, 10)
        ok = "OK, 12000 cycles of length 10, filter=all\n"
        by_path = check_in_child(listing)
        assert (by_path.returncode, by_path.stdout, by_path.stderr) == (
            0, f"{listing}: {ok}", "")
        if source == "stdin":
            streamed = check_in_child("/dev/stdin", input=listing.read_text())
            name = "/dev/stdin"
        else:
            name = tmp_path / "k10.fifo"
            os.mkfifo(name)
            feeder = threading.Thread(target=feed_fifo,
                                      args=(name, listing.read_bytes()))
            feeder.start()
            try:
                streamed = check_in_child(name)
            finally:
                # A writer still waiting for a reader gets one, and leaves.
                os.close(os.open(name, os.O_RDONLY | os.O_NONBLOCK))
                feeder.join()
        assert (streamed.returncode, streamed.stdout, streamed.stderr) == (
            0, f"{name}: {ok}", "")

    def test_check_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "--in", "/nonexistent.cycles")
        assert code == 1


VERIFY_K8 = """\
k=4   dfs  total=3 (expect 3)  simple=3 (expect 3)  elapsed=Xs  PASS
k=4   mitm total=3 (expect 3)  simple=3 (expect 3)  elapsed=Xs  PASS
k=6   dfs  total=25 (expect 25)  simple=13 (expect 13)  elapsed=Xs  PASS
k=6   mitm total=25 (expect 25)  simple=13 (expect 13)  elapsed=Xs  PASS
k=8   dfs  total=480 (expect 480)  simple=178 (expect 178)  elapsed=Xs  PASS
k=8   mitm total=480 (expect 480)  simple=178 (expect 178)  elapsed=Xs  PASS
all counts match
"""


class TestVerify:
    def test_rows_up_to_length8(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--max-length", "8")
        assert (code, err) == (0, "")
        assert re.sub(r"elapsed=\d+\.\d\ds", "elapsed=Xs", out) == VERIFY_K8

    def test_single_algorithm(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-length", "6",
                               "--algorithm", "mitm")
        assert code == 0
        rows = out.splitlines()[:-1]
        assert [row.split()[1] for row in rows] == ["mitm", "mitm"]
        assert all(row.endswith("PASS") for row in rows)

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
        enumerate_cycles = cli.enumerate_cycles

        def recording(*args, **kwargs):
            chunks.append(capsys.readouterr().out)
            return enumerate_cycles(*args, **kwargs)

        monkeypatch.setattr(cli, "enumerate_cycles", recording)
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
        proc = start_gated_cli(flag, "verify", "--max-length", "8",
                               "--algorithm", "dfs", stdout=subprocess.PIPE)
        with proc.stdout:
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            first = proc.stdout.readline() if ready else ""
            flag.touch()
            code, err = finish(proc)
            rest = proc.stdout.read()
        assert first.startswith("k=4   dfs  total=3 (expect 3)"), (first, err)
        assert code == 0, err
        assert rest.count("PASS") == 2
        assert rest.endswith("all counts match\n")


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ("verify", "--max-length", "8"), ("twins", "--length", "10"),
    ], ids=lambda argv: argv[0])
    def test_reader_closing_early_gives_exit_1(self, argv, tmp_path):
        """With PYTHONUNBUFFERED unset, a reader that takes one line and
        closes the pipe gets exit 1 and one error line.  The pipe holds one
        page, so twins' 50 kB report cannot all fit before the close, and
        verify's k=6 rows wait for a flag file set after the close."""
        flag = tmp_path / "go"
        read_end, write_end = os.pipe()
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        with os.fdopen(read_end) as reader:
            proc = start_gated_cli(flag, *argv, stdout=write_end)
            os.close(write_end)
            ready, _, _ = select.select([reader], [], [], 30)
            first = reader.readline() if ready else ""
        flag.touch()
        code, err = finish(proc)
        assert first.startswith("k=4" if argv[0] == "verify" else "cells "), err
        assert (code, err) == (1, f"error: [Errno {errno.EPIPE}] "
                                  f"{os.strerror(errno.EPIPE)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout_gives_exit_1(self):
        """With PYTHONUNBUFFERED unset, stdout keeps the bytes a full disk
        refused; they must not fail the exit flush as well (exit 120)."""
        src = os.path.dirname(os.path.dirname(knightcycles.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "knightcycles.cli", *RENDER_K8],
                env=env, stdout=full,
                stderr=subprocess.PIPE, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (
            1, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


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
        ("missing/twins.txt", ENOENT),
        ("pipe.txt", "not a regular file"),
        ("link.txt", ENOENT),
    ])
    def test_unusable_out_is_refused_before_enumerating(
            self, where, error, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "enumerate_cycles", never)
        out_file = os.path.join(tmp_path, where)
        make_unusable_out(out_file)
        code, out, err = run_cli(capsys, "twins", "--length", "10",
                                 "--out", out_file)
        assert code == 2
        assert out == ""
        assert err == f"error: {error}: {out_file!r}\n"
        if where.startswith("pipe."):
            assert stat.S_ISFIFO(os.lstat(out_file).st_mode)
        assert not list(tmp_path.rglob(".knightcycles-*"))

    @pytest.mark.parametrize("stage, failing", [
        ("enumerate_cycles", fail_enumeration),
        ("group_geometric_twins", groups_failing_part_way),
    ], ids=["enumerate_cycles", "group_geometric_twins"])
    def test_failed_run_leaves_an_earlier_report_intact(
            self, stage, failing, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, stage, failing)
        out_file = tmp_path / "twins.txt"
        out_file.write_text("earlier report\n")
        code, _, err = run_cli(capsys, "twins", "--length", "6",
                               "--out", str(out_file))
        assert (code, err) == (2, "error: run failed\n")
        assert out_file.read_text() == "earlier report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["twins.txt"]


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

    @pytest.mark.parametrize("where, error", [
        ("pipe.svg", "not a regular file"),
        ("link.svg", ENOENT),
    ])
    def test_unusable_out_is_refused_before_any_work(
            self, where, error, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "validate_cycle", never)
        out_file = os.path.join(tmp_path, where)
        make_unusable_out(out_file)
        code, out, err = run_cli(capsys, *RENDER_K8, "--out", out_file)
        assert (code, out) == (2, "")
        assert err == f"error: {error}: {out_file!r}\n"
        if where.startswith("pipe."):
            assert stat.S_ISFIFO(os.lstat(out_file).st_mode)
        assert not list(tmp_path.rglob(".knightcycles-*"))

    def test_invalid_sequence_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "render", "--seq", "1,2,3,4",
                               "--width", "5")
        assert code == 2

    def test_non_numeric_sequence(self, capsys):
        code, _, err = run_cli(capsys, "render", "--seq", "a,b", "--width", "5")
        assert code == 2
        assert "comma-separated" in err
        assert err == "error: --seq must be comma-separated integers, got 'a,b'\n"

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
