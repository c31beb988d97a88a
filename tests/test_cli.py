import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import get_args
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boxkit
from boxkit import bounds, cli, geometry
from boxkit.bounds import growth_root
from boxkit.cli import main
from boxkit.constructions import _LIBRARY, APPENDIX_25_LISTING
from boxkit.search import CoverInstance, Predicate, enumerate_candidates, export_model


def _boxkit(argv, text=True):
    """``python -m boxkit.cli`` on ``argv`` in a fresh interpreter, killed
    after 20 s; its output as str, or as bytes when ``text`` is false."""
    src = str(Path(boxkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "boxkit.cli", *argv],
        capture_output=True,
        text=text,
        timeout=20,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture
def p25_file(tmp_path):
    path = tmp_path / "p25.txt"
    path.write_text(APPENDIX_25_LISTING)
    return str(path)


class TestVerify:
    def test_partition_ok(self, p25_file):
        assert main(["verify", p25_file]) == 0

    def test_piercing_gate(self, p25_file):
        assert main(["verify", p25_file, "--piercing", "3"]) == 0
        assert main(["verify", p25_file, "--piercing", "9"]) == 1

    def test_broken_cover_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("Ambient = 2 x 2\nBox(1) = {1} x {1,2}\n")
        assert main(["verify", str(path)]) == 1
        assert "violation" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self):
        assert main(["verify", "/nonexistent/file.txt"]) == 2

    def test_oversized_ambient_is_usage_error(self, tmp_path, capsys):
        # 600 diagonal cells leave 601 classes per axis: 601^3 quotient cells
        # pass the tensor cell limit, refused before anything is allocated
        path = tmp_path / "huge.txt"
        boxes = "".join(f"Box({i}) = {{{i}}} x {{{i}}} x {{{i}}}\n" for i in range(1, 601))
        path.write_text("Ambient = 100000 x 100000 x 100000\n" + boxes)
        assert main(["verify", str(path)]) == 2
        assert "cell limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"boxes": []}',
            '{"ambient": [2, 2]}',
            '{"ambient": 5, "boxes": []}',
            '{"ambient": [2.5, 2], "boxes": []}',
            '{"ambient": [2, 2], "boxes": 3}',
            '{"ambient": [2, 2], "boxes": [["1", "2"]]}',
            '{"ambient": [2, 2], "boxes": [[[1, 2], [1, 2]]], "meta": []}',
            "[1, 2]",
            '{"ambient": [2, 2], "boxes": [[[true, 2], [1, 2]]]}',
            '{"ambient": [true, 2], "boxes": [[[1], [1]]]}',
            '{"ambient": [2, 2], "boxes": [[[1, 2], [1, 2]]], "labels": [[1, true]]}',
            pytest.param(
                '{"ambient": ' + "[" * 100_000 + "]" * 100_000 + ', "boxes": []}',
                id="ambient-nested-100000-deep",
            ),
            pytest.param('{"ambient": [2,2], "boxes": [', id="truncated"),
        ],
    )
    def test_malformed_json_is_usage_error(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert main(["verify", str(path)]) == 2

    def test_labels_of_the_wrong_length_are_usage_error(self, tmp_path, capsys):
        path = tmp_path / "labels.json"
        path.write_text('{"ambient":[2,2],"boxes":[[[1,2],[1,2]]],"labels":[[1]]}')
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == "error: label/dimension mismatch\n"

    def test_many_axes_error_is_short(self, tmp_path, capsys):
        # the cell-limit message names the axis count, not the shape
        path = tmp_path / "wide.txt"
        path.write_text("Box(1) = " + " x ".join(["{1}"] * 1000) + "\n")
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cell limit" in err and len(err.encode()) < 200


class TestConstruct:
    def test_p25_bytes(self, capsys):
        assert main(["construct", "p25"]) == 0
        assert capsys.readouterr().out == APPENDIX_25_LISTING

    def test_quadrant_to_file(self, tmp_path):
        out = tmp_path / "q.txt"
        assert main(
            ["construct", "quadrant", "--d", "2", "--k", "4", "--out", str(out)]
        ) == 0
        assert out.read_text().count("Box(") == 12

    def test_realize_json(self, capsys):
        assert main(
            ["construct", "realize", "--fig", "fig3", "--k", "3",
             "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ambient"] and doc["boxes"]

    def test_bad_parameters_usage_error(self):
        assert main(["construct", "grid", "--d", "2", "--k", "1"]) == 2
        assert main(["construct", "trivial", "--n", "0", "--d", "1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["grid", "--d", "2", "--k", "2", "--n", "1000000000000"],
            ["trivial", "--n", "1000000000001"],
            ["trivial", "--d", "1000000000000"],
            ["quadrant", "--d", "1000000"],
            ["quadrant", "--k", "1000000000000"],
            ["realize", "--fig", "fig6", "--k", "1000000000000"],
            ["realize", "--fig", "fig6", "--k", "4", "--tail", "1000000000"],
        ],
    )
    def test_oversized_family_is_usage_error(self, argv, capsys):
        """Refused from the arguments, before any factor is built."""
        assert main(["construct", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the box factors of ") and "cell limit" in err

    def test_fig_choices_are_the_library(self):
        """The parser lists the figures without importing constructions."""
        assert list(cli._FIGS) == list(_LIBRARY)

    @pytest.mark.parametrize("fig", list(_LIBRARY))
    def test_every_library_fig_realizes(self, fig, capsys):
        assert main(["construct", "realize", "--fig", fig, "--k", "3"]) == 0

    @pytest.mark.parametrize(
        "argv", [["realize", "--fig", "fig7"], ["pyramid"]], ids=["fig", "kind"]
    )
    def test_unknown_name_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", *argv])
        assert exc.value.code == 2


class TestSearch:
    def test_bb_optimum(self, capsys):
        assert main(
            ["search", "--ambient", "5,5", "--candidates", "odd-proper-brick"]
        ) == 0
        assert "best size 9" in capsys.readouterr().out

    def test_budget_exhausted_exit_code(self):
        assert main(
            ["search", "--ambient", "5,5,5", "--candidates", "odd-proper-box",
             "--max-nodes", "2"]
        ) == 3

    @pytest.mark.parametrize("seconds", ["nan", "-1", "0"])
    def test_non_positive_budget_is_usage_error(self, seconds, capsys):
        assert main(
            ["search", "--ambient", "3,3", "--candidates", "proper-box", "--t", "2",
             "--engine", "anneal", "--max-nodes", "2000", "--budget-seconds", seconds]
        ) == 2
        assert "budget fields must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, reason",
        [
            (["--ambient", "5,5,5", "--candidates", "odd-proper-box", "--max-nodes", "2"],
             3, "node cap"),
            (["--ambient", "5,5", "--candidates", "odd-proper-brick"], 0, "exhausted"),
            (["--ambient", "3,3", "--candidates", "proper-box", "--t", "2",
              "--engine", "anneal", "--max-nodes", "2000"], 0, "node cap"),
            (["--ambient", "5,5,5", "--candidates", "odd-proper-box",
              "--budget-seconds", "1e-9"], 3, "wall clock"),
        ],
        ids=["node-cap", "exhausted", "anneal", "wall-clock"],
    )
    def test_says_why_it_stopped(self, argv, code, reason, capsys):
        assert main(["search", *argv]) == code
        assert capsys.readouterr().err == f"stopped: {reason}\n"

    def test_huge_t_is_proven_infeasible(self, capsys):
        """A t far past the pool size, and past any tuple length, is a proof
        of infeasibility like any other: exit 0, not a traceback."""
        assert main(
            ["search", "--ambient", "2,2", "--candidates", "proper-box",
             "--t", "100000000000000000000"]
        ) == 0
        assert capsys.readouterr().out == "infeasible (proven)\n"

    def test_proof_line_unchanged(self, capsys):
        """The stop reason goes to stderr; stdout keeps its one line."""
        assert main(["search", "--ambient", "5,5", "--candidates", "odd-proper-brick"]) == 0
        assert capsys.readouterr().out == "best size 9 (optimal proven: True; nodes 1711)\n"

    def test_writes_solution(self, tmp_path):
        out = tmp_path / "sol.txt"
        assert main(
            ["search", "--ambient", "5", "--candidates", "odd-proper-brick",
             "--out", str(out)]
        ) == 0
        assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("name", [n.replace("_", "-") for n in get_args(Predicate)])
def test_candidate_names_shared_by_search_and_export(name, capsys):
    assert main(["search", "--ambient", "3,3", "--candidates", name]) == 0
    assert main(["export", "--ambient", "3,3", "--candidates", name]) == 0


@pytest.mark.parametrize("command", ["search", "export"])
def test_unknown_candidate_name_is_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--ambient", "3,3", "--candidates", "proper-blob"])
    assert exc.value.code == 2


class TestBounds:
    def test_table(self, capsys):
        assert main(["bounds", "--d-max", "2", "--k-max", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[:3] == ["d", "k", "n"]

    def test_csv(self, capsys):
        assert main(["bounds", "--csv", "--d-max", "1", "--k-max", "2"]) == 0
        assert "," in capsys.readouterr().out

    def test_root(self, capsys):
        assert main(["bounds", "--root", "0,13,9"]) == 0
        assert capsys.readouterr().out.startswith("3.911627")

    @pytest.mark.parametrize(
        "root", ["1e200,0", "1e308,1e308", "inf", "-inf", "nan", "", "0", "0,0,0", "1,-1,0"]
    )
    def test_root_it_cannot_bracket_is_usage_error(self, root):
        """Overflow, a non-finite bracket, a NaN, no coefficient at all, only
        zeros or a zero last coefficient with no positive root: exit 2 and
        one error line, in a subprocess, so a bisection that never ends
        fails the test.  A trailing zero moves no root: 1e200,0 has the root
        of 1e200."""
        done = _boxkit(["bounds", f"--root={root}"])
        if root == "1e200,0":
            assert (done.returncode, done.stdout) == (0, f"{growth_root([1e200]):.9f}\n")
            return
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert done.stdout == ""

    def test_huge_root_ends(self):
        """Past 2^23 adjacent floats are over 1e-9 apart; bisection stops there."""
        done = _boxkit(["bounds", "--root", "1e8"])
        assert (done.returncode, done.stdout) == (0, "100000000.000000000\n")

    @pytest.mark.parametrize(
        "argv", [["--k-max", "100000000"], ["--d-max", "20000"], ["--n-max", "1000000001"]]
    )
    def test_table_past_the_cell_limit_refused_before_any_row(self, argv, monkeypatch, capsys):
        """Its text is bounded from the arguments alone, so a table of
        billions of rows, or of rows of tens of thousands of digits, exits 2
        at once: no bound is computed."""

        def unreachable(d):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(bounds, "lower_odd_basic", unreachable)
        start = time.perf_counter()
        assert main(["bounds", *argv]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "error: the bounds table's text exceeds the 134217728-cell limit\n"
        )


class TestGraph:
    def test_fig9_check(self, capsys):
        assert main(["graph", "--fig9", "4", "--check"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_fig9_check_fails_above_k(self):
        assert main(["graph", "--fig9", "4", "--check", "--k", "5"]) == 1

    def test_from_partition(self, tmp_path):
        out = tmp_path / "q.txt"
        main(["construct", "quadrant", "--d", "2", "--k", "3",
              "--out", str(out)])
        assert main(
            ["graph", "--from-partition", str(out), "--k", "3"]
        ) == 0

    @pytest.mark.parametrize(
        "argv", [[], ["--fig9", "4", "--from-partition", "q.txt"], ["--check"]]
    )
    def test_one_source_required(self, argv, capsys):
        """Neither or both of --fig9 and --from-partition: a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["graph", *argv])
        assert exc.value.code == 2
        assert "--from-partition" in capsys.readouterr().err

    def test_from_partition_requires_k(self, tmp_path):
        out = tmp_path / "q.txt"
        main(["construct", "quadrant", "--d", "2", "--k", "3",
              "--out", str(out)])
        assert main(["graph", "--from-partition", str(out)]) == 2

    def test_from_partition_refused_without_k_before_reading(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        assert main(["graph", "--from-partition", str(missing)]) == 2
        assert capsys.readouterr().err == "error: --k is required with --from-partition\n"

    def test_unbounded_fig9_is_usage_error(self, capsys):
        assert main(["graph", "--fig9", "3", "--colors", "100000000"]) == 2
        assert "cell limit" in capsys.readouterr().err

    def test_deep_clique_fails_without_traceback(self, tmp_path):
        """A strip of 1,001 cells beside one long box: the red K_1001 is found
        1,001 levels deep, and the long box is in no red K_1001."""
        strip = tmp_path / "strip.txt"
        cells = "".join(f"Box({i}) = {{1}} x {{{i}}}\n" for i in range(1, 1002))
        column = ",".join(map(str, range(1, 1002)))
        strip.write_text(f"Ambient = 2 x 1001\n{cells}Box(1002) = {{2}} x {{{column}}}\n")
        done = _boxkit(["graph", "--from-partition", str(strip), "--k", "1001"])
        assert done.returncode == 1, done.stderr
        assert done.stdout.splitlines()[-1] == (
            "clique property fails for k=1001 at vertex 1001 color 0"
        )
        assert "Traceback" not in done.stderr


class TestExportRender:
    def test_export_lp(self, capsys):
        assert main(
            ["export", "--ambient", "3", "--candidates", "odd-proper-box"]
        ) == 0
        assert capsys.readouterr().out.startswith("Minimize\n")

    def test_export_cnf_t2_usage_error(self):
        assert main(
            ["export", "--ambient", "3,3", "--candidates", "proper-box",
             "--t", "2", "--format", "cnf"]
        ) == 2

    def test_oversized_cnf_is_usage_error(self):
        """385,850,353 clauses for the proper boxes of [7]^2: refused before
        any is built, in a subprocess killed after 20 s."""
        done = _boxkit(
            ["export", "--ambient", "7,7", "--candidates", "proper-box", "--format", "cnf"]
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "error: the clauses of a cnf model exceeds the 134217728-cell limit\n"
        )

    @pytest.mark.parametrize("ambient", ["3", "2,3", "3,3"])
    @pytest.mark.parametrize("candidates", [n.replace("_", "-") for n in get_args(Predicate)])
    def test_streamed_export_matches_export_model(self, ambient, candidates, tmp_path, capsys):
        """``boxkit export`` writes the model line by line, to stdout or to
        ``--out``; either is byte for byte ``export_model``'s text.  A
        refused model writes nothing and creates no file."""
        amb = geometry.Ambient(tuple(map(int, ambient.split(","))))
        pool = tuple(enumerate_candidates(amb, candidates.replace("-", "_")))
        for t, mode, format in itertools.product([1, 2], ["exact", "at_least"], ["lp", "cnf"]):
            argv = ["export", "--ambient", ambient, "--candidates", candidates,
                    "--t", str(t), "--mode", mode, "--format", format]
            out = tmp_path / f"{t}-{mode}.{format}"
            if format == "cnf" and (t, mode) != (1, "exact"):
                assert main(argv) == 2
                assert main([*argv, "--out", str(out)]) == 2
                assert capsys.readouterr().out == "" and not out.exists()
                continue
            want = export_model(CoverInstance(amb, pool, t, mode), format)
            assert main(argv) == 0
            assert capsys.readouterr().out == want
            assert main([*argv, "--out", str(out)]) == 0
            assert capsys.readouterr().out == ""
            assert out.read_bytes() == want.encode()

    def test_streamed_export_bytes_in_a_process(self, tmp_path):
        """The console's bytes, to stdout and to ``--out``: the CNF model of
        [4]^2 by proper boxes pinned in ``test_search``."""
        argv = ["export", "--ambient", "4,4", "--candidates", "proper-box", "--format", "cnf"]
        digest = "cebe36b72ebb2d367bdca3893ec1e2e14976696ac203febf3f2fd51d4ef12578"
        done = _boxkit(argv, text=False)
        assert (done.returncode, done.stderr) == (0, b"")
        assert hashlib.sha256(done.stdout).hexdigest() == digest
        out = tmp_path / "m.cnf"
        done = _boxkit([*argv, "--out", str(out)], text=False)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_render_ascii(self, p25_file, capsys):
        assert main(["render", p25_file]) == 0
        out = capsys.readouterr().out
        assert "layer z=1" in out and "layer z=5" in out

    def test_render_oversized_ambient_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("Ambient = 100000 x 100000 x 100000\nBox(1) = {1} x {1} x {1}\n")
        assert main(["render", str(path)]) == 2
        assert "cell limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["export", "search"])
    def test_oversized_pool_is_usage_error(self, command, monkeypatch, capsys):
        # 2^6 proper boxes over 6 axes: 384 entries, one past the limit
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 383)
        argv = [command, "--ambient", "2,2,2,2,2,2", "--candidates", "proper-box"]
        assert main(argv) == 2
        assert "candidate pool exceeds the 383-cell limit" in capsys.readouterr().err

    def test_oversized_masks_refuse_search_not_export(self, monkeypatch, capsys):
        # 576 odd proper bricks of [9]^2: 5,776 incidence cells, 576 x 11 mask bytes
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 576 * 11 - 1)
        argv = ["--ambient", "9,9", "--candidates", "odd-proper-brick"]
        for engine in ("bb", "anneal"):
            assert main(["search", *argv, "--engine", engine]) == 2
            assert capsys.readouterr().err == (
                "error: the masks of a 2-axis candidate pool exceeds the 6335-cell limit\n"
            )
        assert main(["export", *argv]) == 0

    @pytest.mark.parametrize("format", ["ascii", "svg"])
    def test_render_oversized_text_is_usage_error(
        self, format, tmp_path, monkeypatch, capsys
    ):
        # 9 cells of 2 bytes in ASCII; 9 rectangles in SVG
        path = tmp_path / "g.txt"
        main(["construct", "grid", "--d", "2", "--k", "3", "--out", str(path)])
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 17)
        assert main(["render", str(path), "--format", format]) == 2
        assert "cell limit" in capsys.readouterr().err

    def test_render_svg(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        main(["construct", "grid", "--d", "2", "--k", "3", "--out", str(path)])
        assert main(["render", str(path), "--format", "svg"]) == 0
        assert capsys.readouterr().out.count("<rect") == 9


# the integer options of the commands that read no document; the edge values
# and malformed numbers they are drawn from
_INT_OPTIONS = {
    "bounds": ["--d-min", "--d-max", "--k-min", "--k-max", "--n-min", "--n-max"],
    "construct": ["--n", "--d", "--k", "--tail"],
    "graph": ["--colors", "--k"],
}
_NUMBERS = st.sampled_from(["-1", "0", "1", "2", "3", str(10**9), "", "x", "1.5", "0x3"])


@st.composite
def _argument_lists(draw):
    command = draw(st.sampled_from(sorted(_INT_OPTIONS)))
    argv = [command]
    if command == "bounds":
        argv += draw(st.sampled_from([[], ["--csv"]]))
        if draw(st.booleans()):
            argv += ["--root", ",".join(draw(st.lists(_NUMBERS, min_size=1, max_size=3)))]
    elif command == "construct":
        argv.append(draw(st.sampled_from(list(cli._CONSTRUCTIONS))))
        argv += draw(st.sampled_from([[], *(["--fig", f] for f in cli._FIGS)]))
    else:
        argv += ["--fig9", draw(_NUMBERS), *draw(st.sampled_from([[], ["--check"]]))]
    for option in draw(st.lists(st.sampled_from(_INT_OPTIONS[command]), unique=True)):
        argv += [option, draw(_NUMBERS)]
    return argv


@given(_argument_lists())
@example(["bounds", "--k-max", str(10**9)])
@example(["bounds", "--d-max", str(10**9), "--csv"])
@example(["bounds", "--n-max", str(10**9)])
@settings(max_examples=300, deadline=None)
def test_argument_lists_exit_with_a_code(argv):
    """``bounds``, ``construct`` and ``graph --fig9`` with their integer
    options at edge values or malformed, in process: each exits 0-3 and
    raises nothing.  Drawn from these values, a bounds table of more than a
    thousand rows spans 10^9 and is refused before it is built (the table's
    bounds are counted)."""
    calls = itertools.count()

    def counted(*args):
        assert next(calls) < 2_000, f"a bounds table of over 1,000 rows is built: {argv}"
        return real(*args)

    real = bounds.kp_trivial_bounds
    with mock.patch.object(bounds, "kp_trivial_bounds", counted), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed option
            code = exc.code
    assert code in (0, 1, 2, 3), argv
