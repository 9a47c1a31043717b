import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgfact
from sgfact import cli
from sgfact.cli import main, run

# kernel dimension 7
WIDE = "(0,0,2);(0,1,1);(0,1,2);(0,2,0);(1,0,1);(1,1,0);(1,1,1);(2,0,0);(2,1,0);(3,0,0)"


class TestSuccess:
    def test_min_presentation_plain(self):
        assert run(["min-presentation", "--gens", "3 4 5"]) == (
            0,
            "(1,0,1) (0,2,0)\n(2,1,0) (0,0,2)\n(3,0,0) (0,1,1)\n",
        )

    def test_min_presentation_json(self):
        assert run(["min-presentation", "--gens", "3 4 5", "--format", "json"]) == (
            0,
            '{"relations":[[[1,0,1],[0,2,0]],[[2,1,0],[0,0,2]],[[3,0,0],[0,1,1]]]}\n',
        )

    @pytest.mark.parametrize("method", ["grobner", "hilbert"])
    def test_delta_set(self, method):
        argv = ["delta-set", "--gens", "17 33 53 71", "--method", method]
        assert run(argv) == (0, "2 4 6\n")
        assert run(argv + ["--format", "json"]) == (0, '{"delta_set":[2,4,6]}\n')

    def test_tame_block_monoid_c3(self, tmp_path):
        # zero-sum sequences over Z_3 \ {0}: one congruence row (1, 2) mod 3
        path = tmp_path / "c3.json"
        path.write_text(json.dumps({"matrix": [[1, 2]], "moduli": [3]}))
        assert run(["tame", "--equations", str(path)]) == (0, "3\n")

    def test_catenary_range(self):
        argv = ["catenary-range", "--gens", "7 10 13", "--bound", "60"]
        entries = [
            (0, 0), (7, 0), (10, 0), (13, 0), (14, 0), (17, 0), (20, 2), (21, 0), (23, 0),
            (24, 0), (26, 0), (27, 2), (28, 0), (30, 2), (31, 0), (33, 2), (34, 2), (35, 0),
            (36, 0), (37, 2), (38, 0), (39, 0), (40, 2), (41, 2), (42, 0), (43, 2), (44, 2),
            (45, 0), (46, 2), (47, 2), (48, 2), (49, 7), (50, 2), (51, 2), (52, 7), (53, 2),
            (54, 2), (55, 2), (56, 7), (57, 2), (58, 2), (59, 7), (60, 2),
        ]
        assert run(argv) == (0, "".join(f"{g} {c}\n" for g, c in entries))
        pairs = ",".join(f"[{g},{c}]" for g, c in entries)
        assert run(argv + ["--format", "json"]) == (0, f'{{"catenary_range":[{pairs}]}}\n')

    @pytest.mark.parametrize("method", ["dynamic", "naive"])
    def test_catenary_affine(self, method):
        argv = ["catenary", "--gens", "(1,5);(2,9);(3,3);(4,1);(7,2)", "--element", "(30,30)"]
        argv += ["--method", method]
        assert run(argv) == (0, "6\n")
        assert run(argv + ["--format", "json"]) == (0, '{"catenary":6,"element":[30,30]}\n')

    @pytest.mark.parametrize(
        "command, plain, json_out",
        [
            ("factorizations", "(0,3,0)\n(1,1,1)\n(4,0,0)\n",
             '{"element":12,"factorizations":[[0,3,0],[1,1,1],[4,0,0]]}\n'),
            ("length-set", "3 4\n", '{"element":12,"length_set":[3,4]}\n'),
            ("delta-element", "1\n", '{"delta":[1],"element":12}\n'),
        ],
    )
    def test_element_queries(self, command, plain, json_out):
        argv = [command, "--gens", "3 4 5", "--element", "12"]
        assert run(argv) == (0, plain)
        assert run(argv + ["--format", "json"]) == (0, json_out)

    def test_delta_of_single_length_member(self):
        # 3 has one factorization in <3,4,5>: a member, so exit 0 with an empty delta
        argv = ["delta-element", "--gens", "3 4 5", "--element", "3"]
        assert run(argv) == (0, "")
        assert run(argv + ["--format", "json"]) == (0, '{"delta":[],"element":3}\n')

    def test_betti(self):
        argv = ["betti", "--gens", "3 4 5"]
        assert run(argv) == (0, "8\n9\n10\n")
        assert run(argv + ["--format", "json"]) == (0, '{"betti_elements":[8,9,10]}\n')

    def test_graver(self):
        argv = ["graver", "--gens", "3 4 5"]
        assert run(argv) == (
            0,
            "(0,5,0) (0,0,4)\n(1,0,1) (0,2,0)\n(1,3,0) (0,0,3)\n(2,1,0) (0,0,2)\n"
            "(3,0,0) (0,1,1)\n(4,0,0) (0,3,0)\n(5,0,0) (0,0,3)\n",
        )
        assert run(argv + ["--format", "json"]) == (
            0,
            '{"pairs":[[[0,5,0],[0,0,4]],[[1,0,1],[0,2,0]],[[1,3,0],[0,0,3]],[[2,1,0],[0,0,2]],'
            '[[3,0,0],[0,1,1]],[[4,0,0],[0,3,0]],[[5,0,0],[0,0,3]]]}\n',
        )

    def test_block_monoid(self):
        argv = ["block-monoid", "--moduli", "3"]
        assert run(argv) == (0, "(0,3)\n(1,1)\n(3,0)\n")
        assert run(argv + ["--format", "json"]) == (
            0,
            '{"atoms":[[0,3],[1,1],[3,0]],"moduli":[3]}\n',
        )

    def test_block_monoid_subset(self):
        # zero-sum sequences over {(1,0), (0,1), (1,1)} in Z_2 x Z_2
        argv = ["block-monoid", "--moduli", "2 2", "--subset", "(1,0);(0,1);(1,1)"]
        assert run(argv) == (0, "(0,0,2)\n(0,2,0)\n(1,1,1)\n(2,0,0)\n")

    def test_hilbert(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"matrix": [[1, 1, -2]]}))
        argv = ["hilbert", "--system", str(path)]
        assert run(argv) == (0, "(0,2,1)\n(1,1,1)\n(2,0,1)\n")
        assert run(argv + ["--format", "json"]) == (
            0,
            '{"solutions":[[0,2,1],[1,1,1],[2,0,1]]}\n',
        )

    @pytest.mark.parametrize("extra", [[], ["--atom-index", "3"]])
    def test_tame_full_semigroup(self, extra, tmp_path):
        # a full semigroup that is not a block monoid; tame degree 6
        path = tmp_path / "full.json"
        path.write_text(json.dumps({"matrix": [[1, -1, 0], [0, 1, -1]], "moduli": [2, 3]}))
        argv = ["tame", "--equations", str(path)] + extra
        assert run(argv) == (0, "6\n")
        assert run(argv + ["--format", "json"]) == (0, '{"tame":6}\n')

    def test_more_atoms_than_the_recursion_limit(self):
        # the 1,001 atoms 1001, ..., 2001: construction searches past Python's
        # default recursion limit, and 2002 is 1001 + 1001 only
        argv = ["length-set", "--gens", " ".join(map(str, range(1001, 2102))), "--element", "2002"]
        assert run(argv) == (0, "2\n")

    def test_catenary_numerical(self):
        argv = ["catenary", "--gens", "11 36 39", "--element", "450"]
        assert run(argv) == (0, "16\n")
        assert run(argv + ["--format", "json"]) == (0, '{"catenary":16,"element":450}\n')

    def test_gens_file(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("6 9 20\n")
        assert run(["betti", "--gens-file", str(path)]) == (0, "18\n60\n")

    def test_gens_from_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("6 9 20\n"))
        assert run(["betti", "--gens", "-"]) == (0, "18\n60\n")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["factorizations", "--gens", "3 4 5", "--element", "(1,2"], 2),
        (["factorizations", "--gens", "3 4 5", "--element", "(99999999999999999999)"], 2),
        (["delta-set", "--gens", "3 99999999999999999999"], 2),
        (["length-set", "--gens", "3 4 5", "--element", "2"], 3),
        (["catenary-range", "--gens", "(1,0);(1,1);(0,2)", "--bound", "5"], 3),
        # the budget reaches every Buchberger run of the toric-ideal engine
        (["min-presentation", "--gens", WIDE, "--max-steps", "1"], 4),
        # and the saturations behind the homogenization delta route
        (["delta-set", "--gens", "17 33 53 71", "--method", "grobner", "--max-steps", "20"], 4),
        # and the dynamic catenary degree, one step per element settled
        (["catenary", "--gens", "17 33 53 71", "--element", "200", "--max-steps", "0"], 4),
        # appended last, so the ids of the rows above do not shift
        (["hilbert", "--system", "{tmp}/big.json"], 2),
        (["delta-set", "--gens", "3 4 5", "--max-steps", "-5"], 2),
        (["hilbert", "--system", "{tmp}/relation.json"], 2),
        # non-integer input is rejected, not truncated or left to raise
        (["hilbert", "--system", "{tmp}/string.json"], 2),
        (["hilbert", "--system", "{tmp}/float.json"], 2),
        (["betti", "--equations", "{tmp}/modulus.json"], 2),
        (["block-monoid", "--moduli", "x"], 2),
        # a matrix that is not a list of rows
        (["hilbert", "--system", "{tmp}/scalar.json"], 2),
        (["tame", "--equations", "{tmp}/null.json"], 2),
        # the catenary sweep counts its own steps, however large the bound
        (["catenary-range", "--gens", "3 5", "--bound", "10", "--max-steps", "0"], 4),
        (["catenary-range", "--gens", "3 5", "--bound", str(10**20), "--max-steps", "10"], 4),
        # the tame degree needs a full semigroup, and atoms cannot be left out
        (["tame", "--gens", "3 5"], 3),
        (["tame", "--equations", "{tmp}/full.json", "--restrict-atoms", "0,1"], 2),
        # Graver completion counts queue pops over every lift stage, on both routes to it
        (["graver", "--gens", "17 33 53 71", "--max-steps", "5"], 4),
        (["delta-set", "--gens", "17 33 53 71", "--method", "hilbert", "--max-steps", "5"], 4),
        # the factorization search counts one step per node and one per factorization
        # its two-atom tail emits, however large the element
        (["factorizations", "--gens", "3 5", "--element", "1000000000000", "--max-steps", "10"], 4),
        (["length-set", "--gens", "1000003 1000033 1000037", "--element", "5000000000000",
          "--max-steps", "10"], 4),
        # a matrix without columns is rejected, not solved as a system in N^0
        (["hilbert", "--system", "{tmp}/no_columns_eq.json"], 2),
        (["hilbert", "--system", "{tmp}/no_columns_geq.json"], 2),
        # an atom index out of range, and the budget reaching the tame degree
        (["tame", "--equations", "{tmp}/full.json", "--atom-index", "99"], 2),
        (["tame", "--equations", "{tmp}/full.json", "--max-steps", "1"], 4),
        # an empty delta does not by itself mean a non-member
        (["delta-element", "--gens", "3 4 5", "--element", "2"], 3),
        # 1,544,403 pairs of factorizations, counted before the naive edge list is built
        (["catenary", "--gens", "3 5 7", "--element", "600", "--method", "naive",
          "--max-steps", "100000"], 4),
        # a generator file that is missing, a directory, or given with another source
        (["betti", "--gens-file", "{tmp}/missing.txt"], 2),
        (["betti", "--gens-file", "{tmp}"], 2),
        (["betti", "--gens", "6 9 20", "--gens-file", "{tmp}/gens.txt"], 2),
        (["betti", "--gens-file", "{tmp}/gens.txt", "--equations", "{tmp}/full.json"], 2),
        # a file that is not UTF-8, behind each of the three file flags
        (["betti", "--gens-file", "{tmp}/bad.txt"], 2),
        (["tame", "--equations", "{tmp}/bad.txt"], 2),
        (["hilbert", "--system", "{tmp}/bad.txt"], 2),
        # the group a block monoid lists counts one step per element
        (["block-monoid", "--moduli", "100000 100000", "--max-steps", "2000"], 4),
        # only the commands that read a semigroup take the three source flags
        (["block-monoid", "--moduli", "3", "--equations", "{tmp}/missing.json"], 2),
        (["hilbert", "--system", "{tmp}/full.json", "--gens-file", "{tmp}/missing.txt"], 2),
        # a subset that is empty, repeats an element, holds zero, leaves the
        # group's range or has the wrong length
        (["block-monoid", "--moduli", "3", "--subset", ""], 2),
        (["block-monoid", "--moduli", "3", "--subset", "(1);(1)"], 2),
        (["block-monoid", "--moduli", "3", "--subset", "(0)"], 2),
        (["block-monoid", "--moduli", "3", "--subset", "(3)"], 2),
        (["block-monoid", "--moduli", "3 3", "--subset", "(1)"], 2),
        # a file that is not JSON, a JSON array, and objects missing a key
        (["hilbert", "--system", "{tmp}/gens.txt"], 2),
        (["tame", "--equations", "{tmp}/array.json"], 2),
        (["tame", "--equations", "{tmp}/no_moduli.json"], 2),
        (["hilbert", "--system", "{tmp}/no_matrix.json"], 2),
        # malformed elements and generator lists
        (["factorizations", "--gens", "3 4 5", "--element", "(1,x)"], 2),
        (["factorizations", "--gens", "3 4 5", "--element", "x"], 2),
        (["betti", "--gens", " "], 2),
        (["betti", "--gens", "3 x"], 2),
        (["catenary-range", "--gens", "3 5", "--bound", "-1"], 2),
        # a negative element is no member, by either catenary route
        (["catenary", "--gens", "3 5", "--element", "-1", "--method", "dynamic"], 3),
        (["catenary", "--gens", "3 5", "--element", "-1", "--method", "naive"], 3),
    ],
)
def test_error_exit_codes(argv, code, capsys, tmp_path):
    files = {
        # a coefficient of 2**41 leaves the range the Diophantine search guards
        "big": {"matrix": [[2**41, -1]]},
        "relation": {"matrix": [[1, -1]], "relation": "leq"},
        "string": {"matrix": [["a", 1]]},
        "float": {"matrix": [[1.5, -1]]},
        "modulus": {"matrix": [[1, 2]], "moduli": [2.7]},
        "scalar": {"matrix": 5},
        "null": {"matrix": None, "moduli": [3]},
        "full": {"matrix": [[1, -1, 0], [0, 1, -1]], "moduli": [2, 3]},
        "no_columns_eq": {"matrix": [[]], "rhs": [5]},
        "no_columns_geq": {"matrix": [[]], "relation": "geq", "rhs": [5]},
        "array": [[1, 2]],
        "no_moduli": {"matrix": [[1, 2]]},
        "no_matrix": {"relation": "eq"},
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    (tmp_path / "gens.txt").write_text("6 9 20\n")
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run(argv) == (code, "")
    assert capsys.readouterr().err.startswith("sgfact: error: ")


def test_undecodable_stdin(monkeypatch, capsys):
    # stdin decodes strictly under a UTF-8 locale
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
    assert run(["betti", "--gens", "-"]) == (2, "")
    assert capsys.readouterr().err.startswith("sgfact: error: cannot read stdin")


def test_help_returns_the_usage(capsys):
    # argparse prints -h itself and exits; run returns the text instead
    code, out = run(["betti", "--help"])
    assert code == 0 and out.startswith("usage: sgfact betti")
    assert run(["-h"])[1].startswith("usage: sgfact ")
    assert capsys.readouterr() == ("", "")
    assert main(["betti", "-h"]) == 0
    assert capsys.readouterr().out == out


def test_out_of_memory_exits_4(monkeypatch, capsys):
    # an allocation that fails, as np.eye does for a huge block monoid, ends
    # like a spent budget; nothing here really allocates it
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli._tame, "block_monoid", exhausted)
    assert run(["block-monoid", "--moduli", "200000"]) == (4, "")
    assert capsys.readouterr().err == "sgfact: error: out of memory\n"


class TestProcess:
    """``python -m sgfact.cli`` as its own process: ``main``, the exit status and the streams."""

    @staticmethod
    def _run(*argv):
        path = [str(Path(sgfact.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        cmd = [sys.executable, "-m", "sgfact.cli", *argv]
        return subprocess.run(cmd, capture_output=True, env=env, timeout=120)

    def test_success(self):
        proc = self._run("betti", "--gens", "3 4 5")
        assert (proc.returncode, proc.stdout) == (0, b"8\n9\n10\n")

    def test_missing_source(self):
        proc = self._run("betti")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"sgfact: error: ")


# Fuzzing: random command lines, mostly valid, each under a step limit of at
# most 2,000, must end with a documented exit code and no partial output.

_FUZZ_FILES = {
    "gens.txt": b"6 9 20\n",
    "planar.txt": b"(1,0);(1,1);(0,2)\n",
    "junk.txt": b"3 x 5\n",
    "bad.txt": b"\xff\xfe",
    "full.json": json.dumps({"matrix": [[1, -1, 0], [0, 1, -1]], "moduli": [2, 3]}).encode(),
    "c3.json": json.dumps({"matrix": [[1, 2]], "moduli": [3]}).encode(),
    "system.json": json.dumps({"matrix": [[1, 1, -2]]}).encode(),
    "geq.json": json.dumps({"matrix": [[1, 2], [3, 1]], "relation": "geq", "rhs": [3, 2]}).encode(),
    "huge.json": json.dumps({"matrix": [[10**30, -1]], "moduli": [-3], "rhs": [2**70]}).encode(),
    "list.json": b"[1, 2]",
    "truncated.json": b'{"matrix": [[1, 2]',
}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, data in _FUZZ_FILES.items():
        (root / name).write_bytes(data)
    # a missing file and a directory stand beside the real ones
    return {name: str(root / name) for name in [*_FUZZ_FILES, "missing.txt"]} | {"dir": str(root)}


def _joined(sep, strategy, fmt=str):
    return st.lists(strategy, min_size=1, max_size=4).map(lambda v: sep.join(map(fmt, v)))


# integers of every size: small, near the int64 and 2^62 limits, and negative
_number = st.one_of(
    st.integers(-2, 60),
    st.integers(61, 10**9),
    st.integers(2**62 - 2, 2**70),
    st.integers(-(2**70), -1),
)
_tuple = st.lists(_number, min_size=1, max_size=3).map(lambda v: "(" + ",".join(map(str, v)) + ")")
_junk = st.sampled_from(["", " ", "(1,2", "1,,2", "()", "(a)", "x", "--", "(1;2)", "1e3", "0x10", "\udcff"])
_noisy_value = st.one_of(_number.map(str), _tuple, _joined(" ", _number), _joined(";", _tuple), _junk)

_NUMERICAL = _joined(" ", st.integers(1, 40))
_PLANAR = _joined(";", st.tuples(st.integers(0, 6), st.integers(0, 6)), lambda v: "(%d,%d)" % v)
_ELEMENT_COMMANDS = ("factorizations", "length-set", "delta-element", "catenary")
_COMMANDS = _ELEMENT_COMMANDS + (
    "delta-set", "min-presentation", "betti", "graver", "catenary-range", "tame",
    "block-monoid", "hilbert",
)
_FLAGS = (
    "--gens", "--gens-file", "--equations", "--element", "--method", "--bound", "--atom-index",
    "--moduli", "--subset", "--system", "--format", "--restrict-atoms",
)


@st.composite
def _valid_argv(draw, paths):
    """A well-formed command line; its semantics may still fail (exit 3 or 4)."""
    command = draw(st.sampled_from(_COMMANDS))
    argv = [command]
    dim = 1
    if command == "tame":
        argv += ["--equations", paths[draw(st.sampled_from(["full.json", "c3.json"]))]]
        if draw(st.booleans()):
            argv += ["--atom-index", str(draw(st.integers(0, 4)))]
    elif command == "block-monoid":
        argv += ["--moduli", draw(_joined(" ", st.integers(2, 6)).filter(lambda m: len(m) <= 5))]
    elif command == "hilbert":
        argv += ["--system", paths[draw(st.sampled_from(["system.json", "geq.json"]))]]
    elif draw(st.integers(0, 4)):
        dim = 1 if command == "catenary-range" else draw(st.sampled_from([1, 2]))
        argv += ["--gens", draw(_PLANAR if dim == 2 else _NUMERICAL)]
    else:
        # stdin holds "6 9 20" most of the time; full.json is a semigroup in N^3
        flag, name, dim = draw(st.sampled_from([
            ("--gens-file", "gens.txt", 1), ("--gens-file", "planar.txt", 2),
            ("--equations", "full.json", 3), ("--gens", "-", 1),
        ]))
        argv += [flag, paths.get(name, name)]
    if command in _ELEMENT_COMMANDS:
        element = draw(st.lists(st.integers(0, 150 if dim == 1 else 12), min_size=dim, max_size=dim))
        argv += ["--element", str(element[0]) if dim == 1 else "(%s)" % ",".join(map(str, element))]
    if command == "catenary":
        argv += ["--method", draw(st.sampled_from(["naive", "dynamic"]))]
    if command == "delta-set":
        argv += ["--method", draw(st.sampled_from(["grobner", "hilbert"]))]
    if command == "catenary-range":
        argv += ["--bound", str(draw(st.integers(0, 300)))]
    return argv + ["--format", draw(st.sampled_from(["plain", "json"]))]


@st.composite
def _command_lines(draw, paths):
    argv = draw(_valid_argv(paths))
    # one time in four, break it: drop a token, give a flag any value (stdin
    # and every file included), add flags, swap in a bogus subcommand, or ask
    # for help anywhere
    mutation = draw(st.sampled_from(["none"] * 18 + ["drop", "value", "value", "flags", "bogus", "help"]))
    noisy = st.one_of(_noisy_value, st.sampled_from(sorted(paths.values())), st.just("-"))
    if mutation == "drop":
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif mutation == "value":
        argv[draw(st.sampled_from(range(2, len(argv), 2)))] = draw(noisy)
    elif mutation == "flags":
        for flag in draw(st.lists(st.sampled_from(_FLAGS), min_size=1, max_size=3)):
            argv += [flag, draw(noisy)]
    elif mutation == "bogus":
        argv[0] = "bogus"
    elif mutation == "help":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help"])))
    steps = draw(st.one_of(st.integers(0, 100), st.integers(-3, 2000)))
    return argv + ["--max-steps", str(steps)]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_command_lines(fuzz_paths, data):
    argv = data.draw(_command_lines(fuzz_paths), label="argv")
    # stdin decodes strictly, as under a UTF-8 locale
    stdin = data.draw(st.sampled_from([b"6 9 20\n"] * 4 + [b"(1,0);(0,1)", b"", b"\xff\xfe", b"3 x"]))
    err = io.StringIO()
    with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")), \
            contextlib.redirect_stderr(err):
        code, out = run(argv)
    assert code in (0, 2, 3, 4), argv
    if code:
        assert out == "", argv
        assert err.getvalue().startswith("sgfact: error: "), argv
