"""Deterministic fuzzing of the command line: the example inputs of
``scripts/make_cli_examples.py``, with keys dropped, values of the wrong
type, indices out of range and oversized catalog names, run through every
README command line except ``tower``; and ``tower`` itself at ``--mmax`` at
most 2 (the README line's ``--mmax 3`` takes about half a second), on
batteries with unknown names, non-strings, empty lists and products too large
for the size guard.  Whatever the input, no exception escapes, the exit code
is 0, 1 or 2, and exit 2 carries an error message."""

import copy
import json
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from contramod.cli import main
from test_io_cli import ROOT, _readme_command_lines

JUNK = [0.5, -1.5, True, None, "x", "1/0", [], {}, [[]], -1, 10 ** 30]
HUGE_NAMES = ["grouplike(1000000000)", "divided_power_dual(100000)", "matrix_coalgebra(65)",
              "sl2_kernel(5)", "sl2_kernel(" + "9" * 40 + ")"]


def _paths(node, prefix=()):
    """Every position inside a JSON document, as a tuple of keys/indices."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for idx, child in enumerate(node):
            yield from _paths(child, prefix + (idx,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _junk(data):
    """A fresh copy of a wrong-typed value, so that later edits of the
    document never reach JUNK itself."""
    return copy.deepcopy(data.draw(st.sampled_from(JUNK)))


def _mutate(data, doc):
    """One random edit of doc, in place; doc may be replaced wholesale."""
    paths = list(_paths(doc))
    keyed = [p for p in paths if p and isinstance(_at(doc, p[:-1]), dict)]
    kind = data.draw(st.sampled_from(["drop", "retype", "entry", "index", "name"]))
    if kind == "drop" and keyed:
        path = data.draw(st.sampled_from(keyed))
        del _at(doc, path[:-1])[path[-1]]
        return doc
    if kind == "retype" and keyed:
        path = data.draw(st.sampled_from(keyed))
        _at(doc, path[:-1])[path[-1]] = _junk(data)
        return doc
    if kind == "index":
        ints = [p for p in paths if p and isinstance(_at(doc, p), int)
                and not isinstance(_at(doc, p), bool)]
        if ints:
            path = data.draw(st.sampled_from(ints))
            _at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from([-1, 7, 10 ** 6]))
            return doc
    if kind == "name":
        named = [p for p in paths if p and p[-1] in ("coalgebra", "source", "target")]
        if named:
            path = data.draw(st.sampled_from(named))
            _at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(HUGE_NAMES))
            return doc
    path = data.draw(st.sampled_from(paths))
    junk = _junk(data)
    if not path:
        return junk
    _at(doc, path[:-1])[path[-1]] = junk
    return doc


def test_cli_survives_mutated_inputs(tmp_path, monkeypatch, capsys):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_cli_examples.py"), str(tmp_path / "examples_io")],
        check=True, capture_output=True,
    )
    monkeypatch.chdir(tmp_path)
    argvs = [argv for argv in _readme_command_lines() if "tower" not in argv]

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.data())
    def check(data):
        argv = list(data.draw(st.sampled_from(argvs)))
        files = [i for i, word in enumerate(argv) if word.endswith(".json")]
        slot = data.draw(st.sampled_from(files))
        doc = json.loads((tmp_path / argv[slot]).read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(data, doc)
        (tmp_path / "fuzzed.json").write_text(json.dumps(doc))
        argv[slot] = "fuzzed.json"
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 1, 2), argv
        assert (code == 2) == ("error" in report), (argv, report)
        if code == 2:
            assert report["error"]

    check()


# catalog names, twice as likely as the projection q (not a module), near
# misses and blanks; " L1 " is L1
TOWER_FACTORS = ["L0", "L1", "L2", "L3", "P0", "P1"] * 2 + ["q", "L4", "l1", "", " L1 ", "L1*"]


# every weight within +-1, so their windows fit a tower up to stage 2
SMALL_FACTORS = ["L0", "L1", "P1"]


def _battery(data):
    kind = data.draw(st.sampled_from(["small", "small", "names", "junk", "empty", "oversize"]))
    if kind == "empty":
        return data.draw(st.sampled_from([[], "", {}]))
    factor = st.sampled_from(SMALL_FACTORS if kind == "small" else TOWER_FACTORS)
    if kind == "small":
        return data.draw(st.lists(factor, min_size=1, max_size=3))
    battery = data.draw(st.lists(st.lists(factor, min_size=1, max_size=2).map("*".join),
                                 min_size=1, max_size=3))
    if kind == "junk":
        battery.insert(data.draw(st.integers(0, len(battery))), _junk(data))
    elif kind == "oversize":
        # L1 to the 12th power has dimension 4096, so any stage makes it too large
        power = data.draw(st.integers(12, 40))
        battery.insert(data.draw(st.integers(0, len(battery))), "*".join(["L1"] * power))
    return battery


def _tower_argv(data, battery_path) -> list:
    battery_path.write_text(json.dumps(_battery(data)))
    # mostly a tower that exists: p = 2, lambda >= 0 and mmax above its top digit
    return ["tower", "--p", data.draw(st.sampled_from(["2"] * 5 + ["3"])),
            "--lambda", data.draw(st.sampled_from(["0", "1"] * 3 + ["2", "3", "-1"])),
            "--mmax", data.draw(st.sampled_from(["2", "2", "1", "0"])),
            "--battery", str(battery_path)]


def test_cli_tower_survives_mutated_batteries(tmp_path, capsys):
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.data())
    def check(data):
        argv = _tower_argv(data, tmp_path / "battery.json")
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 1, 2), argv
        assert (code == 2) == ("error" in report), (argv, report)
        if code == 2:
            assert report["error"]

    check()
