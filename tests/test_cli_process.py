"""The CLI as a process: which submodules a job loads, and that ``entry``
(the console script and ``python -m contramod.cli``) reports exactly what
the in-process ``main`` does, though it ends the process without teardown."""

import json
import os
import subprocess
import sys

import pytest

from contramod import cli
from test_io_cli import ROOT, _readme_command_lines

# what cli imports at module level: io and the layers io is built on
CLI_LAYERS = {"cli", "io", "fields", "matrix", "linalg", "coalgebra", "comodule", "contramodule"}


def _env():
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _loaded_after(code: str, cwd=None) -> set:
    """The contramod submodules loaded after running code in a fresh interpreter."""
    code += "\nimport json, sys; print(json.dumps([m for m in sys.modules if m.startswith('contramod.')]))"
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=_env(), capture_output=True,
                         text=True, timeout=120, check=True).stdout
    return {m.removeprefix("contramod.") for m in json.loads(out.splitlines()[-1])}


@pytest.fixture
def examples(tmp_path, monkeypatch):
    """The README's example inputs in examples_io/, with tmp_path the working directory."""
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_cli_examples.py"), str(tmp_path / "examples_io")],
        check=True, capture_output=True,
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    return tmp_path


def test_importing_the_package_loads_no_submodule():
    code = ("import contramod\n"
            "assert set(contramod.__all__) <= set(dir(contramod)), 'dir() misses exported names'")
    assert _loaded_after(code) == set()


def test_importing_the_cli_loads_only_io_and_its_layers():
    assert _loaded_after("import contramod.cli") == CLI_LAYERS


def test_each_readme_job_loads_only_the_layers_of_its_subcommand(examples):
    for argv in _readme_command_lines():
        command = next(word for word in argv if word in cli.COMMANDS)
        extra = {"induce": {"functors"}, "adjoint-check": {"functors"},
                 "exactness": {"functors", "randomgen"} if "--samples" in argv else {"functors"},
                 "tower": {"sl2", "towers"}}.get(command, set())
        code = ("import contextlib, io, contramod.cli\n"
                f"with contextlib.redirect_stdout(io.StringIO()): contramod.cli.main({argv!r})")
        assert _loaded_after(code, cwd=examples) == CLI_LAYERS | extra, argv


def test_importing_sl2_loads_no_tower():
    assert "towers" not in _loaded_after("import contramod.sl2")


def test_verify_on_a_named_frobenius_kernel_loads_sl2_but_no_tower(tmp_path):
    from contramod import io as cio
    from contramod.contramodule import free_contramodule
    from contramod.sl2 import frob_kernel_coalgebra

    doc = cio.contramodule_to_json(free_contramodule(frob_kernel_coalgebra(2, 1), 1))
    doc["coalgebra"] = "sl2_kernel(1)"
    (tmp_path / "b.json").write_text(json.dumps(doc))
    code = ("import contextlib, io, contramod.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert contramod.cli.main(['--field', 'Fp:2', 'verify', 'b.json']) == 0")
    assert _loaded_after(code, cwd=tmp_path) == CLI_LAYERS | {"sl2"}


def _process_and_main(argv, capsys):
    """(exit code, stdout bytes) of argv run by ``python -m contramod.cli``
    and by ``main`` in this process, where argparse's exit is a SystemExit."""
    proc = subprocess.run([sys.executable, "-m", "contramod.cli", *argv], env=_env(),
                          capture_output=True, timeout=120)
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    return (proc.returncode, proc.stdout), (code, capsys.readouterr().out.encode())


def test_process_reports_match_main_on_every_readme_line(examples, capsys):
    codes = set()
    for argv in _readme_command_lines():
        process, in_process = _process_and_main(argv, capsys)
        assert process == in_process, argv
        codes.add(process[0])
    assert codes == {0, 1}


@pytest.mark.parametrize("argv, want", [
    (["verify", "broken.json"], 2),
    (["--help"], 0),
    (["verify", "--no-such-flag", "examples_io/coalgebra_grouplike3.json"], 2),
])
def test_process_matches_main_on_input_errors_and_argparse_exits(argv, want, examples, capsys):
    (examples / "broken.json").write_text('{"dim": 1, ')
    process, in_process = _process_and_main(argv, capsys)
    assert process == in_process and process[0] == want


def test_process_writes_the_whole_report_to_out(examples, capsys):
    argv = ["--out", "report.json", "--pretty", "--field", "Fp:2", "exactness",
            "--rho", "examples_io/rho_dpd32.json", "--samples", "20", "--seed", "11"]
    report = examples / "report.json"
    written = []
    for run in (lambda: subprocess.run([sys.executable, "-m", "contramod.cli", *argv], env=_env(),
                                       capture_output=True, timeout=120).returncode,
                lambda: cli.main(argv)):
        written.append((run(), report.read_text()))
        report.unlink()
    assert capsys.readouterr().out == ""
    assert written[0] == written[1]
    code, text = written[0]
    assert code == 1 and text.endswith("}\n") and json.loads(text)["exactness"]["total"] == 20


def test_console_script_takes_the_process_entry():
    assert callable(cli.entry)
    assert '\ncontramod = "contramod.cli:entry"\n' in (ROOT / "pyproject.toml").read_text()
