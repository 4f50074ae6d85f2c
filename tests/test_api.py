"""The package's public names: ``__all__`` lists each exported name once, and
every one of them resolves.  The record classes keep the behaviour callers
read: field-wise equality within one class, ``replace`` through the checks
of ``__init__``, and a hashable, immutable ``FieldSpec``; and the modules a
CLI job loads import neither ``dataclasses`` nor ``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import contramod
from contramod.coalgebra import Verdict, grouplike
from contramod.comodule import Comodule
from contramod.contramodule import Contramodule
from contramod.fields import GF, GF2, QQ, FieldSpec
from contramod.functors import AdjunctionReport, ExactnessVerdict
from contramod.linalg import coequalizer
from contramod.matrix import Mat

SRC = Path(__file__).resolve().parents[1] / "src"


def test_star_import_exports_each_name_in_all_once():
    namespace: dict = {}
    exec("from contramod import *", namespace)  # a stale name raises AttributeError
    namespace.pop("__builtins__")
    assert len(set(contramod.__all__)) == len(contramod.__all__)
    assert sorted(namespace) == sorted(contramod.__all__)


def test_cli_job_modules_import_neither_dataclasses_nor_inspect():
    """In a fresh interpreter without site, the modules that the CLI jobs
    load add neither module to sys.modules; read as a set difference, so a
    module that the host loads before the import does not count."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import contramod.cli, contramod.functors, contramod.towers, contramod.randomgen\n"
            "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.strip() == ""


def test_fieldspec_is_hashable_equal_by_characteristic_and_immutable():
    assert GF(3) == FieldSpec(3) and hash(GF(3)) == hash(FieldSpec(3))
    assert len({QQ, FieldSpec(), GF2, GF(2), GF(3)}) == 3
    assert QQ != GF2 and GF2 != 2
    with pytest.raises(AttributeError):
        GF2.characteristic = 3
    with pytest.raises(AttributeError):
        del GF2.characteristic
    assert GF2.characteristic == 2 and repr(GF(3)) == "FieldSpec(characteristic=3)"


def test_comodules_and_contramodules_compare_field_by_field_within_their_class():
    c = grouplike(QQ, 2)
    one = {(0, 0): 1, (3, 1): 1}

    def comodule(name="m", data=one):
        return Comodule(c, "left", 2, Mat(4, 2, QQ, dict(data)), name)

    def contramodule(name="m", data=one):
        return Contramodule(c, 2, Mat(4, 2, QQ, dict(data)), name)

    assert comodule() == comodule() and contramodule() == contramodule()
    assert comodule() != comodule("n") and contramodule() != contramodule("n")
    assert comodule() != comodule(data={(0, 1): 1, (3, 0): 1})
    assert comodule() != Comodule(c, "right", 2, Mat(4, 2, QQ, dict(one)), "m")
    assert comodule() != contramodule() and contramodule() != comodule()
    for m in (comodule(), contramodule()):
        with pytest.raises(TypeError):
            hash(m)


def test_replace_keeps_the_class_and_runs_the_constructor_checks():
    c = grouplike(QQ, 2)
    b = Contramodule(c, 2, Mat(4, 2, QQ, {(0, 0): 1, (3, 1): 1}), "b")
    renamed = b.replace(name="b2")
    assert type(renamed) is Contramodule and renamed.side == "left"
    assert renamed == Contramodule(c, 2, b.left_coaction, "b2") and b.name == "b"
    m = Comodule(c, "right", 2, b.left_coaction, "m")
    assert type(m.replace(name="m2")) is Comodule and m.replace(name="m2").side == "right"
    for x in (b, m):
        with pytest.raises(ValueError, match="coaction must be"):
            x.replace(left_coaction=Mat(4, 1, QQ))
        with pytest.raises(ValueError, match="coaction must be"):
            x.replace(dim=1)
    with pytest.raises(ValueError, match="coaction must be"):
        Contramodule(c, 2, Mat(4, 1, QQ))
    with pytest.raises(TypeError):
        b.replace(side="right")


def test_reports_and_coequalizers_compare_field_by_field():
    assert Verdict() == Verdict([]) and Verdict(["counit"]) == Verdict(["counit"])
    assert Verdict(["counit"]) != Verdict([]) and Verdict() is not Verdict()
    assert AdjunctionReport(2, 2, True) == AdjunctionReport(2, 2, True)
    assert AdjunctionReport(2, 2, True) != AdjunctionReport(2, 2, False)
    assert repr(AdjunctionReport(2, 2, True)) == "AdjunctionReport(lhs_dim=2, rhs_dim=2, roundtrip_ok=True)"
    incl, proj = Mat(2, 1, QQ, {(0, 0): 1}), Mat(1, 2, QQ, {(0, 1): 1})
    assert ExactnessVerdict.of(incl, proj) == ExactnessVerdict(True, [], (1, 2, 1))
    assert ExactnessVerdict.of(incl, proj) != ExactnessVerdict.of(incl, Mat(1, 2, QQ))
    f, g = Mat(2, 2, QQ, {(0, 0): 1}), Mat(2, 2, QQ)
    assert coequalizer(f, g) == coequalizer(f, g)
    assert coequalizer(f, g) == coequalizer(g, f)  # Im(f - g) = Im(g - f)
    assert coequalizer(f, g) != coequalizer(Mat(2, 2, QQ, {(1, 0): 1}), g)
