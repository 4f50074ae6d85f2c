"""JSON round trips, schema errors, and the CLI exit-code contract."""

import argparse
import json
import random
import os
import shlex
import signal
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import pytest

from contramod import io as cio
from contramod.cli import COMMANDS, DEFAULT_SEED, JobSpec, build_parser, main, run
from contramod.coalgebra import (
    divided_power_dual, divided_power_surjection, grouplike, grouplike_elements, matrix_coalgebra,
)
from contramod.comodule import (
    cofree, comodule_closure, comodule_over_self, direct_sum, dual_comodule, quotient_comodule,
    sub_comodule,
)
from contramod.contramodule import check_contramodule, free_contramodule
from contramod.fields import _MR_LIMIT, GF, GF2, QQ, FieldSpec, _is_prime
from contramod.io import SchemaError
from contramod.matrix import Mat
from contramod.randomgen import random_comodule, random_contramodule
from test_coalgebra import identity_morphism
from test_comodule import trivial

ROOT = Path(__file__).resolve().parent.parent


def test_field_json_roundtrip():
    assert cio.field_from_json(cio.field_to_json(QQ)) == QQ
    assert cio.field_from_json(cio.field_to_json(GF2)) == GF2
    with pytest.raises(SchemaError):
        cio.field_from_json({"Fp": 4})
    assert cio.parse_field_flag("Fp:3") == GF(3)
    with pytest.raises(SchemaError):
        cio.parse_field_flag("R")


def test_mat_json_roundtrip():
    from contramod.matrix import Mat

    m = Mat.from_entries(2, 3, QQ, [(0, 1, "1/2"), (1, 2, -3)])
    back = cio.mat_from_json(cio.mat_to_json(m), QQ)
    assert back == m


def test_coalgebra_json_roundtrip():
    for c in (grouplike(GF2, 3), divided_power_dual(QQ, 3)):
        back = cio.coalgebra_from_json(cio.coalgebra_to_json(c))
        assert back.delta == c.delta and back.epsilon == c.epsilon


def test_comodule_and_contramodule_roundtrip():
    c = divided_power_dual(GF(3), 3)
    for m in (comodule_over_self(c), cofree(c, 2), dual_comodule(cofree(c, 1))):
        back = cio.comodule_from_json(cio.comodule_to_json(m))
        assert back.coaction == m.coaction and back.side == m.side
    b = free_contramodule(c, 2)
    back = cio.contramodule_from_json(cio.contramodule_to_json(b))
    assert back.theta == b.theta


def layout_triples(m, inner_dim, field):
    """The writer's triples read off a matrix in the input's own layout:
    entry (i*inner_dim + j, k) as [i, j, k, val], sorted."""
    return [[*divmod(row, inner_dim), k, field.format(v)] for (row, k), v in sorted(m.data.items())]


# matrix_coalgebra(Q, 2) over itself on the right, and its free contramodule
# on k, as the writer has always emitted them
PINNED_RIGHT = (
    '{"coalgebra": {"field": "Q", "dim": 4, "delta": [[0, 0, 0, "1"], [0, 1, 1, "1"], '
    '[1, 2, 0, "1"], [1, 3, 1, "1"], [2, 0, 2, "1"], [2, 1, 3, "1"], [3, 2, 2, "1"], '
    '[3, 3, 3, "1"]], "epsilon": ["1", "0", "0", "1"]}, "side": "right", "dim": 4, '
    '"coaction": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 2, 0, "1"], [1, 3, 1, "1"], '
    '[2, 0, 2, "1"], [2, 1, 3, "1"], [3, 2, 2, "1"], [3, 3, 3, "1"]]}'
)
PINNED_THETA = (
    '[[0, 0, 0, "1"], [0, 0, 9, "1"], [0, 1, 4, "1"], [0, 1, 13, "1"], '
    '[0, 2, 2, "1"], [0, 2, 11, "1"], [0, 3, 6, "1"], [0, 3, 15, "1"]]'
)


def test_right_comodule_and_contramodule_json_is_pinned():
    c = matrix_coalgebra(QQ, 2)
    assert json.dumps(cio.comodule_to_json(comodule_over_self(c, "right"))) == PINNED_RIGHT
    assert json.dumps(cio.contramodule_to_json(free_contramodule(c, 1))["theta"]) == PINNED_THETA


@pytest.mark.parametrize("field", [QQ, GF2, GF(3)])
def test_json_triples_are_the_sorted_input_layouts(field):
    """Right coactions and theta are written from the stored matrix in the
    order of their own layouts, and read back to the same stored matrix."""
    rng = random.Random(1818)
    for c in (matrix_coalgebra(field, 2), divided_power_dual(field, 3)):
        for _ in range(6):
            m = random_comodule(rng, c, side="right")
            b = random_contramodule(rng, c)
            doc, bdoc = cio.comodule_to_json(m), cio.contramodule_to_json(b)
            assert doc["coaction"] == layout_triples(m.coaction, c.dim, field)
            assert bdoc["theta"] == layout_triples(b.theta, b.dim, field)
            back = cio.comodule_from_json(json.loads(json.dumps(doc)))
            assert (back.left_coaction, back.side) == (m.left_coaction, "right")
            assert cio.contramodule_from_json(json.loads(json.dumps(bdoc))).left_coaction == b.left_coaction


def old_triples_to_mat(triples, inner_dim, rows, cols, field, where):
    """The loader as it read every layout as given: one check per index and
    one parse per scalar, then the matrix checks its own columns."""
    outer = rows // inner_dim if inner_dim else 0
    entries = []
    try:
        for i, j, k, v in triples:
            i, j = cio._int(i), cio._int(j)
            if not (0 <= i < outer and 0 <= j < inner_dim):
                raise ValueError(f"index ({i}, {j}) outside {outer}x{inner_dim}")
            entries.append((i * inner_dim + j, cio._int(k), field.parse(v)))
    except (TypeError, ValueError) as e:
        raise SchemaError(f"{where}: bad coefficient triple: {e}") from None
    try:
        return Mat.from_entries(rows, cols, field, entries)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from None


def _edited_triples(rng, triples, dims):
    """Copies of triples with one or two entries replaced by a wrong type, a
    bad scalar or an index just outside its range, or a triple of the wrong
    length, a duplicate or a cancelling pair added."""
    junk = [0.5, True, 1, None, "x", "1/0", "1/2", "0", [], -1, 10 ** 30, *dims]

    def edit(ts):
        t = rng.randrange(len(ts))
        kind = rng.randrange(4)
        if kind == 0:
            ts[t] = ts[t][:rng.randrange(4)] if rng.random() < 0.5 else [*ts[t], "1"]
        elif kind == 1:
            ts.append(list(ts[t]))
            ts.append([*ts[t][:3], "-1" if rng.random() < 0.5 else "2"])
        elif ts[t]:
            ts[t] = list(ts[t])
            ts[t][rng.randrange(len(ts[t]))] = rng.choice(junk)

    # an int scalar, then True: each read as it stands, not as the other
    yield [[*triples[0][:3], 1], [*triples[1][:3], True], *triples[2:]]
    for _ in range(150):
        ts = [list(t) for t in triples]
        for _ in range(rng.randint(1, 2)):
            edit(ts)
        yield ts


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_loader_matches_the_layout_loader(field):
    """Right coactions and theta are read straight into the stored matrix,
    each scalar string parsed once: every edited input is accepted or
    refused as the loader that read each layout as given did, with the same
    first error message, and an accepted one gives the same matrix."""
    rng = random.Random(1919)
    c = matrix_coalgebra(field, 2)
    n = c.dim
    m = random_comodule(rng, c, side="right")
    b = random_contramodule(rng, c)
    md, bd = m.dim, b.dim
    right = cio.comodule_to_json(m)
    theta = cio.contramodule_to_json(b)
    cases = [(right, "coaction", (md, n, md * n), lambda doc: cio.comodule_from_json(doc).coaction,
              lambda ts: old_triples_to_mat(ts, n, md * n, md, field, "coaction")),
             (theta, "theta", (bd, n * bd), lambda doc: cio.contramodule_from_json(doc).theta,
              lambda ts: old_triples_to_mat(ts, bd, bd, n * bd, field, "theta"))]
    refused = 0
    for doc, key, dims, load, old in cases:
        for ts in _edited_triples(rng, doc[key], dims):
            got, want = _outcome(load, {**doc, key: ts}), _outcome(old, ts)
            assert got == want, ts
            refused += want[0] is SchemaError
    assert 100 < refused < 300


def test_named_coalgebra_resolution():
    c = cio.coalgebra_from_json("grouplike(3)", GF2)
    assert c.dim == 3
    with pytest.raises(SchemaError):
        cio.coalgebra_from_json("nonsense(1)", GF2)
    with pytest.raises(SchemaError):
        cio.coalgebra_from_json("grouplike(3)")  # no field to resolve against


def test_detect_and_load():
    c = divided_power_dual(QQ, 2)
    assert cio.detect_and_load(cio.coalgebra_to_json(c)).dim == 2
    m = cio.detect_and_load(cio.comodule_to_json(comodule_over_self(c)))
    assert m.side == "left"
    b = cio.detect_and_load(cio.contramodule_to_json(free_contramodule(c, 1)))
    assert b.dim == 2
    rho = divided_power_surjection(QQ, 3, 2, 2)
    assert cio.detect_and_load(cio.morphism_to_json(rho)).surjective


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_verify_ok_and_exit_codes(tmp_path, capsys):
    c = grouplike(QQ, 3)
    path = _write(tmp_path, "c.json", cio.coalgebra_to_json(c))
    assert main(["verify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["kind"] == "coalgebra"
    # corrupt the counit: check failure, exit 1
    bad = cio.coalgebra_to_json(c)
    bad["epsilon"] = ["0", "1", "1"]
    path_bad = _write(tmp_path, "bad.json", bad)
    assert main(["verify", path_bad]) == 1
    # schema violation: exit 2 with a pointer to the offending field
    broken = {"dim": 2, "delta": [[0, 0, 0, "1", "extra"]], "epsilon": ["1", "1"]}
    path_broken = _write(tmp_path, "broken.json", broken)
    assert main(["verify", path_broken]) == 2
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "delta" in report["error"] or "input" in report["error"]


def test_cli_hom_cotensor_cohom(tmp_path, capsys):
    c = divided_power_dual(GF2, 3)
    reg = comodule_over_self(c)
    reg_r = comodule_over_self(c, side="right")
    free = free_contramodule(c, 1)
    m_path = _write(tmp_path, "m.json", cio.comodule_to_json(reg))
    mr_path = _write(tmp_path, "mr.json", cio.comodule_to_json(reg_r))
    b_path = _write(tmp_path, "b.json", cio.contramodule_to_json(free))
    assert main(["hom", m_path, m_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 3
    assert main(["cotensor", mr_path, m_path]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 3
    assert main(["cohom", m_path, b_path]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 3
    assert main(["contratensor", mr_path, b_path]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 3
    # mismatched coalgebras: input error
    c2 = grouplike(GF2, 2)
    other = _write(tmp_path, "o.json", cio.comodule_to_json(comodule_over_self(c2)))
    assert main(["hom", m_path, other]) == 2


def test_cli_induce_and_adjoint(tmp_path, capsys):
    rho = divided_power_surjection(GF(3), 3, 2, 2)
    rho_path = _write(tmp_path, "rho.json", cio.morphism_to_json(rho))
    w = free_contramodule(rho.target, 1)
    w_path = _write(tmp_path, "w.json", cio.contramodule_to_json(w))
    v = free_contramodule(rho.source, 1)
    v_path = _write(tmp_path, "v.json", cio.contramodule_to_json(v))
    assert main(["induce", "--rho", rho_path, "--W", w_path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dim_induced"] == 3 and rep["axioms_ok"]
    assert main(["adjoint-check", "--rho", rho_path, "--W", w_path, "--V", v_path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["adjunction"]["lhs_dim"] == rep["adjunction"]["rhs_dim"]
    assert rep["roundtrip_ok"]


def test_cli_exactness_witness_and_sampling(tmp_path, capsys):
    rho = divided_power_surjection(GF2, 3, 2, 2)
    rho_path = _write(tmp_path, "rho.json", cio.morphism_to_json(rho))
    # explicit witness: 0 -> k -> D* -> k -> 0 over the target
    breg = free_contramodule(rho.target, 1)
    rad = comodule_closure(breg, [{1: GF2.one()}])
    sub, incl = sub_comodule(breg, rad)
    quot, proj = quotient_comodule(breg, rad)
    ses_payload = {
        "sub": cio.contramodule_to_json(sub),
        "mid": cio.contramodule_to_json(breg),
        "quot": cio.contramodule_to_json(quot),
        "incl": cio.mat_to_json(incl),
        "proj": cio.mat_to_json(proj),
    }
    ses_path = _write(tmp_path, "ses.json", ses_payload)
    code = main(["exactness", "--rho", rho_path, "--ses", ses_path])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["exactness"]["failures"][0]["positions"] == ["left"]
    # sampling mode runs and reports totals
    code = main(["--seed", "7", "exactness", "--rho", rho_path, "--samples", "5"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["exactness"]["total"] == 5
    assert code in (0, 1)


def _not_a_contramodule(b):
    """b's JSON with one more theta entry, a payload that loads but fails the
    contramodule axioms."""
    payload = cio.contramodule_to_json(b)
    payload["theta"].append([0, 0, 1, "1"])
    return payload


def test_cli_refuses_inputs_that_are_not_contramodules(tmp_path, capsys):
    """induce, adjoint-check and exactness --ses exit 2 on a W, a V or a
    sequence term that fails the contramodule axioms, naming the input."""
    rho = divided_power_surjection(GF2, 3, 2, 2)
    rho_path = _write(tmp_path, "rho.json", cio.morphism_to_json(rho))
    w, v = free_contramodule(rho.target, 1), free_contramodule(rho.source, 1)
    w_path = _write(tmp_path, "w.json", cio.contramodule_to_json(w))
    v_path = _write(tmp_path, "v.json", cio.contramodule_to_json(v))
    bad_w = _write(tmp_path, "bad_w.json", _not_a_contramodule(w))
    bad_v = _write(tmp_path, "bad_v.json", _not_a_contramodule(v))
    rad = comodule_closure(w, [{1: GF2.one()}])
    (sub, incl), (quot, proj) = sub_comodule(w, rad), quotient_comodule(w, rad)
    terms = {"sub": sub, "mid": w, "quot": quot}
    ses = {"incl": cio.mat_to_json(incl), "proj": cio.mat_to_json(proj)}
    ses.update((k, cio.contramodule_to_json(b)) for k, b in terms.items())
    cases = [(["induce", "--W", bad_w], "W", w),
             (["adjoint-check", "--W", bad_w, "--V", v_path], "W", w),
             (["adjoint-check", "--W", w_path, "--V", bad_v], "V", v)]
    for key, b in terms.items():
        path = _write(tmp_path, f"ses_{key}.json", dict(ses, **{key: _not_a_contramodule(b)}))
        cases.append((["exactness", "--ses", path], f"ses.{key}", b))
    for argv, name, b in cases:
        failures = check_contramodule(cio.contramodule_from_json(_not_a_contramodule(b), GF2)).failures
        assert failures and main(["--field", "Fp:2", *argv, "--rho", rho_path]) == 2, argv
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == f"{name}: not a contramodule: {', '.join(failures)}"


def test_cli_duality(tmp_path, capsys):
    c = divided_power_dual(QQ, 3)
    v_path = _write(tmp_path, "v.json", cio.comodule_to_json(comodule_over_self(c)))
    w_path = _write(tmp_path, "w.json", cio.comodule_to_json(cofree(c, 1)))
    assert main(["duality", "--V", v_path, "--W", w_path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["cohom_dim"] == rep["hom_dim"] == rep["pairing_rank"]


def test_cli_tower(tmp_path, capsys):
    battery = _write(tmp_path, "battery.json", ["L0", "L1"])
    code = main(["tower", "--p", "2", "--lambda", "0", "--mmax", "2", "--battery", battery])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["all_match"]
    dims = {t["module"]: [s["dim_cohom"] for s in t["stages"]] for t in rep["towers"]}
    assert dims["L0"] == [1, 1]
    assert dims["L1"][-1] == 0


def test_cli_tower_single_stage_reports_no_stabilization(tmp_path, capsys):
    battery = _write(tmp_path, "battery.json", ["L0"])
    assert main(["tower", "--p", "2", "--lambda", "0", "--mmax", "1", "--battery", battery]) == 0
    [row] = json.loads(capsys.readouterr().out)["towers"]
    assert row["stages"] == [{"m": 1, "dim_cohom": 1}]
    assert row["stabilized_at"] is None


def test_cli_determinism(tmp_path):
    rho = divided_power_surjection(GF2, 3, 2, 2)
    rho_path = _write(tmp_path, "rho.json", cio.morphism_to_json(rho))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["--seed", "11", "--out", str(out1), "exactness", "--rho", rho_path, "--samples", "4"])
    main(["--seed", "11", "--out", str(out2), "exactness", "--rho", rho_path, "--samples", "4"])
    assert out1.read_bytes() == out2.read_bytes()
    # pretty never changes the payload
    out3 = tmp_path / "r3.json"
    main(["--seed", "11", "--pretty", "--out", str(out3), "exactness", "--rho", rho_path, "--samples", "4"])
    assert json.loads(out3.read_text()) == json.loads(out1.read_text())


def test_run_jobspec_directly():
    job = JobSpec(command="verify", inputs={"input": "/nonexistent.json"})
    code, report = run(job)
    assert code == 2 and "not found" in report["error"]
    assert report["seed"] == DEFAULT_SEED
    code, report = run(JobSpec(command="no-such-command"))
    assert code == 2 and "no-such-command" in report["error"]


def test_is_prime_matches_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(10 ** 4) if _is_prime(n) != trial_division(n)] == []


def test_composite_and_uncertified_characteristics_rejected():
    for p in (4, 561):
        with pytest.raises(ValueError):
            FieldSpec(p)
    with pytest.raises(ValueError):
        _is_prime(_MR_LIMIT)


@pytest.mark.parametrize("p", [0, 1, 4, 561])
def test_gf_refuses_a_non_prime(p):
    with pytest.raises(ValueError, match=rf"^F_p needs a prime p, got {p}$"):
        GF(p)


def test_cli_zero_characteristic_exits_2(tmp_path, capsys):
    """Fp:0 and {"Fp": 0} name no prime field: neither selects Q."""
    doc = cio.coalgebra_to_json(grouplike(QQ, 2))
    assert main(["--field", "Fp:0", "verify", _write(tmp_path, "c.json", doc)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "F_p needs a prime p, got 0"
    doc["field"] = {"Fp": 0}
    assert main(["verify", _write(tmp_path, "c0.json", doc)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "field: F_p needs a prime p, got 0"


def test_cli_large_prime_field_is_fast(tmp_path, capsys):
    p = 2 ** 61 - 1
    doc = cio.comodule_to_json(comodule_over_self(grouplike(GF(p), 2)))
    doc["coalgebra"] = "grouplike(2)"
    path = _write(tmp_path, "m.json", doc)
    start = time.perf_counter()
    code = main(["--field", f"Fp:{p}", "verify", path])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(capsys.readouterr().out)["ok"]


@pytest.mark.parametrize("where, scalar, flag", [
    ("delta", "1/2", "Fp:2"),          # 1/2 has no value mod 2
    ("epsilon", "abc", "Fp:2"),
    (None, None, "Fp:4"),
    (None, None, f"Fp:{10 ** 25 + 13}"),  # beyond the certified primality range
])
def test_cli_malformed_input_exits_2(where, scalar, flag, tmp_path, capsys):
    doc = cio.coalgebra_to_json(grouplike(GF2, 2))
    if where == "delta":
        doc["delta"][0][3] = scalar
    elif where == "epsilon":
        doc["epsilon"][0] = scalar
    path = _write(tmp_path, "c.json", doc)
    assert main(["--field", flag, "verify", path]) == 2
    assert json.loads(capsys.readouterr().out)["error"]


def test_cli_verify_named_frobenius_kernel(tmp_path, capsys):
    from contramod.sl2 import frob_kernel_coalgebra

    doc = cio.contramodule_to_json(free_contramodule(frob_kernel_coalgebra(2, 1), 1))
    doc["coalgebra"] = "sl2_kernel(1)"
    path = _write(tmp_path, "b.json", doc)
    assert main(["--field", "Fp:2", "verify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "contramodule" and report["ok"]


@pytest.mark.parametrize("name", ["sl2_kernel(1,2)", "grouplike(2,3)"])
def test_cli_catalog_name_with_wrong_arity_exits_2(name, tmp_path, capsys):
    doc = cio.contramodule_to_json(free_contramodule(grouplike(GF2, 2), 1))
    doc["coalgebra"] = name
    path = _write(tmp_path, "b.json", doc)
    assert main(["--field", "Fp:2", "verify", path]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert "takes 1 argument, got 2" in error


def test_global_flags_after_the_subcommand(tmp_path):
    rho_path = _write(tmp_path, "rho.json", cio.morphism_to_json(divided_power_surjection(GF2, 3, 2, 2)))
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    main(["--seed", "11", "--field", "Fp:2", "--out", str(before), "exactness", "--rho", rho_path])
    main(["exactness", "--rho", rho_path, "--seed", "11", "--field", "Fp:2", "--out", str(after)])
    assert json.loads(before.read_text())["seed"] == 11
    assert before.read_bytes() == after.read_bytes()


def _readme_command_lines():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("contramod ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_cli_examples.py"), str(tmp_path / "examples_io")],
        check=True, capture_output=True,
    )
    monkeypatch.chdir(tmp_path)
    argvs = _readme_command_lines()
    assert len(argvs) == 11
    for argv in argvs:
        assert main(argv) in (0, 1), argv
        report = json.loads(capsys.readouterr().out)
        assert "error" not in report and report["command"] in argv


def test_readme_examples_cover_every_subcommand():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMANDS)
    shown = {word for argv in _readme_command_lines() for word in argv if word in COMMANDS}
    assert shown == set(COMMANDS)


def test_cli_rejects_vacuous_jobs(tmp_path, capsys):
    rho_path = _write(tmp_path, "rho.json", cio.morphism_to_json(divided_power_surjection(GF2, 3, 2, 2)))
    for samples in ("0", "-3"):
        assert main(["exactness", "--rho", rho_path, "--samples", samples]) == 2
        assert "--samples" in json.loads(capsys.readouterr().out)["error"]
    battery = _write(tmp_path, "battery.json", [])
    assert main(["tower", "--p", "2", "--lambda", "0", "--mmax", "2", "--battery", battery]) == 2
    assert "empty" in json.loads(capsys.readouterr().out)["error"]


def _within_one_second(call):
    def on_alarm(signum, frame):
        raise TimeoutError("took more than 1 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_cli_tower_refuses_kernels_above_max_dim(tmp_path, capsys, monkeypatch):
    """The last stage lives over k[G_mmax], of dimension p^(3 mmax): above
    io.MAX_DIM the job exits 2 before anything is built."""
    battery = _write(tmp_path, "battery.json", ["L0"])
    for lam, mmax in (("0", "5"), ("40", "7")):
        argv = ["tower", "--p", "2", "--lambda", lam, "--mmax", mmax, "--battery", battery]
        assert _within_one_second(lambda: main(argv)) == 2
        assert f"k[G_{mmax}]" in json.loads(capsys.readouterr().out)["error"]

    # k[G_4] has dimension exactly io.MAX_DIM, so --mmax 4 reaches the stage
    def reached(*args):
        raise ValueError("stage_dim reached")

    monkeypatch.setattr("contramod.sl2.stage_dim", reached)
    assert main(["tower", "--p", "2", "--lambda", "0", "--mmax", "4", "--battery", battery]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "stage_dim reached"


def test_cli_tower_refuses_battery_modules_above_max_dim(tmp_path, capsys, monkeypatch):
    """dim V * dim P(lambda, mmax) is the row count of the largest Cohom
    coequalizer: above io.MAX_DIM the job exits 2, naming the module, before
    any module is tensored together."""
    from contramod.sl2 import battery_dim

    assert [battery_dim(2, e) for e in ("L0", "L1", "L3", "P1", "L1*L1", " P0 * L2 ")] == [1, 2, 4, 2, 4, 8]
    ninth = "*".join(["L1"] * 9)
    battery = _write(tmp_path, "battery.json", ["L0", ninth, "L1*L1*L1*L1*L1*L1*L1*L1*L1*L1"])
    argv = ["tower", "--p", "2", "--lambda", "0", "--mmax", "2", "--battery", battery]
    assert _within_one_second(lambda: main(argv)) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == f"tower: {ninth} times the last stage P(0,2), of dimension 16, has dimension above 4096"

    # 256 * 16 is exactly io.MAX_DIM, so L3^4 at --mmax 2 passes the size
    # guard and reaches the weight window, the next check
    def reached(*args):
        raise ValueError("weight window reached")

    monkeypatch.setattr("contramod.sl2.battery_top_weight", reached)
    battery = _write(tmp_path, "battery.json", ["L3*L3*L3*L3"])
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "weight window reached"


@pytest.mark.parametrize("command", ["hom", "cotensor", "cohom", "contratensor", "duality"])
def test_cli_two_object_jobs_refuse_spaces_above_max_dim(command, tmp_path, capsys):
    """Each of these jobs works in the flattened space X* (x) Y: above
    io.MAX_DIM entries it exits 2, naming both dims, before anything is
    built; at exactly io.MAX_DIM it runs."""
    def obj(kind, dim):
        body = {"coalgebra": "grouplike(1)", "dim": dim}
        if kind == "contramodule":
            return {**body, "theta": []}
        return {**body, "side": kind, "coaction": []}

    first, second = {"hom": ("left", "left"), "cotensor": ("right", "left"),
                     "cohom": ("left", "contramodule"), "contratensor": ("right", "contramodule"),
                     "duality": ("left", "left")}[command]
    for dims, code in (((65, 64), 2), ((64, 64), 0)):
        x = _write(tmp_path, "x.json", obj(first, dims[0]))
        y = _write(tmp_path, "y.json", obj(second, dims[1]))
        files = ["--V", x, "--W", y] if command == "duality" else [x, y]
        argv = ["--field", "Fp:2", command, *files]
        assert _within_one_second(lambda: main(argv)) == code
        report = json.loads(capsys.readouterr().out)
        if code == 2:
            assert report["error"] == (f"{command}: dims 65 and 64 give a space of dimension 4160, "
                                       "above 4096")
        else:
            assert "error" not in report


def _grouplike_rho(n, d):
    """grouplike(n) -> grouplike(d), g_i -> g_(i mod d), as JSON."""
    entries = [[i % d, i, "1"] for i in range(n)]
    return {"source": f"grouplike({n})", "target": f"grouplike({d})",
            "matrix": {"rows": d, "cols": n, "entries": entries}, "surjective": True}


def _trivial_contra(name, dim):
    """k^dim with theta evaluating at the first grouplike, as JSON."""
    return {"coalgebra": name, "dim": dim, "theta": [[0, i, i, "1"] for i in range(dim)]}


def _ses_over_point(mid):
    """0 -> k -> k^mid -> k^(mid-1) -> 0 over grouplike(1), as JSON."""
    return {"sub": _trivial_contra("grouplike(1)", 1), "mid": _trivial_contra("grouplike(1)", mid),
            "quot": _trivial_contra("grouplike(1)", mid - 1),
            "incl": {"rows": mid, "cols": 1, "entries": [[0, 0, "1"]]},
            "proj": {"rows": mid - 1, "cols": mid, "entries": [[i, i + 1, "1"] for i in range(mid - 1)]}}


# per induction job: its inputs at a size s, the refusal at s + 1, and the
# size s at which the bounded quantity is exactly io.MAX_DIM
INDUCTION_SIZES = {
    "induce": (lambda s: {"--rho": _grouplike_rho(64, 1), "--W": _trivial_contra("grouplike(1)", s)},
               "induce: dim C 64 and dim W 65 give a space of dimension 4160, above 4096", 64),
    "adjoint-check": (lambda s: {"--rho": _grouplike_rho(16, 1), "--W": _trivial_contra("grouplike(1)", 16),
                                 "--V": _trivial_contra("grouplike(16)", s)},
                      "adjoint-check: dim C 16, dim W 16 and dim V 17 give a space of dimension 4352, "
                      "above 4096", 16),
    "exactness": (lambda s: {"--rho": _grouplike_rho(64, 1), "--ses": _ses_over_point(s)},
                  "exactness: dim C 64 and dim mid 65 give a space of dimension 4160, above 4096", 64),
    "sampled": (lambda s: {"--rho": _grouplike_rho(s, 32)},
                "exactness: dim C 65 and drawn dim mid up to 64 give a space of dimension 4160, "
                "above 4096", 64),
}


@pytest.mark.parametrize("job", list(INDUCTION_SIZES))
def test_cli_induction_jobs_refuse_spaces_above_max_dim(job, tmp_path, capsys, monkeypatch):
    """Each job that induces is refused, naming the dims, before anything is
    induced or drawn when its space is above io.MAX_DIM; at exactly
    io.MAX_DIM it reaches induction."""
    for name in ("contramod.functors.Induction.induce", "contramod.randomgen.random_contra_ses"):
        def reached(*args, name=name):
            raise ValueError(f"{name} reached")

        monkeypatch.setattr(name, reached)
    inputs, refusal, size = INDUCTION_SIZES[job]
    for s, error in ((size + 1, refusal), (size, None)):
        files = [x for flag, payload in inputs(s).items()
                 for x in (flag, _write(tmp_path, f"{flag[2:]}.json", payload))]
        argv = ["exactness" if job == "sampled" else job, *files]
        assert _within_one_second(lambda: main(argv)) == 2
        reported = json.loads(capsys.readouterr().out)["error"]
        if error is not None:
            assert reported == error
        else:
            assert reported.endswith(" reached") and "give a space" not in reported


def _cap_kron(monkeypatch):
    """Make any Kronecker product of more than io.MAX_DIM entries fail."""
    from contramod.matrix import Mat

    kron = Mat.kron

    def capped(a, b):
        assert a.nnz * b.nnz <= cio.MAX_DIM, f"kron of {a} and {b}"
        return kron(a, b)

    monkeypatch.setattr(Mat, "kron", capped)


@pytest.mark.parametrize("job", ["induce", "adjoint-check"])
def test_cli_induction_at_max_dim_forms_no_large_kron(job, tmp_path, capsys, monkeypatch):
    """Along grouplike(4096) -> grouplike(1) with dim W = dim V = 1 both jobs
    sit exactly at their guard, and run without any Kronecker product of more
    than io.MAX_DIM entries: loading rho, induction and the adjunction all
    push Delta and descend the coaction by index arithmetic."""
    _cap_kron(monkeypatch)
    inputs = {"--rho": _grouplike_rho(cio.MAX_DIM, 1), "--W": _trivial_contra("grouplike(1)", 1)}
    if job == "adjoint-check":
        inputs["--V"] = _trivial_contra(f"grouplike({cio.MAX_DIM})", 1)
    files = [x for flag, payload in inputs.items() for x in (flag, _write(tmp_path, f"{flag[2:]}.json", payload))]
    assert main(["--field", "Fp:2", job, *files]) == 0
    report = json.loads(capsys.readouterr().out)
    if job == "induce":
        assert report["dim_induced"] == cio.MAX_DIM and report["axioms_ok"]
    else:
        assert report["adjunction"] == {"lhs_dim": 1, "rhs_dim": 1} and report["roundtrip_ok"]


def test_cli_verify_identity_at_max_dim_forms_no_large_kron(tmp_path, capsys, monkeypatch):
    """verify on the identity of grouplike(4096) over F2 compares Delta_D o r
    with (r (x) r) o Delta_C without any Kronecker product of more than
    io.MAX_DIM entries: both pushes of Delta are index arithmetic."""
    _cap_kron(monkeypatch)
    rho = _write(tmp_path, "rho.json", _grouplike_rho(cio.MAX_DIM, cio.MAX_DIM))
    assert main(["--field", "Fp:2", "verify", rho]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["kind"], report["ok"], report["failures"]) == ("morphism", True, [])


def test_cli_input_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith(f"{tmp_path}: cannot read input")


def test_cli_json_nested_past_the_parser_limit_exits_2(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000)
    assert main(["verify", str(nested)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == f"{nested}: JSON nested too deeply to parse"


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    """A report that cannot be written is an error report on stdout that
    names the path, with exit 2."""
    c = _write(tmp_path, "c.json", cio.coalgebra_to_json(grouplike(QQ, 3)))
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        assert main(["--out", str(out), "verify", c]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "verify" and str(out) in report["error"]
    assert not (tmp_path / "missing").exists()


def test_cli_caps_samples_before_drawing(tmp_path, capsys, monkeypatch):
    rho_path = _write(tmp_path, "rho.json", cio.morphism_to_json(divided_power_surjection(GF2, 3, 2, 2)))

    def draw(rng, target):
        raise AssertionError("a sequence was drawn")

    monkeypatch.setattr("contramod.randomgen.random_contra_ses", draw)
    for samples in ("1001", "100000"):
        argv = ["exactness", "--rho", rho_path, "--samples", samples]
        assert _within_one_second(lambda: main(argv)) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "exactness: --samples must be at most 1000"
    # 1000 is allowed: a draw that never succeeds gives up with its own error
    monkeypatch.setattr("contramod.randomgen.random_contra_ses", lambda rng, target: None)
    assert main(["exactness", "--rho", rho_path, "--samples", "1000"]) == 2
    assert "could not draw" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("key, dim, value", [
    ("incl", "rows", 3), ("incl", "cols", 2), ("proj", "rows", 2), ("proj", "cols", 4),
])
def test_cli_ses_maps_of_the_wrong_shape_exit_2(key, dim, value, tmp_path, capsys):
    """incl must be mid x sub and proj quot x mid; the witness is 0 -> k -> D* -> k -> 0."""
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_cli_examples.py"), str(tmp_path / "examples_io")],
        check=True, capture_output=True,
    )
    doc = json.loads((tmp_path / "examples_io" / "ses_witness.json").read_text())
    assert (doc["incl"]["rows"], doc["incl"]["cols"], doc["proj"]["rows"], doc["proj"]["cols"]) == (2, 1, 1, 2)
    doc[key][dim] = value
    argv = ["--field", "Fp:2", "exactness", "--rho", str(tmp_path / "examples_io" / "rho_dpd32.json"),
            "--ses", _write(tmp_path, "ses.json", doc)]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith(f"ses.{key}: expected a ")


def test_cli_tower_window_that_compares_nothing_is_an_input_error(tmp_path, capsys):
    """At --mmax 2 the README battery's L2 never reaches stage 3, where its
    weight bound first holds, so no stage of it would be compared."""
    battery = _write(tmp_path, "battery.json", ["L0", "L1", "L2", "L3", "L1*L1"])
    assert main(["tower", "--p", "2", "--lambda", "0", "--mmax", "2", "--battery", battery]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith("L2:") and "stage 3" in error


def test_cli_tower_reads_the_weight_window_before_building_modules(tmp_path, capsys, monkeypatch):
    """L1^10 (dimension 1024) passes the size guard at --mmax 1, but its top
    weight 10 first meets the weight bound at stage 5: the job exits 2 with
    the same message as when the window was read off the tensored module,
    and no battery module is built."""
    def refused(*args):
        raise AssertionError("a battery module was built")

    monkeypatch.setattr("contramod.sl2.battery_module", refused)
    expr = "*".join(["L1"] * 10)
    battery = _write(tmp_path, "battery.json", [expr])
    argv = ["tower", "--p", "2", "--lambda", "0", "--mmax", "1", "--battery", battery]
    assert _within_one_second(lambda: main(argv)) == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        f"{expr}: the weight bound first holds at stage 5, beyond the last stage 1")


def test_battery_top_weight_matches_the_tensored_character():
    from contramod.sl2 import battery_module, battery_top_weight

    for expr in ("L0", "L1", "L2", "L3", "P0", "P1", "L1*L1", " P0 * L2 ", "L3*L1*L0"):
        top = max(abs(w) for w in battery_module(2, expr).character())
        assert battery_top_weight(2, expr) == top


README_BATTERY = ["L0", "L1", "L2", "L3", "L1*L1"]

# the README's tower line, byte for byte
README_TOWER_STDOUT = (
    '{"all_match": true, "command": "tower", "seed": 20240, "towers": ['
    '{"f_V": 1, "lambda": 0, "match": true, "module": "L0", "p": 2, "stabilized_at": 1, "stages": '
    '[{"dim_cohom": 1, "m": 1}, {"dim_cohom": 1, "m": 2}, {"dim_cohom": 1, "m": 3}]}, '
    '{"f_V": 0, "lambda": 0, "match": true, "module": "L1", "p": 2, "stabilized_at": 1, "stages": '
    '[{"dim_cohom": 0, "m": 1}, {"dim_cohom": 0, "m": 2}, {"dim_cohom": 0, "m": 3}]}, '
    '{"f_V": 0, "lambda": 0, "match": true, "module": "L2", "p": 2, "stabilized_at": 2, "stages": '
    '[{"dim_cohom": 2, "m": 1}, {"dim_cohom": 0, "m": 2}, {"dim_cohom": 0, "m": 3}]}, '
    '{"f_V": 0, "lambda": 0, "match": true, "module": "L3", "p": 2, "stabilized_at": 1, "stages": '
    '[{"dim_cohom": 0, "m": 1}, {"dim_cohom": 0, "m": 2}, {"dim_cohom": 0, "m": 3}]}, '
    '{"f_V": 2, "lambda": 0, "match": true, "module": "L1*L1", "p": 2, "stabilized_at": 2, "stages": '
    '[{"dim_cohom": 4, "m": 1}, {"dim_cohom": 2, "m": 2}, {"dim_cohom": 2, "m": 3}]}]}\n'
)


def test_cli_tower_builds_stages_in_the_kernels(tmp_path, capsys, monkeypatch):
    """The README tower job prints its pinned report without building the
    k[SL2] tower, without tensoring anything larger than a battery module in
    k[SL2], and without materialising the comultiplication of any k[G_m]."""
    from functools import lru_cache

    from contramod import sl2

    def refused(*args):
        raise AssertionError("the full-ring tower was built")

    tensor = sl2.tensor_rational

    def capped(m, n):
        assert m.dim * n.dim <= 4, f"tensored {m.name} and {n.name} in k[SL2]"
        return tensor(m, n)

    kernels = lru_cache(maxsize=None)(sl2.frob_kernel_coalgebra.__wrapped__)
    monkeypatch.setattr(sl2, "build_tower", refused)
    monkeypatch.setattr(sl2, "tensor_rational", capped)
    monkeypatch.setattr(sl2, "frob_kernel_coalgebra", kernels)
    battery = _write(tmp_path, "battery_std.json", README_BATTERY)
    assert main(["tower", "--p", "2", "--lambda", "0", "--mmax", "3", "--battery", battery]) == 0
    assert capsys.readouterr().out == README_TOWER_STDOUT
    assert kernels.cache_info().currsize == 3
    assert all(kernels(2, m)._delta is None for m in (1, 2, 3))


@pytest.mark.parametrize("mmax, battery, error", [
    ("5", ["L0"], "tower: k[G_5] has dimension 2^15, above 4096"),
    ("2", ["L0", "*".join(["L1"] * 9)],
     "tower: L1*L1*L1*L1*L1*L1*L1*L1*L1 times the last stage P(0,2), of dimension 16, "
     "has dimension above 4096"),
    ("2", README_BATTERY, "L2: the weight bound first holds at stage 3, beyond the last stage 2"),
    # the message of the parser's KeyError, not its repr
    ("3", ["q"], "unknown battery module 'q'"),
    ("3", ["L1*"], "unknown battery module ''"),
])
def test_cli_tower_guard_messages(mmax, battery, error, tmp_path, capsys):
    path = _write(tmp_path, "battery.json", battery)
    assert main(["tower", "--p", "2", "--lambda", "0", "--mmax", mmax, "--battery", path]) == 2
    assert capsys.readouterr().out == json.dumps(
        {"command": "tower", "error": error, "seed": DEFAULT_SEED}, sort_keys=True) + "\n"


def _write_mismatch_inputs(tmp_path):
    from contramod.matrix import Mat

    c, other = divided_power_dual(GF2, 3), grouplike(GF2, 2)
    rho = divided_power_surjection(GF2, 3, 2, 2)
    # surjective and flagged so, but not a coalgebra map: it kills e2 and keeps e1 (x) e1
    trunc = Mat.from_entries(2, 3, GF2, [(0, 0, 1), (1, 1, 1)])
    bad_rho = cio.morphism_to_json(rho)
    bad_rho["matrix"] = cio.mat_to_json(trunc)
    docs = {
        "left.json": cio.comodule_to_json(comodule_over_self(c)),
        "right.json": cio.comodule_to_json(comodule_over_self(c, side="right")),
        "left_other.json": cio.comodule_to_json(comodule_over_self(other)),
        "contra_other.json": cio.contramodule_to_json(free_contramodule(other, 1)),
        "rho.json": cio.morphism_to_json(rho),
        "bad_rho.json": bad_rho,
        "w.json": cio.contramodule_to_json(free_contramodule(rho.target, 1)),
        "v.json": cio.contramodule_to_json(free_contramodule(rho.source, 1)),
    }
    # 0 -> k -> D* -> k -> 0 over rho's target, but with its k on the left over grouplike(2)
    breg = free_contramodule(rho.target, 1)
    rad = comodule_closure(breg, [{1: GF2.one()}])
    incl, (quot, proj) = sub_comodule(breg, rad)[1], quotient_comodule(breg, rad)
    sub = trivial(other, {0: GF2.one()}, contra=True)
    docs["ses_mixed.json"] = {"sub": cio.contramodule_to_json(sub), "mid": cio.contramodule_to_json(breg),
                              "quot": cio.contramodule_to_json(quot), "incl": cio.mat_to_json(incl),
                              "proj": cio.mat_to_json(proj)}
    for name, doc in docs.items():
        _write(tmp_path, name, doc)


@pytest.mark.parametrize("line, needle", [
    # inputs over different coalgebras: the library raises, the CLI exits 2
    ("cotensor right.json left_other.json", "coalgebra"),
    ("contratensor right.json contra_other.json", "coalgebra"),
    ("cohom left.json contra_other.json", "coalgebra"),
    ("duality --V left.json --W left_other.json", "coalgebra"),
    ("induce --rho rho.json --W contra_other.json", "target"),
    ("adjoint-check --rho rho.json --W w.json --V contra_other.json", "source"),
    ("exactness --rho rho.json --ses ses_mixed.json", "coalgebra mismatch"),
    # a rho that fails check_morphism
    ("induce --rho bad_rho.json --W w.json", "rho"),
    ("adjoint-check --rho bad_rho.json --W w.json --V v.json", "rho"),
    ("exactness --rho bad_rho.json --samples 2", "rho"),
])
def test_cli_mismatched_inputs_and_bad_rho_exit_2(line, needle, tmp_path, monkeypatch, capsys):
    _write_mismatch_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(line.split()) == 2
    assert needle in json.loads(capsys.readouterr().out)["error"]


def test_scalars_parse_only_from_strings_and_integers():
    assert QQ.parse("2/5") == QQ.of("2/5") and QQ.parse(-3) == QQ.of(-3)
    assert GF(3).parse("4") == GF(3).parse(4) == 1
    for field in (QQ, GF2):
        for value in (0.5, 1.0, True, None, [1], {"x": 1}):
            with pytest.raises(ValueError, match="string or an integer"):
                field.parse(value)


def _outcome(read, s):
    """What reading s gives: the scalar and its type, or the exception."""
    try:
        v = read(s)
    except Exception as e:
        return type(e), str(e)
    return type(v), v


@pytest.mark.parametrize("field", [GF2, GF(3), QQ])
def test_parse_reads_integer_strings_as_of_does(field):
    """Integer strings take parse's int path; every string, on that path or
    not, is accepted or refused exactly as of() does, with the same scalar
    or the same exception and message."""
    for s in ("0", "-0", "7", "-12", "9" * 60, "-" + "7" * 60):
        assert _outcome(field.parse, s) == _outcome(field.of, s)
        assert field.parse(s) == field.of(int(s))
    for s in ("--3", "+3", " 3", "\u00b2", "\u0663", "1/0", "3/2", "-", "", "1_0"):
        assert _outcome(field.parse, s) == _outcome(field.of, s), s
    for s in ("--3", "\u00b2", "-", ""):
        with pytest.raises(ValueError):
            field.parse(s)
    with pytest.raises(ZeroDivisionError):
        field.parse("1/0")
    assert field.parse("+3") == field.parse(" 3") == field.of(3)
    if field == GF2:
        with pytest.raises(ZeroDivisionError):
            field.parse("3/2")


@pytest.mark.parametrize("args, want", [
    # a report far larger than the pipe buffer, and one far smaller, which
    # would sit in stdout's buffer until the flush at exit if not flushed
    (["--field", "Fp:2", "exactness", "--rho", "rho_dpd32.json", "--samples", "20", "--seed", "11"], 1),
    (["verify", "coalgebra_grouplike3.json"], 0),
])
def test_cli_closed_stdout_keeps_the_verdict_without_a_traceback(args, want, tmp_path):
    """A reader that closes the pipe before the report is written (``| head
    -c 0``) changes neither the exit code nor stderr, whatever the report's
    size."""
    examples = tmp_path / "examples_io"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_cli_examples.py"), str(examples)],
        check=True, capture_output=True,
    )
    argv = [sys.executable, "-m", "contramod.cli",
            *(str(examples / a) if a.endswith(".json") else a for a in args)]
    # stdout block-buffered, as it is on a pipe unless PYTHONUNBUFFERED is set
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    verdict = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    assert verdict.returncode == want and verdict.stdout and not verdict.stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert not closed.stderr
    assert closed.returncode == want


@pytest.mark.parametrize("flag", ["Q", "Fp:2"])
@pytest.mark.parametrize("where", ["theta", "delta", "epsilon"])
@pytest.mark.parametrize("value", [0.5, True])
def test_cli_non_string_scalar_exits_2(flag, where, value, tmp_path, capsys):
    field = QQ if flag == "Q" else GF2
    doc = cio.contramodule_to_json(free_contramodule(grouplike(field, 2), 1))
    if where == "epsilon":
        doc["coalgebra"]["epsilon"][0] = value
    else:
        target = doc["theta"] if where == "theta" else doc["coalgebra"]["delta"]
        target[0][3] = value
    path = _write(tmp_path, "b.json", doc)
    assert main(["--field", flag, "verify", path]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith(f"{where}:") and "string or an integer" in error


def test_cli_bad_epsilon_entry_exits_2(tmp_path, capsys):
    doc = {"dim": 1, "delta": [[0, 0, 0, "1"]], "epsilon": [{"x": 1}]}
    path = _write(tmp_path, "c.json", doc)
    assert main(["verify", path]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith("epsilon:")


@pytest.mark.parametrize("name", [
    "grouplike(1000000000)", "divided_power_dual(100000)", "matrix_coalgebra(65)",
    "sl2_kernel(5)", "sl2_kernel(" + "9" * 40 + ")",
])
def test_cli_oversize_catalog_name_exits_2(name, tmp_path, capsys):
    doc = cio.contramodule_to_json(free_contramodule(grouplike(GF2, 1), 1))
    doc["coalgebra"] = name
    path = _write(tmp_path, "b.json", doc)
    start = time.perf_counter()
    assert main(["--field", "Fp:2", "verify", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds dimension 4096" in json.loads(capsys.readouterr().out)["error"]


def test_size_limit_on_dimensions():
    assert cio.MAX_DIM == 4096
    assert cio.coalgebra_by_name("grouplike(4096)", QQ).dim == 4096
    assert cio.coalgebra_by_name("sl2_kernel(4)", GF2).dim == 4096
    with pytest.raises(SchemaError, match="exceeds"):
        cio.coalgebra_by_name("grouplike(4097)", QQ)
    with pytest.raises(SchemaError, match="exceeds"):
        cio.coalgebra_by_name("sl2_kernel(3)", GF(3))   # dimension 3^9
    for load, doc in ((cio.coalgebra_from_json, cio.coalgebra_to_json(grouplike(QQ, 1))),
                      (cio.contramodule_from_json,
                       cio.contramodule_to_json(free_contramodule(grouplike(QQ, 1), 1)))):
        doc["dim"] = 10 ** 30
        with pytest.raises(SchemaError, match="exceeds 4096"):
            load(doc)


@pytest.mark.parametrize("kind", ["comodule", "contramodule", "coalgebra"])
def test_cli_inline_dim_one_above_max_dim_exits_2(kind, tmp_path, capsys):
    """An inline "dim" of MAX_DIM + 1 is refused where it is read, with exit
    2, on a comodule, a contramodule and a coalgebra; MAX_DIM itself is read."""
    c = grouplike(GF2, 1)
    doc = {"comodule": cio.comodule_to_json(comodule_over_self(c)),
           "contramodule": cio.contramodule_to_json(free_contramodule(c, 1)),
           "coalgebra": cio.coalgebra_to_json(c)}[kind]
    doc["dim"] = cio.MAX_DIM + 1
    assert main(["--field", "Fp:2", "verify", _write(tmp_path, "x.json", doc)]) == 2
    assert f"{kind}: dim 4097 exceeds 4096" in json.loads(capsys.readouterr().out)["error"]
    assert cio._dim({"dim": cio.MAX_DIM}, kind) == 4096


@pytest.mark.parametrize("edit", ["dim", "field", "ses"])
def test_cli_wrong_typed_structure_exits_2(edit, tmp_path, capsys):
    """Inputs the command-line fuzzer found ending in a TypeError."""
    rho = divided_power_surjection(GF2, 3, 2, 2)
    rho_doc = cio.morphism_to_json(rho)
    ses_doc = {"sub": None}
    if edit == "dim":
        rho_doc["source"]["dim"] = None
    elif edit == "field":
        rho_doc["target"]["field"] = {"Fp": None}
    else:
        ses_doc = True
    argv = ["exactness", "--rho", _write(tmp_path, "rho.json", rho_doc),
            "--ses", _write(tmp_path, "ses.json", ses_doc)]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith({"dim": "coalgebra:", "field": "field:", "ses": "ses:"}[edit])


@pytest.mark.parametrize("where, value", [
    ("index", 1.5), ("index", True), ("dim", 0.5), ("dim", True), ("dim", "2"),
    ("rows", 2.7), ("entry", 1.0),
])
def test_cli_non_integer_index_or_dim_exits_2(where, value, tmp_path, capsys):
    """Indices and dims are JSON integers: a float, a boolean or a string is
    refused, not truncated to a different object."""
    if where in ("rows", "entry"):
        doc = cio.morphism_to_json(divided_power_surjection(GF2, 3, 2, 2))
        if where == "rows":
            doc["matrix"]["rows"] = value
        else:
            doc["matrix"]["entries"][0][0] = value
        prefix = "morphism.matrix: expected an integer"
    else:
        doc = cio.coalgebra_to_json(grouplike(GF2, 2))
        if where == "dim":
            doc["dim"] = value
            prefix = "coalgebra: missing or bad dim"
        else:
            doc["delta"][1][0] = value
            prefix = "delta: bad coefficient triple: expected an integer"
    assert main(["verify", _write(tmp_path, "x.json", doc)]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith(prefix)


@pytest.mark.parametrize("kind, triple", [
    ("delta", [0, 3, 1, "1"]), ("delta", [2, -1, 1, "1"]), ("coaction", [0, 1, 0, "1"]),
])
def test_cli_triple_index_outside_its_factor_exits_2(kind, triple, tmp_path, capsys):
    """Each triple index is checked against its own factor, so no triple
    aliases another entry: both delta triples would land on row 3 of
    grouplike(2), and the coaction triple on row 1 of a dim-1 comodule."""
    c = grouplike(GF2, 2)
    if kind == "delta":
        doc = cio.coalgebra_to_json(c)
        doc["delta"][1] = triple
    else:
        doc = {"coalgebra": cio.coalgebra_to_json(c), "side": "left", "dim": 1,
               "coaction": [[1, 0, 0, "1"], triple]}
    assert main(["verify", _write(tmp_path, "x.json", doc)]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith(
        f"{kind}: bad coefficient triple: index")


@pytest.mark.parametrize("value, code", [("false", 2), (0, 2), (None, 2), (False, 1), (True, 0)])
def test_cli_surjective_flag_is_a_json_boolean(value, code, tmp_path, capsys):
    """The identity is surjective: a false flag fails verification (exit 1),
    and a flag that is not a JSON boolean is a schema error (exit 2)."""
    doc = cio.morphism_to_json(identity_morphism(grouplike(GF2, 2)))
    doc["surjective"] = value
    assert main(["verify", _write(tmp_path, "rho.json", doc)]) == code
    report = json.loads(capsys.readouterr().out)
    if code == 2:
        assert report["error"].startswith("morphism: surjective must be true or false")
    del doc["surjective"]
    assert not cio.morphism_from_json(doc).surjective


@pytest.mark.parametrize("p", [2.5, 2.0, True, "2"])
def test_cli_non_integer_characteristic_exits_2(p, tmp_path, capsys):
    doc = cio.coalgebra_to_json(grouplike(GF2, 2))
    doc["field"] = {"Fp": p}
    assert main(["verify", _write(tmp_path, "c.json", doc)]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith("field: expected an integer")


def test_documented_theta_example_loads(tmp_path, capsys):
    """The contramodule example in the README's schema section, in the theta
    layout the loader reads and ``contramodule_to_json`` writes."""
    doc = {"coalgebra": "grouplike(2)", "dim": 2, "theta": [[0, 0, 0, "1"], [0, 1, 3, "1"]]}
    assert f"`{json.dumps(doc)}`" in (ROOT / "README.md").read_text()
    assert main(["verify", _write(tmp_path, "b.json", doc)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    c = grouplike(QQ, 2)
    lines = [trivial(c, g, contra=True) for g in grouplike_elements(c)]
    b = cio.contramodule_from_json(doc, QQ)
    assert b.theta == direct_sum(*lines).theta
    assert cio.contramodule_to_json(b)["theta"] == doc["theta"]


@pytest.mark.parametrize("kind", ["coalgebra", "comodule", "contramodule"])
def test_cli_negative_dim_names_its_field(kind, tmp_path, capsys):
    """A negative dim is refused by the schema, naming the object, before
    any matrix of that shape is built."""
    c = grouplike(GF2, 2)
    doc = {"coalgebra": cio.coalgebra_to_json(c),
           "comodule": cio.comodule_to_json(comodule_over_self(c)),
           "contramodule": cio.contramodule_to_json(free_contramodule(c, 1))}[kind]
    doc["dim"] = -1
    assert main(["--field", "Fp:2", "verify", _write(tmp_path, "x.json", doc)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == f"{kind}: dim -1 is negative"
