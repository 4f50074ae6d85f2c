"""JSON schemas for fields, matrices, coalgebras, comodules, contramodules
and morphisms.

Scalars serialize as decimal strings, "num/den" for rationals.  Structure
tensors use coefficient triples: delta/coaction entries are
``[i, j, k, "val"]`` meaning the image of basis vector k contains
val * (e_i (x) e_j); theta entries are ``[0, i, c*b + k, "val"]`` with
b = dim, meaning (dual c) (x) (basis k) maps to val * (basis i).  Coalgebra
references may be inline objects or catalog names like "grouplike(3)".

The right layout and theta live only here: every coaction is stored in
left layout (see :mod:`comodule`), so a right coaction's [i, c, k, val] and
theta's [0, i, c*b + k, val] are read straight into, and written back from,
stored entry (c*dim + i, k), in the same sorted order.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .coalgebra import Coalgebra, CoalgebraMorphism, divided_power_dual, grouplike, matrix_coalgebra
from .comodule import Comodule
from .contramodule import Contramodule
from .fields import GF, QQ, FieldSpec
from .matrix import Mat


class SchemaError(ValueError):
    """Input does not match a schema; message points at the offending field."""


# The largest dimension an input may ask for, inline or by catalog name: that
# of k[G_4] in characteristic 2, the top of the --mmax 4 tower.
MAX_DIM = 4096


def field_to_json(f: FieldSpec):
    return "Q" if f.characteristic == 0 else {"Fp": f.characteristic}


def field_from_json(data) -> FieldSpec:
    if data == "Q":
        return QQ
    if isinstance(data, dict) and set(data) == {"Fp"}:
        try:
            return GF(_int(data["Fp"]))
        except (TypeError, ValueError) as e:
            raise SchemaError(f"field: {e}") from None
    raise SchemaError(f"field: expected \"Q\" or {{\"Fp\": p}}, got {data!r}")


def parse_field_flag(text: str) -> FieldSpec:
    """CLI flag form: Q or Fp:<p>."""
    if text == "Q":
        return QQ
    m = re.fullmatch(r"Fp:(\d+)", text)
    if not m:
        raise SchemaError(f"field flag must be Q or Fp:<p>, got {text!r}")
    return GF(int(m.group(1)))


def _int(x) -> int:
    """An index or a size: a JSON integer.  Floats, booleans and strings are
    refused, not truncated."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def mat_to_json(m: Mat) -> dict:
    entries = [[i, j, m.field.format(v)] for (i, j), v in sorted(m.data.items())]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def mat_from_json(data, field: FieldSpec, where: str = "matrix") -> Mat:
    if not isinstance(data, dict) or "rows" not in data or "cols" not in data:
        raise SchemaError(f"{where}: need rows, cols, entries")
    try:
        return Mat.from_entries(
            _int(data["rows"]), _int(data["cols"]), field,
            ((_int(i), _int(j), field.parse(v)) for i, j, v in data.get("entries", [])),
        )
    except (TypeError, ValueError) as e:
        raise SchemaError(f"{where}: {e}") from None


def _triples_to_mat(triples, inner_dim: int, rows: int, cols: int, field, where: str,
                    store=None, shape=None) -> Mat:
    """[[i, j, k, val], ...] with row index i*inner_dim + j, column k, in a
    rows x cols layout; i and j must each lie in their own factor, so that no
    triple aliases another; stored at ``store(i, j, k)`` in a ``shape``
    matrix when given.  The entries go straight into the matrix's dict, and
    repeated keys add up, as in :meth:`Mat.from_entries`; the checks above
    keep every key inside the shape.  Each distinct scalar string is parsed
    once, to a canonical scalar."""
    outer = rows // inner_dim if inner_dim else 0
    parse = lru_cache(maxsize=None)(field.parse)
    add, data, outside = field.add, {}, None
    try:
        for i, j, k, v in triples:
            if type(i) is not int or type(j) is not int:
                i, j = _int(i), _int(j)
            if not (0 <= i < outer and 0 <= j < inner_dim):
                raise ValueError(f"index ({i}, {j}) outside {outer}x{inner_dim}")
            if type(k) is not int:
                k = _int(k)
            val = parse(v) if type(v) is str else field.parse(v)
            if not 0 <= k < cols:
                # a malformed triple anywhere in the list is reported first
                outside = outside or f"entry ({i * inner_dim + j},{k}) outside {rows}x{cols}"
            elif val:
                key = store(i, j, k) if store else (i * inner_dim + j, k)
                old = data.get(key)
                if old is None:
                    data[key] = val
                elif acc := add(old, val):
                    data[key] = acc
                else:
                    del data[key]
    except (TypeError, ValueError) as e:
        raise SchemaError(f"{where}: bad coefficient triple: {e}") from None
    if outside:
        raise SchemaError(f"{where}: {outside}")
    return Mat(*(shape or (rows, cols)), field, data)


def _mat_to_triples(m: Mat, inner_dim: int, field, triple=None) -> list:
    """The sorted triples [i, j, k, val] of entry (i*inner_dim + j, k), or of
    the stored entry (row, k) at ``triple(row, k)`` = (i, j, k)."""
    triple = triple or (lambda row, k: (*divmod(row, inner_dim), k))
    return [[i, j, k, field.format(v)]
            for (i, j, k), v in sorted((triple(row, k), v) for (row, k), v in m.data.items())]


def coalgebra_to_json(c: Coalgebra) -> dict:
    return {
        "field": field_to_json(c.field),
        "dim": c.dim,
        "delta": _mat_to_triples(c.delta, c.dim, c.field),
        "epsilon": [c.field.format(c.eps(i)) for i in range(c.dim)],
    }


def _dim(data: dict, where: str) -> int:
    try:
        dim = _int(data["dim"])
    except (KeyError, TypeError, ValueError):
        raise SchemaError(f"{where}: missing or bad dim") from None
    if dim < 0:
        raise SchemaError(f"{where}: dim {dim} is negative")
    if dim > MAX_DIM:
        raise SchemaError(f"{where}: dim {dim} exceeds {MAX_DIM}")
    return dim


_NAME_RE = re.compile(r"([a-z_][a-z0-9_]*)\((\d+(?:,\s*\d+)*)\)")


def _sl2_kernel(field: FieldSpec, r: int) -> Coalgebra:
    from .sl2 import frob_kernel_coalgebra

    if field.characteristic == 0:
        raise SchemaError("coalgebra: sl2_kernel needs a prime field")
    return frob_kernel_coalgebra(field.characteristic, r)


# Every catalog name takes exactly one size argument.  Each row holds the
# constructor and the dimension it builds over F_p (p = 0 for Q), which is
# never below the argument when the coalgebra exists.
_CATALOG = {
    "grouplike": (grouplike, lambda p, n: n),
    "matrix_coalgebra": (matrix_coalgebra, lambda p, n: n * n),
    "divided_power_dual": (divided_power_dual, lambda p, n: n),
    "sl2_kernel": (_sl2_kernel, lambda p, r: p ** (3 * r)),
}


def coalgebra_by_name(name: str, field: FieldSpec) -> Coalgebra:
    m = _NAME_RE.fullmatch(name.strip())
    if not m:
        raise SchemaError(f"coalgebra: cannot parse name {name!r}")
    kind = m.group(1)
    args = [int(a) for a in m.group(2).split(",")]
    if kind not in _CATALOG:
        raise SchemaError(f"coalgebra: unknown catalog name {kind!r}")
    if len(args) != 1:
        raise SchemaError(f"coalgebra: {kind} takes 1 argument, got {len(args)}")
    build, dim = _CATALOG[kind]
    if args[0] > MAX_DIM or dim(field.characteristic, args[0]) > MAX_DIM:
        raise SchemaError(f"coalgebra: {kind}({args[0]}) exceeds dimension {MAX_DIM}")
    return build(field, args[0])


def coalgebra_from_json(data, default_field: FieldSpec | None = None) -> Coalgebra:
    if isinstance(data, str):
        if default_field is None:
            raise SchemaError("coalgebra: a named coalgebra needs a field")
        return coalgebra_by_name(data, default_field)
    if not isinstance(data, dict):
        raise SchemaError("coalgebra: expected an object or a catalog name")
    field = field_from_json(data.get("field", "Q"))
    dim = _dim(data, "coalgebra")
    delta = _triples_to_mat(data.get("delta", []), dim, dim * dim, dim, field, "delta")
    eps_list = data.get("epsilon")
    if not isinstance(eps_list, list) or len(eps_list) != dim:
        raise SchemaError("epsilon: need a list of length dim")
    try:
        epsilon = Mat.from_entries(
            1, dim, field, ((0, i, field.parse(v)) for i, v in enumerate(eps_list))
        )
    except ValueError as e:
        raise SchemaError(f"epsilon: {e}") from None
    return Coalgebra(field, dim, delta, epsilon, name=data.get("name", ""))


def comodule_to_json(m: Comodule) -> dict:
    md = m.dim
    # a right coaction's triple [i, c, k] is stored at row c*md + i
    triple = None if m.side == "left" else lambda row, k: (row % md, row // md, k)
    return {
        "coalgebra": coalgebra_to_json(m.coalgebra),
        "side": m.side,
        "dim": md,
        "coaction": _mat_to_triples(m.left_coaction, md, m.field, triple),
    }


def comodule_from_json(data, default_field: FieldSpec | None = None) -> Comodule:
    if not isinstance(data, dict):
        raise SchemaError("comodule: expected an object")
    c = coalgebra_from_json(data.get("coalgebra"), default_field)
    side = data.get("side", "left")
    if side not in ("left", "right"):
        raise SchemaError(f"side: must be left or right, got {side!r}")
    dim = _dim(data, "comodule")
    triples = data.get("coaction", [])
    if side == "left":
        coact = _triples_to_mat(triples, dim, c.dim * dim, dim, c.field, "coaction")
    else:
        coact = _triples_to_mat(triples, c.dim, dim * c.dim, dim, c.field, "coaction",
                                store=lambda i, cc, k: (cc * dim + i, k))
    return Comodule(c, side, dim, coact, name=data.get("name", ""))


def contramodule_to_json(b: Contramodule) -> dict:
    bd = b.dim
    # theta's triple [0, i, c*b + k] is stored at row c*b + i, column k
    return {
        "coalgebra": coalgebra_to_json(b.coalgebra),
        "dim": bd,
        "theta": _mat_to_triples(b.left_coaction, bd, b.field,
                                 lambda row, k: (0, row % bd, row - row % bd + k)),
    }


def contramodule_from_json(data, default_field: FieldSpec | None = None) -> Contramodule:
    if not isinstance(data, dict):
        raise SchemaError("contramodule: expected an object")
    c = coalgebra_from_json(data.get("coalgebra"), default_field)
    dim = _dim(data, "contramodule")
    coact = _triples_to_mat(data.get("theta", []), dim, dim, c.dim * dim, c.field, "theta",
                            store=lambda _, i, y: (y - y % dim + i, y % dim),
                            shape=(c.dim * dim, dim))
    return Contramodule(c, dim, coact, name=data.get("name", ""))


def morphism_to_json(rho: CoalgebraMorphism) -> dict:
    return {
        "source": coalgebra_to_json(rho.source),
        "target": coalgebra_to_json(rho.target),
        "matrix": mat_to_json(rho.matrix),
        "surjective": rho.surjective,
    }


def morphism_from_json(data, default_field: FieldSpec | None = None) -> CoalgebraMorphism:
    if not isinstance(data, dict):
        raise SchemaError("morphism: expected an object")
    src = coalgebra_from_json(data.get("source"), default_field)
    tgt = coalgebra_from_json(data.get("target"), default_field)
    matrix = mat_from_json(data.get("matrix"), src.field, where="morphism.matrix")
    surjective = data.get("surjective", False)
    if not isinstance(surjective, bool):
        raise SchemaError(f"morphism: surjective must be true or false, got {surjective!r}")
    try:
        return CoalgebraMorphism(src, tgt, matrix, surjective=surjective)
    except ValueError as e:
        raise SchemaError(f"morphism: {e}") from None


def detect_and_load(data, default_field: FieldSpec | None = None):
    """Dispatch on schema keys: delta -> coalgebra, coaction -> comodule,
    theta -> contramodule, matrix+source -> morphism."""
    if not isinstance(data, dict):
        raise SchemaError("input: expected a JSON object")
    if "coaction" in data:
        return comodule_from_json(data, default_field)
    if "theta" in data:
        return contramodule_from_json(data, default_field)
    if "delta" in data:
        return coalgebra_from_json(data, default_field)
    if "source" in data and "matrix" in data:
        return morphism_from_json(data, default_field)
    raise SchemaError("input: cannot detect object kind from keys")
