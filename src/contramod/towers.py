"""The Cohom tower of the paper's second theorem, checked stage by stage:
:func:`cohom_tower` tabulates dim Cohom(V|G_m, P(lam, m)) over the stages of
the tower of lam against the character multiplicity oracle, and reports the
first stage from which the dimensions stay put.  Each stage is built once,
as F2 masks, and the whole battery's dimensions against it are read in one
pass (:func:`contramodule.gf2_cohom_dims`).

:func:`cohom_tower` is where an SL2 tower is admitted: it takes a battery of
module expressions and refuses, before it tensors anything, a tower that is
too large or a module that no stage of the tower would compare.
"""

from __future__ import annotations

from . import contramodule, sl2
from .comodule import dual_comodule
from .fields import Record
from .io import MAX_DIM


def _settled_from(values: list) -> int:
    """First position from which every value equals the last one."""
    pos = len(values) - 1
    while pos > 0 and values[pos - 1] == values[-1]:
        pos -= 1
    return pos


class TowerRow(Record):
    def __init__(self, m: int, dim_cohom: int):
        self.m = m
        self.dim_cohom = dim_cohom


class TowerReport(Record):
    def __init__(self, module: str, lam: int, p: int, stages: list, stabilized_at: int | None,
                 f_v: int, match: bool, stable_from: int):
        self.module = module        # the battery expression
        self.lam = lam
        self.p = p
        self.stages = stages        # list[TowerRow]
        self.stabilized_at = stabilized_at
        self.f_v = f_v
        self.match = match
        self.stable_from = stable_from   # first stage where the weight bound holds

    def to_json(self) -> dict:
        return {
            "module": self.module,
            "lambda": self.lam,
            "p": self.p,
            "stages": [{"m": r.m, "dim_cohom": r.dim_cohom} for r in self.stages],
            "stabilized_at": self.stabilized_at,
            "f_V": self.f_v,
            "match": self.match,
        }


def cohom_tower(battery: list, lam: int, p: int = 2, m_max: int = 3) -> list[TowerReport]:
    """Dimension tables of Cohom over the stage kernels against the character
    multiplicity oracle, one ``TowerReport`` per battery expression ("L1*L1").

    The tower of lam runs from its first stage m0 to ``m_max``.  Before any
    module is tensored, ValueError refuses, in this order, a k[G_m_max] or a
    module times the last stage above ``io.MAX_DIM``, and a module whose
    weight bound p^(m-1) > top weight first holds past ``m_max``, so that no
    stage of it would be compared.  Each stage is then built once in its
    kernel, as the F2 theta masks of its dual (:func:`sl2.kernel_stage_masks`),
    each module is restricted once per stage, and the battery is paired with
    the masks in one call of :func:`contramodule.gf2_cohom_dims`, which
    eliminates the stage's lone masks once for all the modules and reads
    each dimension off a rank modulo their span, with no quotient built.
    """
    # the bounds on p and m_max come first so the power is never large
    if p > 1 and m_max > 0 and (max(p, m_max) > MAX_DIM or p ** (3 * m_max) > MAX_DIM):
        raise ValueError(f"tower: k[G_{m_max}] has dimension {p}^{3 * m_max}, above {MAX_DIM}")
    # the largest Cohom coequalizer has dim V * dim P(lam, m_max) rows
    top = sl2.stage_dim(lam, p, m_max)
    for expr in battery:
        if sl2.battery_dim(p, expr) * top > MAX_DIM:
            raise ValueError(f"tower: {expr} times the last stage P({lam},{m_max}), of dimension "
                             f"{top}, has dimension above {MAX_DIM}")
    m0 = sl2.tower_base(lam, p, m_max)
    stable_froms = []
    for expr in battery:
        m, top_weight = m0, sl2.battery_top_weight(p, expr)
        while p ** (m - 1) <= top_weight:
            m += 1
        if m > m_max:
            raise ValueError(f"{expr}: the weight bound first holds at stage {m}, "
                             f"beyond the last stage {m_max}")
        stable_froms.append(m)
    modules = [sl2.battery_module(p, expr) for expr in battery]
    rows = [[] for _ in modules]
    for m in range(m0, m_max + 1):
        db, ts = sl2.kernel_stage_masks(lam, m)
        v_ms = [dual_comodule(sl2.restrict_to_kernel(v, m)) for v in modules]
        for v_rows, dim in zip(rows, contramodule.gf2_cohom_dims(v_ms, db, ts)):
            v_rows.append(TowerRow(m, dim))
    reports = []
    for expr, v, v_rows, stable_from in zip(battery, modules, rows, stable_froms):
        f_v = sl2.f_multiplicity(lam, v)
        # stabilization counts only when it was observed: before the last stage
        pos = _settled_from([r.dim_cohom for r in v_rows])
        stabilized_at = v_rows[pos].m if pos < len(v_rows) - 1 else None
        match = all(r.dim_cohom == f_v for r in v_rows if r.m >= stable_from)
        reports.append(TowerReport(expr, lam, p, v_rows, stabilized_at, f_v, match, stable_from))
    return reports
