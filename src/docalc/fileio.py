"""File formats: graphs, models, transition matrices, DCN specs,
transport files, candidate sets, cost models, discovery reports and
trajectory CSV.  Every input file is parsed here, and malformed input
raises ``InvalidInputError`` naming the field.

All emitters are deterministic (sorted keys, fixed float rendering) so
that identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from .alcam import CostModel
from .dcn import (DcnMechanism, DcnSpec, Schedule, SelectionVar, SliceCpt, SliceExo,
                  TransportSpec)
from .errors import InvalidInputError
from .factors import Factor, TransitionMatrix
from .graphs import Admg, Var
from .scm import Cpt, Exogenous, Scm

__all__ = [
    "load_graph", "save_graph", "load_model", "load_matrix",
    "load_dcn_spec", "load_transport", "load_candidates", "load_costs",
    "trajectory_csv", "canonical_json",
]

PathLike = Union[str, Path]


def _read(path: PathLike) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise InvalidInputError(f"{path}: the top level must be a JSON object")
    return d


def _int(value: Any, field: str) -> int:
    """An integer field; a boolean or a number with a fraction is refused,
    not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InvalidInputError(f"{field} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{field} must be an integer, got {value!r}") from None


def _float(value: Any, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{field} must be a number, got {value!r}") from None


def _floats(values: Any, field: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in values)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{field} must be a list of numbers, got {values!r}") from None


def _table(values: Any, field: str) -> np.ndarray:
    """A nested list of numbers as a float array."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{field} must hold numbers, got {values!r}") from None


def _obj(value: Any, field: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidInputError(f"{field} must be an object, got {value!r}")
    return value


def _name(value: Any, field: str) -> str:
    if not isinstance(value, str):
        raise InvalidInputError(f"{field} must be a name, got {value!r}")
    return value


def _names(values: Any, field: str) -> tuple[str, ...]:
    if not isinstance(values, list):
        raise InvalidInputError(f"{field} must be a list of names, got {values!r}")
    return tuple(_name(v, field) for v in values)


def _list(d: Mapping[str, Any], key: str, width: int = 0) -> list:
    """The list field ``key`` of ``d``, empty when absent; with ``width``,
    a list of lists of that many items."""
    items = d.get(key, [])
    if not isinstance(items, list) or width and not all(
            isinstance(e, list) and len(e) == width for e in items):
        raise InvalidInputError(f"{key} must be a list{f' of {width}-item lists' if width else ''}, "
                                f"got {items!r}")
    return items


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _vars_from(d: Mapping[str, Any], key: str) -> tuple[Var, ...]:
    items = d[key]
    if not isinstance(items, list) or not all(
            isinstance(v, dict) and isinstance(v.get("name"), str) for v in items):
        raise InvalidInputError(f"{key} must be a list of objects with a name")
    return tuple(Var(v["name"], _int(v.get("domain", 2), f"domain of {v['name']!r}"))
                 for v in items)


def graph_from_dict(d: Mapping[str, Any]) -> Admg:
    return Admg(
        _vars_from(d, "vars"),
        [_names(e, "edges entry") for e in _list(d, "edges", 2)],
        [_names(c, "confounders entry") for c in _list(d, "confounders", 2)],
    )


def graph_to_dict(g: Admg) -> dict:
    return {
        "vars": [{"name": v.name, "domain": v.domain} for v in g.vars],
        "edges": sorted([a, b] for a, b in g.directed),
        "confounders": sorted(sorted(p) for p in g.bidirected),
    }


def load_graph(path: PathLike) -> Admg:
    return graph_from_dict(_read(path))


def save_graph(g: Admg, path: PathLike) -> None:
    Path(path).write_text(canonical_json(graph_to_dict(g)), encoding="utf-8")


def model_from_dict(d: Mapping[str, Any]) -> Scm:
    g = graph_from_dict(d)
    exo = []
    exo_domain: dict[str, int] = {}  # sizes the exo axes of the cpt tables
    for e in _list(d, "exogenous"):
        e = _obj(e, "exogenous entry")
        name = _name(e["name"], "exogenous name")
        if name in exo_domain:
            raise InvalidInputError("exogenous names must be unique")
        prior = _floats(e["prior"], f"prior of {name!r}")
        exo_domain[name] = len(prior)
        exo.append(Exogenous(Var(name, len(prior)), prior,
                             frozenset(_names(e["feeds"], f"feeds of {name!r}"))))
    cpts = {}
    for name, c in _obj(d["cpts"], "cpts").items():
        c = _obj(c, f"cpt of {name!r}")
        parents = _names(c.get("parents", []), f"parents of {name!r}")
        exo_parents = _names(c.get("exo_parents", []), f"exo_parents of {name!r}")
        shape = tuple(g.var(p).domain for p in parents)
        # an unknown exo parent sizes nothing here; ``Scm`` refuses it by name
        shape += tuple(exo_domain[x] for x in exo_parents if x in exo_domain)
        shape += (g.var(name).domain,)
        table = _table(c["table"], f"cpt table of {name!r}")
        if table.size != int(np.prod(shape)):
            raise InvalidInputError(f"cpt table of {name!r} must hold {int(np.prod(shape))} "
                                    "numbers")
        cpts[name] = Cpt(name, parents, exo_parents, table.reshape(shape))
    return Scm(g, cpts, exo)


def load_model(path: PathLike) -> Scm:
    return model_from_dict(_read(path))


def model_to_dict(m: Scm) -> dict:
    out = graph_to_dict(m.graph)
    out["exogenous"] = [
        {"name": e.var.name, "prior": [float(x) for x in e.prior],
         "feeds": sorted(e.feeds)}
        for e in m.exogenous
    ]
    out["cpts"] = {
        name: {
            "parents": list(c.parents),
            "exo_parents": list(c.exo_parents),
            "table": [float(x) for x in np.ravel(np.asarray(c.table))],
        }
        for name, c in sorted(m.cpts.items())
    }
    return out


def matrix_from_dict(d: Mapping[str, Any]) -> TransitionMatrix:
    sv = _vars_from(_obj(d, "a transition matrix"), "state_vars")
    entries = _table(d["entries"], "entries")
    orientation = d.get("orientation", "row")
    if orientation == "row":
        return TransitionMatrix.from_rows(sv, entries)
    if orientation == "col":
        return TransitionMatrix(sv, entries)
    raise InvalidInputError(f"orientation must be 'row' or 'col', got {orientation!r}")


def load_matrix(path: PathLike) -> TransitionMatrix:
    return matrix_from_dict(_read(path))


def dcn_spec_from_dict(d: Mapping[str, Any]) -> tuple[DcnSpec, Optional[dict]]:
    """Returns the spec plus the raw schedule block (if present)."""
    mech = None
    if "mechanism" in d:
        m = _obj(d["mechanism"], "mechanism")
        exos = []
        for e in _list(m, "exos"):
            e = _obj(e, "exos entry")
            name = _name(e["name"], "exo name")
            exos.append(SliceExo(name, _floats(e["prior"], f"prior of {name!r}"),
                                 _name(e["earlier"], f"earlier of {name!r}"),
                                 _name(e["later"], f"later of {name!r}"),
                                 _int(e.get("lag", 0), f"lag of {name!r}")))
        cpts = []
        for name, c in _obj(m["cpts"], "cpts").items():
            c = _obj(c, f"cpt of {name!r}")
            intra = _names(c.get("intra_parents", []), f"intra_parents of {name!r}")
            cross = tuple((_name(q, f"cross_parents of {name!r}"), _int(k, f"lag of {q!r}"))
                          for q, k in _list(c, "cross_parents", 2))
            exo_p = _names(c.get("exo_parents", []), f"exo_parents of {name!r}")
            cpts.append(SliceCpt(name, intra, cross, exo_p,
                                 _table(c["table"], f"cpt table of {name!r}")))
        mech = DcnMechanism(tuple(cpts), tuple(exos))
    spec = DcnSpec(
        _vars_from(d, "slice_vars"),
        tuple(_names(e, "intra_edges entry") for e in _list(d, "intra_edges", 2)),
        tuple((_name(a, "cross_edges entry"), _name(b, "cross_edges entry"),
               _int(k, f"lag of ({a},{b})")) for a, b, k in _list(d, "cross_edges", 3)),
        tuple(frozenset(_names(c, "intra_confounders entry"))
              for c in _list(d, "intra_confounders")),
        tuple((_name(a, "cross_confounders entry"), _name(b, "cross_confounders entry"),
               _int(k, f"lag of ({a},{b})")) for a, b, k in _list(d, "cross_confounders", 3)),
        mech,
    )
    return spec, d.get("schedule")


def load_dcn_spec(path: PathLike, matrix: Optional[PathLike] = None
                  ) -> tuple[DcnSpec, Optional[Schedule]]:
    """The spec and its schedule: the transition matrix file ``matrix``
    when given, else the spec's own schedule block, else None."""
    spec, block = dcn_spec_from_dict(_read(path))
    if matrix is not None:
        return spec, load_matrix(matrix)
    return spec, _schedule_from_block(block, Path(path).parent)


def _schedule_from_block(block: Optional[dict], base: Path) -> Optional[Schedule]:
    """Resolve a schedule block into a callable t -> TransitionMatrix.

    Block format: {"matrices": {name: matrix-dict-or-path}, "pattern":
    [name, ...]} (the pattern repeats; entry t is the transition from
    slice t to t+1) or {"matrices": {...}, "default": name}.
    """
    if block is None:
        return None
    block = _obj(block, "schedule")
    mats = {}
    for name, m in _obj(block["matrices"], "schedule matrices").items():
        if isinstance(m, str):
            mats[name] = load_matrix(base / m)
        else:
            mats[name] = matrix_from_dict(m)
    names = (_names(block["pattern"], "schedule pattern") if "pattern" in block
             else [_name(block["default"], "schedule default")])
    if not names:
        raise InvalidInputError("schedule pattern must name at least one matrix")
    if not set(names) <= mats.keys():
        raise InvalidInputError(f"schedule names undefined matrices {sorted(set(names) - mats.keys())}")
    if "pattern" in block:
        pattern = [mats[n] for n in names]
        return lambda t: pattern[t % len(pattern)]
    return mats[names[0]]


def load_transport(path: PathLike) -> TransportSpec:
    """The selection variables, source experiments and source spec file
    (relative to this file) of ``docalc transport``."""
    d = _read(path)
    selection = []
    for s in _list(d, "selection_vars"):
        if not isinstance(s, dict) or not isinstance(s.get("name"), str):
            raise InvalidInputError(f"each selection_vars entry needs a name, got {s!r}")
        where = f"points_at offset of selection variable {s['name']!r}"
        selection.append(SelectionVar(s["name"], tuple(
            (_name(v, f"points_at of selection variable {s['name']!r}"), _int(off, where))
            for v, off in _list(s, "points_at", 2))))
    experiments = [frozenset(_names(e, "source_experiments entry"))
                   for e in _list(d, "source_experiments")]
    source = d.get("source_spec")
    if source is not None and not isinstance(source, str):
        raise InvalidInputError(f"source_spec must be a file name, got {source!r}")
    return TransportSpec(tuple(selection), tuple(experiments),
                         None if source is None
                         else dcn_spec_from_dict(_read(Path(path).parent / source))[0])


def load_candidates(path: PathLike) -> list[Admg]:
    d = _read(path)
    base = Path(path).parent
    out = []
    for item in _list(d, "graphs"):
        if isinstance(item, str):
            out.append(load_graph(base / item))
        else:
            out.append(graph_from_dict(_obj(item, "graphs entry")))
    return out


def _weights(d: Mapping[str, Any], key: str) -> dict[str, float]:
    return {n: _float(v, f"{key} weight of {n!r}") for n, v in _obj(d.get(key, {}), key).items()}


def load_costs(path: PathLike) -> CostModel:
    d = _read(path)
    return CostModel.per_variable(
        _weights(d, "intervention"),
        _weights(d, "observation"),
        _float(d.get("default_intervention", 1.0), "default_intervention"),
        _float(d.get("default_observation", 1.0), "default_observation"),
    )


def trajectory_csv(
    series: Sequence[Factor],
    t0: int = 0,
    full_joint: bool = False,
) -> str:
    """CSV of per-slice marginals: time column, then P(var=k) per variable
    value k >= 1, optionally followed by the full joint cells."""
    if not series:
        return "t\n"
    names = series[0].names()
    header = ["t"]
    for v in series[0].scope:
        for k in range(1, v.domain):
            header.append(f"P({v.name}={k})")
    if full_joint:
        for idx in np.ndindex(*[v.domain for v in series[0].scope]):
            # quoted, since the cell's name holds commas
            header.append('"P(' + ",".join(f"{v.name}={i}" for v, i in zip(series[0].scope, idx)) + ')"')
    lines = [",".join(header)]
    for t, f in enumerate(series):
        f = f.reorder(names)
        row = [str(t0 + t)]
        for i, v in enumerate(f.scope):
            axes = tuple(j for j in range(len(f.scope)) if j != i)
            marg = f.table.sum(axis=axes) if axes else f.table
            for k in range(1, v.domain):
                row.append(f"{marg[k]:.12g}")
        if full_joint:
            for x in np.ravel(f.table):
                row.append(f"{x:.12g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
