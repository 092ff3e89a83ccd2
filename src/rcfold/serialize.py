"""JSON round-trips for the file formats the CLI speaks.

Rationals are serialized as "num/den" strings so files stay exact and
diff-able. Measure files list weights in mixed-radix configuration order
(first site most significant). Event files carry either an explicit
configuration list or a hex bitmask over configuration indices.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import product as iter_product
from typing import Any

from .errors import InvalidParams, SpaceMismatch
from .folding import BranchLimit, FoldPath, FoldSpec
from .measures import Config, Event, Measure, Record, SiteSpace
from .rcr import BondStateAssignment, HyperbondStructure, IsingSpec, RcrBase


def fraction_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def space_to_json(space: SiteSpace) -> dict:
    return {
        "sites": list(space.sites),
        "alphabets": [list(a) for a in space.alphabets],
    }


def space_from_json(obj: dict) -> SiteSpace:
    return SiteSpace(tuple(obj["sites"]), tuple(tuple(a) for a in obj["alphabets"]))


def measure_to_json(p: Measure) -> dict:
    out = space_to_json(p.space)
    out["weights"] = [fraction_str(w) for w in p.weights]
    return out


def measure_from_json(obj: dict) -> Measure:
    space = space_from_json(obj)
    return Measure(space, tuple(obj["weights"]))


def config_to_json(c: Config) -> list:
    return list(c.symbols())


def config_from_json(space: SiteSpace, symbols: list) -> Config:
    values = []
    for sym, alph in zip(symbols, space.alphabets):
        if sym not in alph:
            raise InvalidParams(f"symbol {sym!r} not in alphabet {alph}")
        values.append(alph.index(sym))
    if len(symbols) != space.n:
        raise InvalidParams("configuration length does not match the space")
    return Config(space, tuple(values))


def event_to_json(e: Event) -> dict:
    out = space_to_json(e.space)
    if e.count <= 64:
        out["configs"] = [config_to_json(c) for c in e.configs()]
    else:
        out["mask_hex"] = hex(e.mask)
    return out


def event_from_json(obj: dict, space: SiteSpace | None = None) -> Event:
    """An event on ``space``, or on the file's own space without one; a file
    that declares another space than the given one raises SpaceMismatch."""
    if space is None:
        space = space_from_json(obj)
    elif ("sites" in obj or "alphabets" in obj) and space_from_json(obj) != space:
        raise SpaceMismatch("event file declares another space than the one it is read on")
    if "mask_hex" in obj:
        return Event(space, int(obj["mask_hex"], 16))
    if "configs" in obj:
        return Event.from_configs(
            space, (config_from_json(space, c) for c in obj["configs"])
        )
    raise InvalidParams("event file needs 'configs' or 'mask_hex'")


def spec_to_json(spec: FoldSpec) -> dict:
    out = {"K": list(spec.k_sites), "alpha": list(spec.alpha)}
    if spec.beta is not None:
        out["beta"] = [list(spec.beta[0]), list(spec.beta[1])]
    else:
        out["beta"] = None
    return out


def spec_from_json(obj: dict) -> FoldSpec:
    beta = obj.get("beta")
    if beta is not None:
        beta = (tuple(beta[0]), tuple(beta[1]))
    return FoldSpec(tuple(obj["K"]), tuple(obj["alpha"]), beta)


def path_to_json(path: FoldPath) -> list:
    return [spec_to_json(s) for s in path]


def path_from_json(obj: list) -> FoldPath:
    return FoldPath(tuple(spec_from_json(s) for s in obj))


def limit_to_json(limit: BranchLimit) -> dict:
    return {
        "space": space_to_json(limit.space),
        "weights": [fraction_str(w) for w in limit.measure.weights],
        "argmax": [config_to_json(c) for c in limit.argmax_set.configs()],
        "L": limit.emitted_at,
        "a": fraction_str(limit.ratio),
    }


def _local_rows(struct: HyperbondStructure) -> list[list[tuple]]:
    """Per bond, its local configurations as symbol rows, row t for bit t of a state."""
    alphabets = struct.space.alphabets
    return [list(iter_product(*(alphabets[p] for p in b))) for b in struct.bond_positions]


def base_to_json(base: RcrBase) -> dict:
    out = space_to_json(base.structure.space)
    out["bonds"] = [list(b) for b in base.structure.bonds]
    rows = _local_rows(base.structure)
    out["atoms"] = [
        {
            "weight": fraction_str(w),
            "states": [
                sorted(list(row) for t, row in enumerate(local) if state >> t & 1)
                for local, state in zip(rows, eta.states)
            ],
        }
        for eta, w in base.atoms
    ]
    return out


def base_from_json(obj: dict) -> RcrBase:
    space = space_from_json(obj)
    struct = HyperbondStructure(space, tuple(tuple(b) for b in obj["bonds"]))
    bits = [{row: 1 << t for t, row in enumerate(local)} for local in _local_rows(struct)]
    atoms = []
    for atom in obj["atoms"]:
        if len(atom["states"]) != len(struct.bonds):
            raise InvalidParams("one state per bond required")
        states = []
        for bond, local, rows in zip(struct.bonds, bits, atom["states"]):
            for row in rows:
                if tuple(row) not in local:
                    raise InvalidParams(f"bond {list(bond)} has no local configuration {row}")
            states.append(sum({local[tuple(row)] for row in rows}))  # a set: repeats collapse
        atoms.append((BondStateAssignment(struct, states), atom["weight"]))
    return RcrBase(struct, tuple(atoms))


def ising_to_json(spec: IsingSpec) -> dict:
    return {
        "vertices": list(spec.vertices),
        "edges": [[u, v, fraction_str(x)] for u, v, x in spec.edges],
        "fields": [fraction_str(f) for f in spec.fields] if spec.fields else None,
    }


def ising_from_json(obj: dict) -> IsingSpec:
    fields = obj.get("fields")
    return IsingSpec(
        tuple(obj["vertices"]), tuple(obj["edges"]), None if fields is None else tuple(fields)
    )


def jsonable(obj: Any) -> Any:
    """Recursively convert package objects into JSON-ready structures."""
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, Measure):
        return measure_to_json(obj)
    if isinstance(obj, Event):
        return event_to_json(obj)
    if isinstance(obj, Config):
        return config_to_json(obj)
    if isinstance(obj, FoldSpec):
        return spec_to_json(obj)
    if isinstance(obj, FoldPath):
        return path_to_json(obj)
    if isinstance(obj, BranchLimit):
        return limit_to_json(obj)
    if isinstance(obj, RcrBase):
        return base_to_json(obj)
    if isinstance(obj, Record):
        return {name: jsonable(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted((jsonable(v) for v in obj), key=repr)
    return obj


def dumps_canonical(obj: Any) -> str:
    """Stable, diff-able JSON: fixed key order, two-space indent."""
    return json.dumps(jsonable(obj), indent=2, sort_keys=False) + "\n"
