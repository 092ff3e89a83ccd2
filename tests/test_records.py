"""The package's value types against the frozen dataclasses they stand for,
and what ``import rcfold`` loads."""
import dataclasses
import json
import pickle
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import rcfold
from rcfold import (
    BranchLimit,
    Config,
    Event,
    FoldPath,
    FoldSpec,
    HyperbondStructure,
    IsingSpec,
    Measure,
    RcrBase,
    RunConfig,
    SiteSpace,
    branch_limit,
    check_convergence_bound,
    check_disjoint_cluster_bound,
    check_folding_hypothesis_bound,
    construct_uniform_symmetric_rcr,
    fkg_theorem_pipeline,
    fold_window,
    full_rule,
    increasing_decreasing_rule,
    is_fkg,
    ising_build,
    normalize,
    predicates,
    verify_rcr,
)
from rcfold.association import BranchFailure, ExchangeableLevels
from rcfold.measures import GuardedFields, Record
from rcfold.serialize import jsonable

from oracles import dataclass_twin

# the types with a file format of their own, which jsonable writes instead of
# their fields
OWN_FORMAT = (Config, Event, Measure, FoldSpec, FoldPath, BranchLimit, RcrBase)


@cache
def samples() -> dict:
    """One instance of each value type, by type name."""
    space = SiteSpace.binary((1, 2))
    p = normalize(space, [2, 1, 1, 2])
    spec = FoldSpec((1,), (0,))
    base = construct_uniform_symmetric_rcr(Event.full(space))
    up, down = Event(space, 0b1100), Event(space, 0b0011)
    objs = [
        space,
        space.config((0, 1)),
        up,
        p,
        GuardedFields.holding(4, 9),
        spec,
        FoldPath((spec,)),
        branch_limit(p, (spec,)),
        fold_window(space, spec),
        check_convergence_bound(p, (FoldSpec((), ()),), 2),
        full_rule(),
        check_disjoint_cluster_bound(base.measure, base, increasing_decreasing_rule(), up, down),
        check_folding_hypothesis_bound(p, full_rule(), up, up),
        HyperbondStructure.all_pairs(space),
        base.atoms[0][0],
        base,
        verify_rcr(base.measure, base),
        predicates(base),
        IsingSpec((1, 2), ((1, 2, 2),)),
        ising_build(IsingSpec((1, 2), ((1, 2, 2),))),
        is_fkg(p),
        BranchFailure("first fold", "limit", "no certificate"),
        fkg_theorem_pipeline(p),
        ExchangeableLevels.from_weights(2, [1, 2, 1]),
        RunConfig(seed=3),
    ]
    return {type(x).__name__: x for x in objs}


def record_types() -> set:
    out, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.add(sub)
            todo.append(sub)
    return out


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


def test_every_value_type_has_a_sample():
    assert {type(x) for x in samples().values()} == record_types()
    assert len(samples()) == 25


@pytest.mark.parametrize("name", sorted(t.__name__ for t in record_types()))
def test_value_type_behaves_as_its_frozen_dataclass(name):
    obj = samples()[name]
    twin = dataclass_twin(type(obj))
    names = [f.name for f in dataclasses.fields(twin)]
    values = [getattr(obj, n) for n in names]
    ref = twin(*values)
    assert repr(obj) == repr(ref)
    copy = type(obj)(**dict(zip(names, values)))
    assert obj == copy and ref == twin(*values)
    # a report holding a dict is unhashable either way
    assert hash_or_error(obj) == hash_or_error(copy) == hash_or_error(ref)
    assert obj != ref and ref != obj
    with pytest.raises(AttributeError):
        setattr(obj, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(obj, names[0])
    back = pickle.loads(pickle.dumps(obj))
    assert repr(back) == repr(obj) and back == obj
    if not isinstance(obj, OWN_FORMAT):
        assert jsonable(obj) == {n: jsonable(getattr(ref, n)) for n in names}


def test_a_pickled_space_hashes_in_the_loading_process():
    space = SiteSpace(("a", "b"), ((0, 1), ("x", "y", "z")))
    probe = (
        "import pickle, sys; sys.path.insert(0, sys.argv[1]); "
        "s = pickle.loads(bytes.fromhex(sys.argv[2])); "
        "print(hash(s) == hash((s.sites, s.alphabets)))"
    )
    src = str(Path(rcfold.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-I", "-c", probe, src, pickle.dumps(space).hex()],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "True\n"


IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import rcfold
heavy = sorted({"concurrent.futures", "multiprocessing", "argparse"} & set(sys.modules))
modules = sorted(m for m in sys.modules if m == "rcfold" or m.startswith("rcfold."))
dataclasses = sorted(
    f"{m}.{name}"
    for m in modules
    for name, obj in vars(sys.modules[m]).items()
    if isinstance(obj, type) and obj.__module__ == m and "__dataclass_fields__" in vars(obj)
)
import json
print(json.dumps({"heavy": heavy, "modules": modules, "dataclasses": dataclasses}))
"""


def test_import_builds_one_dataclass_and_loads_no_pool_or_parser():
    src = str(Path(rcfold.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, src],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    loaded = json.loads(out)
    assert loaded["dataclasses"] == ["rcfold.rcr.SublatticeFlags"]
    assert loaded["heavy"] == []
    # every module is imported up front: none defers its import to first use
    assert loaded["modules"] == [
        "rcfold",
        "rcfold.association",
        "rcfold.errors",
        "rcfold.folding",
        "rcfold.generators",
        "rcfold.measures",
        "rcfold.occurrence",
        "rcfold.parallel",
        "rcfold.rcr",
        "rcfold.serialize",
        "rcfold.suites",
    ]
