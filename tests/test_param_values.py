"""Parameter bundles are hashable values that key the per-trace memo.

``SystemParams`` and the ``GPPParams`` inside it store their mappings
as :class:`repro.frozen.FrozenDict`, so a bundle hashes by value;
``schedule_key`` is every ``SystemParams`` field but the policy's two;
and shared schedules, GPP references, stream dcache outcomes and
front-end annotations live in one per-trace memo that
``clear_schedule_caches`` empties.
"""

import copy
import dataclasses
import operator
import pickle
from collections.abc import Mapping, MutableMapping

import pytest

from repro import obs
from repro.campaign import CampaignRunner, CampaignSpec, PolicySpec
from repro.cgra.fabric import FabricGeometry
from repro.dbt.translator import DBTLimits
from repro.frontend import FrontEndSpec
from repro.frontend.speculative import speculative_trace
from repro.frozen import FrozenDict
from repro.gpp.params import GPPParams
from repro.gpp.timing import stream_dcache
from repro.system import schedule as schedule_module
from repro.system.params import SystemParams
from repro.system.schedule import (
    clear_schedule_caches,
    gpp_reference,
    schedule_key,
    shared_schedule,
)
from repro.workloads.suite import run_workload

GEOMETRY = FabricGeometry(rows=2, cols=16)

#: ``GEOMETRY`` with its default line sizing declared as a hard routing
#: budget: the same hardware, routed under a constraint the elastic
#: fabric's walks exceed on these workloads.
BUDGETED = FabricGeometry(rows=2, cols=16, ctx_lines=4)
BUDGET_WORKLOADS = ("dijkstra", "sha")

#: A value other than the default for every ``SystemParams`` field.
CHANGED = {
    "geometry": FabricGeometry(rows=4, cols=32),
    "policy": "rotation",
    "policy_kwargs": {"pattern": "raster"},
    "mapper": "annealing",
    "mapper_kwargs": {"row_policy": "round_robin"},
    "gpp": GPPParams(predictor="gshare"),
    "dbt": DBTLimits(max_branches=1),
    "config_cache_entries": 8,
    "frontend": FrontEndSpec.make("btfn"),
}

#: The fields a walk does not depend on.
POLICY_FIELDS = ("policy", "policy_kwargs")

#: Every mutator of a dict, each called with arguments a dict accepts.
MUTATORS = {
    "__setitem__": lambda d: operator.setitem(d, "k", 1),
    "__delitem__": lambda d: operator.delitem(d, "a"),
    "__ior__": lambda d: operator.ior(d, {"k": 1}),
    "clear": lambda d: d.clear(),
    "pop": lambda d: d.pop("a"),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault("k", 1),
    "update": lambda d: d.update(k=1),
}


# ----------------------------------------------------------------------
# schedule_key


def test_every_field_has_a_changed_value():
    assert set(CHANGED) == {
        field.name for field in dataclasses.fields(SystemParams)
    }


@pytest.mark.parametrize("name", sorted(CHANGED))
def test_schedule_key_is_every_field_but_the_policy(name):
    base = SystemParams(geometry=GEOMETRY)
    changed = dataclasses.replace(base, **{name: CHANGED[name]})
    assert changed != base
    if name in POLICY_FIELDS:
        assert schedule_key(changed) == schedule_key(base)
    else:
        assert schedule_key(changed) != schedule_key(base)


def _count_walks(monkeypatch) -> list:
    """Record every ``compute_schedule`` call made through the memo."""
    walks = []
    compute = schedule_module.compute_schedule

    def counted(*args, **kwargs):
        walks.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(schedule_module, "compute_schedule", counted)
    return walks


def test_declared_routing_budget_keys_its_own_walk(monkeypatch):
    assert BUDGETED.ctx_lines == GEOMETRY.ctx_lines
    elastic = SystemParams(geometry=GEOMETRY)
    budgeted = SystemParams(geometry=BUDGETED)
    assert schedule_key(budgeted) != schedule_key(elastic)

    trace = run_workload(BUDGET_WORKLOADS[0])
    clear_schedule_caches()
    walks = _count_walks(monkeypatch)
    free = shared_schedule(elastic, trace)
    bound = shared_schedule(budgeted, trace)
    assert len(walks) == 2
    assert bound.cgra.peak_line_pressure <= 4 < free.cgra.peak_line_pressure


def test_campaign_keeps_a_declared_budget_apart():
    spec = CampaignSpec(
        geometries=((2, 16), (2, 16, 4)),
        policies=(PolicySpec.make("baseline"),),
        workloads=BUDGET_WORKLOADS,
        name="declared_budget",
    )
    runner = CampaignRunner()
    assert runner.schedule_groups(spec.design_points()) == [[0], [1]]
    peaks = {
        point.ctx_lines: max(
            result.cgra.peak_line_pressure for result in run.results.values()
        )
        for point, run in runner.run(spec)
    }
    assert peaks[4] <= 4 < peaks[None]


# ----------------------------------------------------------------------
# Bundles are values


def _bundle(reverse: bool) -> SystemParams:
    """One design point, its mappings built in forward or reverse
    insertion order."""

    def ordered(mapping):
        items = list(mapping.items())
        return dict(reversed(items) if reverse else items)

    return SystemParams(
        geometry=FabricGeometry(rows=2, cols=16),
        policy="rotation",
        policy_kwargs=ordered({"pattern": "raster", "stride": 2}),
        gpp=GPPParams(class_cycles=ordered(GPPParams().class_cycles)),
    )


def test_equal_bundles_hash_equal_and_share_one_walk(monkeypatch):
    first, second = _bundle(reverse=False), _bundle(reverse=True)
    assert list(first.policy_kwargs) != list(second.policy_kwargs)
    assert first == second
    assert hash(first) == hash(second)

    trace = run_workload("bitcount")
    clear_schedule_caches()
    walks = _count_walks(monkeypatch)
    counters = obs.state.counters
    with obs.telemetry():
        hits = counters.get("schedule.memo.hits", 0)
        schedule = shared_schedule(first, trace)
        assert shared_schedule(second, trace) is schedule
        hits = counters.get("schedule.memo.hits", 0) - hits
    assert len(walks) == 1
    assert hits == 1


def test_mutating_a_mapping_parameter_raises():
    params = SystemParams(geometry=GEOMETRY, policy_kwargs={"seed": 1})
    with pytest.raises(TypeError):
        params.policy_kwargs["seed"] = 2
    with pytest.raises(TypeError):
        params.gpp.class_cycles.clear()
    assert params.policy_kwargs == {"seed": 1}


def test_mutators_cover_every_dict_mutator():
    mutable = set(vars(MutableMapping)) - set(vars(Mapping))
    mutable.discard("_MutableMapping__marker")
    assert set(MUTATORS) == mutable | {"__ior__"}


@pytest.mark.parametrize("name", sorted(MUTATORS))
def test_frozen_dict_refuses_mutator(name):
    frozen = FrozenDict(a=1, b=2)
    with pytest.raises(TypeError, match="immutable"):
        MUTATORS[name](frozen)
    assert frozen == {"a": 1, "b": 2}
    assert list(frozen) == ["a", "b"]


def test_frozen_dict_survives_pickle_copy_and_replace():
    frozen = FrozenDict(a=1, b=(2, 3))
    for clone in (
        pickle.loads(pickle.dumps(frozen)),
        copy.copy(frozen),
        copy.deepcopy(frozen),
    ):
        assert type(clone) is FrozenDict
        assert clone == frozen
        assert hash(clone) == hash(frozen)

    params = SystemParams(
        geometry=GEOMETRY, policy_kwargs={"seed": 3}, mapper_kwargs=frozen
    )
    for clone in (
        pickle.loads(pickle.dumps(params)),
        copy.deepcopy(params),
        dataclasses.replace(params, policy="random"),
    ):
        assert type(clone.policy_kwargs) is FrozenDict
        assert type(clone.mapper_kwargs) is FrozenDict
        assert type(clone.gpp.class_cycles) is FrozenDict
        assert clone.policy_kwargs == {"seed": 3}
        assert schedule_key(clone) == schedule_key(params)
        hash(clone)


# ----------------------------------------------------------------------
# The per-trace memo


def _derived(trace, params: SystemParams, spec: FrontEndSpec) -> tuple:
    """One value from each memoised derivation of ``trace``."""
    return (
        shared_schedule(params, trace),
        gpp_reference(trace, params)[1],
        stream_dcache(trace, params.gpp.dcache),
        speculative_trace(trace, spec),
    )


def test_clear_schedule_caches_recomputes_every_memo():
    trace = run_workload("bitcount")
    params = SystemParams(geometry=GEOMETRY)
    spec = FrontEndSpec.make("btfn")
    clear_schedule_caches()
    first = _derived(trace, params, spec)
    assert all(
        again is value
        for again, value in zip(_derived(trace, params, spec), first)
    )
    clear_schedule_caches()
    fresh = _derived(trace, params, spec)
    assert all(again is not value for again, value in zip(fresh, first))
    assert fresh[2] == first[2]


def test_gpp_reference_keys_on_the_gpp_params():
    trace = run_workload("bitcount")
    params = SystemParams(geometry=GEOMETRY)
    energy = gpp_reference(trace, params)[1]
    other_point = dataclasses.replace(
        params, geometry=FabricGeometry(rows=8, cols=32), policy="rotation"
    )
    assert gpp_reference(trace, other_point)[1] is energy
    other_gpp = dataclasses.replace(params, gpp=CHANGED["gpp"])
    assert gpp_reference(trace, other_gpp)[1] is not energy
