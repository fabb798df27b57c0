"""Greedy first-fit placement — the paper's traditional allocation.

Greedy placement is unit discovery's own: :func:`repro.dbt.window.translate_unit`
places every op it takes into a unit at the earliest dependence-legal
column, in the first free row of the DBT's row-scan order
(:attr:`repro.dbt.window.UnitLimits.row_policy`), under the geometry's
declared routing budget (:attr:`repro.cgra.fabric.FabricGeometry.routing_budget`).
A ``greedy`` pipeline therefore builds no mapper: its walk runs the
DBT engine without one, under the cache namespace
:func:`~repro.cgra.configuration.greedy_identity` of its row policy.

:class:`GreedyMapper` only registers the name, so campaigns and
:class:`~repro.system.params.SystemParams` can select it; it takes no
options (the pipeline owns both limits) and places nothing itself: a
:class:`~repro.dbt.translator.DBTEngine` given it runs without a
mapper.
"""

from __future__ import annotations

from repro.cgra.configuration import DEFAULT_MAPPER_KEY
from repro.mapping.base import Mapper, register_mapper


@register_mapper
class GreedyMapper(Mapper):
    """The traditional, energy-oriented first-fit placement, made by
    unit discovery; selecting it runs the DBT without a mapper."""

    name = DEFAULT_MAPPER_KEY
