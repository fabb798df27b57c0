"""Pluggable wear-aware place-and-route for virtual configurations.

The mapping stage sits between translation-unit discovery
(:mod:`repro.dbt.window`) and the configuration cache. Discovery
places every unit greedily as it grows it; a :class:`Mapper` may then
refine that placement of the window into another
:class:`~repro.cgra.configuration.VirtualConfiguration`. Built-ins:

* ``greedy`` — :class:`GreedyMapper`, the paper's traditional
  first-fit placement (the default): discovery's own placement, kept
  as is, so a greedy walk runs no mapper;
* ``annealing`` — :class:`SimulatedAnnealingMapper`, wear-aware
  simulated annealing of discovery's placement with a vectorized
  incremental cost, optionally fed by the allocator's live stress map.

:mod:`repro.mapping.routing` models the per-column context-line
pressure that makes the interconnect a finite resource: a declared
``FabricGeometry.ctx_lines`` budget bounds discovery and the annealer
alike. :mod:`repro.mapping.legality` (imported on its own, since no
simulation runs it) validates any mapper's output against the DFG
dependence oracle, FU latency spans and the left-to-right
interconnect constraint, the routing budget included.
"""

from repro.mapping.annealing import SimulatedAnnealingMapper
from repro.mapping.base import (
    Mapper,
    available_mappers,
    make_mapper,
    mapper_class,
    register_mapper,
)
from repro.mapping.greedy import GreedyMapper
from repro.mapping.routing import (
    RoutingProfile,
    routing_profile,
    routing_violations,
    value_intervals,
)

__all__ = [
    "GreedyMapper",
    "Mapper",
    "RoutingProfile",
    "SimulatedAnnealingMapper",
    "available_mappers",
    "make_mapper",
    "mapper_class",
    "register_mapper",
    "routing_profile",
    "routing_violations",
    "value_intervals",
]
