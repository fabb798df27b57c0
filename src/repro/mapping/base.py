"""Mapper interface and registry.

A *mapper* is the place-and-route stage of the DBT pipeline: it refines
the greedy first-fit placement that unit discovery
(:func:`repro.dbt.window.translate_unit`) makes of an instruction
window (the unit's committed :class:`TraceRecord` sequence) into
another :class:`~repro.cgra.configuration.VirtualConfiguration` —
every op assigned a virtual row, start column and column span. The
greedy placement itself (the paper's *traditional, energy-oriented*
allocation) is discovery's own, named ``greedy`` in the registry; the
mapper protocol lets campaigns compare mapper-level against
allocation-level wear leveling.

Contract for every mapper:

* the unit's *window* is fixed (unit boundaries are discovered by the
  greedy scheduler regardless of mapper, so ``pc_path`` and
  ``n_instructions`` are mapper-independent and the speculation /
  replay machinery behaves identically);
* the output must pass :func:`repro.mapping.legality.check_unit`
  against the DFG dependence oracle, the FU latency spans and the
  left-to-right interconnect constraint, including the geometry's
  declared routing budget;
* given the same inputs (and seed), the output is deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.cgra.fabric import FabricGeometry
from repro.errors import ConfigurationError, check_kwargs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cgra.configuration import VirtualConfiguration
    from repro.sim.trace import TraceRecord


class Mapper:
    """Maps an instruction window onto the virtual CGRA grid.

    Lifecycle: the DBT engine calls :meth:`map_unit` once per unit
    discovery forms, passing the discovered window records, discovery's
    greedy placement of them as ``seed`` and — for a stress-coupled
    mapper in a coupled walk — the allocator's live stress map.
    Mappers are stateless across units; all randomness must derive
    from the constructor ``seed`` (or the explicit ``rng``) so runs are
    reproducible.
    """

    #: Registry key; subclasses override.
    name = "abstract"

    #: Whether the mapper draws from a seedable RNG (campaign specs use
    #: this to expand one mapper into per-seed design points).
    seedable = False

    @property
    def stress_coupled(self) -> bool:
        """Whether placements depend on the allocator's *live* state.

        A stress-coupled mapper closes the allocation→mapping feedback
        loop: the units it produces (and therefore the whole launch
        stream) change with the allocation policy, so its simulations
        cannot share a policy-independent
        :class:`~repro.system.schedule.LaunchSchedule`. The engine
        reads the live stress map (``stress_hint``) only for a
        stress-coupled mapper.
        """
        return False

    def map_unit(
        self,
        ops: Sequence["TraceRecord"],
        geometry: FabricGeometry,
        rng: np.random.Generator | None = None,
        stress_hint: np.ndarray | None = None,
        seed: "VirtualConfiguration | None" = None,
    ) -> "VirtualConfiguration":
        """Place the window ``ops`` onto ``geometry``'s virtual grid.

        Args:
            ops: the unit's instruction window, in trace order (may
                include instructions that produce no fabric op, e.g.
                ``jal x0``).
            geometry: virtual grid shape to map onto.
            rng: explicit random stream; mappers with randomness fall
                back to a deterministic per-unit stream when omitted.
            stress_hint: read-only per-cell stress counts of the
                physical fabric (the allocator's live utilization map),
                or ``None`` when unavailable.
            seed: discovery's greedy first-fit placement of the same
                window (:func:`repro.dbt.window.translate_unit`), the
                placement the mapper refines. Required: mappers place
                no window from scratch.

        Returns:
            The refined configuration of the seed's window.
        """
        raise NotImplementedError

    def identity(self) -> str:
        """Stable identity string — the configuration-cache namespace.

        Two mappers with equal identity must produce identical output
        for identical input; the config cache keys entries by it so a
        campaign sweeping several mappers never replays a placement
        produced by a different mapper.
        """
        return self.name

    def describe(self) -> str:
        """One-line human-readable description."""
        return self.identity()


_REGISTRY: dict[str, type[Mapper]] = {}


def register_mapper(cls: type[Mapper]) -> type[Mapper]:
    """Class decorator adding a mapper to the ``make_mapper`` registry."""
    if cls.name in _REGISTRY:
        raise ConfigurationError(f"duplicate mapper name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def mapper_class(name: str) -> type[Mapper]:
    """Look up a registered mapper class without instantiating it."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown mapper {name!r}; available: {sorted(_REGISTRY)}"
        )
    return cls


def make_mapper(name: str, **kwargs) -> Mapper:
    """Instantiate a registered mapper by name.

    Raises:
        ConfigurationError: on an unknown name, or a keyword argument
            the mapper does not take.

    Examples:
        >>> make_mapper("greedy").name
        'greedy'
        >>> make_mapper("annealing", seed=7).identity()
        'annealing(seed=7)'
    """
    cls = mapper_class(name)
    check_kwargs("mapper", name, cls, kwargs)
    return cls(**kwargs)


def available_mappers() -> tuple[str, ...]:
    """Names of all registered mappers, sorted."""
    return tuple(sorted(_REGISTRY))
