"""Declarative campaign specifications.

A campaign enumerates design points — (geometry, mapper, policy,
workload set) combinations — without running anything. Seeds expand
seedable policies (``random``) and seedable mappers (``annealing``)
into design points as a cross product: every seeded policy meets every
seeded mapper.

Geometries are ``(rows, cols)`` shapes, optionally ``(rows, cols,
ctx_lines)`` to declare a hard context-line routing budget for the
whole pipeline (see :attr:`repro.cgra.fabric.FabricGeometry.routing_budget`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policy import available_policies, policy_class
from repro.errors import ConfigurationError, check_kwargs
from repro.frontend.spec import FrontEndSpec
from repro.mapping import available_mappers, mapper_class
from repro.workloads.suite import workload_names


@dataclass(frozen=True)
class ComponentSpec:
    """A registered pipeline component plus constructor arguments.

    Shared machinery of :class:`PolicySpec` and :class:`MapperSpec`:
    ``kwargs`` is stored as a sorted item tuple so specs are hashable
    (dict keys) and survive JSON round trips; subclasses bind the
    registry via :meth:`_available`/:meth:`_class_of`. Two subclasses
    never compare equal (dataclass equality is class-aware), so the
    policy and mapper axes cannot be mixed up. A spec binds its kwargs
    to the component's constructor when it is built, so a manifest
    naming a keyword the component does not take fails at load.
    """

    name: str
    kwargs: tuple[tuple[str, object], ...] = ()

    #: Human name of the component kind (error messages).
    _kind = "component"

    @classmethod
    def _available(cls) -> tuple[str, ...]:
        raise NotImplementedError

    @classmethod
    def _class_of(cls, name: str) -> type:
        raise NotImplementedError

    @classmethod
    def make(cls, name: str, **kwargs):
        return cls(name=name, kwargs=tuple(sorted(kwargs.items())))

    def __post_init__(self) -> None:
        if self.name not in self._available():
            raise ConfigurationError(
                f"unknown {self._kind} {self.name!r}; "
                f"available: {list(self._available())}"
            )
        check_kwargs(
            self._kind, self.name, self._class_of(self.name), self.as_kwargs()
        )

    def as_kwargs(self) -> dict:
        return dict(self.kwargs)

    @property
    def seedable(self) -> bool:
        """Whether the component draws from a seedable RNG."""
        return bool(getattr(self._class_of(self.name), "seedable", False))

    def with_seed(self, seed: int):
        """Copy of this spec pinned to ``seed``."""
        kwargs = self.as_kwargs()
        kwargs["seed"] = seed
        return type(self).make(self.name, **kwargs)

    @property
    def label(self) -> str:
        if not self.kwargs:
            return self.name
        args = ",".join(f"{key}={value}" for key, value in self.kwargs)
        return f"{self.name}({args})"


@dataclass(frozen=True)
class PolicySpec(ComponentSpec):
    """An allocation policy plus constructor arguments, hashable."""

    _kind = "policy"

    @classmethod
    def _available(cls) -> tuple[str, ...]:
        return available_policies()

    @classmethod
    def _class_of(cls, name: str) -> type:
        return policy_class(name)

    @property
    def plan_granularity(self) -> str:
        """How often the policy's planner reads the stress counts (one
        of :data:`repro.core.policy.PLAN_GRANULARITIES`). The runner
        weights design points by it when balancing pool payloads:
        per-launch planners replay far slower than whole-``"schedule"``
        planners."""
        return str(
            getattr(self._class_of(self.name), "plan_granularity", "launch")
        )


@dataclass(frozen=True)
class MapperSpec(ComponentSpec):
    """A mapper plus constructor arguments, hashable."""

    _kind = "mapper"

    @classmethod
    def _available(cls) -> tuple[str, ...]:
        return available_mappers()

    @classmethod
    def _class_of(cls, name: str) -> type:
        return mapper_class(name)

    @property
    def is_default(self) -> bool:
        """The plain greedy mapper — the seed pipeline's behaviour."""
        return self.name == "greedy" and not self.kwargs


#: The implicit mapper of campaigns that predate the mappers axis.
DEFAULT_MAPPER = MapperSpec(name="greedy")


def _expand_seeds(specs, seeds):
    """One design-point variant per seed for every *seedable* spec
    (non-seedable specs are kept as-is, once)."""
    if not seeds:
        return tuple(specs)
    expanded = []
    for spec in specs:
        if spec.seedable:
            expanded.extend(spec.with_seed(seed) for seed in seeds)
        else:
            expanded.append(spec)
    return tuple(expanded)


@dataclass(frozen=True)
class DesignPoint:
    """One evaluatable point of a campaign.

    ``ctx_lines`` declares a hard context-line routing budget for the
    point's fabric; ``None`` keeps the default sizing (elastic
    routing), so pre-routing campaigns behave and serialize exactly as
    before. ``frontend`` attaches a speculative front end; ``None``
    (the default) keeps the clean committed stream and pre-front-end
    artifact names.
    """

    rows: int
    cols: int
    policy: PolicySpec
    workloads: tuple[str, ...]
    mapper: MapperSpec = DEFAULT_MAPPER
    ctx_lines: int | None = None
    frontend: FrontEndSpec | None = None

    @property
    def key(self) -> str:
        """Filesystem-safe identifier (artifact file stem).

        The mapper, routing budget and front end contribute only when
        they are not the defaults, so artifact names from pre-mapper,
        pre-routing and pre-front-end campaigns are stable.
        """
        parts = [f"L{self.cols}xW{self.rows}", self.policy.name]
        if self.ctx_lines is not None:
            parts[0] += f"xC{self.ctx_lines}"
        parts.extend(f"{key}-{value}" for key, value in self.policy.kwargs)
        if not self.mapper.is_default:
            parts.append(f"m-{self.mapper.name}")
            parts.extend(
                f"{key}-{value}" for key, value in self.mapper.kwargs
            )
        if self.frontend is not None:
            # The label omits the quieter fields (flush penalty,
            # handler length); the fingerprint keeps full-identity
            # uniqueness.
            parts.append(
                f"fe-{self.frontend.label}-{self.frontend.fingerprint()[:8]}"
            )
        return "__".join(
            "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in str(part))
            for part in parts
        )

    @property
    def label(self) -> str:
        shape = f"L{self.cols}xW{self.rows}"
        if self.ctx_lines is not None:
            shape += f"xC{self.ctx_lines}"
        base = f"{shape}/{self.policy.label}"
        if not self.mapper.is_default:
            base = f"{base}/{self.mapper.label}"
        if self.frontend is not None:
            base = f"{base}/fe:{self.frontend.label}"
        return base


def _geometry_parts(shape: tuple) -> tuple[int, int, int | None]:
    """Normalise a geometry entry to ``(rows, cols, ctx_lines)``."""
    if len(shape) == 2:
        rows, cols = shape
        return int(rows), int(cols), None
    if len(shape) == 3:
        rows, cols, ctx_lines = shape
        return int(rows), int(cols), int(ctx_lines)
    raise ConfigurationError(
        f"geometry entries are (rows, cols[, ctx_lines]), got {shape!r}"
    )


@dataclass(frozen=True)
class CampaignSpec:
    """Cross product of geometries x mappers x policies x workloads x
    seeds.

    Attributes:
        geometries: ``(rows, cols)`` fabric shapes, optionally
            ``(rows, cols, ctx_lines)`` to declare a hard routing
            budget.
        policies: allocation policies to evaluate on each shape.
        mappers: place-and-route mappers to evaluate; empty selects the
            default greedy mapper only (the pre-mapper behaviour).
        workloads: suite member names; empty selects the full suite.
        seeds: when non-empty, every *seedable* policy and mapper is
            expanded into seed variants (non-seedable ones are kept
            as-is) and the two are crossed — ``len(seeds)**2``
            points per (geometry, seedable mapper, seedable policy)
            combination; this is how the annealing mapper is seeded
            deterministically from the campaign seed.
        frontends: speculative front ends to evaluate; entries may be
            ``None`` for the clean committed stream. Empty selects the
            clean stream only (the pre-front-end behaviour).
        name: campaign identifier (artifact manifest name).
    """

    geometries: tuple[tuple[int, ...], ...]
    policies: tuple[PolicySpec, ...]
    workloads: tuple[str, ...] = ()
    seeds: tuple[int, ...] = ()
    name: str = "campaign"
    mappers: tuple[MapperSpec, ...] = ()
    frontends: tuple[FrontEndSpec | None, ...] = ()

    def __post_init__(self) -> None:
        if not self.geometries:
            raise ConfigurationError("campaign needs at least one geometry")
        if not self.policies:
            raise ConfigurationError("campaign needs at least one policy")
        for shape in self.geometries:
            rows, cols, ctx_lines = _geometry_parts(shape)
            if rows < 1 or cols < 1:
                raise ConfigurationError(
                    f"invalid geometry ({rows}, {cols})"
                )
            if ctx_lines is not None and ctx_lines < rows:
                raise ConfigurationError(
                    f"geometry ({rows}, {cols}): ctx_lines {ctx_lines} "
                    "must be >= rows"
                )
        for frontend in self.frontends:
            if frontend is not None and not isinstance(frontend, FrontEndSpec):
                raise ConfigurationError(
                    f"frontends entries are FrontEndSpec or None, "
                    f"got {frontend!r}"
                )

    def resolved_workloads(self) -> tuple[str, ...]:
        """Workload selection with the empty default expanded."""
        return self.workloads if self.workloads else workload_names()

    def resolved_mappers(self) -> tuple[MapperSpec, ...]:
        """Mapper selection with the empty default expanded."""
        return self.mappers if self.mappers else (DEFAULT_MAPPER,)

    def resolved_frontends(self) -> tuple[FrontEndSpec | None, ...]:
        """Front-end selection with the empty default expanded."""
        return self.frontends if self.frontends else (None,)

    def expanded_policies(self) -> tuple[PolicySpec, ...]:
        """Policies with seed expansion applied."""
        return _expand_seeds(self.policies, self.seeds)

    def expanded_mappers(self) -> tuple[MapperSpec, ...]:
        """Mappers with seed expansion applied (seedable ones only)."""
        return _expand_seeds(self.resolved_mappers(), self.seeds)

    def design_points(self) -> tuple[DesignPoint, ...]:
        """Every design point: geometries outermost, then front ends,
        then mappers, policies innermost.

        Raises:
            ConfigurationError: on duplicate design points (repeated
                geometries, front ends, mappers, policies or seeds) —
                duplicates would silently collapse when results are
                keyed by point.
        """
        workloads = self.resolved_workloads()
        mappers = self.expanded_mappers()
        policies = self.expanded_policies()
        points = tuple(
            DesignPoint(
                rows=rows,
                cols=cols,
                policy=policy,
                workloads=workloads,
                mapper=mapper,
                ctx_lines=ctx_lines,
                frontend=frontend,
            )
            for rows, cols, ctx_lines in map(_geometry_parts, self.geometries)
            for frontend in self.resolved_frontends()
            for mapper in mappers
            for policy in policies
        )
        seen: set[DesignPoint] = set()
        for point in points:
            if point in seen:
                raise ConfigurationError(
                    f"duplicate design point {point.label!r}; check for "
                    "repeated geometries, front ends, mappers, policies "
                    "or seeds"
                )
            seen.add(point)
        return points

    def to_jsonable(self) -> dict:
        """Manifest form (see ``campaign.json`` artifacts).

        The ``mappers`` and ``frontends`` entries are emitted only for
        campaigns that set them, keeping pre-mapper, pre-routing and
        pre-front-end manifests byte-identical.
        """
        payload = {
            "name": self.name,
            "geometries": [list(shape) for shape in self.geometries],
            "policies": [
                {"name": policy.name, "kwargs": policy.as_kwargs()}
                for policy in self.policies
            ],
            "workloads": list(self.resolved_workloads()),
            "seeds": list(self.seeds),
        }
        if self.mappers:
            payload["mappers"] = [
                {"name": mapper.name, "kwargs": mapper.as_kwargs()}
                for mapper in self.mappers
            ]
        if self.frontends:
            payload["frontends"] = [
                spec.to_jsonable() if spec is not None else None
                for spec in self.frontends
            ]
        return payload

    @classmethod
    def from_jsonable(cls, payload: dict) -> "CampaignSpec":
        """Inverse of :meth:`to_jsonable`.

        Raises:
            ConfigurationError: on a manifest that names a
                ``seed_mode``: seeds expand only as a cross product, so
                a manifest asking for another expansion cannot be
                reproduced.
        """
        if "seed_mode" in payload:
            raise ConfigurationError(
                f"campaign manifest sets seed_mode {payload['seed_mode']!r};"
                " seeds expand only as a cross product, so remove the entry"
            )
        return cls(
            name=payload.get("name", "campaign"),
            geometries=tuple(
                tuple(int(part) for part in shape)
                for shape in payload["geometries"]
            ),
            policies=tuple(
                PolicySpec.make(entry["name"], **entry.get("kwargs", {}))
                for entry in payload["policies"]
            ),
            workloads=tuple(payload.get("workloads", ())),
            seeds=tuple(int(seed) for seed in payload.get("seeds", ())),
            mappers=tuple(
                MapperSpec.make(entry["name"], **entry.get("kwargs", {}))
                for entry in payload.get("mappers", ())
            ),
            frontends=tuple(
                FrontEndSpec.from_jsonable(entry) if entry is not None else None
                for entry in payload.get("frontends", ())
            ),
        )
