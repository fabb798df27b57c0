"""System-level parameter bundle."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cgra.fabric import FabricGeometry
from repro.dbt.translator import DBTLimits
from repro.frontend.spec import FrontEndSpec
from repro.frozen import FrozenDict
from repro.gpp.params import GPPParams


@dataclass(frozen=True)
class SystemParams:
    """Everything needed to instantiate a :class:`TransRecSystem`.

    A hashable value: ``policy_kwargs`` and ``mapper_kwargs`` accept any
    mapping and are stored as :class:`~repro.frozen.FrozenDict`, so two
    bundles built separately compare and hash equal whatever the order
    of their kwargs, and the per-trace memos key on them directly.

    Attributes:
        geometry: CGRA fabric shape.
        policy: allocation policy name (see
            :func:`repro.core.policy.available_policies`).
        policy_kwargs: constructor arguments for the policy.
        mapper: mapper name (see
            :func:`repro.mapping.available_mappers`); ``"greedy"`` is
            the paper's traditional first-fit placement.
        mapper_kwargs: constructor arguments for the mapper.
        gpp: GPP timing parameters.
        dbt: translation-unit limits.
        config_cache_entries: configuration-cache capacity.
        frontend: speculative front-end configuration, or ``None`` for
            the classic clean committed stream (the default — walks are
            byte-identical to pre-front-end behaviour).
    """

    geometry: FabricGeometry
    policy: str = "baseline"
    policy_kwargs: FrozenDict = FrozenDict()
    mapper: str = "greedy"
    mapper_kwargs: FrozenDict = FrozenDict()
    gpp: GPPParams = field(default_factory=GPPParams)
    dbt: DBTLimits = field(default_factory=DBTLimits)
    config_cache_entries: int = 64
    frontend: FrontEndSpec | None = None

    def __post_init__(self) -> None:
        for name in ("policy_kwargs", "mapper_kwargs"):
            object.__setattr__(self, name, FrozenDict(getattr(self, name)))

    def with_policy(self, policy: str, **policy_kwargs) -> "SystemParams":
        """Copy of these parameters under a different policy."""
        return replace(self, policy=policy, policy_kwargs=policy_kwargs)
