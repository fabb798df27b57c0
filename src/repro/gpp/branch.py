"""Branch predictors for the GPP timing model and speculative front end.

The default is backward-taken/forward-not-taken (BTFN), the static
scheme typical of small embedded cores; dynamic 2-bit bimodal and
gshare predictors are available for sensitivity studies.

Predictors live in a registry shared by :mod:`repro.gpp.timing` and
:mod:`repro.frontend` — both instantiate by name via
:func:`make_predictor`, so a front-end spec and a GPP timing model
always agree on what ``"gshare"`` means.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class BranchPredictor:
    """Interface: ``predict`` then ``update`` for every branch."""

    def predict(self, pc: int, offset: int) -> bool:
        """Predicted direction for the branch at ``pc`` (offset in bytes)."""
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        """Record the resolved direction."""

    def reset(self) -> None:
        """Forget all learned state."""


class BTFNPredictor(BranchPredictor):
    """Static backward-taken / forward-not-taken prediction."""

    def predict(self, pc: int, offset: int) -> bool:
        return offset < 0


class AlwaysTakenPredictor(BranchPredictor):
    """Static always-taken prediction."""

    def predict(self, pc: int, offset: int) -> bool:
        return True


def _check_entries(entries: int) -> None:
    if entries <= 0 or entries & (entries - 1):
        raise ConfigurationError("predictor entries must be a power of two")


class BimodalPredictor(BranchPredictor):
    """Classic 2-bit saturating-counter table indexed by pc."""

    def __init__(self, entries: int = 512) -> None:
        _check_entries(entries)
        self._mask = entries - 1
        self._counters = [2] * entries  # weakly taken

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int, offset: int) -> bool:
        return self._counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)

    def reset(self) -> None:
        self._counters = [2] * (self._mask + 1)


class GSharePredictor(BranchPredictor):
    """Gshare: 2-bit counters indexed by pc XOR global branch history."""

    def __init__(self, entries: int = 512, history_bits: int = 8) -> None:
        _check_entries(entries)
        if history_bits < 1:
            raise ConfigurationError("gshare history_bits must be >= 1")
        self._mask = entries - 1
        self._history_mask = (1 << history_bits) - 1
        self._history = 0
        self._counters = [2] * entries  # weakly taken

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._mask

    def predict(self, pc: int, offset: int) -> bool:
        return self._counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    def reset(self) -> None:
        self._history = 0
        self._counters = [2] * (self._mask + 1)


#: Registry of predictor constructors, shared by GPP timing and the
#: speculative front end. Keys are the names accepted by
#: ``GPPParams.predictor`` and ``FrontEndSpec.predictor``.
PREDICTORS: dict[str, type[BranchPredictor]] = {
    "btfn": BTFNPredictor,
    "taken": AlwaysTakenPredictor,
    "bimodal": BimodalPredictor,
    "gshare": GSharePredictor,
}


def available_predictors() -> tuple[str, ...]:
    """Registered predictor names, sorted."""
    return tuple(sorted(PREDICTORS))


def predictor_class(name: str) -> type[BranchPredictor]:
    """The registered class for ``name``."""
    try:
        return PREDICTORS[name]
    except KeyError:
        raise ConfigurationError(f"unknown predictor {name!r}") from None


def make_predictor(name: str, **kwargs: object) -> BranchPredictor:
    """Instantiate a branch predictor by registered name."""
    cls = predictor_class(name)
    try:
        return cls(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigurationError(
            f"bad arguments for predictor {name!r}: {exc}"
        ) from None
