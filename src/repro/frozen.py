"""An immutable, hashable ``dict`` for the mapping fields of parameter
bundles.

:class:`~repro.system.params.SystemParams` and
:class:`~repro.gpp.params.GPPParams` are frozen dataclasses whose
values key the per-trace memos directly, so their mapping fields must
hash and must never change under a memo entry.
"""

from __future__ import annotations


class FrozenDict(dict):
    """A ``dict`` that refuses every mutator and hashes by its items.

    Equality and the hash ignore insertion order, as dict equality
    does, and every value must be hashable. Readers see a ``dict``
    (``isinstance``, ``json`` and ``**`` unpacking work unchanged);
    pickling and ``copy``/``deepcopy`` rebuild it through the
    constructor.
    """

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is immutable")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)
