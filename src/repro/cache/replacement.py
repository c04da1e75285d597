"""Replacement policies for set-associative tag stores.

A policy keeps per-set recency/arrival state and answers two
questions: which way to victimise, and how to update state on an
access or install.  Policies are deliberately decoupled from the tag
store so the R-cache's inclusion-aware victim selection (prefer ways
with all inclusion bits clear) can be layered on top via the
*candidates* argument of :meth:`ReplacementPolicy.choose`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Sequence

from ..common.errors import ConfigurationError


class ReplacementPolicy(ABC):
    """Replacement state for every set of one cache."""

    __slots__ = ("n_sets", "associativity")

    def __init__(self, n_sets: int, associativity: int) -> None:
        self.n_sets = n_sets
        self.associativity = associativity

    @abstractmethod
    def on_access(self, set_index: int, way: int) -> None:
        """Record a hit on (set, way)."""

    @abstractmethod
    def on_install(self, set_index: int, way: int) -> None:
        """Record a fill into (set, way)."""

    @abstractmethod
    def choose(self, set_index: int, candidates: Sequence[int]) -> int:
        """Pick a victim way among *candidates* (never empty)."""

    @abstractmethod
    def export_state(self) -> object:
        """Checkpointable snapshot of the per-set policy state."""

    @abstractmethod
    def restore_state(self, state: object) -> None:
        """Replace the policy state with a snapshot's."""


class _WayOrders(dict[int, list[int]]):
    """Per-set way order (victim first), created on a set's first use.

    An untouched set's order is ``range(associativity)``, exactly what
    an eagerly built order would hold, so building it late changes no
    victim choice.
    """

    __slots__ = ("_ways",)

    def __init__(self, associativity: int) -> None:
        super().__init__()
        self._ways = range(associativity)

    def __missing__(self, set_index: int) -> list[int]:
        order = list(self._ways)
        self[set_index] = order
        return order


class _OrderPolicy(ReplacementPolicy):
    """A policy that keeps one way order per set and evicts its head."""

    __slots__ = ("_order",)

    def __init__(self, n_sets: int, associativity: int) -> None:
        super().__init__(n_sets, associativity)
        self._order = _WayOrders(associativity)

    def _touch(self, set_index: int, way: int) -> None:
        order = self._order[set_index]
        order.remove(way)
        order.append(way)

    def choose(self, set_index: int, candidates: Sequence[int]) -> int:
        allowed = frozenset(candidates)
        for way in self._order[set_index]:
            if way in allowed:
                return way
        raise ConfigurationError("victim requested with no candidate ways")

    def recency_order(self, set_index: int) -> list[int]:
        """Ways victim-first (LRU-first under LRU), exposed for tests."""
        return list(self._order[set_index])

    def export_state(self) -> object:
        # One order per set, untouched sets included (sharing one
        # power-on list), so the snapshot is the same whichever sets
        # happen to have been used.
        orders = self._order
        default = list(range(self.associativity))
        return [
            list(orders[s]) if s in orders else default for s in range(self.n_sets)
        ]

    def restore_state(self, state: object) -> None:
        default = list(range(self.associativity))
        self._order = _WayOrders(self.associativity)
        for set_index, order in enumerate(state):  # type: ignore[arg-type]
            if order != default:
                self._order[set_index] = list(order)


class LRUPolicy(_OrderPolicy):
    """Least-recently-used: the paper's default at both levels."""

    __slots__ = ()

    # Hits and fills both move the way to the MRU end; binding the
    # shared helper directly saves a call frame per access.
    on_access = on_install = _OrderPolicy._touch


class FIFOPolicy(_OrderPolicy):
    """First-in-first-out: order set at install time only."""

    __slots__ = ()

    def on_access(self, set_index: int, way: int) -> None:
        pass

    def on_install(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)


class RandomPolicy(ReplacementPolicy):
    """Seeded random choice, as the paper's R-cache fallback rule uses."""

    __slots__ = ("_rng",)

    def __init__(self, n_sets: int, associativity: int, seed: int = 0) -> None:
        super().__init__(n_sets, associativity)
        self._rng = random.Random(seed)

    def on_access(self, set_index: int, way: int) -> None:
        pass

    def on_install(self, set_index: int, way: int) -> None:
        pass

    def choose(self, set_index: int, candidates: Sequence[int]) -> int:
        if not candidates:
            raise ConfigurationError("victim requested with no candidate ways")
        return self._rng.choice(list(candidates))

    def export_state(self) -> object:
        return self._rng.getstate()

    def restore_state(self, state: object) -> None:
        self._rng.setstate(state)  # type: ignore[arg-type]


_POLICIES = {"lru": LRUPolicy, "fifo": FIFOPolicy, "random": RandomPolicy}


def make_policy(
    name: str, n_sets: int, associativity: int, seed: int = 0
) -> ReplacementPolicy:
    """Instantiate a policy by name ("lru", "fifo" or "random")."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    if cls is RandomPolicy:
        return RandomPolicy(n_sets, associativity, seed)
    return cls(n_sets, associativity)
