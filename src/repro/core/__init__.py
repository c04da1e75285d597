"""The replay walker: ``Multiprocessor.run``'s fast path.

``repro.core.soa`` replays a trace over the flat state arrays the
cache components own, keeping the scalar protocol code — and therefore
its exact semantics — for everything that is not a pure level-1 hit
or one of the common miss shapes.  See DESIGN.md §13 for the layout
and the chunk-boundary rules.
"""

from .soa import run_soa

__all__ = ["run_soa"]
