"""Breadth-first exploration of the protocol's reachable state space.

One :class:`ProtocolModel` is driven from reset through every event in
every reachable abstract state.  The search keeps one representative
concrete machine snapshot per abstract state, so each (state, event)
pair is expanded exactly once and counterexamples read straight off
the BFS parent pointers — breadth-first order makes them minimal in
event count.

Soundness: every state the explorer reports *is* reachable (it was
produced by executing the real implementation from reset), and every
invariant violation comes with a concrete replayable event sequence.
Completeness is relative to the abstraction: two concrete machines
that agree on the tracked block's abstract view are merged, so
behaviour that depends on state outside the abstraction (other
blocks' versions, replacement order of untracked sets) is sampled
through one representative.  The abstraction was chosen so that every
field the protocol branches on for the tracked block is visible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..common.errors import InclusionError, ProtocolError
from .model import ProtocolModel, Scenario, all_sub_combos, snoop_table

#: Transition verdicts.
OK = "ok"
VIOLATION = "violation"
ERROR = "error"
INAPPLICABLE = "inapplicable"


class ExplorationLimitError(RuntimeError):
    """The abstract state space exceeded the configured bound."""


@dataclass(frozen=True)
class Transition:
    """One explored (state, event) expansion.

    Attributes:
        source: abstract state id the event was applied in.
        event: event name.
        target: resulting abstract state id (None for error or
            inapplicable expansions).
        verdict: "ok", "violation", "error" or "inapplicable".
        messages: invariant-violation or exception messages.
    """

    source: int
    event: str
    target: int | None
    verdict: str
    messages: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "source": self.source,
            "event": self.event,
            "target": self.target,
            "verdict": self.verdict,
        }
        if self.messages:
            out["messages"] = list(self.messages)
        return out


@dataclass
class Counterexample:
    """A minimal event sequence leading to a violating expansion."""

    events: list[str]
    state: int
    messages: list[str]

    def to_dict(self) -> dict[str, Any]:
        return {
            "events": self.events,
            "state": self.state,
            "messages": self.messages,
        }


@dataclass
class ScenarioReport:
    """Everything one scenario's exploration produced."""

    scenario: Scenario
    states: list[tuple]
    transitions: list[Transition]
    counterexamples: list[Counterexample]
    events: tuple[str, ...]
    snoop_rows: list[dict[str, Any]] = field(default_factory=list)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)

    @property
    def ok(self) -> bool:
        """True when no reachable state violated any invariant."""
        return not self.counterexamples

    def reached_sub_combos(self) -> set[str]:
        """Subentry bit combinations observed in any reachable state."""
        out: set[str] = set()
        for state in self.states:
            for view in state[:2]:
                sub = view[1]
                if sub is None:
                    continue
                inclusion, buffer, share, vdirty, rdirty, _ = sub
                flags = "".join(
                    ch
                    for ch, on in (
                        ("I", inclusion),
                        ("B", buffer),
                        ("v", vdirty),
                        ("r", rdirty),
                    )
                    if on
                )
                out.add(f"{share}:{flags or '-'}")
        return out

    def unreachable_sub_combos(self) -> list[str]:
        """Subentry bit combinations no reachable state exhibits.

        Together with :func:`repro.analysis.model.snoop_table` these
        turn every defensive ``raise`` in the snoop handlers into an
        explicit verdict: either the raising configuration appears
        here (proven unreachable) or exploration found it and the
        raise is a genuine protocol gap.
        """
        full = set()
        for inclusion, buffer, share, vdirty, rdirty in all_sub_combos():
            flags = "".join(
                ch
                for ch, on in (
                    ("I", inclusion),
                    ("B", buffer),
                    ("v", vdirty),
                    ("r", rdirty),
                )
                if on
            )
            full.add(f"{share.value}:{flags or '-'}")
        return sorted(full - self.reached_sub_combos())

    def dead_states(self) -> list[int]:
        """States with no outgoing transition to a different state."""
        live: set[int] = set()
        for transition in self.transitions:
            if (
                transition.verdict == OK
                and transition.target is not None
                and transition.target != transition.source
            ):
                live.add(transition.source)
        return [i for i in range(len(self.states)) if i not in live]

    def missing_transitions(self) -> list[dict[str, Any]]:
        """Snoop-table rows where the implementation raises, each with
        an explicit verdict so no defensive ``raise`` is left
        unclassified:

        * ``"gap"`` — exploration actually triggered this raise from
          reset: an unhandled (subentry state x bus event) pair, a
          genuine protocol-table hole.
        * ``"delivery-unreachable"`` — the subentry state occurs in
          reachable states, but no reachable event sequence ever
          delivers this bus operation to it (the protocol's issue
          rules forbid it — e.g. no peer invalidates a block someone
          holds dirty, because a writer would have used
          read-modified-write).
        * ``"state-unreachable"`` — the subentry bit combination
          itself never occurs in any reachable state.
        """
        reached = self.reached_sub_combos()
        dynamic_errors = [
            message
            for transition in self.transitions
            if transition.verdict == ERROR
            for message in transition.messages
        ]
        out = []
        for row in self.snoop_rows:
            if row["outcome"] != "raise":
                continue
            core = row["error"].split(" [")[0]
            if any(core in message for message in dynamic_errors):
                verdict = "gap"
            elif row["sub"] in reached:
                verdict = "delivery-unreachable"
            else:
                verdict = "state-unreachable"
            out.append({**row, "verdict": verdict})
        return out

    def to_dict(self) -> dict[str, Any]:
        """The JSON artifact for one scenario."""
        return {
            "scenario": self.scenario.describe(),
            "n_states": self.n_states,
            "n_transitions": self.n_transitions,
            "ok": self.ok,
            "events": list(self.events),
            "states": [
                ProtocolModel.describe_state(state) for state in self.states
            ],
            "transitions": [t.to_dict() for t in self.transitions],
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "reached_sub_combos": sorted(self.reached_sub_combos()),
            "unreachable_sub_combos": self.unreachable_sub_combos(),
            "dead_states": self.dead_states(),
            "missing_transitions": self.missing_transitions(),
            "snoop_table": self.snoop_rows,
        }


def explore(
    scenario: Scenario,
    max_states: int = 20000,
    with_snoop_table: bool = True,
) -> ScenarioReport:
    """Exhaustively explore one scenario's reachable state space."""
    model = ProtocolModel(scenario)
    initial = model.abstract()
    ids: dict[tuple, int] = {initial: 0}
    states: list[tuple] = [initial]
    snapshots: dict[int, dict[str, Any]] = {0: model.snapshot()}
    parents: dict[int, tuple[int, str] | None] = {0: None}
    frontier: deque[int] = deque([0])
    transitions: list[Transition] = []
    counterexamples: list[Counterexample] = []

    def path_to(state_id: int) -> list[str]:
        events: list[str] = []
        cursor = parents[state_id]
        while cursor is not None:
            parent, event = cursor
            events.append(event)
            cursor = parents[parent]
        events.reverse()
        return events

    while frontier:
        source = frontier.popleft()
        for event in model.events():
            model.restore(snapshots[source])
            try:
                applied, messages = model.apply(event)
            except (ProtocolError, InclusionError) as exc:
                messages = [f"unhandled {type(exc).__name__}: {exc}"]
                transitions.append(
                    Transition(source, event, None, ERROR, tuple(messages))
                )
                counterexamples.append(
                    Counterexample(path_to(source) + [event], source, messages)
                )
                continue
            if not applied:
                transitions.append(
                    Transition(source, event, None, INAPPLICABLE)
                )
                continue
            messages = messages + model.check_invariants()
            abstract = model.abstract()
            target = ids.get(abstract)
            if target is None:
                target = len(states)
                ids[abstract] = target
                states.append(abstract)
                snapshots[target] = model.snapshot()
                parents[target] = (source, event)
                frontier.append(target)
                if len(states) > max_states:
                    raise ExplorationLimitError(
                        f"{scenario.name}: more than {max_states} abstract "
                        "states; the abstraction has lost its finiteness"
                    )
            verdict = VIOLATION if messages else OK
            transitions.append(
                Transition(source, event, target, verdict, tuple(messages))
            )
            if messages:
                counterexamples.append(
                    Counterexample(path_to(source) + [event], target, messages)
                )
    rows = snoop_table(scenario) if with_snoop_table else []
    return ScenarioReport(
        scenario=scenario,
        states=states,
        transitions=transitions,
        counterexamples=counterexamples,
        events=model.events(),
        snoop_rows=rows,
    )


def replay(scenario: Scenario, events: list[str]) -> list[str]:
    """Re-run a counterexample trace; returns accumulated violations.

    Used by tests and by ``repro-verify --replay`` to confirm that a
    reported trace reproduces outside the explorer.
    """
    model = ProtocolModel(scenario)
    collected: list[str] = []
    for event in events:
        try:
            applied, messages = model.apply(event)
        except (ProtocolError, InclusionError) as exc:
            collected.append(f"unhandled {type(exc).__name__}: {exc}")
            return collected
        if applied:
            collected.extend(messages)
            collected.extend(model.check_invariants())
    return collected
