"""Schema-drift detection for continuous ingestion feeds.

A long-running feed replays the same BEGIN_LOAD → acquire → APPLY cycle
for every micro-batch, but the *source* schema is not frozen: upstream
systems add columns, rename them, or widen their types mid-stream.  The
:class:`SchemaDriftResolver` compares each batch's declared layout with
the layout the feed last accepted and reduces the difference to a list
of :class:`DriftEvent` records the gateway can act on:

- ``added``   — a new trailing/interior column appeared in the source;
- ``renamed`` — the column at some position changed name (detected
  positionally: the old name vanished and the new name is unknown);
- ``retyped`` — a column kept its name but changed its declared type.

A column that *disappears* has no safe automatic resolution (historic
rows cannot be unloaded), so it raises
:class:`~repro.errors.StreamDriftError` regardless of policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StreamDriftError
from repro.legacy.types import Layout

__all__ = ["DriftEvent", "SchemaDriftResolver"]


@dataclass(frozen=True)
class DriftEvent:
    """One accepted schema change on a streaming feed."""

    #: ``added`` / ``renamed`` / ``retyped``.
    kind: str
    #: the column's *new* (current) name.
    column: str
    #: previous name (``renamed`` only).
    old_name: str = ""
    #: previous rendered type (``retyped`` only).
    old_type: str = ""
    #: new rendered type (``added`` and ``retyped``).
    new_type: str = ""

    def to_wire(self) -> dict:
        """JSON-safe dict for journals, replies, and flight records."""
        out = {"kind": self.kind, "column": self.column}
        if self.old_name:
            out["old_name"] = self.old_name
        if self.old_type:
            out["old_type"] = self.old_type
        if self.new_type:
            out["new_type"] = self.new_type
        return out


@dataclass
class SchemaDriftResolver:
    """Diffs per-batch layouts against a feed's accepted layout.

    Stateless apart from the feed name (used only for error messages):
    the accepted layout lives with the feed's durable watermark, so a
    resolver can be rebuilt freely after a restart.
    """

    feed: str = ""

    def resolve(self, accepted: Layout,
                observed: Layout) -> list[DriftEvent]:
        """Diff ``observed`` against ``accepted``; raise on removals.

        Renames are detected positionally: the field at position *i*
        carries a name that exists in neither layout's complement, so
        it can only be the old column under a new name.  Everything
        else unknown is an addition; same-name/different-type is a
        retype.
        """
        acc_index = {f.name.upper(): f for f in accepted.fields}
        obs_index = {f.name.upper(): f for f in observed.fields}
        events: list[DriftEvent] = []
        renamed_from: dict[str, str] = {}
        rename_targets: set[str] = set()
        for i, obs in enumerate(observed.fields[:len(accepted.fields)]):
            acc = accepted.fields[i]
            if obs.name.upper() == acc.name.upper():
                continue
            if obs.name.upper() in acc_index or \
                    acc.name.upper() in obs_index:
                continue  # reorder/addition, not a positional rename
            renamed_from[acc.name.upper()] = obs.name
            rename_targets.add(obs.name.upper())
            events.append(DriftEvent("renamed", column=obs.name,
                                     old_name=acc.name))
            if obs.type.render() != acc.type.render():
                events.append(DriftEvent(
                    "retyped", column=obs.name,
                    old_type=acc.type.render(),
                    new_type=obs.type.render()))
        for acc in accepted.fields:
            key = acc.name.upper()
            if key not in obs_index and key not in renamed_from:
                raise StreamDriftError(
                    f"feed {self.feed or '?'}: source column "
                    f"{acc.name!r} disappeared — removing columns is "
                    "not a supported drift", feed=self.feed)
        for obs in observed.fields:
            key = obs.name.upper()
            if key in rename_targets:
                continue
            acc = acc_index.get(key)
            if acc is None:
                events.append(DriftEvent("added", column=obs.name,
                                         new_type=obs.type.render()))
            elif obs.type.render() != acc.type.render():
                events.append(DriftEvent(
                    "retyped", column=obs.name,
                    old_type=acc.type.render(),
                    new_type=obs.type.render()))
        return events
