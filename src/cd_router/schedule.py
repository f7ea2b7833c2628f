"""Schedules: per-packet waiting times at every node along its path.

Entry p of a packet's wait list is served at the p-th node (0 = source)
before crossing edge p+1; the final entry is parked at the sink after
arrival, so it never delays anything but keeps waiting totals exact.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import sub


class ScheduleError(ValueError):
    pass


@dataclass
class Schedule:
    waits: list[list[int]]  # per packet, length = path length + 1

    @property
    def n_packets(self) -> int:
        return len(self.waits)

    def path_length(self, packet: int) -> int:
        return len(self.waits[packet]) - 1

    def crossing_slots(self, packet: int) -> list[int]:
        """Slot of each edge crossing: the running sum of wait + 1; `waits_from_slots` inverts it."""
        return list(accumulate(map((1).__add__, self.waits[packet][:-1])))

    def arrival(self, packet: int) -> int:
        n = self.path_length(packet)
        return n + sum(self.waits[packet][:n])

    @property
    def makespan(self) -> int:
        return max(self.arrival(i) for i in range(self.n_packets))

    def validate_shape(self, paths: list[list[str]]) -> None:
        if len(self.waits) != len(paths):
            raise ScheduleError(
                f"schedule has {len(self.waits)} packets, instance has {len(paths)}"
            )
        for i, (w, p) in enumerate(zip(self.waits, paths)):
            if len(w) != len(p) + 1:
                raise ScheduleError(
                    f"packet {i}: {len(w)} waits for a path of {len(p)} edges"
                )
            if min(w) < 0:  # never empty: a path of m edges has m + 1 waits
                raise ScheduleError(f"packet {i}: negative wait")


def waits_from_slots(slots: list[int], sink: int) -> list[int]:
    """The wait list whose crossings fall in `slots`, then `sink` slots parked at the sink.

    The wait before crossing j is slot_j - slot_(j-1) - 1, with slot_0 = 0,
    so no wait is negative when `slots` increases strictly from 1 or later.
    """
    waits = list(map(sub, slots, chain((1,), map((1).__add__, slots))))
    waits.append(sink)
    return waits


def encode(schedule: Schedule) -> str:
    """The schedule document, byte for byte as `json.dumps(doc, indent=2) + "\n"` writes it.

    `doc` is {"packets": [{"waits": [...], "arrival": a}, ...], "makespan": m}.
    With `indent`, `json` falls back to its pure-Python encoder; here every
    wait list is written by one call of the C encoder with its default
    separators. A wait list holds only integers, so "], [" occurs only
    between two packets' lists and ", " only between two waits: the text is
    split into packets at the one, and each of the other becomes a newline
    and the indent.
    """
    arrivals = [schedule.arrival(i) for i in range(schedule.n_packets)]
    entries = []
    for items, arrival in zip(json.dumps(schedule.waits)[2:-2].split("], ["), arrivals):
        items = items.replace(", ", ",\n        ")
        rows = f"[\n        {items}\n      ]" if items else "[]"
        entries.append(f'    {{\n      "waits": {rows},\n      "arrival": {arrival}\n    }}')
    body = ",\n".join(entries)
    return f'{{\n  "packets": [\n{body}\n  ],\n  "makespan": {max(arrivals)}\n}}\n'


def decode(text: str) -> Schedule:
    """Parse a schedule document; every wait must be a non-negative JSON integer."""
    try:
        doc = json.loads(text)
        waits = [entry["waits"] for entry in doc["packets"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule document: {exc}") from exc
    for i, row in enumerate(waits):
        if type(row) is not list:
            raise ScheduleError(f"packet {i}: waits {row!r} is not a JSON array")
        # JSON true/false decode to bool, a subclass of int, so compare exact types
        if set(map(type, row)) - {int} or min(row, default=0) < 0:
            x = next(x for x in row if type(x) is not int or x < 0)
            if type(x) is not int:
                raise ScheduleError(f"packet {i}: wait {x!r} is not a JSON integer")
            raise ScheduleError(f"packet {i}: negative wait {x}")
    return Schedule(waits=waits)
