"""Transport-order auction: the canonical example swarm.

A machine that finished a production step requests pickup by a fleet of
logistics robots; available robots place bids, and the machine selects one.
The protocol has a request transition, a bid self-loop, and a selection:

    initial --request@machine/[requested]--> auction
    auction --bid@robot/[bid]-->             auction
    auction --select@machine/[selected]-->   doIt

This module holds the two role machines, ``ROBOT`` and ``STATION``; scenario
files name them ``transport-order/robot`` and ``transport-order/machine``,
the entries of ``sim.STOCK_MACHINES``.  The protocol, its subscriptions, the
machine shapes and the stock scenarios that run the machines are the JSON
files in ``tests/fixtures/``.
"""

from __future__ import annotations

from .runner import MachineDefinition


def _build_robot() -> MachineDefinition:
    robot = MachineDefinition(role="robot", initial="Initial")
    robot.react(
        "Initial",
        ["requested"],
        "Auction",
        lambda p, recs: {**p, **recs[0].payload, "scores": []},
    )
    robot.command(
        "Auction",
        "bid",
        ["bid"],
        lambda p, delay: [{"robot": p["robot"], "delay": delay}],
    )
    robot.react(
        "Auction",
        ["bid"],
        "Auction",
        lambda p, recs: {**p, "scores": p["scores"] + [recs[0].payload]},
    )
    robot.react(
        "Auction",
        ["selected"],
        "DoIt",
        lambda p, recs: {"robot": p["robot"], "winner": recs[0].payload["winner"]},
    )
    return robot


def _select_winner(scores: list[dict]) -> str:
    # Lowest delay wins; ties broken by robot id for determinism.
    best = min(scores, key=lambda s: (s["delay"], s["robot"]))
    return best["robot"]


def _build_station() -> MachineDefinition:
    station = MachineDefinition(role="machine", initial="Initial")
    station.command(
        "Initial",
        "request",
        ["requested"],
        lambda p, order_id, origin, destination: [
            {"id": order_id, "from": origin, "to": destination}
        ],
    )
    station.react(
        "Initial",
        ["requested"],
        "Auction",
        lambda p, recs: {**recs[0].payload, "scores": []},
    )
    station.react(
        "Auction",
        ["bid"],
        "Auction",
        lambda p, recs: {**p, "scores": p["scores"] + [recs[0].payload]},
    )
    station.command(
        "Auction",
        "select",
        ["selected"],
        lambda p: [{"winner": _select_winner(p["scores"])}],
    )
    station.react(
        "Auction",
        ["selected"],
        "DoIt",
        lambda p, recs: {"id": p["id"], "winner": recs[0].payload["winner"]},
    )
    return station


ROBOT = _build_robot()
STATION = _build_station()
