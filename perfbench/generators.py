"""Seeded input generators owned by the benchmark.

Everything here is plain data (dicts, tuples, JSON text) built from
``random.Random`` streams keyed on the benchmark seed, so the inputs do not
change when the test suite or the package changes.  Generators never import
``swarmproto``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

ROLES = tuple(f"r{i}" for i in range(5))

MIN_STATES, MAX_STATES = 50, 400
GOLDEN = (5**0.5 - 1) / 2
BRANCH_EVERY = 5
TWO_EVENT_EVERY = 7  # chain transitions with i % 7 == 3 emit a two-event log

OK = "OK"
WF_BRANCH_BLIND = "WF_BRANCH_BLIND"
WF_LOG_GAP = "WF_LOG_GAP"


def _rng(seed: int, *parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


# --------------------------------------------------------------------------
# design-check: chain-with-branches protocols and their mutants
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignInput:
    """One designer CI input: protocol and subscription JSON plus the
    verdict the checker must reach (``OK`` or the single expected code)."""

    states: int
    protocol_json: str
    subs_json: str
    expected: str


def chain_protocol(n: int) -> dict:
    """Chain s0 -> ... -> s{n-1} with a skip branch s_i -> s_{i+2} at every
    fifth state.  Every event type is fresh, so guards never clash."""
    transitions = []
    for i in range(n - 1):
        if i % TWO_EVENT_EVERY == 3:
            log = [f"e{i}a", f"e{i}b"]
        else:
            log = [f"e{i}"]
        transitions.append(_transition(i, i + 1, f"c{i}", ROLES[i % 5], log))
        if i % BRANCH_EVERY == 0 and i + 2 < n:
            transitions.append(_transition(i, i + 2, f"b{i}", ROLES[(i + 2) % 5], [f"g{i}"]))
    return {"initial": "s0", "transitions": transitions}


def _transition(src: int, dst: int, cmd: str, role: str, log: list[str]) -> dict:
    return {
        "source": f"s{src}",
        "target": f"s{dst}",
        "label": {"cmd": cmd, "logType": log, "role": role},
    }


def full_subscriptions(protocol: dict) -> dict[str, list[str]]:
    events = sorted({e for t in protocol["transitions"] for e in t["label"]["logType"]})
    return {role: list(events) for role in ROLES}


def mutate(protocol: dict, subs: dict[str, list[str]], rng: random.Random) -> str:
    """Drop one event type from one non-acting role's subscription, in
    place; returns the single diagnostic code the checker must report.

    ``WF_BRANCH_BLIND``: a branch guard is hidden from a role that neither
    emits it nor acts in the branch target.  ``WF_LOG_GAP``: the closing
    event of a two-event log is hidden from a role that does not emit it.
    """
    ts = protocol["transitions"]
    if rng.random() < 0.5:
        branches = [t for t in ts if t["label"]["cmd"].startswith("b")]
        t = branches[rng.randrange(len(branches))]
        target = int(t["target"][1:])
        busy = {t["label"]["role"], ROLES[target % 5]}
        role = rng.choice([r for r in ROLES if r not in busy])
        subs[role].remove(t["label"]["logType"][0])
        return WF_BRANCH_BLIND
    twos = [t for t in ts if len(t["label"]["logType"]) == 2]
    t = twos[rng.randrange(len(twos))]
    role = rng.choice([r for r in ROLES if r != t["label"]["role"]])
    subs[role].remove(t["label"]["logType"][-1])
    return WF_LOG_GAP


def design_size(seed: int, index: int) -> int:
    """State count of op ``index``: a golden-ratio sequence from a seeded
    start.  Sizes are uniform on [MIN_STATES, MAX_STATES) and any run of n
    ops covers that range to within about 1/n, so the size mix, and with it
    the latency percentiles, do not depend on how many ops a run holds."""
    start = _rng(seed, "design-size").random()
    return MIN_STATES + int(((start + index * GOLDEN) % 1.0) * (MAX_STATES - MIN_STATES))


def design_input(seed: int, index: int, states: int | None = None) -> DesignInput:
    """Input of op ``index``: one protocol in four (offset from the seed) is
    a mutant."""
    if states is None:
        states = design_size(seed, index)
    protocol = chain_protocol(states)
    subs = full_subscriptions(protocol)
    expected = OK
    if index % 4 == _rng(seed, "design-mutant-offset").randrange(4):
        expected = mutate(protocol, subs, _rng(seed, "design-mutant", index))
    return DesignInput(
        states=states,
        protocol_json=json.dumps(protocol),
        subs_json=json.dumps(subs),
        expected=expected,
    )


# --------------------------------------------------------------------------
# replica-fold: a four-session transport-order stream and its delivery plan
# --------------------------------------------------------------------------

SESSIONS = tuple(f"order-{i}" for i in range(1, 5))
STATION_NODE = "n0"
ROBOT_NODES = tuple(f"n{i}" for i in range(1, 9))
BIDS_PER_SESSION = 500
MAX_BATCH = 8
HOLD_BATCHES = (16, 24)  # a held node's records wait this many live batches
RELEASE_BATCH = (1, 2)  # held records come back in batches this small
DUPLICATE_SHARE = 0.05  # share of batches that re-send one delivered record


@dataclass(frozen=True)
class Rec:
    """Plain record tuple; the workload turns it into an ``EventRecord``."""

    event_type: str
    payload: dict
    lamport: int
    node_id: str
    seq: int
    session_id: str

    @property
    def key(self) -> tuple[str, int]:
        return (self.node_id, self.seq)

    @property
    def order_key(self) -> tuple[int, str]:
        return (self.lamport, self.node_id)


@dataclass(frozen=True)
class Episode:
    records: tuple[Rec, ...]  # emission order
    batches: tuple[tuple[int, ...], ...]  # indices into ``records``, delivery order


def replica_episode(seed: int, index: int) -> Episode:
    """About 2,000 records from one station and eight robots bidding in four
    concurrent sessions, and the batch plan that delivers them.

    Lamport values increase strictly in emission order, so live batches
    never sort into the past; only a held node's records do when they are
    released.
    """
    rng = _rng(seed, "replica", index)
    clocks = {n: 0 for n in (STATION_NODE, *ROBOT_NODES)}
    seqs = dict.fromkeys(clocks, 0)
    ambient = 0
    records: list[Rec] = []

    def emit(node: str, etype: str, payload: dict, session: str) -> None:
        nonlocal ambient
        clocks[node] = max(clocks[node], ambient) + 1
        ambient = clocks[node]
        records.append(Rec(etype, payload, clocks[node], node, seqs[node], session))
        seqs[node] += 1

    for k, session in enumerate(SESSIONS):
        emit(STATION_NODE, "requested", {"id": session, "from": "storage", "to": f"line{k}"},
             session)
    remaining = {s: BIDS_PER_SESSION for s in SESSIONS}
    best: dict[str, tuple[int, str]] = {}
    while remaining:
        open_sessions = sorted(remaining)
        session = open_sessions[rng.randrange(len(open_sessions))]
        node = ROBOT_NODES[rng.randrange(len(ROBOT_NODES))]
        robot = f"agv{node[1:]}"
        delay = rng.randrange(1, 1000)
        emit(node, "bid", {"robot": robot, "delay": delay}, session)
        best[session] = min(best.get(session, (delay, robot)), (delay, robot))
        remaining[session] -= 1
        if not remaining[session]:
            del remaining[session]
            emit(STATION_NODE, "selected", {"winner": best[session][1]}, session)

    return Episode(tuple(records), _delivery_plan(rng, records))


def _delivery_plan(rng: random.Random, records: list[Rec]) -> tuple[tuple[int, ...], ...]:
    batches: list[tuple[int, ...]] = []
    delivered: list[int] = []
    held: list[int] = []
    live: list[int] = []
    hold_node = ROBOT_NODES[rng.randrange(len(ROBOT_NODES))]
    release_at = rng.randint(*HOLD_BATCHES)
    live_batches = 0

    def push(batch: list[int]) -> None:
        if delivered and rng.random() < DUPLICATE_SHARE:
            batch = batch + [delivered[rng.randrange(len(delivered))]]
        batches.append(tuple(batch))
        delivered.extend(batch)

    def release() -> None:
        while held:
            size = rng.randint(*RELEASE_BATCH)
            push(held[:size])
            del held[:size]

    target = rng.randint(1, MAX_BATCH)
    for i, rec in enumerate(records):
        (held if rec.node_id == hold_node else live).append(i)
        if len(live) == target:
            push(live)
            live = []
            target = rng.randint(1, MAX_BATCH)
            live_batches += 1
            if live_batches == release_at:
                release()
                hold_node = ROBOT_NODES[rng.randrange(len(ROBOT_NODES))]
                release_at = live_batches + rng.randint(*HOLD_BATCHES)
    if live:
        push(live)
    release()
    return tuple(batches)


def station_fold(records: list[Rec], session: str) -> tuple[str, object, list[tuple[str, int]]]:
    """Reference fold of the transport-order station machine over the
    session's records in ``(lamport, nodeId)`` order: (state name,
    payload, applied record keys).  Records that match no reaction are
    discarded."""
    state, payload, applied = "Initial", {}, []
    for rec in sorted((r for r in records if r.session_id == session), key=lambda r: r.order_key):
        if state == "Initial" and rec.event_type == "requested":
            state, payload = "Auction", {**rec.payload, "scores": []}
        elif state == "Auction" and rec.event_type == "bid":
            payload = {**payload, "scores": payload["scores"] + [rec.payload]}
        elif state == "Auction" and rec.event_type == "selected":
            state, payload = "DoIt", {"id": payload["id"], "winner": rec.payload["winner"]}
        else:
            continue
        applied.append(rec.key)
    return state, payload, applied


# --------------------------------------------------------------------------
# swarm-sim: one station and eight bidding robots
# --------------------------------------------------------------------------

SIM_ROBOTS = 8
# Simulator seeds 1..240 have recorded reference output.  A run of 30 s
# covers the whole pool, so its latency tail does not hinge on which seeds
# it drew.
SIM_SEED_POOL = 240


def sim_scenario_json() -> str:
    """Transport-order scenario with 1 station and 8 ``bid-once`` robots,
    ``select-after`` k=4, 300 steps and one partition window.  It does not
    depend on the benchmark seed; the seed picks simulator seeds."""
    events = ["bid", "requested", "selected"]
    agents = [
        {
            "agentId": "station",
            "role": "machine",
            "machine": "transport-order/machine",
            "nodeId": "n0",
            "strategy": [
                {"name": "once", "cmd": "request", "args": ["4711", "storage", "assembly"]},
                {"name": "select-after", "k": 4},
            ],
        }
    ]
    for i in range(1, SIM_ROBOTS + 1):
        agents.append(
            {
                "agentId": f"agv{i}",
                "role": "robot",
                "machine": "transport-order/robot",
                "nodeId": f"n{i}",
                "strategy": {"name": "bid-once", "delay": i},
            }
        )
    protocol = {
        "initial": "initial",
        "transitions": [
            {"source": "initial", "target": "auction",
             "label": {"cmd": "request", "logType": ["requested"], "role": "machine"}},
            {"source": "auction", "target": "auction",
             "label": {"cmd": "bid", "logType": ["bid"], "role": "robot"}},
            {"source": "auction", "target": "doIt",
             "label": {"cmd": "select", "logType": ["selected"], "role": "machine"}},
        ],
    }
    scenario = {
        "protocol": protocol,
        "subs": {"machine": events, "robot": events},
        "agents": agents,
        "sessionId": "4711",
        "seed": 42,
        "maxSteps": 300,
        "partitionSchedule": [
            {
                "fromStep": 40,
                "toStep": 120,
                "groups": [[f"n{i}" for i in range(0, 5)], [f"n{i}" for i in range(5, 9)]],
            }
        ],
    }
    return json.dumps(scenario, indent=2, sort_keys=True) + "\n"


def sim_seed(seed: int, index: int) -> int:
    """Simulator seed of op ``index``: consecutive from a seeded start,
    wrapping inside the recorded pool."""
    start = _rng(seed, "sim-start").randrange(SIM_SEED_POOL)
    return 1 + (start + index) % SIM_SEED_POOL


# --------------------------------------------------------------------------
# model-check: the three stock transport scenarios in rotation
# --------------------------------------------------------------------------

MODEL_SCENARIOS = ("ok", "branch_blind", "actor_blind")


def model_scenario(seed: int, index: int) -> str:
    """Stock scenario of op ``index``: the three in rotation from a seeded start."""
    start = _rng(seed, "model-start").randrange(len(MODEL_SCENARIOS))
    return MODEL_SCENARIOS[(start + index) % len(MODEL_SCENARIOS)]
