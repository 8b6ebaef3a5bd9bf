"""Golden pin: ``simulate`` output on the four scenario fixtures, byte for byte.

The digests were recorded before the scheduler kept its pending lists from
step to step, with the scheduler that rescanned every node pair each step.
A change to the scheduler that moves one RNG draw, reorders one action or
alters one trace line changes a digest.  Each entry is the exit code and the
sha256 of stdout (and, for single seeds, of the ``--trace`` file).  Each
single seed also runs without ``--trace``, a run that builds no trace, and
must print the same stdout.
"""

from __future__ import annotations

import hashlib

import pytest

from swarmproto.cli import main

SWEEPS = {
    "ok": (0, "cd5c276226a09b83ce9d68cb01745871be08f2296875968dc85e9af4a35fdc78"),
    "branch_blind": (1, "962844ecb25cd06d6da9d6bf3cfb11a308af37746048957a2055986670b40511"),
    "actor_blind": (1, "5b826d81dbd51cf5b164e11e72a226b57a22d186c938fd7007f01ae186f36ee2"),
    "three_robots": (0, "e63860d87b5ffeccdc0f56454b04c388f9e770a664884740e9dd646d565f871b"),
}

SINGLE_SEEDS = {
    ("ok", 1): (
        0,
        "fc2383628193611a1c51d966746d460b0db2a97be0a2908de75c39b086936ef5",
        "08d0fce6f5647df0db6e76a592288777d9b893847e8f8a7e78611d41bc7ecffc",
    ),
    ("ok", 42): (
        0,
        "fc2383628193611a1c51d966746d460b0db2a97be0a2908de75c39b086936ef5",
        "71a483b6e14ed2aef0dc8b9f1ce9818b4563d636bc54ff3f0dd099b65e92eeaa",
    ),
    ("branch_blind", 1): (
        1,
        "a573ce06d53fc43eaf684ce2125afe46d99c2b85366c9f3778923fcb9ef04b51",
        "271b4508dfdb95479355dfb17d33239abffb40bd4b9ffb39ba995b686a74e06f",
    ),
    ("branch_blind", 42): (
        0,
        "ceae4edcaccbba4b13244355a967cf1293d55e140a3010bfa41f42514f1edc4b",
        "eee15e488b09603e1762c3f77da5dbbd847440241e2751f575991e0e92a7c3e7",
    ),
    ("actor_blind", 1): (
        1,
        "b78d10c529fd4d597b1fc70f2d06da9d54cb466cc4e6ed4e5c64b715dbdd34dd",
        "a60333e04e92c4b525d57d1d27cb3ed8f68a282f56a1f87fd31234d759163e51",
    ),
    ("actor_blind", 42): (
        1,
        "b78d10c529fd4d597b1fc70f2d06da9d54cb466cc4e6ed4e5c64b715dbdd34dd",
        "912bfa45b95b769cd51b8f6a953416acd0945370ec09896eb8b4bae2ac0b533d",
    ),
    ("three_robots", 1): (
        0,
        "bcfe8b6018ea228afa6d1ddac08ba4867b637ca2fea41477672c760c234b6bee",
        "12cebaed729640a3b37f71b983943e916bf08eff5263de88de6627f8a437b242",
    ),
    ("three_robots", 42): (
        0,
        "26a91f14aeea3c3f24c66140ba76c1c11edc19beacd1ed1744332af7838ef966",
        "be3f0ca24108c7af5d8934d0715e26fa7e844143cb10ef670a23912e491321d0",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_seed_sweep_json_is_pinned(capsys, fixtures_dir, name) -> None:
    scenario = str(fixtures_dir / f"scenario_{name}.json")
    code = main(["simulate", scenario, "--seeds", "1..100", "--json"])
    assert (code, _sha(capsys.readouterr().out.encode())) == SWEEPS[name]


@pytest.mark.parametrize("name,seed", sorted(SINGLE_SEEDS))
def test_single_seed_json_and_trace_are_pinned(capsys, fixtures_dir, tmp_path, name, seed) -> None:
    scenario = str(fixtures_dir / f"scenario_{name}.json")
    trace = tmp_path / "trace.ndjson"
    code = main(["simulate", scenario, "--seed", str(seed), "--json", "--trace", str(trace)])
    out = capsys.readouterr().out.encode()
    assert (code, _sha(out), _sha(trace.read_bytes())) == SINGLE_SEEDS[name, seed]
    code = main(["simulate", scenario, "--seed", str(seed), "--json"])
    assert (code, _sha(capsys.readouterr().out.encode())) == SINGLE_SEEDS[name, seed][:2]
