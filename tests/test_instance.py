import json

import pytest

from cd_router.fixer import FixerConfig, run_pipeline
from cd_router.instance import (
    Edge,
    Instance,
    InvalidInstanceError,
    decode,
    encode,
    generate_random_instance,
    pad,
    shared_path_instance,
    stats,
    validate,
)


def test_fig1_validates_and_has_expected_stats(fig1):
    report = validate(fig1)
    assert report.ok, report.violations
    s = stats(fig1)
    assert s.congestion == 2
    assert s.dilation == 4


def test_minimal_single_edge_instance():
    inst = Instance(nodes={"u", "v"}, edges=[Edge("e", "u", "v")], paths=[["e"]])
    assert validate(inst).ok
    s = stats(inst)
    assert (s.congestion, s.dilation) == (1, 1)


def test_shared_path_stats():
    inst = shared_path_instance(5, 7)
    s = stats(inst)
    assert (s.congestion, s.dilation) == (5, 7)


def test_duplicate_edge_in_path_flagged():
    inst = Instance(
        nodes={"a", "b"},
        edges=[Edge("e1", "a", "b"), Edge("e2", "b", "a")],
        paths=[["e1", "e2", "e1"]],
    )
    report = validate(inst)
    assert not report.ok
    assert any("repeated" in v for v in report.violations)


def test_duplicate_edge_id_and_unknown_node_flagged():
    inst = Instance(
        nodes={"a", "b"},
        edges=[Edge("e1", "a", "b"), Edge("e1", "b", "a"), Edge("e2", "b", "z")],
        paths=[["e1"]],
    )
    assert validate(inst).violations == ("edge e1: duplicate edge id", "edge e2: unknown node z")


def test_disconnected_path_flagged():
    inst = Instance(
        nodes={"a", "b", "c", "d"},
        edges=[Edge("e1", "a", "b"), Edge("e2", "c", "d")],
        paths=[["e1", "e2"]],
    )
    assert not validate(inst).ok


def test_unknown_edge_and_empty_path_flagged():
    inst = Instance(nodes={"a", "b"}, edges=[Edge("e1", "a", "b")], paths=[["ghost"]])
    assert not validate(inst).ok
    inst2 = Instance(nodes={"a", "b"}, edges=[Edge("e1", "a", "b")], paths=[[]])
    assert not validate(inst2).ok
    inst3 = Instance(nodes={"a", "b"}, edges=[Edge("e1", "a", "b")], paths=[])
    assert not validate(inst3).ok


def test_stats_rejects_invalid_instance():
    inst = Instance(nodes={"a", "b"}, edges=[Edge("e1", "a", "b")], paths=[["ghost"]])
    with pytest.raises(InvalidInstanceError):
        stats(inst)


def test_node_revisits_allowed():
    # loops back through its start node; only edge reuse is forbidden
    inst = Instance(
        nodes={"a", "b", "c"},
        edges=[Edge("e1", "a", "b"), Edge("e2", "b", "a"), Edge("e3", "a", "c")],
        paths=[["e1", "e2", "e3"]],
    )
    assert validate(inst).ok


def test_pad_fig1(fig1):
    padded = pad(fig1)
    assert padded.length == 4
    assert all(len(p) == 4 for p in padded.padded.paths)
    # length-3 paths got exactly one private dummy
    assert len(padded.dummy_edge_ids) == 2
    s = stats(padded.padded)
    assert s.congestion == 2
    for eid, load in s.edge_loads.items():
        if eid in padded.dummy_edge_ids:
            assert load == 1


def test_pad_identity_when_uniform_power_of_two():
    inst = shared_path_instance(2, 4)
    padded = pad(inst)
    assert padded.length == 4
    assert not padded.dummy_edge_ids
    assert padded.padded.paths == inst.paths


def test_pad_congestion_dominates_dilation():
    inst = shared_path_instance(5, 3)
    padded = pad(inst)
    assert padded.length == 8
    assert all(len(p) == 8 for p in padded.padded.paths)
    assert stats(padded.padded).congestion == 5


def test_pad_keeps_the_base_stats(fig1):
    assert pad(fig1).stats == stats(fig1)
    assert pad(fig1).stats.edge_loads == stats(fig1).edge_loads


def test_pad_preserves_original_prefix(fig1):
    padded = pad(fig1)
    for original, widened in zip(fig1.paths, padded.padded.paths):
        assert widened[: len(original)] == original
    assert padded.original_lengths == tuple(len(p) for p in fig1.paths)


def _renamed(inst: Instance, prefix: str) -> Instance:
    return Instance(
        nodes={prefix + n for n in inst.nodes},
        edges=[Edge(prefix + e.id, prefix + e.tail, prefix + e.head) for e in inst.edges],
        paths=[[prefix + eid for eid in path] for path in inst.paths],
    )


@pytest.mark.parametrize("taken_edge", ["__pad_e1_0", "y"])
def test_pad_ids_never_collide_with_real_ids(taken_edge):
    # a real node has the default id of packet 1's dummy node; with
    # "__pad_e1_0", a real edge has its dummy edge's default id too
    inst = Instance(
        nodes={"a", "b", "c", "__pad_n1_0"},
        edges=[Edge("e0", "a", "b"), Edge(taken_edge, "b", "c"), Edge("x", "c", "__pad_n1_0")],
        paths=[["e0", taken_edge], ["e0"]],
    )
    assert validate(inst).ok
    padded = pad(inst)
    assert validate(padded.padded).ok, validate(padded.padded).violations
    assert padded.dummy_edge_ids and not padded.dummy_edge_ids & {e.id for e in inst.edges}
    assert not {e.head for e in padded.padded.edges if e.id in padded.dummy_edge_ids} & inst.nodes
    for variant in ("plain", "buffered"):
        config = FixerConfig(variant=variant)
        assert run_pipeline(inst, config).schedule == run_pipeline(_renamed(inst, "r"), config).schedule


def test_pad_keeps_the_default_dummy_ids_when_no_real_id_takes_one(fig1):
    assert pad(fig1).dummy_edge_ids == {"__pad_e0_0", "__pad_e2_0"}
    # real ids may start like dummy ids, as long as none equals one
    assert pad(_renamed(fig1, "__pad_")).dummy_edge_ids == {"__pad_e0_0", "__pad_e2_0"}


def test_json_round_trip(fig1):
    assert decode(encode(fig1)) == fig1
    inst = shared_path_instance(3, 5)
    assert decode(encode(inst)) == inst


def test_encode_is_byte_stable(fig1):
    assert encode(fig1) == encode(fig1)
    assert encode(fig1).endswith("\n")


def test_encode_extra_keys_survive_and_decode_ignores_them(fig1):
    text = encode(fig1, extra={"permutations": [[1]]})
    assert json.loads(text)["permutations"] == [[1]]
    assert decode(text) == fig1


def test_decode_rejects_garbage():
    with pytest.raises(InvalidInstanceError):
        decode("not json at all {")
    with pytest.raises(InvalidInstanceError):
        decode(json.dumps({"nodes": ["a"]}))


@pytest.mark.parametrize("field, value", [
    ("nodes", "ab"),
    ("nodes", {"a": 1, "b": 2}),
    ("edges", "e"),
    ("paths", "e"),
    ("paths", ["e"]),
    ("paths", [{"e": 1}]),
    ("paths", 7),
])
def test_decode_rejects_non_arrays(field, value):
    doc = {"nodes": ["a", "b"], "edges": [{"id": "e", "tail": "a", "head": "b"}], "paths": [["e"]]}
    assert decode(json.dumps(doc)) == Instance({"a", "b"}, [Edge("e", "a", "b")], [["e"]])
    doc[field] = value
    with pytest.raises(InvalidInstanceError, match="is not a JSON array"):
        decode(json.dumps(doc))


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(nodes=["a", 2]),
    lambda doc: doc.update(nodes=["a", "b", None]),
    lambda doc: doc.update(nodes=["a", "b", ["c"]]),
    lambda doc: doc["edges"][0].update(id=1),
    # with str() over ids, null became "None" and this was a valid instance
    lambda doc: doc.update(nodes=["None", "b"]) or doc["edges"][0].update(tail=None),
    lambda doc: doc["edges"][0].update(head=2.0),
    lambda doc: doc.update(paths=[[None]]),
    lambda doc: doc.update(paths=[["e", True]]),
], ids=["node-int", "node-null", "node-array", "edge-id-int", "tail-null-beside-node-None", "edge-head-float",
        "path-null", "path-bool"])
def test_decode_rejects_ids_that_are_not_strings(edit):
    doc = {"nodes": ["a", "b"], "edges": [{"id": "e", "tail": "a", "head": "b"}], "paths": [["e"]]}
    edit(doc)
    with pytest.raises(InvalidInstanceError, match="is not a JSON string"):
        decode(json.dumps(doc))


def test_decode_rejects_an_edge_that_is_not_an_object():
    doc = {"nodes": ["a", "b"], "edges": [["e", "a", "b"]], "paths": [["e"]]}
    with pytest.raises(InvalidInstanceError, match="^malformed instance document: "):
        decode(json.dumps(doc))


def test_random_instances_valid_and_deterministic():
    a = generate_random_instance("seed-x")
    b = generate_random_instance("seed-x")
    assert a == b
    for i in range(20):
        inst = generate_random_instance(i)
        assert validate(inst).ok, validate(inst).violations
        assert 1 <= inst.n_packets <= 8
        assert stats(inst).dilation <= 32


def test_random_instance_respects_bounds():
    inst = generate_random_instance("big", max_packets=32, max_length=256)
    assert inst.n_packets <= 32
    assert stats(inst).dilation <= 256
