"""Golden outputs: schedules, reports and instance documents pinned byte for byte.

Each case runs the whole pipeline and compares the sha256 of the encoded
schedule and of the sorted-key report JSON with a digest frozen from an
earlier commit. A refactor that changes any draw, float or tie-break shows
up here; a deliberate change of output must update the digests and say why.
The written instance documents (gadget files and `instance.encode` of the
golden instances) are pinned the same way, with digests taken while
`encode` still called `json.dumps(doc, indent=2)`. Two busy replays pin the
simulator's CSV rows, check details and arrivals, with digests taken while
`simulate` still tallied every crossing under an (edge, slot) key.
"""
import hashlib
import json
import random

import pytest

from cd_router import lowerbound, schedule, simulator
from cd_router.fixer import FixerConfig, run_pipeline
from cd_router.instance import Edge, Instance, decode, encode, generate_random_instance, shared_path_instance

from conftest import fixture_text


def _disjoint_paths(k: int, d: int) -> Instance:
    """k packets, each on a private chain of d edges: no edge is shared."""
    edges = [Edge(f"p{i}e{j}", f"p{i}n{j}", f"p{i}n{j + 1}") for i in range(k) for j in range(d)]
    nodes = {e.tail for e in edges} | {e.head for e in edges}
    paths = [[f"p{i}e{j}" for j in range(d)] for i in range(k)]
    return Instance(nodes=nodes, edges=edges, paths=paths)


def _instance(name: str):
    if name == "fig1":
        return decode(fixture_text("fig1.json"))
    if name.startswith("shared-"):
        c, d = name.removeprefix("shared-").split("x")
        return shared_path_instance(int(c), int(d))
    if name.startswith("disjoint-"):
        k, d = name.removeprefix("disjoint-").split("x")
        return _disjoint_paths(int(k), int(d))
    return generate_random_instance(int(name.removeprefix("random-")), max_packets=24, max_length=64)


RANDOM = [f"random-{i}" for i in range(20)]
SMALL = ["fig1", "shared-30x32", *RANDOM]

# (instance, variant, strategy, delta)
CASES = (
    [
        (name, variant, "resample", 4)
        for name in ["fig1", "shared-30x32", "shared-16x256", "shared-32x256", *RANDOM]
        for variant in ("plain", "buffered")
    ]
    + [(name, variant, "greedy", 4) for name in SMALL for variant in ("plain", "buffered")]
    # a three-level ladder, so buffered runs fix a level with duty tables below it
    + [("shared-16x256", variant, "resample", 2) for variant in ("plain", "buffered")]
    # no edge carries two packets, so the level fixer has no shared edge at all
    + [
        (name, variant, strategy, 2)
        for name in ("shared-1x64", "disjoint-4x64")
        for variant in ("plain", "buffered")
        for strategy in ("resample", "greedy")
    ]
)


def _case_id(case) -> str:
    # `ones` names the rule for the levels a run leaves open, draw 1, and
    # keeps each key the one its digest was pinned under
    name, variant, strategy, delta = case
    return f"{name}/{variant}/{strategy}/ones/{delta}"


def _digests(case) -> tuple[str, str]:
    name, variant, strategy, delta = case
    config = FixerConfig(variant=variant, delta=delta, strategy=strategy, seed=f"golden/{name}")
    result = run_pipeline(_instance(name), config)
    report = json.dumps(result.report.to_dict(), sort_keys=True)
    return (
        hashlib.sha256(schedule.encode(result.schedule).encode()).hexdigest()[:16],
        hashlib.sha256(report.encode()).hexdigest()[:16],
    )


GOLDEN = {
    'fig1/plain/resample/ones/4': ('abefdba6a466df3b', '3abf52a5d683f89f'),
    'fig1/buffered/resample/ones/4': ('abefdba6a466df3b', '61d2254bf2a19920'),
    'shared-30x32/plain/resample/ones/4': ('c9ff08d68fc78166', 'e745ad636bea815a'),
    'shared-30x32/buffered/resample/ones/4': ('72cc25af21aacd0b', '7f8acc8bafc2fd87'),
    'shared-16x256/plain/resample/ones/4': ('f27ed21bbb5515b0', '4bf2d17687b4ac97'),
    'shared-16x256/buffered/resample/ones/4': ('cc7f121bb311bfc4', '20dede4f1da40684'),
    'shared-32x256/plain/resample/ones/4': ('4fdb9cf0dbe3881e', '22fc2b5bdbd00cac'),
    'shared-32x256/buffered/resample/ones/4': ('c0840f0031c85733', '2b96feda1c74836f'),
    'random-0/plain/resample/ones/4': ('cf25dec2c71cd4ce', '522dc7b904ac86f5'),
    'random-0/buffered/resample/ones/4': ('526d81aff6834217', 'c1cc2318d74cebcb'),
    'random-1/plain/resample/ones/4': ('63b9a13bdf887cd3', 'e3ef4cd4d25cd13d'),
    'random-1/buffered/resample/ones/4': ('5dab3ba5d387c174', 'd96a45a948259da3'),
    'random-2/plain/resample/ones/4': ('ccedae164d17745a', 'f66651550c1ea5d4'),
    'random-2/buffered/resample/ones/4': ('ccedae164d17745a', '1154cd30a84e392a'),
    'random-3/plain/resample/ones/4': ('a08b8f6fc7d11a24', 'b18fd9e5097bcb58'),
    'random-3/buffered/resample/ones/4': ('a08b8f6fc7d11a24', 'd736aa317df395a1'),
    'random-4/plain/resample/ones/4': ('c8eb92db489668fc', 'f66651550c1ea5d4'),
    'random-4/buffered/resample/ones/4': ('c8eb92db489668fc', '1154cd30a84e392a'),
    'random-5/plain/resample/ones/4': ('a2f9bdbee9b5173d', 'f50e958ffab4bf7c'),
    'random-5/buffered/resample/ones/4': ('ee8a8ae29a59756e', 'c55b11feecd394a7'),
    'random-6/plain/resample/ones/4': ('ffd0d30df167fa45', 'c5f6e9b1282c98ec'),
    'random-6/buffered/resample/ones/4': ('ffd0d30df167fa45', '6c8d6d752cfe18dd'),
    'random-7/plain/resample/ones/4': ('f66553a0be47db86', 'f410d43defbf552a'),
    'random-7/buffered/resample/ones/4': ('c3ead06a4422ea6f', '348b47cd99216c74'),
    'random-8/plain/resample/ones/4': ('d866d245511967ce', '91fc7f095c80c536'),
    'random-8/buffered/resample/ones/4': ('7c5a9556dd703ab6', '7c06a9d2fe36d2c6'),
    'random-9/plain/resample/ones/4': ('89de5da745775eba', 'ce96aa4abba919ad'),
    'random-9/buffered/resample/ones/4': ('89de5da745775eba', 'eeab5ab17ce4f68a'),
    'random-10/plain/resample/ones/4': ('e1c3185c18ace668', '5bfc0fa61dd3cd5e'),
    'random-10/buffered/resample/ones/4': ('e1c3185c18ace668', '77cd79b6b12ff729'),
    'random-11/plain/resample/ones/4': ('5139b85f31810342', 'd0123773219d37e8'),
    'random-11/buffered/resample/ones/4': ('5139b85f31810342', '0572dcd63b9f2d57'),
    'random-12/plain/resample/ones/4': ('3853f777b65a7b42', '03ce73274aad2b85'),
    'random-12/buffered/resample/ones/4': ('3853f777b65a7b42', '71572903ef39fcea'),
    'random-13/plain/resample/ones/4': ('eeaad093626a0f62', 'c1aacf3f6b7ce600'),
    'random-13/buffered/resample/ones/4': ('f72088a41357b9e5', 'c55b11feecd394a7'),
    'random-14/plain/resample/ones/4': ('52a3a89a032abba5', '6cbd817886edc15c'),
    'random-14/buffered/resample/ones/4': ('52a3a89a032abba5', '6124132b2ff84d22'),
    'random-15/plain/resample/ones/4': ('e94031381285bba3', '2c440903881b9e0e'),
    'random-15/buffered/resample/ones/4': ('e94031381285bba3', 'f057ab76a9d29339'),
    'random-16/plain/resample/ones/4': ('47ad7cb989546fd8', '96a2c0a51a4be29d'),
    'random-16/buffered/resample/ones/4': ('193ef0bd4defb307', '71821e02ace4b6e6'),
    'random-17/plain/resample/ones/4': ('c6027d9ee442c8c6', '1594a18ad2901557'),
    'random-17/buffered/resample/ones/4': ('c6027d9ee442c8c6', 'dad443b49d554441'),
    'random-18/plain/resample/ones/4': ('3aa4d3d7b2679313', '2e24d776930f113f'),
    'random-18/buffered/resample/ones/4': ('3aa4d3d7b2679313', 'c1fbea08eeb0a8aa'),
    'random-19/plain/resample/ones/4': ('acb01a18ad564245', '55e34cab581928bd'),
    'random-19/buffered/resample/ones/4': ('acb01a18ad564245', 'be11266f637007e6'),
    'fig1/plain/greedy/ones/4': ('abefdba6a466df3b', '3abf52a5d683f89f'),
    'fig1/buffered/greedy/ones/4': ('abefdba6a466df3b', '61d2254bf2a19920'),
    'shared-30x32/plain/greedy/ones/4': ('7c628ba63a5bf758', 'e2f5bffbfe4e05ed'),
    'shared-30x32/buffered/greedy/ones/4': ('72cc25af21aacd0b', '7f8acc8bafc2fd87'),
    'random-0/plain/greedy/ones/4': ('722780feea7f558b', '3b3d4c5e0fb72451'),
    'random-0/buffered/greedy/ones/4': ('526d81aff6834217', 'c1cc2318d74cebcb'),
    'random-1/plain/greedy/ones/4': ('480eee79c08383e9', '7bdbb0a6ec77db42'),
    'random-1/buffered/greedy/ones/4': ('5dab3ba5d387c174', 'd96a45a948259da3'),
    'random-2/plain/greedy/ones/4': ('ccedae164d17745a', 'f66651550c1ea5d4'),
    'random-2/buffered/greedy/ones/4': ('ccedae164d17745a', '1154cd30a84e392a'),
    'random-3/plain/greedy/ones/4': ('a08b8f6fc7d11a24', 'b18fd9e5097bcb58'),
    'random-3/buffered/greedy/ones/4': ('a08b8f6fc7d11a24', 'd736aa317df395a1'),
    'random-4/plain/greedy/ones/4': ('c8eb92db489668fc', 'f66651550c1ea5d4'),
    'random-4/buffered/greedy/ones/4': ('c8eb92db489668fc', '1154cd30a84e392a'),
    'random-5/plain/greedy/ones/4': ('094978e8598162c2', '439e50869408a4d5'),
    'random-5/buffered/greedy/ones/4': ('ee8a8ae29a59756e', 'c55b11feecd394a7'),
    'random-6/plain/greedy/ones/4': ('ffd0d30df167fa45', 'c5f6e9b1282c98ec'),
    'random-6/buffered/greedy/ones/4': ('ffd0d30df167fa45', '6c8d6d752cfe18dd'),
    'random-7/plain/greedy/ones/4': ('a0a0b97e657a40bc', '26b65de93fde87de'),
    'random-7/buffered/greedy/ones/4': ('c3ead06a4422ea6f', '348b47cd99216c74'),
    'random-8/plain/greedy/ones/4': ('94c1d4ca3cdd534f', 'be64b46999eabade'),
    'random-8/buffered/greedy/ones/4': ('7c5a9556dd703ab6', '7c06a9d2fe36d2c6'),
    'random-9/plain/greedy/ones/4': ('89de5da745775eba', 'ce96aa4abba919ad'),
    'random-9/buffered/greedy/ones/4': ('89de5da745775eba', 'eeab5ab17ce4f68a'),
    'random-10/plain/greedy/ones/4': ('e1c3185c18ace668', '5bfc0fa61dd3cd5e'),
    'random-10/buffered/greedy/ones/4': ('e1c3185c18ace668', '77cd79b6b12ff729'),
    'random-11/plain/greedy/ones/4': ('5139b85f31810342', 'd0123773219d37e8'),
    'random-11/buffered/greedy/ones/4': ('5139b85f31810342', '0572dcd63b9f2d57'),
    'random-12/plain/greedy/ones/4': ('3853f777b65a7b42', '03ce73274aad2b85'),
    'random-12/buffered/greedy/ones/4': ('3853f777b65a7b42', '71572903ef39fcea'),
    'random-13/plain/greedy/ones/4': ('1cef64bb01554dd0', '50b55609f818bb8a'),
    'random-13/buffered/greedy/ones/4': ('f72088a41357b9e5', 'c55b11feecd394a7'),
    'random-14/plain/greedy/ones/4': ('52a3a89a032abba5', '6cbd817886edc15c'),
    'random-14/buffered/greedy/ones/4': ('52a3a89a032abba5', '6124132b2ff84d22'),
    'random-15/plain/greedy/ones/4': ('e94031381285bba3', '2c440903881b9e0e'),
    'random-15/buffered/greedy/ones/4': ('e94031381285bba3', 'f057ab76a9d29339'),
    'random-16/plain/greedy/ones/4': ('c6eeaa263e415b1d', 'f565e1180272c736'),
    'random-16/buffered/greedy/ones/4': ('193ef0bd4defb307', '71821e02ace4b6e6'),
    'random-17/plain/greedy/ones/4': ('c6027d9ee442c8c6', '1594a18ad2901557'),
    'random-17/buffered/greedy/ones/4': ('c6027d9ee442c8c6', 'dad443b49d554441'),
    'random-18/plain/greedy/ones/4': ('3aa4d3d7b2679313', '2e24d776930f113f'),
    'random-18/buffered/greedy/ones/4': ('3aa4d3d7b2679313', 'c1fbea08eeb0a8aa'),
    'random-19/plain/greedy/ones/4': ('acb01a18ad564245', '55e34cab581928bd'),
    'random-19/buffered/greedy/ones/4': ('acb01a18ad564245', 'be11266f637007e6'),
    'shared-16x256/plain/resample/ones/2': ('2f38bcb93b5fb411', '2c7dac68565ede9d'),
    'shared-16x256/buffered/resample/ones/2': ('97e57e763c3b33f5', '7b863bdf769f7616'),
    'shared-1x64/plain/resample/ones/2': ('36049c5919370058', '0435c300d1e89896'),
    'shared-1x64/plain/greedy/ones/2': ('679d79bbdd324898', 'c5c25e7919b51a3c'),
    'shared-1x64/buffered/resample/ones/2': ('15daa33a65191c39', '22676109204e302d'),
    'shared-1x64/buffered/greedy/ones/2': ('f4f775f0270999f3', '77f22f50113d587b'),
    'disjoint-4x64/plain/resample/ones/2': ('6474c236912a40ab', '2d6ff08ba6367330'),
    'disjoint-4x64/plain/greedy/ones/2': ('d91dc7d6125a30de', 'c5c25e7919b51a3c'),
    'disjoint-4x64/buffered/resample/ones/2': ('513ff3475ca69f92', '3cc6b6c1b162cf96'),
    'disjoint-4x64/buffered/greedy/ones/2': ('50935d70f1450cdd', '77f22f50113d587b'),
}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden_output(case):
    assert _digests(case) == GOLDEN[_case_id(case)]


def _document(name: str) -> str:
    if name.startswith("lowerbound-"):
        return lowerbound.serialize(lowerbound.generate(int(name.removeprefix("lowerbound-")), seed=0))
    return encode(_instance(name))


DOCUMENTS = {
    'lowerbound-2': 'bc66d0f1138b3eb8',
    'lowerbound-8': 'd094a99036f2318c',
    'lowerbound-32': 'c1271d0c155dcd5b',
    'lowerbound-64': 'a51b7ad4206b68b6',
    'fig1': 'd9b0e54f4c9c6d9d',
    'shared-64x1024': '389e36826259cc23',
    'random-0': '7719c04a03e3c158',
    'random-1': 'e29ee5dce07ba0c5',
    'random-2': 'beed7fd496f555fb',
    'random-3': '1a3b38875056d689',
    'random-4': '88b5f7199c2910e8',
    'random-5': '61f8170b0e09bc6e',
    'random-6': 'a80285877bb8bb78',
    'random-7': 'd7e2a46f7ef79b37',
    'random-8': '80fe2960be4d2257',
    'random-9': '346f17e375f8ddb7',
    'random-10': 'bfae8810234be946',
    'random-11': '02c1776d41b4407d',
    'random-12': '6b4b7a4a201f9524',
    'random-13': '7f6bead87b231368',
    'random-14': 'ce92b46b181baada',
    'random-15': 'c6d5aaa7b3d0a9b3',
    'random-16': '503c8eeebf7f235e',
    'random-17': '5ab6b2a1bcb67f97',
    'random-18': 'e3386d0b5698cf2e',
    'random-19': 'a77c16924570d4c4',
}


@pytest.mark.parametrize("name", DOCUMENTS)
def test_golden_document(name):
    assert hashlib.sha256(_document(name).encode()).hexdigest()[:16] == DOCUMENTS[name]


def _dense_waits(c: int, d: int, steps: int) -> list[list[int]]:
    """Capacity 1 on a shared path: packet j leaves at slot j, and each wait is c slots."""
    rng = random.Random(f"golden/dense/{c}x{d}")
    waits = []
    for j in range(c):
        row = [j] + [0] * d
        for _ in range(steps):
            row[rng.randint(1, d - 1)] += c
        waits.append(row)
    return waits


def _replay(name: str):
    if name == "dense-64x1024":
        return shared_path_instance(64, 1024), schedule.Schedule(waits=_dense_waits(64, 1024, 58))
    instance = shared_path_instance(16, 64)
    return instance, run_pipeline(instance, FixerConfig(seed="golden/stretched")).schedule


def _replay_digests(name: str) -> tuple[str, str, str]:
    """sha256 of the CSV rows, of the check details (passing and failing) and of the arrivals."""
    trace = simulator.simulate(*_replay(name), capacity=1)
    rows = "".join(f"{e},{s},{v}\n" for e, s, v in simulator.loads_csv_rows(trace))
    details = []
    for req in (
        simulator.CheckRequirements(
            makespan_bound=trace.makespan, buffer_bound=trace.max_occupancy,
            edge_wait_bound=trace.max_edge_wait,
        ),
        simulator.CheckRequirements(capacity=0, makespan_bound=0, buffer_bound=0, edge_wait_bound=0),
    ):
        details += [f"{r.name} {r.passed} {r.detail}\n" for r in simulator.check(trace, req).results]
    arrivals = "".join(f"{i},{a}\n" for i, a in simulator.arrivals_csv_rows(trace))
    return tuple(hashlib.sha256(text.encode()).hexdigest()[:16] for text in (rows, "".join(details), arrivals))


REPLAYS = {
    'dense-64x1024': ('1da65419ffcbc5f2', 'aaa7a213361d6e97', 'a49c25942a03fc0c'),
    'stretched-16x64': ('f8c7498b2d1eb84e', 'bf3ea72c2ad3df06', 'cfe3d2b40d787a82'),
}


@pytest.mark.parametrize("name", REPLAYS)
def test_golden_replay(name):
    assert _replay_digests(name) == REPLAYS[name]


if __name__ == "__main__":
    # prints the GOLDEN, DOCUMENTS and REPLAYS tables for the current code
    for case in CASES:
        print(f"    {_case_id(case)!r}: {_digests(case)!r},")
    for name in DOCUMENTS:
        print(f"    {name!r}: {hashlib.sha256(_document(name).encode()).hexdigest()[:16]!r},")
    for name in REPLAYS:
        print(f"    {name!r}: {_replay_digests(name)!r},")
