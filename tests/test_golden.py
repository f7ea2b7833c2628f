"""Golden outputs: schedules and reports pinned byte for byte.

Each case runs the whole pipeline and compares the sha256 of the encoded
schedule and of the sorted-key report JSON with a digest frozen from an
earlier commit. A refactor that changes any draw, float or tie-break shows
up here; a deliberate change of output must update the digests and say why.
"""
import hashlib
import json

import pytest

from cd_router import schedule
from cd_router.fixer import FixerConfig, run_pipeline
from cd_router.instance import decode, generate_random_instance, shared_path_instance

from conftest import fixture_text


def _instance(name: str):
    if name == "fig1":
        return decode(fixture_text("fig1.json"))
    if name.startswith("shared-"):
        c, d = name.removeprefix("shared-").split("x")
        return shared_path_instance(int(c), int(d))
    return generate_random_instance(int(name.removeprefix("random-")), max_packets=24, max_length=64)


RANDOM = [f"random-{i}" for i in range(20)]
SMALL = ["fig1", "shared-30x32", *RANDOM]

# (instance, variant, strategy, finalize_strategy, delta)
CASES = (
    [
        (name, variant, "resample", "ones", 4)
        for name in ["fig1", "shared-30x32", "shared-16x256", "shared-32x256", *RANDOM]
        for variant in ("plain", "buffered")
    ]
    + [(name, variant, "greedy", "ones", 4) for name in SMALL for variant in ("plain", "buffered")]
    + [
        (name, variant, strategy, "greedy", delta)
        for name, delta in (("fig1", 2), ("shared-30x32", 4))
        for variant in ("plain", "buffered")
        for strategy in ("resample", "greedy")
    ]
    # a three-level ladder, so buffered runs fix a level with duty tables below it
    + [("shared-16x256", variant, "resample", "ones", 2) for variant in ("plain", "buffered")]
)


def _case_id(case) -> str:
    return "/".join(str(part) for part in case)


def _digests(case) -> tuple[str, str]:
    name, variant, strategy, finalize_strategy, delta = case
    config = FixerConfig(
        variant=variant,
        delta=delta,
        strategy=strategy,
        finalize_strategy=finalize_strategy,
        seed=f"golden/{name}",
    )
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
    'fig1/plain/resample/greedy/2': ('e6fdd682a2670a22', '6b8fc94487e6db9c'),
    'fig1/plain/greedy/greedy/2': ('e6fdd682a2670a22', '6b8fc94487e6db9c'),
    'fig1/buffered/resample/greedy/2': ('e6fdd682a2670a22', '68a8322643713055'),
    'fig1/buffered/greedy/greedy/2': ('e6fdd682a2670a22', '68a8322643713055'),
    'shared-30x32/plain/resample/greedy/4': ('0301c7dc7502f527', 'c744186d5d16ac51'),
    'shared-30x32/plain/greedy/greedy/4': ('59e76acd5c8c6116', '9d729e44d75a3d31'),
    'shared-30x32/buffered/resample/greedy/4': ('a64425dff58743b7', 'edca5627604cfc5f'),
    'shared-30x32/buffered/greedy/greedy/4': ('a64425dff58743b7', 'edca5627604cfc5f'),
    'shared-16x256/plain/resample/ones/2': ('2f38bcb93b5fb411', '2c7dac68565ede9d'),
    'shared-16x256/buffered/resample/ones/2': ('97e57e763c3b33f5', '7b863bdf769f7616'),
}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden_output(case):
    assert _digests(case) == GOLDEN[_case_id(case)]


if __name__ == "__main__":
    # prints the GOLDEN table for the current code
    for case in CASES:
        print(f"    {_case_id(case)!r}: {_digests(case)!r},")
