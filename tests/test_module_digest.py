"""Golden digests of the compile-time search on the paper's chain queries.

The optimizer's output must not move when its internals are refactored:
for the five experiment queries (1, 2, 4, 6 and 10 relations, with and
without the uncertain memory parameter) under STATIC, DYNAMIC and
EXHAUSTIVE optimization, three things are pinned here: the sha256 of
``AccessModule.to_json()`` (plan structure), a sha256 over every plan
node's compile-time ``cardinality`` / ``cost`` / ``execution_cost`` bounds
(the floats, bit for bit), and the ``SearchStats`` counters.  STATIC's
pruned counts pin branch-and-bound's float budgets too: a budget that
moves by one ulp can prune a different candidate.

The digest runs in fresh interpreters under two ``PYTHONHASHSEED``
values, so set-iteration order cannot leak into a plan.  A deliberate
change to plans or counters updates ``_GOLDEN`` in the same commit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

_DIGEST = """
import hashlib, json
from repro.experiments.catalogs import make_experiment_catalog
from repro.experiments.queries import paper_queries
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.physical.plan import iter_plan_nodes
from repro.runtime.access_module import AccessModule

catalog = make_experiment_catalog()
out = {}
for with_memory in (False, True):
    for query in paper_queries(catalog, with_memory=with_memory):
        for mode in (
            OptimizationMode.STATIC,
            OptimizationMode.DYNAMIC,
            OptimizationMode.EXHAUSTIVE,
        ):
            result = optimize_query(query.graph, catalog, mode=mode)
            module = AccessModule.compile(result.plan, result.ctx).to_json()
            annotations = hashlib.sha256()
            for node in iter_plan_nodes(result.plan):
                for value in (node.cardinality, node.cost, node.execution_cost):
                    annotations.update(repr((value.low, value.high)).encode())
            stats = result.stats.as_dict()
            out[f"{query.label} {mode.value}"] = [
                hashlib.sha256(module.encode()).hexdigest(),
                annotations.hexdigest(),
                [stats[name] for name in sorted(stats)],
            ]
print(json.dumps(out))
"""

#: Field order of the counter lists below: ``sorted(SearchStats.as_dict())``.
_STATS_FIELDS = (
    "candidates_considered",
    "candidates_pruned",
    "candidates_retained",
    "candidates_skipped",
    "groups_completed",
    "largest_winner_set",
    "partitions_considered",
)

_GOLDEN = {
    "Q1 static": [
        "65ee5214477dc1c5beedfbb07fef34714f6541770ec8ec9cf98a7b4993cd5cb7",
        "d510d78932dd0977c257894e4a4223c13a2c3db7f92e4a609b4ed9e58d946f42",
        [2, 0, 2, 0, 1, 1, 0],
    ],
    "Q1 dynamic": [
        "8705768c0f41c726770c4752708d7eb8d054ada2ac021078621ab64975cb78f6",
        "dbd7ae84d9d531b0392e385855ecb03790a4e210ec2d9164b3c077c8f5b07378",
        [2, 0, 2, 0, 1, 2, 0],
    ],
    "Q1 exhaustive": [
        "8705768c0f41c726770c4752708d7eb8d054ada2ac021078621ab64975cb78f6",
        "dbd7ae84d9d531b0392e385855ecb03790a4e210ec2d9164b3c077c8f5b07378",
        [2, 0, 2, 0, 1, 2, 0],
    ],
    "Q2 static": [
        "ed3ffffa73285711655e466a3c0e8441c1962d53f12c1c0598ae45ea2046bdc2",
        "b0b6c389d55ca48e83fd7e9a7b3b833c7a2b9cec47954fbf5fc5e2b884e01ae1",
        [14, 4, 7, 0, 5, 1, 2],
    ],
    "Q2 dynamic": [
        "a5a61143f78c4bd3febf97d6491e35a486f595fefb12bf6ebf2795c4a315641f",
        "ea8ea197d0e84894c7cf5b15a5fe16981137c5f8f7885b33665041381c9667cd",
        [18, 0, 12, 0, 5, 6, 2],
    ],
    "Q2 exhaustive": [
        "66435909765af2bd9279f1076b7e14baf7ddea3460eedba547f08bd1528a0d96",
        "75343d27841a938598b6db8ad50a418a4d8e811feed6fbba20643e745ac82524",
        [18, 0, 14, 0, 5, 6, 2],
    ],
    "Q3 static": [
        "a76c1a2e2e174c875cef9eeb37e5f1ae6134bfae5900d9001a4a7ad34fa4ee16",
        "b9f94769726de5624515e7b535ff3c5659e0f99d37486d2591cc17439b376954",
        [59, 43, 31, 32, 22, 1, 36],
    ],
    "Q3 dynamic": [
        "0dbf897225782614594146c7a6070106350009d4d9d87eace5cee19d872b66c7",
        "3a2ac2a2ec50b4815f7fa7144407e042e578955d10f4db340b2f6dc9cab8af16",
        [102, 0, 72, 32, 22, 14, 36],
    ],
    "Q3 exhaustive": [
        "80ac86fec9d6a0c1ef14c915a7b45552972c2be93b6bd1b128ce701a64b256d4",
        "f0fac6e95fe87c2cc6f43aed3cd9e39d804ccccb0f7c23662377dba0249128bb",
        [102, 0, 78, 32, 22, 14, 36],
    ],
    "Q4 static": [
        "a2bbc8d4ef458dbf161d4ddf0ffc223288598848deaa1112aed9ffc60d55e2f5",
        "b3d73197bb58ab168c2091feabb7660619987965d5e8c43d0c04419a2ceed7da",
        [136, 146, 79, 160, 51, 1, 150],
    ],
    "Q4 dynamic": [
        "6b890fef26e7be62963a756706b3693666e2b86b29e15a472f0b0cd6c44f5106",
        "ad6932e66453fd8e8a86813f171f67e00c33b2d6aa7e5b403cfa268c3c0b2577",
        [282, 0, 212, 160, 51, 22, 150],
    ],
    "Q4 exhaustive": [
        "5e89f690005d0e7c39a06c6f0949b9e3f918e4303aa574a682a065954ed54f0a",
        "81a627324113c0de86550d783109129e4a7b5000e6bc7b55db59dc19ea457b05",
        [282, 0, 222, 160, 51, 22, 150],
    ],
    "Q5 static": [
        "63482f2ca2a6a04257ce89038a6450eb542ad11b44dd228a0914f459bb6899f7",
        "d3f098dbb7fc1b990586e18fa7cc4530fa652b99716d33f23669eb1015aec753",
        [377, 681, 233, 960, 145, 1, 810],
    ],
    "Q5 dynamic": [
        "e89a524f123d75734435cd829e8ae0241c8ae98fa71109cbb44c82aca1ad5b1f",
        "ca644e94c6450242f0478f0c3c63bb4cf6f24c739c2a328f4be5e443d572ad5e",
        [1058, 0, 860, 960, 145, 38, 810],
    ],
    "Q5 exhaustive": [
        "ac5addb4a388d5b754e6c92d84ef891a04e67cf0ebcf0e47038109d2105ebb6a",
        "cb382d974d39ca816862a4873c12c6fc3dc2a7c7069408380717a51fb941b60b",
        [1058, 0, 878, 960, 145, 38, 810],
    ],
    "Q1+mem static": [
        "65ee5214477dc1c5beedfbb07fef34714f6541770ec8ec9cf98a7b4993cd5cb7",
        "d510d78932dd0977c257894e4a4223c13a2c3db7f92e4a609b4ed9e58d946f42",
        [2, 0, 2, 0, 1, 1, 0],
    ],
    "Q1+mem dynamic": [
        "8705768c0f41c726770c4752708d7eb8d054ada2ac021078621ab64975cb78f6",
        "dbd7ae84d9d531b0392e385855ecb03790a4e210ec2d9164b3c077c8f5b07378",
        [2, 0, 2, 0, 1, 2, 0],
    ],
    "Q1+mem exhaustive": [
        "8705768c0f41c726770c4752708d7eb8d054ada2ac021078621ab64975cb78f6",
        "dbd7ae84d9d531b0392e385855ecb03790a4e210ec2d9164b3c077c8f5b07378",
        [2, 0, 2, 0, 1, 2, 0],
    ],
    "Q2+mem static": [
        "ed3ffffa73285711655e466a3c0e8441c1962d53f12c1c0598ae45ea2046bdc2",
        "b0b6c389d55ca48e83fd7e9a7b3b833c7a2b9cec47954fbf5fc5e2b884e01ae1",
        [14, 4, 7, 0, 5, 1, 2],
    ],
    "Q2+mem dynamic": [
        "a5a61143f78c4bd3febf97d6491e35a486f595fefb12bf6ebf2795c4a315641f",
        "5ff38489163ea9aa7a9939731724c413bc90c285d1d335b33d7008b70c6b0aa5",
        [18, 0, 12, 0, 5, 6, 2],
    ],
    "Q2+mem exhaustive": [
        "66435909765af2bd9279f1076b7e14baf7ddea3460eedba547f08bd1528a0d96",
        "e1c338a09679823d2d4fbaed23137e4a612b6c3e3e5872ea048bef2e1259966d",
        [18, 0, 14, 0, 5, 6, 2],
    ],
    "Q3+mem static": [
        "a76c1a2e2e174c875cef9eeb37e5f1ae6134bfae5900d9001a4a7ad34fa4ee16",
        "b9f94769726de5624515e7b535ff3c5659e0f99d37486d2591cc17439b376954",
        [59, 43, 31, 32, 22, 1, 36],
    ],
    "Q3+mem dynamic": [
        "0dbf897225782614594146c7a6070106350009d4d9d87eace5cee19d872b66c7",
        "d5ebb1610e902bf1f40a232cf2e5ab1fa0bf3ce884ae99da4afcfc3d24cf1cf9",
        [102, 0, 72, 32, 22, 14, 36],
    ],
    "Q3+mem exhaustive": [
        "80ac86fec9d6a0c1ef14c915a7b45552972c2be93b6bd1b128ce701a64b256d4",
        "af460c3291b1891442c24d54781aeafc6cb82d33f87b2630beeea507db3ad878",
        [102, 0, 78, 32, 22, 14, 36],
    ],
    "Q4+mem static": [
        "a2bbc8d4ef458dbf161d4ddf0ffc223288598848deaa1112aed9ffc60d55e2f5",
        "b3d73197bb58ab168c2091feabb7660619987965d5e8c43d0c04419a2ceed7da",
        [136, 146, 79, 160, 51, 1, 150],
    ],
    "Q4+mem dynamic": [
        "6b890fef26e7be62963a756706b3693666e2b86b29e15a472f0b0cd6c44f5106",
        "c90989538e49e2c6b9a787baabfb4a91ddb6741c6ed692e9c0b1f450d0fda3c7",
        [282, 0, 212, 160, 51, 22, 150],
    ],
    "Q4+mem exhaustive": [
        "5e89f690005d0e7c39a06c6f0949b9e3f918e4303aa574a682a065954ed54f0a",
        "0de0cca145f20cc20530bd190fb30c7c00b3376f7e8c6a2c946f45a9293ae8b6",
        [282, 0, 222, 160, 51, 22, 150],
    ],
    "Q5+mem static": [
        "63482f2ca2a6a04257ce89038a6450eb542ad11b44dd228a0914f459bb6899f7",
        "d3f098dbb7fc1b990586e18fa7cc4530fa652b99716d33f23669eb1015aec753",
        [377, 681, 233, 960, 145, 1, 810],
    ],
    "Q5+mem dynamic": [
        "e89a524f123d75734435cd829e8ae0241c8ae98fa71109cbb44c82aca1ad5b1f",
        "e61d40d9bf9376c5b3148a5bc75aae9dee52d56ccb0db74e5a0fc4dce3cf1c84",
        [1058, 0, 860, 960, 145, 38, 810],
    ],
    "Q5+mem exhaustive": [
        "ac5addb4a388d5b754e6c92d84ef891a04e67cf0ebcf0e47038109d2105ebb6a",
        "9a6ce81c20fdedba08c8e4125ab01accad499abb9243e52da297d31531637552",
        [1058, 0, 878, 960, 145, 38, 810],
    ],
}


def _run_digest(seed: str) -> dict:
    completed = subprocess.run(
        [sys.executable, "-c", _DIGEST],
        env={**os.environ, "PYTHONHASHSEED": seed},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(completed.stdout)


@pytest.mark.parametrize("seed", ["0", "1"])
def test_modules_and_counters_match_golden(seed):
    digest = _run_digest(seed)
    assert sorted(digest) == sorted(_GOLDEN)
    moved = {
        case: (digest[case], expected)
        for case, expected in _GOLDEN.items()
        if digest[case] != expected
    }
    assert not moved, f"plans, cost annotations or search counters moved: {moved}"


def test_golden_q5_counts():
    # ROADMAP's headline search-effort figures for the 10-relation chain.
    dynamic = dict(zip(_STATS_FIELDS, _GOLDEN["Q5 dynamic"][2]))
    assert dynamic["candidates_considered"] == 1058
    assert dynamic["candidates_retained"] == 860
    assert dynamic["candidates_skipped"] == 960
    static = dict(zip(_STATS_FIELDS, _GOLDEN["Q5 static"][2]))
    assert static["candidates_considered"] == 377
    assert static["candidates_pruned"] == 681
