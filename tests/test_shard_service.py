"""End-to-end tests for multiprocess sharded serving.

Covers the coordinator's full contract: scatter/gather results must be
byte-identical (as canonical multisets, exactly ordered for ORDER BY) to
single-process execution across filters, joins, grouped and scalar
aggregates; partition pruning must route equality lookups to the single
owning shard; a killed shard process must be restarted and its request
retried exactly once, with a second failure surfacing as the typed
:class:`ShardFailedError` — never a hang or a silent wrong answer; DDL
must broadcast to lagging shards before they execute newer plans.

The real-process lifecycle test pays the spawn cost once and walks the
whole protocol; everything else runs ``in_process=True`` shards, which
execute the identical :class:`ShardExecutor` code path in-thread.
"""

from __future__ import annotations

import pytest

from repro.catalog.catalog import Catalog
from repro.errors import ServiceClosedError, ServiceError, ShardFailedError
from repro.obs.metrics import get_metrics
from repro.service import QueryService
from repro.shard import ShardedQueryService
from repro.shard.coordinator import _Waiter
from tests.builders import make_shard_catalog

#: (sql, bindings) pairs spanning every merge shape: plain union,
#: replicated join, grouped partial-aggregate recombination (all five
#: functions), scalar aggregate over a near-empty selection (NULL
#: MIN/MAX/AVG partials), and ordered merge.
CASES = [
    ("SELECT * FROM R WHERE R.a < :v", {"v": 120}),
    ("SELECT * FROM R, S WHERE R.k = S.j AND R.a < :v", {"v": 250}),
    (
        "SELECT R.k, COUNT(*), SUM(R.a), MIN(R.a), MAX(R.a), AVG(R.a) "
        "FROM R WHERE R.a < :v GROUP BY R.k",
        {"v": 400},
    ),
    ("SELECT COUNT(*), AVG(R.a) FROM R WHERE R.a < :v", {"v": 2}),
    ("SELECT * FROM R WHERE R.a < :v ORDER BY R.k", {"v": 200}),
]


def build_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_relation("R", [("a", 500), ("k", 300)], cardinality=1000)
    catalog.add_relation("S", [("j", 300), ("b", 400)], cardinality=600)
    for relation, attribute in [("R", "a"), ("R", "k"), ("S", "j"), ("S", "b")]:
        catalog.create_index(f"{relation}_{attribute}", relation, attribute)
    return catalog


@pytest.fixture(scope="module")
def catalog() -> Catalog:
    return build_catalog()


@pytest.fixture(scope="module")
def reference(catalog):
    """Single-process results: {sql: (sorted rows, schema triples)}."""
    service = QueryService(catalog, workers=1, seed=0)
    try:
        results = {}
        for sql, bindings in CASES:
            result = service.execute(sql, bindings)
            attributes = result.execution.schema.attributes
            results[sql] = (
                sorted(tuple(row) for row in result.rows),
                tuple(
                    (a.relation, a.name, a.domain_size) for a in attributes
                ),
            )
    finally:
        service.close()
    return results


def assert_matches_reference(result, reference_entry) -> None:
    want_rows, want_schema = reference_entry
    positions = [result.schema.index(triple) for triple in want_schema]
    got = sorted(tuple(row[p] for p in positions) for row in result.rows)
    assert got == want_rows


# ----------------------------------------------------------------------
# In-process shards: differential + semantics
# ----------------------------------------------------------------------
def test_in_process_shards_match_single_process(catalog, reference):
    with ShardedQueryService(
        catalog, shards=3, workers=1, in_process=True, seed=0
    ) as service:
        for sql, bindings in CASES:
            result = service.execute(sql, bindings)
            assert_matches_reference(result, reference[sql])


def test_order_by_is_merged_in_order(catalog, reference):
    sql, bindings = CASES[4]
    with ShardedQueryService(
        catalog, shards=3, workers=1, in_process=True, seed=0
    ) as service:
        result = service.execute(sql, bindings)
    position = result.schema.index(("R", "k", 300))
    keys = [row[position] for row in result.rows]
    assert keys == sorted(keys)
    assert_matches_reference(result, reference[sql])


#: Two-key ORDER BY over a union merge and over partial-aggregate
#: recombination (sorted after the groups combine).
MULTI_KEY_SQL = [
    "SELECT F0.g, F0.v FROM F0 WHERE F0.v < :v ORDER BY F0.g, F0.v",
    "SELECT F0.g, F0.v, COUNT(*) FROM F0 WHERE F0.v < :v "
    "GROUP BY F0.g, F0.v ORDER BY F0.g, F0.v",
]


@pytest.mark.parametrize("sql", MULTI_KEY_SQL)
@pytest.mark.parametrize("shards", [2, 3])
def test_multi_key_order_by_matches_unsharded_in_full_key_order(sql, shards):
    shard_catalog = make_shard_catalog(2_000, group_domain=20)
    with QueryService(shard_catalog, workers=1, seed=0) as single:
        want = single.execute(sql, {"v": 500}).rows
    with ShardedQueryService(
        shard_catalog, shards=shards, workers=1, in_process=True, seed=0
    ) as service:
        result = service.execute(sql, {"v": 500})
    assert result.schema[:2] == (("F0", "g", 20), ("F0", "v", 1_000))
    assert len(want) > 100 and want == sorted(want)
    assert result.rows == want


#: Single-branch compound statements: the driver R sits in the core,
#: the subquery / outer-joined S is replicated on every shard.
SCATTERABLE_COMPOUND = [
    "SELECT R.a, S.b FROM R LEFT OUTER JOIN S ON R.k = S.j WHERE R.a < :v",
    "SELECT R.a, R.k FROM R WHERE R.a < :v "
    "AND R.k IN (SELECT S.j FROM S WHERE S.b < 200) ORDER BY R.k, R.a",
]


@pytest.mark.parametrize("sql", SCATTERABLE_COMPOUND)
def test_single_branch_compound_statement_scatters(catalog, sql):
    with QueryService(catalog, workers=1, seed=0) as single:
        want = single.execute(sql, {"v": 300}).rows
    with ShardedQueryService(
        catalog, shards=3, workers=1, in_process=True, seed=0
    ) as service:
        result = service.execute(sql, {"v": 300})
    assert sorted(result.rows, key=repr) == sorted(want, key=repr)
    if "ORDER BY" in sql:
        assert result.rows == want


#: Statements scattering cannot answer: the second UNION branch would
#: return replicated S rows once per shard; partials ordered on a column
#: the statement does not select cannot be merged in order.
UNSCATTERABLE = [
    "SELECT R.a, R.k FROM R WHERE R.a < :v "
    "UNION ALL SELECT S.b, S.j FROM S WHERE S.b < :v",
    "SELECT R.a FROM R WHERE R.a < :v ORDER BY R.k",
]


@pytest.mark.parametrize("sql", UNSCATTERABLE)
def test_unscatterable_statement_is_refused_before_any_shard_runs(
    catalog, sql
):
    with ShardedQueryService(
        catalog, shards=2, workers=1, in_process=True, seed=0
    ) as service:
        before = get_metrics().snapshot().get("shard.executions", 0.0)
        with pytest.raises(ServiceError, match="cannot scatter"):
            service.execute(sql, {"v": 100})
        after = get_metrics().snapshot().get("shard.executions", 0.0)
    assert after == before


def test_partition_pruning_routes_to_one_shard(catalog):
    # R declares no unique key, so the partition column falls back to the
    # first attribute (a); an equality on it owns exactly one shard.
    with ShardedQueryService(
        catalog, shards=3, workers=1, in_process=True, seed=0
    ) as service:
        routed = service.execute("SELECT * FROM R WHERE R.a = :v", {"v": 41})
        scattered = service.execute(
            "SELECT * FROM R WHERE R.a < :v", {"v": 50}
        )
        counters = get_metrics().snapshot()
    assert len(routed.shard_decisions) == 1
    assert len(scattered.shard_decisions) == 3
    assert counters["shard.routed"] == 1.0
    assert counters["shard.scattered"] == 1.0
    # Routing must not change results: the routed shard holds every row
    # with a == 41 (hash placement is int(a) % shards).
    assert all(row[routed.schema.index(("R", "a", 500))] == 41
               for row in routed.rows)


def test_repeat_invocation_hits_shared_plan_cache(catalog):
    with ShardedQueryService(
        catalog, shards=2, workers=1, in_process=True, seed=0
    ) as service:
        first = service.execute(*CASES[0])
        second = service.execute(*CASES[0])
    assert not first.cache_hit
    assert second.cache_hit


def test_ddl_broadcast_syncs_lagging_shards(reference):
    # Fresh catalog (module fixture must stay unmutated) missing one
    # index, which arrives mid-stream as DDL.
    catalog = Catalog()
    catalog.add_relation("R", [("a", 500), ("k", 300)], cardinality=1000)
    catalog.add_relation("S", [("j", 300), ("b", 400)], cardinality=600)
    catalog.create_index("R_a", "R", "a")
    with ShardedQueryService(
        catalog, shards=2, workers=1, in_process=True, seed=0
    ) as service:
        before = service.execute(*CASES[0])
        version_before = catalog.version
        catalog.create_index("R_k", "R", "k")
        assert catalog.version > version_before
        after = service.execute(*CASES[0])
        # The scatter path syncs every shard before executing the newer
        # plan; results are unchanged (an index is access-path DDL).
        assert service._known_versions == [catalog.version] * 2
        assert after.compiled_catalog_version == catalog.version
        assert_matches_reference(before, reference[CASES[0][0]])
        assert_matches_reference(after, reference[CASES[0][0]])
        assert get_metrics().snapshot().get("shard.catalog_broadcasts", 0) >= 2


def test_eager_sync_catalog(catalog):
    with ShardedQueryService(
        catalog, shards=2, workers=1, in_process=True, seed=0
    ) as service:
        service._known_versions = [-1, -1]
        service.sync_catalog()
        assert service._known_versions == [catalog.version] * 2


def test_divergence_report_shape(catalog):
    with ShardedQueryService(
        catalog, shards=2, workers=1, in_process=True, seed=0
    ) as service:
        result = service.execute(*CASES[2])
        report = service.divergence_report()
    stat = report[CASES[2][0]]
    assert stat["invocations"] == 1
    assert stat["diverged_shards"] == result.decision_divergence
    assert len(stat["shard_decisions"]) == 2
    assert sum(stat["signatures"].values()) == 2


def test_closed_service_rejects_work(catalog):
    service = ShardedQueryService(
        catalog, shards=2, workers=1, in_process=True, seed=0
    )
    service.close()
    with pytest.raises(ServiceClosedError):
        service.execute(*CASES[0])
    with pytest.raises(ServiceClosedError):
        service.prepare(CASES[0][0])


# ----------------------------------------------------------------------
# Failure injection: retry once, then the typed error — never a hang
# ----------------------------------------------------------------------
class _DeadHandle:
    """A shard handle whose every request fails immediately."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.alive = False

    def post(self, request) -> _Waiter:
        waiter = _Waiter(self.shard_id)
        waiter.fail(f"shard {self.shard_id} injected failure")
        return waiter

    def kill(self) -> None:
        pass

    def close(self, request_id, timeout=5.0) -> None:
        pass

    def metrics_state(self, request_id, timeout):
        return None


def test_unrecoverable_shard_raises_typed_error(catalog):
    service = ShardedQueryService(
        catalog, shards=2, workers=1, in_process=True, seed=0
    )
    try:
        # Shard 0 is dead, and every restart produces another dead shard:
        # the scatter must retry exactly once, then surface the typed
        # failure instead of hanging or answering from one shard.
        service._handles[0] = _DeadHandle(0)
        service._spawn_handle = _DeadHandle
        with pytest.raises(ShardFailedError) as failure:
            service.execute(*CASES[0])
        assert failure.value.shard_id == 0
        assert failure.value.retried
        assert get_metrics().snapshot()["shard.restarts"] >= 1.0
    finally:
        service.close()


# ----------------------------------------------------------------------
# Real shard processes: full wire protocol + crash recovery
# ----------------------------------------------------------------------
def test_process_shards_lifecycle(catalog, reference):
    """One spawn pays for the whole protocol walk: differential over
    every case shape, plan-cache reuse, crash + successful retried
    execution, shard metrics harvesting, graceful close."""
    service = ShardedQueryService(
        catalog, shards=2, workers=2, in_process=False, seed=0
    )
    try:
        for sql, bindings in CASES:
            assert_matches_reference(
                service.execute(sql, bindings), reference[sql]
            )
        assert service.execute(*CASES[0]).cache_hit

        # Crash one shard process mid-workload: the coordinator restarts
        # it and retries, so the invocation still succeeds and matches.
        service.kill_shard(1)
        recovered = service.execute(*CASES[1])
        assert_matches_reference(recovered, reference[CASES[1][0]])
        assert get_metrics().snapshot()["shard.restarts"] >= 1.0

        # Both (restarted) shard processes report mergeable metrics.
        assert service.collect_metrics() == 2
        snapshot = get_metrics().snapshot()
        assert snapshot.get("shard.executions", 0) > 0
    finally:
        service.close()
