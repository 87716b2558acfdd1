"""The default statement set, and the serving layer's amortization claim
checked over it: warm statements hit the plan cache and never re-enter
the optimizer."""

from __future__ import annotations

from repro.obs.metrics import get_metrics
from repro.service import QueryService, default_statements
from repro.util.rng import make_rng
from tests.test_service import make_service_catalog


class TestGeneration:
    def test_default_statements_cover_relations(self):
        catalog = make_service_catalog()
        statements = default_statements(catalog)
        assert [s.sql for s in statements] == [
            "SELECT * FROM R WHERE R.a < :v",
            "SELECT * FROM S WHERE S.j < :v",
        ]
        assert [dict(s.bindings) for s in statements] == [
            {"v": (1, 100)},
            {"v": (1, 50)},
        ]


class TestRunWorkload:
    def test_repeated_invocations_hit_cache_and_skip_optimizer(self):
        """Acceptance: > 90% hit rate on a repeated-invocation workload, and
        cached execution skips optimization entirely (search metrics flat)."""
        catalog = make_service_catalog()
        rng = make_rng(9)
        with QueryService(catalog, workers=2, queue_limit=64, seed=5) as service:
            statements = default_statements(catalog)
            for statement in statements:
                service.prepare(statement.sql)  # warm the cache
            before = get_metrics().snapshot()
            for index in range(60):
                spec = statements[index % len(statements)]
                low, high = spec.bindings["v"]
                result = service.execute(spec.sql, {"v": rng.randrange(low, high)})
                assert result.latency_seconds > 0
            after = get_metrics().snapshot()

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        hits, misses = delta("plan_cache.hits"), delta("plan_cache.misses")
        assert hits + misses == 60
        assert hits / (hits + misses) > 0.9
        assert delta("optimizer.runs") == 0  # optimization fully skipped
