"""The database container: storage, buffer pool, heaps, and indexes.

A :class:`Database` realizes a catalog on the simulated disk: one heap file
per relation, one B-tree per index, and a shared buffer pool.  Synthetic
data loading follows the paper's experimental setup — integer attributes
uniformly distributed over their domains — so observed selectivities match
the catalog's estimates in expectation.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Attribute
from repro.cost.model import CostModel
from repro.errors import CatalogError, ExecutionError
from repro.executor.btree import BTree
from repro.executor.buffer import BufferPool
from repro.executor.storage import HeapFile, SimulatedDisk
from repro.logical.predicates import CompareOp, HostVariable, SelectionPredicate
from repro.util.rng import make_rng


def synthetic_rows(catalog: Catalog, seed: int = 0) -> dict[str, list[tuple]]:
    """The synthetic dataset for ``catalog``, keyed by relation name.

    This is the generator behind :meth:`Database.load_synthetic`, exposed
    separately so shard processes can regenerate the exact same dataset
    from ``(catalog, seed)`` and slice out their partition locally instead
    of shipping rows over a pipe.  The RNG draw order is part of the
    contract: one stream, relations in ``catalog.relation_names`` order,
    column-wise for relations with declared unary keys and row-major
    otherwise — changing it would silently re-deal every seeded dataset.
    """
    rng = make_rng(seed)
    dataset: dict[str, list[tuple]] = {}
    for name in catalog.relation_names:
        info = catalog.relation(name)
        unique = [
            catalog.is_unique(attribute.qualified_name)
            for attribute in info.schema
        ]
        if any(unique):
            # Column-wise generation: declared unary keys sample
            # without replacement so the key constraint actually holds
            # in the data (the cardinality estimator relies on it).
            cardinality = info.stats.cardinality
            columns = []
            for attribute, is_key in zip(info.schema, unique):
                if is_key:
                    if attribute.domain_size < cardinality:
                        raise ValueError(
                            f"unique attribute {attribute.qualified_name} "
                            f"has domain {attribute.domain_size} < "
                            f"cardinality {cardinality}"
                        )
                    columns.append(
                        rng.sample(range(attribute.domain_size), cardinality)
                    )
                else:
                    columns.append(
                        [
                            rng.randrange(attribute.domain_size)
                            for _ in range(cardinality)
                        ]
                    )
            rows = [
                tuple(column[i] for column in columns)
                for i in range(cardinality)
            ]
        else:
            # Row-major draw order: relations without key constraints
            # keep the historical RNG stream so existing seeds, fuzz
            # artifacts, and experiments reproduce byte-identically.
            rows = [
                tuple(
                    rng.randrange(attribute.domain_size)
                    for attribute in info.schema
                )
                for _ in range(info.stats.cardinality)
            ]
        dataset[name] = rows
    return dataset


class Database:
    """Catalog + stored data + indexes over one simulated disk."""

    def __init__(
        self,
        catalog: Catalog,
        model: CostModel | None = None,
        buffer_pages: int = 64,
    ) -> None:
        self.catalog = catalog
        self.model = model if model is not None else CostModel()
        self.disk = SimulatedDisk(self.model)
        self.buffer = BufferPool(self.disk, buffer_pages)
        self._heaps: dict[str, HeapFile] = {}
        self._btrees: dict[str, BTree] = {}

    @property
    def intermediate_rows_per_page(self) -> int:
        """Rows per page assumed for intermediate results (512-byte rows)."""
        return max(1, self.model.page_bytes // 512)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_synthetic(self, seed: int = 0) -> None:
        """Populate every catalog relation with uniform random integers.

        Each attribute draws uniformly from ``range(domain_size)``; indexes
        are bulk-built from the loaded data.  Deterministic given ``seed``.
        """
        for name, rows in synthetic_rows(self.catalog, seed).items():
            self.load_relation(name, rows)

    def load_relation(self, name: str, rows: list[tuple]) -> None:
        """Store explicit rows for one relation and build its indexes.

        A clustered index's relation is stored in its key order (a stable
        sort: equal keys keep their arrival order)."""
        info = self.catalog.relation(name)
        if name in self._heaps:
            raise ExecutionError(f"relation {name} already loaded")
        if len(rows) != info.stats.cardinality:
            raise ExecutionError(
                f"catalog says {info.stats.cardinality} rows for {name}, "
                f"got {len(rows)}"
            )
        heap = HeapFile(
            self.disk,
            f"heap_{name}",
            records_per_page=self.model.records_per_page(info.stats),
        )
        for index in info.indexes:
            if index.clustered:
                position = info.schema.index_of(index.attribute)
                rows = sorted(rows, key=itemgetter(position))
        rids = [heap.append(row) for row in rows]
        heap.flush()
        self._heaps[name] = heap
        for index in info.indexes:
            position = info.schema.index_of(index.attribute)
            entries = sorted(
                (row[position], rid) for row, rid in zip(rows, rids)
            )
            btree = BTree(
                self.disk,
                f"index_{index.name}",
                reader=self.buffer.read_page,
            )
            btree.bulk_build(entries)
            self._btrees[index.name] = btree

    def insert_row(self, relation: str, row: tuple, update_statistics: bool = True) -> None:
        """Append one row, maintaining every index on the relation.

        The row goes to the end of the heap, clustered index or not, so
        inserts degrade clustering: each costs a clustered scan one run.

        With ``update_statistics`` the catalog cardinality follows the data
        — the paper's opening motivation ("changes in the database
        contents") — which bumps the catalog version and thereby invalidates
        compiled access modules so they re-optimize against fresh numbers.
        """
        info = self.catalog.relation(relation)
        heap = self.heap(relation)
        if len(row) != len(info.schema):
            raise ExecutionError(
                f"row has {len(row)} values, schema has {len(info.schema)}"
            )
        rid = heap.append(row)
        heap.flush()
        for index in info.indexes:
            position = info.schema.index_of(index.attribute)
            self._btrees[index.name].insert(row[position], rid)
            self.buffer.invalidate_file(f"index_{index.name}")
        if update_statistics:
            self.catalog.set_cardinality(relation, heap.record_count)

    def analyze(self, buckets: int = 20) -> int:
        """Build equi-depth histograms for every loaded attribute.

        The histograms are registered in the catalog and picked up by
        selectivity estimation (:mod:`repro.logical.estimation`) for
        literal predicates — the ANALYZE command of a production system.
        Returns the number of histograms built.
        """
        from repro.catalog.histogram import EquiDepthHistogram

        built = 0
        for name, heap in self._heaps.items():
            info = self.catalog.relation(name)
            rows = [row for _, row in heap.scan()]
            if not rows:
                continue
            for position, attribute in enumerate(info.schema):
                values = [row[position] for row in rows]
                histogram = EquiDepthHistogram.from_values(values, buckets)
                self.catalog.set_histogram(attribute, histogram)
                built += 1
        return built

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def heap(self, relation: str) -> HeapFile:
        """The heap file of a loaded relation."""
        try:
            return self._heaps[relation]
        except KeyError:
            raise ExecutionError(f"relation {relation} is not loaded") from None

    def btree(self, index_name: str) -> BTree:
        """A loaded index by name."""
        try:
            return self._btrees[index_name]
        except KeyError:
            raise ExecutionError(f"index {index_name} is not loaded") from None

    def fetcher(
        self, relation: str, key: Attribute
    ) -> Callable[[Iterable[tuple[int, int]]], Iterator[tuple]]:
        """How records reached through the index on ``key`` are fetched:
        page runs (:meth:`HeapFile.fetch_run`) when the index is clustered,
        one page read per rid (:meth:`HeapFile.fetch`) otherwise."""
        heap = self.heap(relation)
        return heap.fetch_run if self.clustered_on(key) else partial(map, heap.fetch)

    def clustered_on(self, key: Attribute) -> bool:
        """Whether the index on ``key`` is clustered (its heap in key order)."""
        index = self.catalog.index_on(key)
        return index is not None and index.clustered

    def btree_on(self, attribute: Attribute) -> BTree:
        """The index keyed on ``attribute``."""
        index = self.catalog.index_on(attribute)
        if index is None:
            raise CatalogError(f"no index on {attribute.qualified_name}")
        return self.btree(index.name)

    # ------------------------------------------------------------------
    # Selectivity helpers
    # ------------------------------------------------------------------
    def implied_selectivity(
        self, predicate: SelectionPredicate, bindings: Mapping[str, object]
    ) -> float:
        """Selectivity a bound predicate implies under uniform data.

        This is the bridge between value bindings (what an application
        supplies for its host variables) and selectivity parameters (what
        the optimizer's cost model consumes): ``a < v`` over a uniform
        domain of size D has selectivity ``v / D``.
        """
        if isinstance(predicate.operand, HostVariable):
            value = bindings[predicate.operand.name]
        else:
            value = predicate.operand.value
        if not isinstance(value, (int, float)):
            raise ExecutionError(
                f"cannot derive a selectivity for non-numeric value {value!r}"
            )
        domain = predicate.attribute.domain_size
        fraction_below = min(max(float(value) / domain, 0.0), 1.0)
        op = predicate.op
        if op is CompareOp.LT or op is CompareOp.LE:
            return fraction_below
        if op is CompareOp.GT or op is CompareOp.GE:
            return 1.0 - fraction_below
        if op is CompareOp.EQ:
            return 1.0 / domain
        return 1.0 - 1.0 / domain
