"""Tests for the compressed-domain relational subsystem.

The relational plan family treats every corpus file as one typed row
and executes SELECT-style queries (filter / group-by / aggregate)
directly on the grammar.  The contracts under test:

* spec validation fails at construction, and every spec is hashable;
* row parsing agrees between the token-scan path and the grammar path;
* parse states memoize per schema: a warm query launches strictly
  fewer kernels (exactly filter + aggregate) than a cold one;
* fused batches answer identically to unfused ones;
* every registered backend answers identically, and the serving layer
  caches/coalesces relational queries like any other task.
"""

from __future__ import annotations

import pytest

from repro.analytics.base import Task
from repro.api import Query, available_backends, open_backend
from repro.compression.compressor import compress_corpus
from repro.core.engine import GTadoc
from repro.data.corpus import Corpus
from repro.relational import compute as rc
from repro.relational.spec import (
    Aggregate,
    Condition,
    FieldSpec,
    RelationalQuery,
    RowSchema,
)

# One delimited record per file; row 'frank' has an unparseable age, so
# typed parsing (and its None-excludes-row semantics) is exercised.
ROWS = (
    ("alice", "30", "nyc"),
    ("bob", "25", "sfo"),
    ("carol", "41", "chi"),
    ("dave", "30", "nyc"),
    ("erin", "29", "chi"),
    ("frank", "oops", "nyc"),
)


@pytest.fixture(scope="module")
def rel_corpus() -> Corpus:
    texts = {
        f"row_{index}.txt": f"{name} , {age} , {city}"
        for index, (name, age, city) in enumerate(ROWS)
    }
    return Corpus.from_texts(texts, name="relational-tiny")


@pytest.fixture(scope="module")
def rel_compressed(rel_corpus):
    return compress_corpus(rel_corpus)


@pytest.fixture(scope="module")
def schema() -> RowSchema:
    return RowSchema(
        fields=(
            FieldSpec("name", "str", column=0),
            FieldSpec("age", "int", column=1),
            FieldSpec("city", "str", column=2),
        ),
        delimiter=",",
    )


@pytest.fixture(scope="module")
def spec(schema) -> RelationalQuery:
    return RelationalQuery(
        schema=schema,
        predicate=(Condition("age", "ge", 29),),
        group_by="city",
        aggregates=(Aggregate("count"), Aggregate("avg", "age")),
    )


def rel_query(spec: RelationalQuery, **kwargs) -> Query:
    return Query(task=Task.RELATIONAL, extras={"relational": spec}, **kwargs)


# ----------------------------------------------------------------------------------------
# Spec validation (everything fails at construction, everything hashes)
# ----------------------------------------------------------------------------------------

class TestSpecValidation:
    def test_field_needs_exactly_one_locator(self):
        with pytest.raises(ValueError, match="exactly one of column/key"):
            FieldSpec("x", "str")
        with pytest.raises(ValueError, match="exactly one of column/key"):
            FieldSpec("x", "str", column=0, key="k")

    def test_field_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="type must be one of"):
            FieldSpec("x", "bool", column=0)

    def test_schema_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate field names"):
            RowSchema(
                fields=(FieldSpec("x", column=0), FieldSpec("x", column=1)),
                delimiter=",",
            )

    def test_delimited_schema_requires_columns(self):
        with pytest.raises(ValueError, match="column addressing"):
            RowSchema(fields=(FieldSpec("x", key="k"),), delimiter=",")

    def test_keyed_schema_requires_keys(self):
        with pytest.raises(ValueError, match="key addressing"):
            RowSchema(fields=(FieldSpec("x", column=0),))

    def test_condition_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="op must be one of"):
            Condition("x", "like", "a")

    def test_numeric_aggregate_needs_numeric_field(self, schema):
        with pytest.raises(ValueError, match="needs a numeric field"):
            RelationalQuery(
                schema=schema, aggregates=(Aggregate("sum", "city"),)
            )

    def test_count_takes_no_field(self):
        with pytest.raises(ValueError, match="count takes no field"):
            Aggregate("count", "age")

    def test_predicate_fields_must_exist(self, schema):
        with pytest.raises(KeyError, match="no field"):
            RelationalQuery(schema=schema, predicate=(Condition("zip", "eq", 1),))

    def test_order_by_must_name_an_aggregate(self, schema):
        with pytest.raises(ValueError, match="does not name an aggregate"):
            RelationalQuery(schema=schema, order_by="sum(age)")

    def test_specs_are_hashable_cache_keys(self, spec, schema):
        other = RelationalQuery(schema=schema, group_by="city")
        assert len({spec, spec, other}) == 2
        assert hash(rel_query(spec)) == hash(rel_query(spec))


# ----------------------------------------------------------------------------------------
# Row parsing (token-scan path; the grammar path is matrix-tested below)
# ----------------------------------------------------------------------------------------

class TestRowParsing:
    def test_delimited_row(self, schema):
        row = rc.row_from_tokens("alice , 30 , nyc".split(), schema)
        assert row == ("alice", 30, "nyc")

    def test_parse_failure_yields_none(self, schema):
        row = rc.row_from_tokens("frank , oops , nyc".split(), schema)
        assert row == ("frank", None, "nyc")

    def test_missing_column_yields_none(self, schema):
        assert rc.row_from_tokens("only".split(), schema) == ("only", None, None)

    def test_keyed_row(self):
        keyed = RowSchema(
            fields=(FieldSpec("level", key="level"), FieldSpec("code", "int", key="code"))
        )
        row = rc.row_from_tokens("ts level error code 500 done".split(), keyed)
        assert row == ("error", 500)

    def test_none_never_matches_conditions(self, schema):
        row = rc.row_from_tokens("frank , oops , nyc".split(), schema)
        age = row[schema.field_index("age")]
        for op in ("eq", "ne", "lt", "le", "gt", "ge"):
            assert not rc.condition_matches(age, Condition("age", op, 30))


# ----------------------------------------------------------------------------------------
# Query-object integration
# ----------------------------------------------------------------------------------------

class TestRelationalQueryObject:
    def test_relational_task_requires_spec(self):
        with pytest.raises(ValueError, match="relational"):
            Query(task=Task.RELATIONAL)

    def test_spec_must_be_a_relational_query(self):
        with pytest.raises(ValueError, match="RelationalQuery"):
            Query(task=Task.RELATIONAL, extras={"relational": "select *"})

    def test_terms_filter_rejected(self, spec):
        with pytest.raises(ValueError, match="terms"):
            rel_query(spec, terms=("nyc",))

    def test_sequence_length_rejected(self, spec):
        with pytest.raises(ValueError, match="sequence_length"):
            rel_query(spec, sequence_length=3)

    def test_relational_property(self, spec):
        assert rel_query(spec).relational is spec
        assert Query(task=Task.SORT).relational is None

    def test_classic_tasks_reject_the_relational_key(self, spec):
        with pytest.raises(ValueError, match="unknown extras"):
            Query(task=Task.SORT, extras={"relational": spec})


# ----------------------------------------------------------------------------------------
# Memoized parse states: warm queries launch only the marginal kernels
# ----------------------------------------------------------------------------------------

class TestWarmLaunches:
    def test_warm_query_launches_exactly_filter_and_aggregate(self, rel_compressed, spec):
        engine = GTadoc(rel_compressed)
        cold = engine.run_batch([Task.RELATIONAL], relational=spec)
        cold_launches = (
            cold.init_record.num_launches
            + cold.shared_record.num_launches
            + cold[Task.RELATIONAL].traversal_record.num_launches
        )
        other = RelationalQuery(schema=spec.schema, group_by="city")
        warm = engine.run_batch([Task.RELATIONAL], relational=other)
        warm_record = warm[Task.RELATIONAL].traversal_record
        warm_launches = (
            warm.init_record.num_launches
            + warm.shared_record.num_launches
            + warm_record.num_launches
        )
        assert warm_launches < cold_launches
        assert [k.name for k in warm_record.kernels] == [
            "relFilterKernel",
            "relAggregateKernel",
        ]

    def test_parse_states_are_per_schema(self, rel_compressed, spec):
        engine = GTadoc(rel_compressed)
        engine.run_batch([Task.RELATIONAL], relational=spec)
        keyed = RowSchema(fields=(FieldSpec("after_comma", key=","),))
        fresh = engine.run_batch(
            [Task.RELATIONAL],
            relational=RelationalQuery(schema=keyed, group_by="after_comma"),
        )
        names = [k.name for k in fresh.shared_record.kernels]
        # A new schema rebuilds its own parse states (parse kernels run again).
        assert "relParseKernel" in names


# ----------------------------------------------------------------------------------------
# Fusion and file subsets
# ----------------------------------------------------------------------------------------

class TestFusionAndSubsets:
    def test_fused_matches_unfused(self, rel_compressed, spec):
        engine = GTadoc(rel_compressed)
        unfused = engine.run_batch(
            [Task.WORD_COUNT, Task.RELATIONAL], relational=spec
        )
        fused = engine.run_fused(
            [Task.WORD_COUNT, Task.RELATIONAL], relational=spec
        )
        for task in (Task.WORD_COUNT, Task.RELATIONAL):
            assert fused[task].result == unfused[task].result

    def test_file_subset_restricts_rows(self, rel_compressed, rel_corpus, spec):
        subset = tuple(sorted(rel_corpus.file_names))[:3]  # rows 0..2
        outcome = open_backend("gtadoc", rel_compressed).run(
            rel_query(spec, files=subset)
        )
        reference = open_backend("reference", rel_compressed).run(
            rel_query(spec, files=subset)
        )
        assert outcome.result == reference.result

    def test_shaping_applies_order_by_and_top_k(self, rel_compressed, schema):
        ordered = RelationalQuery(
            schema=schema,
            group_by="city",
            aggregates=(Aggregate("count"),),
            order_by="count",
        )
        outcome = open_backend("gtadoc", rel_compressed).run(
            rel_query(ordered, top_k=1)
        )
        assert outcome.result == [("nyc", (3,))]


# ----------------------------------------------------------------------------------------
# Cross-backend equivalence and serving
# ----------------------------------------------------------------------------------------

class TestBackendMatrix:
    def test_expected_result(self, rel_compressed, spec):
        outcome = open_backend("gtadoc", rel_compressed).run(rel_query(spec))
        # frank's unparseable age fails the predicate, so nyc counts 2.
        assert outcome.result == [
            ("chi", (2, 35.0)),
            ("nyc", (2, 30.0)),
        ]

    def test_every_backend_answers_bit_identically(self, rel_compressed, spec):
        query = rel_query(spec)
        expected = open_backend("reference", rel_compressed).run(query).result
        for name in available_backends():
            backend = open_backend(name, rel_compressed)
            try:
                assert backend.run(query).result == expected, name
            finally:
                close = getattr(backend, "close", None)
                if callable(close):
                    close()


class TestServing:
    def test_result_cache_serves_repeated_relational_queries(self, rel_compressed, spec):
        from repro.serve import AnalyticsService

        service = AnalyticsService(rel_compressed)
        first = service.submit(rel_query(spec))
        second = service.submit(rel_query(spec))
        assert first.details["result_cache"] == "miss"
        assert second.details["result_cache"] == "hit"
        assert second.result == first.result
        assert second.kernel_launches == 0

    def test_relational_trace_replays_bit_identically(self, rel_compressed):
        from repro.serve import AnalyticsService, TraceConfig, replay_trace, synthesize_trace

        config = TraceConfig(num_requests=16, relational_fraction=0.5, seed=5)
        trace = synthesize_trace(rel_compressed.file_names, config)
        assert any(q.task is Task.RELATIONAL for q in trace)
        report = replay_trace(AnalyticsService(), rel_compressed, trace, clients=2)
        assert report.results_match

    def test_trace_config_validates_relational_knobs(self, spec):
        from repro.serve import TraceConfig

        with pytest.raises(ValueError, match="within \\[0, 1\\]"):
            TraceConfig(relational_fraction=1.5)
        with pytest.raises(ValueError, match="RelationalQuery"):
            TraceConfig(relational_specs=("not a spec",))
