//! Property tests pinning the incremental-append tentpole: a table grown
//! through [`IntegratedTable::append_batch`] — with its projection extended
//! in place, its sort permutations absorbed by merge and its cached profile
//! snapshots re-frozen — must be **bit-for-bit** indistinguishable from a
//! table rebuilt from scratch with the same observations inserted one by
//! one, and a catalog's cached answers after an append must equal a cold
//! execution over the rebuilt table.
//!
//! Corners exercised: NaN/±inf/-0.0 in predicate and group columns, group
//! keys beyond 2^53, NULL cells, duplicate entity keys across the
//! base/delta boundary (touched multiplicities), dictionary-growing strings
//! arriving only in the delta, interleaved append → query → append
//! sequences, the appends whose cached selections cannot be re-frozen (a
//! re-observed member of a cached grouped selection, a predicate that stops
//! evaluating), and both server fronts (line-JSON and pgwire) answering
//! identically after an `append_stream`.
//!
//! Two oracles see the same observations: a table rebuilt from scratch
//! ([`rebuilt`]), one insert at a time, and the independent row oracle
//! `uu_bench::oracle::RowTable`, whose rows the grown table must reproduce
//! value for value.

use proptest::prelude::*;
use uu_bench::oracle::RowTable;
use uu_core::engine::EstimationSession;
use uu_core::profile::ProfileMetrics;
use uu_core::sample::SampleView;
use uu_query::catalog::Catalog;
use uu_query::exec::{freeze_selection, results_from_selection, CorrectionMethod};
use uu_query::predicate::{CmpOp, Predicate};
use uu_query::query::AggregateQuery;
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_query::value::Value;
use uu_server::client::Client;
use uu_server::pgwire::PgClient;
use uu_server::protocol::{LoadCsvRequest, QueryReply, Request, Response};
use uu_server::server::{spawn, ServerConfig};

/// One generated observation row as selector integers (the columnar-parity
/// suite's style: cheap to shrink, easy to steer into corners).
type RowSel = ((u64, u32, u64, i32), (u64, i32, u64));

/// A float with the interesting corners: specials, signed zero, heavy
/// duplication and plain fractions.
fn float_from(selector: u64, mantissa: i32) -> f64 {
    match selector % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => (mantissa % 7) as f64, // duplicates
        6 => mantissa as f64 * 0.25,
        _ => mantissa as f64 * 1e12,
    }
}

/// A cell for the predicate column (`Float` typed, also holding `Int` cells
/// and NULLs). Group keys beyond 2^53: `Int`s that collide once widened to
/// `f64`, and `Float(2^60)` beside the `Int` whose entity key equals it.
fn pred_cell(selector: u64, mantissa: i32) -> Value {
    match selector % 14 {
        8 => Value::Null,
        9 => Value::Int(mantissa as i64),
        10 => Value::Int((mantissa as i64) << 40),
        11 => Value::Int((1 << 53) + (mantissa % 3) as i64),
        12 => Value::Float((1u64 << 60) as f64),
        13 => Value::Int(1_152_921_504_606_847_000),
        _ => Value::Float(float_from(selector, mantissa)),
    }
}

/// A cell for the aggregation column: finite or NULL only (observed items
/// require finite values).
fn attr_cell(selector: u64, mantissa: i32) -> Value {
    match selector % 6 {
        0 => Value::Null,
        1 => Value::Float(-0.0),
        2 => Value::Float((mantissa % 5) as f64),
        3 => Value::Int(mantissa as i64),
        _ => Value::Float(mantissa as f64 * 0.5),
    }
}

const STATES: [&str; 4] = ["CA", "WA", "NY", ""];

fn schema() -> Schema {
    Schema::new([
        ("company", ColumnType::Str),
        ("pred", ColumnType::Float),
        ("attr", ColumnType::Float),
        ("state", ColumnType::Str),
    ])
}

/// One observation record from a row selector. Delta rows draw from a wider
/// string pool (`x…` states), so appends grow the dictionary.
fn record(row: &RowSel, delta: bool) -> (u32, Vec<Value>) {
    let &((entity, source, pred_sel, pred_m), (attr_sel, attr_m, str_sel)) = row;
    let state = if delta && str_sel % 3 == 0 {
        format!("x{}", str_sel % 11) // dictionary-growing: unseen at build
    } else {
        STATES[str_sel as usize % STATES.len()].to_string()
    };
    (
        source % 5,
        vec![
            Value::from(format!("e{}", entity % 24)),
            pred_cell(pred_sel, pred_m),
            attr_cell(attr_sel, attr_m),
            Value::Str(state),
        ],
    )
}

/// The observations of `base` then `delta`.
fn observations(base: &[RowSel], delta: &[RowSel]) -> Vec<(u32, Vec<Value>)> {
    let base = base.iter().map(|row| record(row, false));
    base.chain(delta.iter().map(|row| record(row, true)))
        .collect()
}

/// The from-scratch oracle: every observation inserted one by one.
fn rebuilt(base: &[RowSel], delta: &[RowSel]) -> IntegratedTable {
    let mut table = IntegratedTable::new("t", schema(), "company").unwrap();
    for (source, values) in observations(base, delta) {
        table.insert_observation(source, values).unwrap();
    }
    table
}

/// The row oracle over the same observations.
fn row_table(base: &[RowSel], delta: &[RowSel]) -> RowTable {
    RowTable::from_observations(schema(), "company", observations(base, delta)).unwrap()
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A predicate over the specials-bearing numeric column and the string
/// column, with combinators.
fn predicate_from(sel: &[u64], mantissa: i32) -> Predicate {
    let literal = match sel[1] % 10 {
        8 => Value::Null,
        9 => Value::Float(f64::NAN),
        _ => Value::Float(float_from(sel[1], mantissa)),
    };
    let leaf_num = Predicate::cmp("pred", OPS[sel[0] as usize % OPS.len()], literal);
    let leaf_str = Predicate::cmp(
        "state",
        OPS[sel[2] as usize % OPS.len()],
        Value::Str(STATES[sel[3] as usize % STATES.len()].into()),
    );
    match sel[4] % 4 {
        0 => leaf_num,
        1 => leaf_num.and(leaf_str),
        2 => leaf_num.or(leaf_str),
        _ => leaf_num.and(leaf_str.not()),
    }
}

/// Bit-for-bit equality of two views: identical value bits, multiplicity
/// and per-source lineage, item by item.
fn assert_views_equal(
    incremental: &SampleView,
    oracle: &SampleView,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        incremental.items().len(),
        oracle.items().len(),
        "len: {}",
        context
    );
    for (a, b) in incremental.items().iter().zip(oracle.items()) {
        prop_assert_eq!(
            a.value.to_bits(),
            b.value.to_bits(),
            "value bits: {}",
            context
        );
        prop_assert_eq!(a.multiplicity, b.multiplicity, "multiplicity: {}", context);
        prop_assert_eq!(&a.source_counts, &b.source_counts, "lineage: {}", context);
    }
    Ok(())
}

/// Appends `delta` to `table` in `chunks` batches through the incremental
/// path, after warming the projection and sort permutations so there is
/// warm state to maintain.
fn append_in_chunks(table: &mut IntegratedTable, delta: &[RowSel], chunks: usize) {
    let chunks = chunks.clamp(1, 3);
    let per = delta.len().div_ceil(chunks).max(1);
    for chunk in delta.chunks(per) {
        let batch = chunk.iter().map(|row| record(row, true)).collect();
        table.append_batch(batch).unwrap();
    }
}

/// Full-surface comparison of the incrementally-grown table against the
/// from-scratch oracle and the row oracle: entities, ungrouped and grouped
/// selections, and the value-sort permutations behind them.
fn assert_tables_equal(
    grown: &IntegratedTable,
    oracle: &IntegratedTable,
    rows: &RowTable,
    predicate: &Predicate,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(grown.len(), oracle.len(), "entity count");
    prop_assert_eq!(grown.total_observations(), oracle.total_observations());
    let same_rows = rows.assert_same_entities(grown);
    prop_assert!(same_rows.is_ok(), "grown rows: {:?}", same_rows);
    for attr in [Some("attr"), None] {
        let (view, sorted) = grown.sample_view_with_sorted(attr, predicate).unwrap();
        let (ref_view, ref_sorted) = oracle.sample_view_with_sorted(attr, predicate).unwrap();
        assert_views_equal(&view, &ref_view, &format!("attr={attr:?}"))?;
        let row_view = rows.sample_view(attr, predicate).unwrap();
        assert_views_equal(&view, &row_view, &format!("rows, attr={attr:?}"))?;
        prop_assert_eq!(
            &sorted,
            &ref_sorted,
            "merged sort permutation must equal the from-scratch argsort (attr={:?})",
            attr
        );
    }
    for group_column in ["pred", "state"] {
        let grouped = grown
            .grouped_sample_views_with_sorted(Some("attr"), predicate, group_column)
            .unwrap();
        let reference = oracle
            .grouped_sample_views_with_sorted(Some("attr"), predicate, group_column)
            .unwrap();
        let row_groups = rows
            .grouped_sample_views(Some("attr"), predicate, group_column)
            .unwrap();
        prop_assert_eq!(
            grouped.len(),
            reference.len(),
            "group count: {}",
            group_column
        );
        prop_assert_eq!(
            grouped.len(),
            row_groups.len(),
            "row groups: {}",
            group_column
        );
        for ((value, view, sorted), (ref_value, ref_view, ref_sorted)) in
            grouped.iter().zip(&reference)
        {
            prop_assert_eq!(
                value.entity_key(),
                ref_value.entity_key(),
                "group key and order: {}",
                group_column
            );
            assert_views_equal(
                view,
                ref_view,
                &format!("group {value:?} of {group_column}"),
            )?;
            prop_assert_eq!(sorted, ref_sorted, "group sort perm: {}", group_column);
        }
        for ((value, view, _), (row_value, row_view)) in grouped.iter().zip(&row_groups) {
            prop_assert!(
                uu_bench::oracle::identical(value, row_value),
                "row group key: {:?} vs {:?}",
                value,
                row_value
            );
            assert_views_equal(view, row_view, &format!("row group {value:?}"))?;
        }
    }
    Ok(())
}

/// A small query mix over the toy schema; `Debug` on the result rows is a
/// shortest-roundtrip rendering of every `f64`, so comparing the strings
/// pins the answers bit-for-bit (including `-0.0` vs `0.0`).
fn query_from(sel: u64, predicate: Predicate) -> AggregateQuery {
    let builder = match sel % 4 {
        0 => AggregateQuery::sum("attr"),
        1 => AggregateQuery::count_star(),
        2 => AggregateQuery::avg("attr"),
        _ => AggregateQuery::max("attr"),
    };
    let builder = builder.filter(predicate);
    match sel % 3 {
        0 => builder.from("t"),
        1 => builder.group_by("state").from("t"),
        _ => builder.group_by("pred").from("t"),
    }
}

/// Executes `query` through a catalog's profile cache, the way the server
/// does (fetch once, compute from the cached selection).
fn cached_rows(catalog: &Catalog, query: &AggregateQuery) -> String {
    let (snapshots, _) = catalog.selection_query(query).unwrap();
    let rows = uu_query::exec::results_from_selection(query, &snapshots, CorrectionMethod::Bucket);
    format!("{rows:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tentpole invariant at the table layer: append-then-read equals
    /// rebuild-then-read across every read surface, with warm state
    /// (projection, sort permutations) maintained through the append.
    #[test]
    fn append_matches_from_scratch_rebuild(
        base in proptest::collection::vec(
            ((0u64..1000, 0u32..5, 0u64..1_000_000, -40i32..40),
             (0u64..1_000_000, -40i32..40, 0u64..1_000_000)),
            0..40,
        ),
        delta in proptest::collection::vec(
            ((0u64..1000, 0u32..5, 0u64..1_000_000, -40i32..40),
             (0u64..1_000_000, -40i32..40, 0u64..1_000_000)),
            0..40,
        ),
        psel in proptest::collection::vec(0u64..1_000_000, 5),
        mantissa in -40i32..40,
        chunks in 1usize..4,
    ) {
        let predicate = predicate_from(&psel, mantissa);
        let oracle = rebuilt(&base, &delta);

        // Incremental path: build, warm every read surface, append.
        let mut grown = rebuilt(&base, &[]);
        for attr in [Some("attr"), None] {
            grown.sample_view_with_sorted(attr, &predicate).unwrap();
        }
        for group_column in ["pred", "state"] {
            grown
                .grouped_sample_views_with_sorted(Some("attr"), &predicate, group_column)
                .unwrap();
        }
        append_in_chunks(&mut grown, &delta, chunks);
        assert_tables_equal(&grown, &oracle, &row_table(&base, &delta), &predicate)?;
    }

    /// Tentpole invariant at the catalog layer: interleaved
    /// append → query → append sequences served from re-frozen cache
    /// entries answer bit-for-bit what a cold catalog over the rebuilt
    /// table answers — corrections, diagnostics and recommendations
    /// included.
    #[test]
    fn interleaved_appends_keep_cached_answers_exact(
        base in proptest::collection::vec(
            ((0u64..1000, 0u32..5, 0u64..1_000_000, -40i32..40),
             (0u64..1_000_000, -40i32..40, 0u64..1_000_000)),
            1..30,
        ),
        delta in proptest::collection::vec(
            ((0u64..1000, 0u32..5, 0u64..1_000_000, -40i32..40),
             (0u64..1_000_000, -40i32..40, 0u64..1_000_000)),
            1..30,
        ),
        psel in proptest::collection::vec(0u64..1_000_000, 5),
        qsel in 0u64..1_000_000,
        mantissa in -40i32..40,
    ) {
        let query = query_from(qsel, predicate_from(&psel, mantissa));
        let mut catalog = Catalog::new();
        catalog.register(rebuilt(&base, &[])).unwrap();

        // Cold query populates the cache; every appended prefix must then
        // answer (through the re-frozen or rebuilt entry) exactly what a
        // fresh catalog over the same prefix answers cold.
        let _ = cached_rows(&catalog, &query);
        let split = delta.len() / 2;
        for (lo, hi) in [(0, split), (split, delta.len())] {
            let batch: Vec<_> = delta[lo..hi].iter().map(|row| record(row, true)).collect();
            catalog.append_observations("t", batch).unwrap();
            let served = cached_rows(&catalog, &query);

            let mut fresh = Catalog::new();
            fresh.register(rebuilt(&base, &delta[..hi])).unwrap();
            let expected = cached_rows(&fresh, &query);
            prop_assert_eq!(&served, &expected, "after appending rows ..{}", hi);
        }
    }
}

/// What the first full read of a re-frozen snapshot builds: every statistic
/// once, the value order never (the re-freeze carried it).
const FIRST_READ: ProfileMetrics = ProfileMetrics {
    sort_builds: 0,
    bucket_builds: 1,
    diagnostics_builds: 1,
    rank_builds: 1,
    species_builds: 1,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An append that nobody reads builds no statistic: after a chain of
    /// appends with no reads in between, every snapshot of each cached
    /// selection (ungrouped, and grouped with old and delta-born groups)
    /// reports zero builds. Its first read then answers bit for bit what a
    /// freeze of the rebuilt table answers, building each statistic once.
    #[test]
    fn unread_refreezes_build_nothing_until_their_first_read(
        base in proptest::collection::vec(
            ((0u64..1000, 0u32..5, 0u64..1_000_000, -40i32..40),
             (0u64..1_000_000, -40i32..40, 0u64..1_000_000)),
            1..30,
        ),
        delta in proptest::collection::vec(
            ((0u64..1000, 0u32..5, 0u64..1_000_000, -40i32..40),
             (0u64..1_000_000, -40i32..40, 0u64..1_000_000)),
            1..30,
        ),
        psel in proptest::collection::vec(0u64..1_000_000, 5),
        mantissa in -40i32..40,
        chunks in 1usize..4,
    ) {
        let predicate = predicate_from(&psel, mantissa);
        let queries = [
            AggregateQuery::sum("attr").filter(predicate.clone()).from("t"),
            AggregateQuery::sum("attr").filter(predicate.clone()).group_by("state").from("t"),
            AggregateQuery::count_star().filter(predicate).group_by("pred").from("t"),
        ];
        let mut catalog = Catalog::new();
        catalog.register(rebuilt(&base, &[])).unwrap();
        // Each universe before the appends, by group and size: a group of a
        // grouped selection that the delta never reaches is carried over as
        // it was, statistics built.
        let before: Vec<Vec<(String, usize)>> = queries
            .iter()
            .map(|query| {
                let (frozen, _) = catalog.selection_query(query).unwrap();
                frozen
                    .iter()
                    .map(|(group, snapshot)| (group.entity_key(), snapshot.view().items().len()))
                    .collect()
            })
            .collect();
        // Every delta row is a new entity, so no grouped selection falls
        // back to a rebuild.
        let appended: Vec<(u32, Vec<Value>)> = delta
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let (source, mut cells) = record(row, true);
                cells[0] = Value::from(format!("n{i}"));
                (source, cells)
            })
            .collect();
        for chunk in appended.chunks(appended.len().div_ceil(chunks)) {
            catalog.append_observations("t", chunk.to_vec()).unwrap();
        }
        let mut oracle = rebuilt(&base, &[]);
        for (source, cells) in appended {
            oracle.insert_observation(source, cells).unwrap();
        }

        let session = EstimationSession::all();
        for (query, before) in queries.iter().zip(&before) {
            let (served, hit) = catalog.selection_query(query).unwrap();
            prop_assert!(hit, "{} was re-frozen, not dropped", query);
            for (group, snapshot) in served.iter() {
                let carried = query.group_by.is_some()
                    && before.contains(&(group.entity_key(), snapshot.view().items().len()));
                let builds = if carried { FIRST_READ.total_builds() } else { 0 };
                prop_assert_eq!(snapshot.metrics().total_builds(), builds, "{} [{}]", query, group);
            }
            let fresh = freeze_selection(&oracle, query).unwrap();
            for method in [CorrectionMethod::Bucket, CorrectionMethod::Auto] {
                let got = results_from_selection(query, &served, method);
                let want = results_from_selection(query, &fresh, method);
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", query);
            }
            prop_assert_eq!(served.len(), fresh.len());
            for ((group, snapshot), (_, want)) in served.iter().zip(fresh.iter()) {
                prop_assert_eq!(
                    format!("{:?}", session.run_profiled(snapshot)),
                    format!("{:?}", session.run_profiled(want)),
                    "{} [{}]", query, group
                );
                prop_assert_eq!(snapshot.rank_multiplicities(), want.rank_multiplicities());
                prop_assert_eq!(snapshot.metrics(), FIRST_READ, "{} [{}]", query, group);
            }
        }
    }
}

/// Twelve base rows and eight delta rows; the delta re-observes base
/// entities (`e0`, `e3`, `e6`, `e9`) and adds new ones.
fn fixed_rows() -> (Vec<RowSel>, Vec<RowSel>) {
    let base = (0..12)
        .map(|i| {
            (
                (i, i as u32, i * 37, i as i32 - 6),
                (i * 61, i as i32, i * 13),
            )
        })
        .collect();
    let delta = (0..8)
        .map(|i| {
            (
                (i * 3, i as u32, i * 91, i as i32),
                (i * 17, 5 - i as i32, i * 7),
            )
        })
        .collect();
    (base, delta)
}

/// A re-observed member of a cached grouped selection cannot be placed
/// without per-group membership: the append drops that selection (a counted
/// fallback) and the next query rebuilds it, answering exactly what a cold
/// catalog over the rebuilt table answers.
#[test]
fn reobserved_member_of_a_cached_grouped_selection_falls_back_with_identical_answers() {
    let (base, delta) = fixed_rows();
    let query = AggregateQuery::sum("attr").group_by("state").from("t");
    let mut catalog = Catalog::new();
    catalog.register(rebuilt(&base, &[])).unwrap();
    let _ = cached_rows(&catalog, &query);
    let batch = delta.iter().map(|row| record(row, true)).collect();
    let (applied, refrozen) = catalog.append_observations("t", batch).unwrap();
    assert!(
        !applied.touched.is_empty(),
        "the delta re-observes base rows"
    );
    assert_eq!(
        refrozen, 0,
        "the grouped selection is dropped, not re-frozen"
    );
    let stats = catalog.incremental_stats();
    assert_eq!(stats.snapshots_refrozen, 0);
    assert_eq!(stats.fallback_rebuilds, 1);

    let mut fresh = Catalog::new();
    fresh.register(rebuilt(&base, &delta)).unwrap();
    assert_eq!(cached_rows(&catalog, &query), cached_rows(&fresh, &query));
}

/// A selection frozen on an empty table never evaluated its predicate, so
/// an unknown predicate column froze fine. Once rows arrive the predicate
/// stops evaluating: the append drops the selection (a counted fallback)
/// and the next query reports the error a cold catalog reports.
#[test]
fn unknown_predicate_column_frozen_on_an_empty_table_falls_back_with_identical_answers() {
    let (_, delta) = fixed_rows();
    let query = AggregateQuery::sum("attr")
        .filter(Predicate::cmp("missing", CmpOp::Eq, Value::Int(1)))
        .from("t");
    let mut catalog = Catalog::new();
    catalog.register(rebuilt(&[], &[])).unwrap();
    let _ = cached_rows(&catalog, &query);
    let batch = delta.iter().map(|row| record(row, true)).collect();
    let (_, refrozen) = catalog.append_observations("t", batch).unwrap();
    assert_eq!(refrozen, 0);
    let stats = catalog.incremental_stats();
    assert_eq!(stats.snapshots_refrozen, 0);
    assert_eq!(stats.fallback_rebuilds, 1);

    let mut fresh = Catalog::new();
    fresh.register(rebuilt(&[], &delta)).unwrap();
    let served = catalog.selection_query(&query).unwrap_err();
    assert_eq!(served, fresh.selection_query(&query).unwrap_err());
}

// ---------------------------------------------------------------------------
// Both server fronts
// ---------------------------------------------------------------------------

const BASE_CSV: &str = "\
worker,company,employees,state
0,A,1000,CA
0,B,2000,CA
0,D,10000,WA
1,B,2000,CA
1,D,10000,WA
2,D,10000,WA
3,D,10000,WA
4,A,1000,CA
4,E,300,CA
";

/// The delta re-observes existing entities (A, D), adds a new one (F) and
/// grows the state dictionary (TX was never seen at build time).
const DELTA_CSV: &str = "\
worker,company,employees,state
5,A,1000,CA
5,F,500,TX
6,D,10000,WA
6,F,500,TX
";

fn load_csv(addr: std::net::SocketAddr, csv: &str, append: bool) {
    let mut client = Client::connect(addr).unwrap();
    let response = client
        .request(&Request::LoadCsv(LoadCsvRequest {
            table: "companies".into(),
            columns: vec![
                ("company".into(), "str".into()),
                ("employees".into(), "float".into()),
                ("state".into(), "str".into()),
            ],
            entity_column: "company".into(),
            source_column: "worker".into(),
            csv: csv.into(),
            append,
        }))
        .unwrap();
    assert!(
        matches!(response, Response::Loaded { .. }),
        "{}",
        response.encode()
    );
}

/// Canonical text of a JSON-front reply: group keys plus the bit-exact
/// single-line rendering of every result.
fn canonical_groups(reply: &QueryReply) -> Vec<(String, String)> {
    reply
        .groups
        .iter()
        .map(|g| (format!("{:?}", g.key), g.result.canonical()))
        .collect()
}

const FRONT_SQLS: [&str; 3] = [
    "SELECT SUM(employees) FROM companies",
    "SELECT SUM(employees) FROM companies GROUP BY state",
    "SELECT AVG(employees) FROM companies WHERE employees < 5000",
];

/// Interleaved query → append → query against a live server must answer —
/// on **both** fronts — exactly what a server loaded with the combined
/// document from scratch answers, and the post-append queries must be
/// served from re-frozen cache entries.
#[test]
fn both_fronts_answer_identically_after_append_stream() {
    let config = ServerConfig {
        pgwire_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let grown = spawn(config).unwrap();
    load_csv(grown.addr(), BASE_CSV, false);

    // Warm both fronts before the append: the JSON queries populate the
    // profile cache, so the append has selections to re-freeze.
    let mut json = Client::connect(grown.addr()).unwrap();
    let mut pg = PgClient::connect(grown.pgwire_addr().unwrap()).unwrap();
    for sql in FRONT_SQLS {
        json.query(sql, &["bucket"], true).unwrap();
        pg.simple_query(sql).unwrap();
    }

    let outcome = json
        .append_stream("companies", "worker", DELTA_CSV)
        .unwrap();
    assert_eq!(outcome.observations, 4);
    assert_eq!(outcome.entities, 5, "A/B/D/E plus the new F");
    assert!(
        outcome.refrozen >= 1,
        "warm selections must re-freeze, not evict"
    );

    // The from-scratch oracle: a second server loaded with base + delta in
    // one document.
    let config = ServerConfig {
        pgwire_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let fresh = spawn(config).unwrap();
    load_csv(
        fresh.addr(),
        &format!("{BASE_CSV}5,A,1000,CA\n5,F,500,TX\n6,D,10000,WA\n6,F,500,TX\n"),
        false,
    );
    let mut fresh_json = Client::connect(fresh.addr()).unwrap();
    let mut fresh_pg = PgClient::connect(fresh.pgwire_addr().unwrap()).unwrap();

    for sql in FRONT_SQLS {
        let served = json.query(sql, &["bucket"], true).unwrap();
        let expected = fresh_json.query(sql, &["bucket"], true).unwrap();
        assert_eq!(
            canonical_groups(&served),
            canonical_groups(&expected),
            "json front: {sql}"
        );
        // Ungrouped selections re-freeze even with touched rows; the
        // grouped one saw its CA/WA members re-observed, which by design
        // falls back to a rebuild — so only the ungrouped queries are
        // guaranteed a warm hit.
        if !sql.contains("GROUP BY") {
            assert!(
                served.cache_hit,
                "re-frozen entry must serve the hit: {sql}"
            );
        }

        let pg_served = pg.simple_query(sql).unwrap();
        let pg_expected = fresh_pg.simple_query(sql).unwrap();
        assert_eq!(
            pg_served.columns, pg_expected.columns,
            "pgwire front: {sql}"
        );
        assert_eq!(pg_served.rows, pg_expected.rows, "pgwire front: {sql}");
    }

    // The incremental counters travelled the wire.
    let stats = json.stats().unwrap();
    assert_eq!(stats.incremental.delta_batches, 1);
    assert_eq!(stats.incremental.rows_appended, 4);
    assert_eq!(stats.incremental.snapshots_refrozen, outcome.refrozen);
    assert_eq!(
        stats.incremental.fallback_rebuilds, 1,
        "the grouped selection"
    );
    let fresh_stats = fresh_json.stats().unwrap();
    assert_eq!(fresh_stats.incremental.delta_batches, 0);

    grown.shutdown();
    fresh.shutdown();
}

/// A second `load_csv` with `append: true` rides the same delta path as
/// `append_stream` — counters advance and warm entries survive.
#[test]
fn appending_load_csv_routes_through_the_delta_path() {
    let handle = spawn(ServerConfig::default()).unwrap();
    load_csv(handle.addr(), BASE_CSV, false);
    let mut client = Client::connect(handle.addr()).unwrap();
    let before = client
        .query("SELECT SUM(employees) FROM companies", &["bucket"], true)
        .unwrap();
    assert!(!before.cache_hit);

    load_csv(handle.addr(), DELTA_CSV, true);
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.incremental.delta_batches, 1,
        "append load counted as a delta batch"
    );
    assert_eq!(stats.incremental.rows_appended, 4);

    let after = client
        .query("SELECT SUM(employees) FROM companies", &["bucket"], true)
        .unwrap();
    let observed = after.single().expect("ungrouped").observed;
    assert_eq!(observed, 13_800.0, "13300 + the new entity F (500)");
    assert_eq!(stats.incremental.snapshots_refrozen, 1);
    assert!(
        after.cache_hit,
        "re-frozen entry serves the post-append query"
    );
    handle.shutdown();
}
