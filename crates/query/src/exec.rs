//! Open-world query execution.
//!
//! Every query takes one route: its estimation universes (the whole
//! selection, or one per group of a `GROUP BY`) are frozen into a
//! [`CachedSelection`] of fully-warmed [`ProfileSnapshot`]s, and
//! [`results_from_selection`] answers the query from those snapshots. Each
//! answer is dual: the closed-world value a classical RDBMS would give over
//! the integrated table, and the value corrected for unknown unknowns with
//! the estimator selected by [`CorrectionMethod`]. SUM queries additionally
//! carry the §4 upper bound, MIN/MAX queries carry the §5 trust report, and
//! every result carries the §6.5 diagnostics and recommendation.
//!
//! The selection comes from one of two places:
//!
//! * [`freeze_selection`] builds it from the table without any cache — the
//!   route of [`execute_sql`] and of an uncached server query;
//! * [`selection`] consults a [`QueryProfileCache`] first (keyed by table
//!   version + predicate fingerprint + group key) and freezes only on a
//!   miss — the route of `Catalog::execute_sql` and of cached and prepared
//!   server queries.
//!
//! Universes are frozen and answered one after another on the calling
//! thread, in group order. A server gets its concurrency from its worker
//! pool, one request per worker, not from inside a query.

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::predicate::Predicate;
use crate::query::{AggregateFunction, AggregateQuery};
use crate::sql::{parse, ParseError};
use crate::table::{AppendDelta, IntegratedTable, TableError};
use crate::value::Value;
use uu_core::aggregates::{
    avg_estimate_profiled, max_report_profiled, min_report_profiled, ExtremeReport,
    EXTREME_TRUST_THRESHOLD,
};
use uu_core::bound::{sum_upper_bound, UpperBoundConfig};
use uu_core::engine::EstimatorKind;
use uu_core::montecarlo::MonteCarloConfig;
use uu_core::profile::{ProfileCache, ProfileKey, ProfileSnapshot};
use uu_core::recommend::{Diagnostics, Recommendation};
use uu_core::sample::{ObservedItem, SampleView};

/// One cached selection: every estimation universe of a (table state,
/// column, predicate, grouping) combination — a single `(Null, snapshot)`
/// pair for ungrouped queries, one pair per group value otherwise — plus
/// what [`refreeze_selection`] needs to absorb an append without a rebuild:
/// the query shape that defined the selection and, for ungrouped queries,
/// the row-membership bitmap at freeze time. Derefs to the snapshot slice,
/// so consumers index and iterate it like the plain vector it once was.
#[derive(Debug)]
pub struct CachedSelection {
    /// The aggregate column of the query, verbatim (`None` = `COUNT(*)`).
    column: Option<String>,
    /// The predicate whose truth (ANDed with attribute validity) decided
    /// membership.
    predicate: Predicate,
    /// The `GROUP BY` column, verbatim.
    group_by: Option<String>,
    /// Ungrouped selections: bit `i` set ⇔ table row `i` contributed an
    /// item, in table order (see
    /// [`IntegratedTable::selection_mask_bits`]). Empty for grouped
    /// selections, which re-derive delta membership per group instead.
    mask: Vec<u64>,
    /// One frozen universe per group (a single `Null`-keyed entry when
    /// ungrouped).
    snapshots: Vec<(Value, ProfileSnapshot)>,
}

impl CachedSelection {
    /// Rebuilds a selection from persisted parts — the durable store's
    /// recovery path. The parts must be exactly what the accessors of a
    /// live selection exported; the result is indistinguishable from the
    /// original freeze.
    pub fn from_parts(
        column: Option<String>,
        predicate: Predicate,
        group_by: Option<String>,
        mask: Vec<u64>,
        snapshots: Vec<(Value, ProfileSnapshot)>,
    ) -> CachedSelection {
        CachedSelection {
            column,
            predicate,
            group_by,
            mask,
            snapshots,
        }
    }

    /// The aggregate column of the defining query (`None` = `COUNT(*)`).
    pub fn column(&self) -> Option<&str> {
        self.column.as_deref()
    }

    /// The membership predicate of the defining query.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// The `GROUP BY` column of the defining query.
    pub fn group_by(&self) -> Option<&str> {
        self.group_by.as_deref()
    }

    /// The row-membership bitmap (ungrouped selections; empty otherwise).
    pub fn mask(&self) -> &[u64] {
        &self.mask
    }
}

impl Deref for CachedSelection {
    type Target = [(Value, ProfileSnapshot)];

    fn deref(&self) -> &Self::Target {
        &self.snapshots
    }
}

/// Shared handle to a [`CachedSelection`], the unit the profile cache
/// stores.
pub type SelectionSnapshots = Arc<CachedSelection>;

/// The cross-query profile cache consulted by [`selection`] (embedded in
/// `Catalog`).
pub type QueryProfileCache = ProfileCache<SelectionSnapshots>;

/// Which unknown-unknowns correction to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorrectionMethod {
    /// Closed-world only (no correction).
    None,
    /// Naïve estimator (§3.1).
    Naive,
    /// Frequency estimator (§3.2).
    Frequency,
    /// Dynamic bucket estimator (§3.3) — the paper's default recommendation.
    Bucket,
    /// Monte-Carlo estimator (§3.4) with explicit configuration.
    MonteCarlo(MonteCarloConfig),
    /// Follow the §6.5 policy: bucket when sources are plentiful and even,
    /// Monte-Carlo under streakers/few sources, nothing below the coverage
    /// gate.
    Auto,
}

/// Errors from query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The query references a different table than the one supplied.
    TableNameMismatch {
        /// Table the query names.
        requested: String,
        /// Table that was supplied.
        actual: String,
    },
    /// Schema/column/predicate problem.
    Table(TableError),
    /// SQL text failed to parse.
    Parse(ParseError),
    /// The referenced table is not registered (catalog dispatch).
    UnknownTable(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::TableNameMismatch { requested, actual } => {
                write!(f, "query targets table {requested:?} but got {actual:?}")
            }
            ExecError::Table(e) => write!(f, "{e}"),
            ExecError::Parse(e) => write!(f, "{e}"),
            ExecError::UnknownTable(name) => write!(f, "unknown table {name:?}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<TableError> for ExecError {
    fn from(e: TableError) -> Self {
        ExecError::Table(e)
    }
}

impl From<ParseError> for ExecError {
    fn from(e: ParseError) -> Self {
        ExecError::Parse(e)
    }
}

/// The dual closed-world / open-world answer.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The executed query, pretty-printed.
    pub query: String,
    /// Closed-world answer over the integrated table. For AVG/MIN/MAX over an
    /// empty selection this is `NaN` (SQL would return NULL).
    pub observed: f64,
    /// Unknown-unknowns-corrected answer; `None` when no correction was
    /// requested, the estimator is undefined for this sample, or the Auto
    /// policy withheld the estimate (coverage below 40%).
    pub corrected: Option<f64>,
    /// Name of the estimator that produced `corrected`.
    pub method: &'static str,
    /// Estimated population richness `N̂` where applicable.
    pub n_hat: Option<f64>,
    /// §4 upper bound on the ground-truth SUM (SUM queries only).
    pub upper_bound: Option<f64>,
    /// §5 trust report (MIN/MAX queries only).
    pub extreme: Option<ExtremeReport>,
    /// §6.5 sample diagnostics.
    pub diagnostics: Diagnostics,
    /// §6.5 estimator recommendation.
    pub recommendation: Recommendation,
}

impl CorrectionMethod {
    /// Lowers the method onto the engine registry: the [`EstimatorKind`] to
    /// build, or `None` for no correction. [`CorrectionMethod::Auto`] must be
    /// resolved through [`CorrectionMethod::resolve_auto`] first.
    fn kind(self) -> Option<EstimatorKind> {
        match self {
            CorrectionMethod::None => None,
            CorrectionMethod::Naive => Some(EstimatorKind::Naive),
            CorrectionMethod::Frequency => Some(EstimatorKind::Frequency),
            CorrectionMethod::Bucket => Some(EstimatorKind::Bucket),
            CorrectionMethod::MonteCarlo(cfg) => Some(EstimatorKind::MonteCarlo(cfg)),
            CorrectionMethod::Auto => unreachable!("Auto is resolved before this point"),
        }
    }

    /// Resolves `Auto` against the §6.5 recommendation (derived from the
    /// universe's memoized diagnostics); the flag reports whether the
    /// estimate was withheld by the coverage gate.
    fn resolve_auto(self, profile: &ProfileSnapshot) -> (CorrectionMethod, bool) {
        match self {
            CorrectionMethod::Auto => match profile.recommendation() {
                Recommendation::Bucket => (CorrectionMethod::Bucket, false),
                Recommendation::MonteCarlo => (
                    CorrectionMethod::MonteCarlo(MonteCarloConfig::default()),
                    false,
                ),
                Recommendation::CollectMoreData => (CorrectionMethod::None, true),
            },
            m => (m, false),
        }
    }
}

fn check_table(table: &IntegratedTable, query: &AggregateQuery) -> Result<(), ExecError> {
    if !query.table.eq_ignore_ascii_case(table.name()) {
        return Err(ExecError::TableNameMismatch {
            requested: query.table.clone(),
            actual: table.name().to_string(),
        });
    }
    Ok(())
}

/// One result row of a query: one per group of a `GROUP BY`, or a single
/// `Null`-keyed row for an ungrouped query.
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// The group's key value.
    pub key: crate::value::Value,
    /// The corrected aggregate over this group's estimation universe
    /// (entities satisfying the predicate with this group value).
    pub result: QueryResult,
}

/// Canonical predicate fingerprint for cache keys: column names are
/// lower-cased (predicate evaluation is case-insensitive on columns, so
/// `WHERE X = 1` and `WHERE x = 1` denote the same universe), literals and
/// operators render explicitly. Unlike a `Debug` dump, the format is owned
/// by this function, so derive-output churn can't silently change cache
/// identities.
fn predicate_fingerprint(p: &crate::predicate::Predicate) -> String {
    use crate::predicate::Predicate;
    match p {
        Predicate::True => "true".to_string(),
        Predicate::Cmp { column, op, value } => {
            format!("({} {op} {value:?})", column.to_ascii_lowercase())
        }
        Predicate::And(a, b) => format!(
            "(and {} {})",
            predicate_fingerprint(a),
            predicate_fingerprint(b)
        ),
        Predicate::Or(a, b) => format!(
            "(or {} {})",
            predicate_fingerprint(a),
            predicate_fingerprint(b)
        ),
        Predicate::Not(inner) => format!("(not {})", predicate_fingerprint(inner)),
    }
}

/// The cache identity of a query's estimation universes over one table
/// state. Everything that shapes the [`SampleView`]s enters the key; the
/// aggregate function and the correction method don't (they consume the
/// cached statistics, they don't change them).
fn profile_key(table: &IntegratedTable, query: &AggregateQuery) -> ProfileKey {
    ProfileKey {
        table: table.name().to_ascii_lowercase(),
        instance: table.instance(),
        version: table.version(),
        column: query.column.as_deref().map(str::to_ascii_lowercase),
        predicate: predicate_fingerprint(&query.predicate),
        group_by: query.group_by.as_deref().map(str::to_ascii_lowercase),
    }
}

/// The cache identity of an existing selection against `table`'s *current*
/// state — the key a query of the same shape would get, rebuilt from the
/// selection's own query shape instead of a parsed query. Recovery uses this to re-insert persisted
/// selections under the restored table's fresh instance id.
pub fn selection_key(table: &IntegratedTable, selection: &CachedSelection) -> ProfileKey {
    ProfileKey {
        table: table.name().to_ascii_lowercase(),
        instance: table.instance(),
        version: table.version(),
        column: selection.column.as_deref().map(str::to_ascii_lowercase),
        predicate: predicate_fingerprint(&selection.predicate),
        group_by: selection.group_by.as_deref().map(str::to_ascii_lowercase),
    }
}

/// The accounted cache weight of a selection: the summed approximate byte
/// footprint of its per-universe snapshots. This is what the byte-budget
/// mode of [`QueryProfileCache`] sizes evictions with.
pub fn selection_bytes(selection: &SelectionSnapshots) -> usize {
    std::mem::size_of_val(selection.mask.as_slice())
        + selection
            .iter()
            .map(|(group, snapshot)| {
                snapshot.approx_bytes()
                    + match group {
                        crate::value::Value::Str(s) => s.len(),
                        _ => 0,
                    }
            })
            .sum::<usize>()
}

/// The query's estimation universes as cached snapshots, plus whether they
/// were served from `cache` (`true` = hit). On a miss the selection is
/// frozen by [`freeze_selection`] and inserted with its byte weight
/// ([`selection_bytes`]).
///
/// This is the public fetch-once surface for server frontends: fetch the
/// selection, derive the corrected aggregate *and* any per-estimator session
/// fan-out from the same snapshots, and pre-warm hot queries without
/// computing an aggregate at all.
pub fn selection(
    table: &IntegratedTable,
    query: &AggregateQuery,
    cache: &QueryProfileCache,
) -> Result<(SelectionSnapshots, bool), ExecError> {
    // The span covers the whole fetch: a hit is a bare map lookup, a miss
    // additionally carries the build + freeze (whose kernels appear as
    // child spans in a trace).
    let _span = uu_core::obs::span(uu_core::obs::Stage::CacheProbe);
    let key = profile_key(table, query);
    if let Some(hit) = cache.get(&key) {
        return Ok((hit, true));
    }
    let selection = freeze_selection(table, query)?;
    cache.insert_weighted(key, Arc::clone(&selection), selection_bytes(&selection));
    Ok((selection, false))
}

/// Builds the query's estimation universes from the table and freezes them
/// (one fully-warmed [`ProfileSnapshot`] per universe, in group order)
/// without consulting any cache — the miss body of
/// [`selection`], and the whole of an uncached server query.
pub fn freeze_selection(
    table: &IntegratedTable,
    query: &AggregateQuery,
) -> Result<SelectionSnapshots, ExecError> {
    // Ungrouped selections remember their row membership (the bitmap their
    // view was built from) so a later append can extend it instead of
    // rescanning; grouped selections re-derive delta membership per group
    // at refreeze time.
    let (universes, mask) = match query.group_by.as_deref() {
        Some(group_column) => (
            table.grouped_sample_views_with_sorted(
                query.column.as_deref(),
                &query.predicate,
                group_column,
            )?,
            Vec::new(),
        ),
        None => {
            let (view, sorted, mask) = table
                .sample_view_with_sorted_and_mask(query.column.as_deref(), &query.predicate)?;
            (vec![(crate::value::Value::Null, view, sorted)], mask)
        }
    };
    let snapshots = universes
        .into_iter()
        .map(|(group, view, sorted)| (group, ProfileSnapshot::capture_presorted(view, sorted)))
        .collect();
    Ok(Arc::new(CachedSelection {
        column: query.column.clone(),
        predicate: query.predicate.clone(),
        group_by: query.group_by.clone(),
        mask,
        snapshots,
    }))
}

/// Re-freezes a cached selection after an append, from the delta rows
/// alone: touched rows bump their items' multiplicities in place, delta
/// rows passing the predicate become new items (appended at the end of
/// their universe, where a rebuild would put them), and every affected
/// snapshot's statistics re-freeze through
/// [`ProfileSnapshot::refreeze`]. Returns `None` when the selection cannot
/// be maintained incrementally — the predicate no longer evaluates, or a
/// grouped selection had a touched row inside it — in which case the caller
/// drops the entry and the next query rebuilds. A `Some` result is
/// bit-for-bit what a from-scratch freeze at the new version would produce.
pub fn refreeze_selection(
    table: &IntegratedTable,
    selection: &CachedSelection,
    delta: &AppendDelta,
) -> Option<CachedSelection> {
    let schema = table.schema();
    let attr_idx = match &selection.column {
        Some(name) => Some(schema.index_of(name)?),
        None => None,
    };
    match selection.group_by.clone() {
        None => refreeze_ungrouped(table, selection, delta, attr_idx),
        Some(group_column) => refreeze_grouped(table, selection, delta, attr_idx, &group_column),
    }
}

/// Number of set bits strictly before `row` — a member row's item index.
fn popcount_before(mask: &[u64], row: usize) -> usize {
    let w = row / 64;
    mask[..w]
        .iter()
        .map(|x| x.count_ones() as usize)
        .sum::<usize>()
        + (mask[w] & ((1u64 << (row % 64)) - 1)).count_ones() as usize
}

/// The rows of `rows` that `predicate` selects and whose attribute is
/// non-NULL, each with its item, by scalar predicate evaluation over the
/// records built from the columns (parity with the vectorized kernels is
/// pinned by the columnar suite). `None` when the predicate no longer
/// evaluates — e.g. it referenced an unknown column and the table was empty
/// at freeze time: the query path then surfaces the error.
fn selected_items(
    table: &IntegratedTable,
    predicate: &Predicate,
    attr_idx: Option<usize>,
    rows: impl IntoIterator<Item = usize>,
) -> Option<Vec<(usize, ObservedItem)>> {
    let mut out = Vec::new();
    for row in rows {
        if predicate.eval(table.schema(), &table.record_at(row)).ok()? {
            out.extend(table.columns().item(row, attr_idx).map(|item| (row, item)));
        }
    }
    Some(out)
}

fn refreeze_ungrouped(
    table: &IntegratedTable,
    selection: &CachedSelection,
    delta: &AppendDelta,
    attr_idx: Option<usize>,
) -> Option<CachedSelection> {
    let (group, snapshot) = selection.snapshots.first()?;
    // Re-observed rows: their records (hence values and membership) are
    // unchanged, only the lineage grew. The stored mask locates each row's
    // item by popcount.
    let mut bumps = Vec::new();
    for &row in &delta.touched {
        let row = row as usize;
        if crate::columnar::bit(&selection.mask, row) {
            bumps.push((
                popcount_before(&selection.mask, row),
                table.columns().item(row, attr_idx)?,
            ));
        }
    }
    // Delta rows extend the membership mask.
    let rows = delta.rows_before..delta.rows_after;
    let appended = selected_items(table, &selection.predicate, attr_idx, rows)?;
    let mut mask = selection.mask.clone();
    mask.resize(delta.rows_after.div_ceil(64), 0);
    for &(row, _) in &appended {
        mask[row / 64] |= 1 << (row % 64);
    }
    let refrozen = snapshot.refreeze(&bumps, appended.into_iter().map(|(_, item)| item).collect());
    Some(CachedSelection {
        column: selection.column.clone(),
        predicate: selection.predicate.clone(),
        group_by: None,
        mask,
        snapshots: vec![(group.clone(), refrozen)],
    })
}

fn refreeze_grouped(
    table: &IntegratedTable,
    selection: &CachedSelection,
    delta: &AppendDelta,
    attr_idx: Option<usize>,
    group_column: &str,
) -> Option<CachedSelection> {
    let group_idx = table.schema().index_of(group_column)?;
    let predicate = &selection.predicate;
    // A touched row *inside* the selection would bump a multiplicity in the
    // middle of some group's item list; grouped selections store no
    // per-group membership, so that case falls back to a rebuild.
    let touched = delta.touched.iter().map(|&row| row as usize);
    if !selected_items(table, predicate, attr_idx, touched)?.is_empty() {
        return None;
    }
    // Route each selected delta row to its group by entity key — the exact
    // identity the grouped build keys on.
    let mut by_key: HashMap<String, (bool, usize)> = HashMap::new();
    for (i, (value, _)) in selection.snapshots.iter().enumerate() {
        by_key.insert(value.entity_key(), (false, i));
    }
    let mut existing_appends: Vec<Vec<ObservedItem>> = vec![Vec::new(); selection.snapshots.len()];
    let mut new_groups: Vec<(Value, Vec<ObservedItem>)> = Vec::new();
    let rows = delta.rows_before..delta.rows_after;
    for (row, item) in selected_items(table, predicate, attr_idx, rows)? {
        let group_value = table.columns().cell(group_idx, row);
        match by_key.get(&group_value.entity_key()) {
            Some(&(false, i)) => existing_appends[i].push(item),
            Some(&(true, i)) => new_groups[i].1.push(item),
            None => {
                by_key.insert(group_value.entity_key(), (true, new_groups.len()));
                new_groups.push((group_value, vec![item]));
            }
        }
    }
    let mut snapshots: Vec<(Value, ProfileSnapshot)> = selection
        .snapshots
        .iter()
        .zip(existing_appends)
        .map(|((value, snapshot), appended)| {
            if appended.is_empty() {
                (value.clone(), snapshot.clone())
            } else {
                // Delta rows carry the highest row indices, so a rebuild
                // would place their items at the end of the group — exactly
                // where refreeze appends them.
                (value.clone(), snapshot.refreeze(&[], appended))
            }
        })
        .collect();
    for (value, items) in new_groups {
        // A group born entirely from the delta freezes from scratch — it is
        // exact by construction, not an approximation.
        let mut sorted: Vec<u32> = (0..items.len() as u32).collect();
        sorted.sort_by(|&a, &b| items[a as usize].value.total_cmp(&items[b as usize].value));
        let view = SampleView::from_observed_items(items);
        snapshots.push((value, ProfileSnapshot::capture_presorted(view, sorted)));
    }
    // Existing groups are already in entity-key order; a stable sort slots
    // the new ones in, matching the grouped build's output order.
    snapshots.sort_by_key(|(value, _)| value.entity_key());
    Some(CachedSelection {
        column: selection.column.clone(),
        predicate: selection.predicate.clone(),
        group_by: Some(group_column.to_string()),
        mask: Vec::new(),
        snapshots,
    })
}

/// Evaluates `query` over an already-fetched selection (see [`selection`]),
/// one [`GroupResult`] per universe in selection order (a single
/// `Null`-keyed row for ungrouped queries). This is the answer step of every
/// query route — callers that fetched the selection themselves (e.g. a
/// server that also fans an estimation session over the same snapshots)
/// get identical results without a second cache lookup.
pub fn results_from_selection(
    query: &AggregateQuery,
    snapshots: &SelectionSnapshots,
    method: CorrectionMethod,
) -> Vec<GroupResult> {
    let group_column = query.group_by.as_deref();
    snapshots
        .iter()
        .map(|(key, snapshot)| {
            let label = match group_column {
                Some(group_column) => format!("{query} [{group_column} = {key}]"),
                None => query.to_string(),
            };
            let result = universe_result(label, query.agg, snapshot, method);
            GroupResult {
                key: key.clone(),
                result,
            }
        })
        .collect()
}

/// Computes the dual answer for one estimation universe from its frozen
/// snapshot, sharing the snapshot's memoized statistics between the
/// correction, the §5 strategies and the result metadata.
fn universe_result(
    query_display: String,
    agg: AggregateFunction,
    profile: &ProfileSnapshot,
    method: CorrectionMethod,
) -> QueryResult {
    let view = profile.view();
    let diagnostics = profile.diagnostics();
    let recommendation = profile.recommendation();

    let (method, withheld) = method.resolve_auto(profile);

    let mut result = QueryResult {
        query: query_display,
        observed: f64::NAN,
        corrected: None,
        method: if withheld {
            "withheld(coverage<40%)"
        } else {
            "none"
        },
        n_hat: None,
        upper_bound: None,
        extreme: None,
        diagnostics,
        recommendation,
    };

    match agg {
        AggregateFunction::Sum => {
            result.observed = view.observed_sum();
            result.upper_bound =
                sum_upper_bound(view, UpperBoundConfig::default()).map(|b| b.phi_d_bound);
            if let Some(kind) = method.kind() {
                let est = kind.build();
                let d = est.estimate_delta_profiled(profile);
                result.corrected = d.delta.map(|delta| view.observed_sum() + delta);
                result.n_hat = d.n_hat;
                result.method = est.name();
            }
        }
        AggregateFunction::Count => {
            result.observed = view.c() as f64;
            let n_hat = method.kind().and_then(|kind| {
                result.method = kind.count_method_name();
                kind.estimate_count_profiled(profile)
            });
            result.corrected = n_hat;
            result.n_hat = n_hat;
        }
        AggregateFunction::Avg => {
            result.observed = view.mean_value().unwrap_or(f64::NAN);
            if method != CorrectionMethod::None {
                // Only the bucket approach moves AVG off the observed value
                // (§5); all other estimators reproduce the observed mean.
                if let Some(avg) = avg_estimate_profiled(profile) {
                    result.corrected = Some(avg.corrected);
                    result.method = "bucket-avg";
                }
            }
        }
        AggregateFunction::Min | AggregateFunction::Max => {
            let is_max = agg == AggregateFunction::Max;
            result.observed = if is_max {
                view.max_value().unwrap_or(f64::NAN)
            } else {
                view.min_value().unwrap_or(f64::NAN)
            };
            if method != CorrectionMethod::None {
                let report = if is_max {
                    max_report_profiled(profile, EXTREME_TRUST_THRESHOLD)
                } else {
                    min_report_profiled(profile, EXTREME_TRUST_THRESHOLD)
                };
                if let Some(r) = report {
                    // An endorsed extreme is the corrected answer; an
                    // unendorsed one stays observation-only.
                    if r.is_trusted() {
                        result.corrected = Some(r.observed());
                    }
                    result.extreme = Some(r);
                    result.method = "bucket-extreme";
                }
            }
        }
    }
    result
}

/// Parses `sql` and answers it against `table` without consulting any
/// cache: the selection is frozen from the table ([`freeze_selection`]) and
/// answered by [`results_from_selection`]. One [`GroupResult`] per group in
/// group order; an ungrouped query gets a single `Null`-keyed row.
pub fn execute_sql(
    table: &IntegratedTable,
    sql: &str,
    method: CorrectionMethod,
) -> Result<Vec<GroupResult>, ExecError> {
    let query = parse(sql)?;
    check_table(table, &query)?;
    let snapshots = freeze_selection(table, &query)?;
    Ok(results_from_selection(&query, &snapshots, method))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::value::Value;

    /// Answers an ungrouped query and returns its single `Null`-keyed row.
    fn one(t: &IntegratedTable, sql: &str, method: CorrectionMethod) -> QueryResult {
        let mut rows = execute_sql(t, sql, method).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].key.is_null());
        rows.pop().unwrap().result
    }

    /// The toy example table (Appendix F), after s5 = {A, E}.
    fn toy_table() -> IntegratedTable {
        let schema = Schema::new([
            ("company", ColumnType::Str),
            ("employees", ColumnType::Float),
        ]);
        let mut t = IntegratedTable::new("companies", schema, "company").unwrap();
        let observations: [(u32, &str, f64); 9] = [
            (0, "A", 1000.0),
            (0, "B", 2000.0),
            (0, "D", 10_000.0),
            (1, "B", 2000.0),
            (1, "D", 10_000.0),
            (2, "D", 10_000.0),
            (3, "D", 10_000.0),
            (4, "A", 1000.0),
            (4, "E", 300.0),
        ];
        for (src, name, emp) in observations {
            t.insert_observation(src, vec![Value::from(name), Value::from(emp)])
                .unwrap();
        }
        t
    }

    #[test]
    fn sum_with_all_estimators_matches_table2() {
        let t = toy_table();
        let sql = "SELECT SUM(employees) FROM companies";
        let naive = one(&t, sql, CorrectionMethod::Naive);
        assert_eq!(naive.observed, 13_300.0);
        assert!((naive.corrected.unwrap() - 14_962.5).abs() < 1e-6);
        let freq = one(&t, sql, CorrectionMethod::Frequency);
        assert!((freq.corrected.unwrap() - 13_450.0).abs() < 1e-6);
        let bucket = one(&t, sql, CorrectionMethod::Bucket);
        assert!((bucket.corrected.unwrap() - 13_950.0).abs() < 1e-6);
    }

    #[test]
    fn none_method_reports_observed_only() {
        let t = toy_table();
        let r = one(
            &t,
            "SELECT SUM(employees) FROM companies",
            CorrectionMethod::None,
        );
        assert_eq!(r.observed, 13_300.0);
        assert_eq!(r.corrected, None);
        assert_eq!(r.method, "none");
    }

    #[test]
    fn count_estimates() {
        let t = toy_table();
        let sql = "SELECT COUNT(*) FROM companies";
        let r = one(&t, sql, CorrectionMethod::Naive);
        assert_eq!(r.observed, 4.0);
        assert!((r.corrected.unwrap() - 4.5).abs() < 1e-9); // Chao92
    }

    #[test]
    fn avg_is_corrected_downwards_here() {
        let t = toy_table();
        let r = one(
            &t,
            "SELECT AVG(employees) FROM companies",
            CorrectionMethod::Bucket,
        );
        assert!((r.observed - 3325.0).abs() < 1e-9);
        assert!(r.corrected.unwrap() < r.observed);
    }

    #[test]
    fn max_trusted_min_not() {
        let t = toy_table();
        let max = one(
            &t,
            "SELECT MAX(employees) FROM companies",
            CorrectionMethod::Bucket,
        );
        assert_eq!(max.observed, 10_000.0);
        assert_eq!(max.corrected, Some(10_000.0));
        assert!(max.extreme.unwrap().is_trusted());

        let min = one(
            &t,
            "SELECT MIN(employees) FROM companies",
            CorrectionMethod::Bucket,
        );
        assert_eq!(min.observed, 300.0);
        assert_eq!(
            min.corrected, None,
            "incomplete low bucket must not be endorsed"
        );
        assert!(!min.extreme.unwrap().is_trusted());
    }

    #[test]
    fn predicates_narrow_the_estimation_universe() {
        let t = toy_table();
        let r = one(
            &t,
            "SELECT SUM(employees) FROM companies WHERE employees < 5000",
            CorrectionMethod::Naive,
        );
        assert_eq!(r.observed, 3300.0);
        // c = 3 (A, B, E), n = 5, f1 = 1 (E).
        assert!(r.corrected.unwrap() > r.observed);
    }

    #[test]
    fn table_name_is_checked() {
        let t = toy_table();
        let err = execute_sql(
            &t,
            "SELECT SUM(employees) FROM wrong",
            CorrectionMethod::None,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::TableNameMismatch { .. }));
    }

    #[test]
    fn parse_and_schema_errors_propagate() {
        let t = toy_table();
        assert!(matches!(
            execute_sql(&t, "SELEKT", CorrectionMethod::None),
            Err(ExecError::Parse(_))
        ));
        assert!(matches!(
            execute_sql(
                &t,
                "SELECT SUM(nope) FROM companies",
                CorrectionMethod::None
            ),
            Err(ExecError::Table(TableError::UnknownColumn(_)))
        ));
    }

    #[test]
    fn auto_resolves_to_monte_carlo_for_few_sources() {
        // Only 2 sources ⇒ policy says Monte-Carlo (needs high coverage to
        // get past the gate, so observe everything twice).
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        for src in 0..2u32 {
            for i in 0..10 {
                t.insert_observation(
                    src,
                    vec![Value::from(format!("e{i}")), Value::from(i as f64)],
                )
                .unwrap();
            }
        }
        let r = one(&t, "SELECT SUM(v) FROM t", CorrectionMethod::Auto);
        assert_eq!(r.recommendation, Recommendation::MonteCarlo);
        assert_eq!(r.method, "monte-carlo");
    }

    #[test]
    fn auto_withholds_below_coverage_gate() {
        // All singletons: coverage 0 ⇒ Auto refuses to correct.
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        for i in 0..10 {
            t.insert_observation(
                i % 6,
                vec![Value::from(format!("e{i}")), Value::from(i as f64)],
            )
            .unwrap();
        }
        let r = one(&t, "SELECT SUM(v) FROM t", CorrectionMethod::Auto);
        assert_eq!(r.corrected, None);
        assert_eq!(r.method, "withheld(coverage<40%)");
        assert_eq!(r.recommendation, Recommendation::CollectMoreData);
    }

    #[test]
    fn upper_bound_attached_to_sums_when_defined() {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        for src in 0..8u32 {
            for i in 0..60 {
                t.insert_observation(
                    src,
                    vec![Value::from(format!("e{i}")), Value::from(i as f64)],
                )
                .unwrap();
            }
        }
        let r = one(&t, "SELECT SUM(v) FROM t", CorrectionMethod::Bucket);
        let bound = r.upper_bound.expect("bound defined for n=480");
        assert!(bound >= r.observed);
        assert!(bound >= r.corrected.unwrap());
    }

    #[test]
    fn empty_selection_yields_nan_for_avg() {
        let t = toy_table();
        let r = one(
            &t,
            "SELECT AVG(employees) FROM companies WHERE employees > 99999",
            CorrectionMethod::Bucket,
        );
        assert!(r.observed.is_nan());
        assert_eq!(r.corrected, None);
    }

    #[test]
    fn grouped_execution_partitions_the_universe() {
        // Re-create the toy table with a state column so grouping is useful.
        let schema = Schema::new([
            ("company", ColumnType::Str),
            ("employees", ColumnType::Float),
            ("state", ColumnType::Str),
        ]);
        let mut t = IntegratedTable::new("companies", schema, "company").unwrap();
        let rows: [(u32, &str, f64, &str); 9] = [
            (0, "A", 1000.0, "CA"),
            (0, "B", 2000.0, "CA"),
            (0, "D", 10_000.0, "WA"),
            (1, "B", 2000.0, "CA"),
            (1, "D", 10_000.0, "WA"),
            (2, "D", 10_000.0, "WA"),
            (3, "D", 10_000.0, "WA"),
            (4, "A", 1000.0, "CA"),
            (4, "E", 300.0, "CA"),
        ];
        for (src, name, emp, state) in rows {
            t.insert_observation(
                src,
                vec![Value::from(name), Value::from(emp), Value::from(state)],
            )
            .unwrap();
        }
        let groups = execute_sql(
            &t,
            "SELECT SUM(employees) FROM companies GROUP BY state",
            CorrectionMethod::Naive,
        )
        .unwrap();
        assert_eq!(groups.len(), 2);
        let ca = &groups[0];
        assert_eq!(ca.key, Value::from("CA"));
        assert_eq!(ca.result.observed, 3300.0);
        // CA group: A:2, B:2, E:1 → n=5, c=3, f1=1, Chao92 defined.
        assert!(ca.result.corrected.unwrap() > 3300.0);
        let wa = &groups[1];
        assert_eq!(wa.key, Value::from("WA"));
        assert_eq!(wa.result.observed, 10_000.0);
        // WA group: only D, seen 4 times — complete, Δ = 0.
        assert_eq!(wa.result.corrected, Some(10_000.0));
        // The group label names the group.
        assert!(
            ca.result.query.contains("state = 'CA'"),
            "{}",
            ca.result.query
        );
    }

    #[test]
    fn ungrouped_query_through_grouped_exec_is_a_single_null_group() {
        let t = toy_table();
        let groups = execute_sql(
            &t,
            "SELECT SUM(employees) FROM companies",
            CorrectionMethod::Bucket,
        )
        .unwrap();
        assert_eq!(groups.len(), 1);
        assert!(groups[0].key.is_null());
        assert!((groups[0].result.corrected.unwrap() - 13_950.0).abs() < 1e-6);
    }
}
