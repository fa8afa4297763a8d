//! The traced run's per-layer timings. Spans come from this file, around
//! calls into each layer's public functions, replaying the operations the
//! workload sent over the wire on in-process twins: the service twin's
//! `Service::dispatch` and codec, and a layer twin (`Catalog` + `Store`)
//! for the query, core and store layers.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use uu_core::engine::{EstimationSession, EstimatorKind};
use uu_core::profile::ProfileSnapshot;
use uu_core::sample::ObservedItem;
use uu_core::DynamicBucketEstimator;
use uu_query::csv::parse_observations;
use uu_query::exec::{refreeze_selection, CachedSelection};
use uu_query::sql::parse;
use uu_query::{Catalog, ColumnType, IntegratedTable, Schema};
use uu_server::protocol::Request;
use uu_server::server::{ServerConfig, DEFAULT_CHECKPOINT_BYTES, DEFAULT_CHECKPOINT_ROWS};
use uu_stats::species::SpeciesCache;
use uu_store::{FsyncPolicy, Store};

use crate::data::{Selection, ESTIMATORS};
use crate::report::{median, Run};
use crate::server::{copy_dir, framed};
use crate::trace::Tracer;
use crate::workloads::{TracedOp, Twin};

/// Service-twin requests replayed per traced run.
const SERVICE_REPLAY_CAP: usize = 2_000;
/// Distinct selections replayed through the query and core layers.
const SELECTION_REPLAY_CAP: usize = 64;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replays traced requests on the service twin: server-side decode,
/// `Service::dispatch` and encode per request. The transport residual is
/// the client's socket round trip minus the service time the server
/// reported for that request and the server-side codec.
pub fn service_replay(
    run: &mut Run,
    tr: &mut Tracer,
    twin: &mut Twin,
    sels: &[Selection],
    traced: &[TracedOp],
) {
    let lines: Vec<String> = sels.iter().map(|s| framed(&s.request)).collect();
    let (mut residual, mut codec, mut dispatch) = (Vec::new(), Vec::new(), Vec::new());
    let (mut covered, mut total) = (0.0, 0.0);
    for op in traced.iter().take(SERVICE_REPLAY_CAP) {
        let line = lines[op.sel].trim_end();
        let rid = tr.spans.len() as u64;
        let root = tr.open("service.request", rid, None);
        let (request, dec) = tr.time("protocol.server_decode", rid, Some(root), || {
            Request::decode(line).expect("the benchmark's own request decodes")
        });
        let (response, disp) = tr.time("service.dispatch", rid, Some(root), || {
            twin.service.dispatch(&mut twin.ctx, request)
        });
        let (encoded, enc) = tr.time("protocol.server_encode", rid, Some(root), || {
            response.encode()
        });
        tr.close(root);
        black_box(encoded);
        residual.push(op.rtt_us - op.server_us - dec - enc);
        codec.push(op.codec_us + dec + enc);
        dispatch.push(disp);
        covered += op.codec_us + dec + enc + op.server_us;
        total += op.latency_us;
    }
    run.set("transport.residual_us", median(&mut residual));
    run.set("protocol.codec_us", median(&mut codec));
    run.set("service.dispatch_us", median(&mut dispatch));
    run.set("trace.layer_coverage", covered / total);
}

/// The layer twin: a bare `Catalog` and a `Store` in a scratch directory,
/// driven through the same batches and selections as the server.
pub struct LayerTwin {
    catalog: Catalog,
    store: Store,
    csv_parse: Vec<f64>,
    wal_append: Vec<f64>,
    append_batch: Vec<f64>,
    refreeze: Vec<f64>,
    checkpoint: Vec<f64>,
}

impl LayerTwin {
    pub fn new(dir: &Path) -> Result<LayerTwin, String> {
        let _ = std::fs::remove_dir_all(dir);
        Ok(LayerTwin {
            catalog: Catalog::with_cache(ServerConfig::default().build_cache()),
            store: Store::open(
                dir,
                FsyncPolicy::Batch,
                DEFAULT_CHECKPOINT_ROWS,
                DEFAULT_CHECKPOINT_BYTES,
            )
            .map_err(err)?,
            csv_parse: Vec::new(),
            wal_append: Vec::new(),
            append_batch: Vec::new(),
            refreeze: Vec::new(),
            checkpoint: Vec::new(),
        })
    }

    /// Replays ingest requests: fresh loads build the table untimed; each
    /// append is timed per layer — CSV parse, WAL append, the table's
    /// `append_batch`, `refreeze_selection` of every `cached` selection, and
    /// the checkpoint when its trigger fires. The twin's checkpoints carry no
    /// cached selections (the cache is bypassed), so they are slightly
    /// smaller than the server's.
    pub fn replay_ingest(
        &mut self,
        tr: &mut Tracer,
        batches: &[Request],
        cached: &[Selection],
    ) -> Result<(), String> {
        let mut sels: Vec<Arc<CachedSelection>> = Vec::new();
        for sel in cached {
            let query = parse(&sel.sql).map_err(err)?;
            let table = self.catalog.get(&query.table).ok_or("unknown table")?;
            let (selection, _) =
                uu_query::exec::selection(table, &query, self.catalog.cache()).map_err(err)?;
            sels.push(selection);
        }
        for request in batches {
            match request {
                Request::LoadCsv(load) => {
                    let columns: Vec<(String, ColumnType)> = load
                        .columns
                        .iter()
                        .map(|(name, ty)| {
                            let ty = match ty.as_str() {
                                "int" => ColumnType::Int,
                                "float" => ColumnType::Float,
                                _ => ColumnType::Str,
                            };
                            (name.clone(), ty)
                        })
                        .collect();
                    let schema = Schema::new(columns.clone());
                    let batch =
                        parse_observations(&schema, &load.csv, &load.source_column).map_err(err)?;
                    self.store
                        .log_fresh(&load.table, &columns, &load.entity_column, &batch)
                        .map_err(err)?;
                    let mut table = IntegratedTable::new(&load.table, schema, &load.entity_column)
                        .map_err(err)?;
                    for (source, values) in batch {
                        table.insert_observation(source, values).map_err(err)?;
                    }
                    self.catalog.register(table).map_err(err)?;
                }
                Request::AppendStream {
                    table,
                    source_column,
                    csv,
                } => self.append(tr, table, source_column, csv, &mut sels)?,
                _ => return Err("not an ingest request".into()),
            }
        }
        Ok(())
    }

    fn append(
        &mut self,
        tr: &mut Tracer,
        name: &str,
        source_column: &str,
        csv: &str,
        sels: &mut [Arc<CachedSelection>],
    ) -> Result<(), String> {
        let rid = tr.spans.len() as u64;
        let root = tr.open("ingest.append", rid, None);
        let (schema, version_before) = {
            let table = self.catalog.get(name).ok_or("unknown table")?;
            (table.schema().clone(), table.version())
        };
        let (batch, us) = tr.time("query.csv_parse", rid, Some(root), || {
            parse_observations(&schema, csv, source_column)
        });
        self.csv_parse.push(us);
        let batch = batch.map_err(err)?;
        let rows = batch.len() as u64;
        let store = &self.store;
        let (logged, us) = tr.time("store.wal_append", rid, Some(root), || {
            store.log_append(name, version_before, &batch)
        });
        self.wal_append.push(us);
        logged.map_err(err)?;
        let catalog = &mut self.catalog;
        let (delta, us) = tr.time("query.append_batch", rid, Some(root), || {
            catalog
                .get_mut(name)
                .expect("table checked above")
                .append_batch(batch)
        });
        self.append_batch.push(us);
        let delta = delta.map_err(err)?;
        if !sels.is_empty() {
            let table = self.catalog.get(name).expect("table checked above");
            let (fresh, us) = tr.time("core.refreeze", rid, Some(root), || {
                sels.iter()
                    .map(|s| refreeze_selection(table, s, &delta))
                    .collect::<Vec<_>>()
            });
            self.refreeze.push(us);
            for (slot, fresh) in sels.iter_mut().zip(fresh) {
                *slot = Arc::new(fresh.ok_or("cached selection fell back to a rebuild")?);
            }
        }
        let cp = tr.open("store.checkpoint", rid, Some(root));
        let fired = self
            .store
            .maybe_checkpoint(&self.catalog, rows)
            .map_err(err)?;
        let us = tr.close(cp);
        if fired {
            self.checkpoint.push(us / 1e3);
        } else {
            tr.spans[cp].name = "store.checkpoint_check";
        }
        tr.close(root);
        Ok(())
    }

    /// Replays up to [`SELECTION_REPLAY_CAP`] distinct ungrouped selections
    /// through the cold path's calls: parse, the columnar selection
    /// (`sample_view_with_sorted`, which includes the mask), the freeze
    /// (`ProfileSnapshot::capture_presorted`), and, timed on their own, the
    /// bucket partition and species ladder it contains; then the estimator
    /// fan-out over the frozen profile, as a cache hit runs it.
    pub fn replay_selections(
        &mut self,
        run: &mut Run,
        tr: &mut Tracer,
        sels: &[Selection],
    ) -> Result<(), String> {
        let kinds = ESTIMATORS
            .iter()
            .map(|n| EstimatorKind::by_name(n))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let session = EstimationSession::new(kinds);
        let (mut parse_us, mut selection_us, mut freeze_us) = (Vec::new(), Vec::new(), Vec::new());
        let (mut bucket_us, mut species_us, mut fanout_us) = (Vec::new(), Vec::new(), Vec::new());
        for sel in sels
            .iter()
            .filter(|s| !s.grouped)
            .take(SELECTION_REPLAY_CAP)
        {
            let rid = tr.spans.len() as u64;
            let root = tr.open("replay.selection", rid, None);
            let (query, us) = tr.time("query.parse", rid, Some(root), || parse(&sel.sql));
            parse_us.push(us);
            let query = query.map_err(err)?;
            let table = self.catalog.get(&query.table).ok_or("unknown table")?;
            let column = query.column.as_deref();
            // The mask kernel on its own: a span of its own, outside
            // `query.selection_us` (the view below computes the mask again).
            let (mask, _) = tr.time("query.selection_mask", rid, Some(root), || {
                table.selection_mask_bits(column, &query.predicate)
            });
            black_box(mask.map_err(err)?);
            let (picked, view_us) = tr.time("query.selection_view", rid, Some(root), || {
                table.sample_view_with_sorted(column, &query.predicate)
            });
            selection_us.push(view_us);
            let (view, sorted) = picked.map_err(err)?;
            {
                let items = view.items();
                let refs: Vec<&ObservedItem> = sorted.iter().map(|&i| &items[i as usize]).collect();
                let estimator = DynamicBucketEstimator::default();
                let (_, us) = tr.time("core.bucket_partition", rid, Some(root), || {
                    black_box(estimator.bucketize_sorted(&refs))
                });
                bucket_us.push(us);
                let (_, us) = tr.time("core.species", rid, Some(root), || {
                    black_box(SpeciesCache::new(view.freq()).all_estimates())
                });
                species_us.push(us);
            }
            let (view2, sorted2) = (view.clone(), sorted.clone());
            let (snapshot, us) = tr.time("core.freeze", rid, Some(root), || {
                ProfileSnapshot::capture_presorted(view2, sorted2)
            });
            freeze_us.push(us);
            let (_, us) = tr.time("core.estimator_fanout", rid, Some(root), || {
                black_box(session.run_profiled(&snapshot.profile()))
            });
            fanout_us.push(us);
            tr.close(root);
        }
        run.set("query.parse_us", median(&mut parse_us));
        run.set("query.selection_us", median(&mut selection_us));
        run.set("core.freeze_us", median(&mut freeze_us));
        run.set("core.bucket_partition_us", median(&mut bucket_us));
        run.set("core.species_us", median(&mut species_us));
        run.set("core.estimator_fanout_us", median(&mut fanout_us));
        Ok(())
    }

    /// Times `Store::open` + `Store::recover` on a copy of the crash image.
    pub fn replay_recovery(
        &mut self,
        run: &mut Run,
        tr: &mut Tracer,
        crash: &Path,
    ) -> Result<(), String> {
        let dir: PathBuf = run.work.join("twin-recover");
        copy_dir(crash, &dir)?;
        let rid = tr.spans.len() as u64;
        let (report, us) = tr.time("store.recover", rid, None, || {
            let store = Store::open(
                &dir,
                FsyncPolicy::Batch,
                DEFAULT_CHECKPOINT_ROWS,
                DEFAULT_CHECKPOINT_BYTES,
            )?;
            let mut catalog = Catalog::with_cache(ServerConfig::default().build_cache());
            store.recover(&mut catalog)
        });
        let report = report.map_err(err)?;
        if report.replayed_records == 0 {
            return Err("the layer twin replayed no WAL records".into());
        }
        run.set("store.recover_ms", us / 1e3);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    /// Forgets the ingest figures gathered so far (spans stay).
    pub fn clear_figures(&mut self) {
        self.csv_parse.clear();
        self.wal_append.clear();
        self.append_batch.clear();
        self.refreeze.clear();
        self.checkpoint.clear();
    }

    /// Per-batch medians of the ingest layers (0 where a layer never ran).
    pub fn report(&mut self, run: &mut Run) {
        let med = |v: &mut Vec<f64>| if v.is_empty() { 0.0 } else { median(v) };
        run.set("query.csv_parse_us", med(&mut self.csv_parse));
        run.set("store.wal_append_us", med(&mut self.wal_append));
        run.set("query.append_batch_us", med(&mut self.append_batch));
        run.set("core.refreeze_us", med(&mut self.refreeze));
        run.set("store.checkpoint_ms", med(&mut self.checkpoint));
    }
}

/// Writes the spans and prints each span name's self time to stderr.
pub fn finish(run: &Run, tr: &Tracer) -> Result<(), String> {
    let path = run
        .root
        .join(format!("trace-{}-{}.jsonl", run.workload, run.seed));
    tr.write(&path).map_err(err)?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tr.spans.len(),
        path.display()
    );
    eprintln!(
        "{:<28} {:>10} {:>14} {:>12}",
        "span", "count", "self_total_ms", "self_mean_us"
    );
    for (name, (self_us, count)) in tr.self_times() {
        eprintln!(
            "{name:<28} {count:>10} {:>14.3} {:>12.2}",
            self_us / 1e3,
            self_us / count as f64
        );
    }
    Ok(())
}
