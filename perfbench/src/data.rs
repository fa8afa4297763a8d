//! Seeded workload inputs: `uu_datagen` populations integrated from `w`
//! sources, rendered as CSV batches, plus the SQL selections the workloads
//! issue and the generator's ground truth for each of them.

use uu_datagen::integration::{ArrivalOrder, IntegratedSample};
use uu_datagen::population::{Population, Publicity, ValueSpec};
use uu_server::protocol::{LoadCsvRequest, QueryRequest, Request};
use uu_stats::rng::Rng;

/// Columns of every benchmark table, in CSV order (the source column
/// `worker` follows them).
pub const COLUMNS: [(&str, &str); 4] = [
    ("id", "int"),
    ("value", "float"),
    ("band", "int"),
    ("region", "int"),
];
/// `GROUP BY` column cardinality.
pub const REGIONS: usize = 8;
/// The estimator set every query requests; the first is the correction.
pub const ESTIMATORS: [&str; 3] = ["bucket", "naive", "freq"];

/// Shape of one generated table.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Population size `N` (entities, observed or not).
    pub entities: usize,
    /// Sources `w`.
    pub sources: usize,
    /// Entities each source mentions (without replacement).
    pub per_source: usize,
    /// Distinct `band` values; selections are `band` ranges.
    pub bands: usize,
}

/// Publicity skew of every population (the paper's "highly skewed" λ).
const LAMBDA: f64 = 4.0;
/// Publicity–value correlation ρ.
const RHO: f64 = 0.8;

/// One generated table: the ground truth plus the arrival-ordered
/// observation stream.
pub struct Table {
    pub name: String,
    /// Population value of entity `id` (integer-valued, so sums are exact).
    pub value: Vec<f64>,
    pub band: Vec<u32>,
    pub region: Vec<u32>,
    /// `(entity id, source id)` in arrival order.
    pub obs: Vec<(u32, u32)>,
    pub bands: usize,
}

impl Table {
    pub fn generate(name: &str, shape: Shape, seed: u64) -> Table {
        let population = Population::builder(shape.entities)
            .values(ValueSpec::ExponentialTail {
                scale: 1.0e6,
                decay: 8.0,
            })
            .publicity(Publicity::Exponential { lambda: LAMBDA })
            .correlation(RHO)
            .build(seed);
        let mut rng = Rng::new(seed ^ 0xB3AC_0001);
        let sizes = vec![shape.per_source; shape.sources];
        let sample =
            IntegratedSample::integrate(&population, &sizes, ArrivalOrder::RoundRobin, &mut rng);
        let value = (0..shape.entities)
            .map(|id| population.value(id).round())
            .collect();
        let band = (0..shape.entities)
            .map(|_| rng.next_below(shape.bands) as u32)
            .collect();
        let region = (0..shape.entities)
            .map(|_| rng.next_below(REGIONS) as u32)
            .collect();
        let obs = sample
            .observations()
            .iter()
            .map(|o| (o.item_id as u32, o.source_id as u32))
            .collect();
        Table {
            name: name.to_string(),
            value,
            band,
            region,
            obs,
            bands: shape.bands,
        }
    }

    /// CSV document (header + rows) for observations `range`.
    pub fn csv(&self, range: std::ops::Range<usize>) -> String {
        let mut out = String::with_capacity(range.len() * 32 + 64);
        out.push_str("id,value,band,region,worker\n");
        for &(id, source) in &self.obs[range] {
            let i = id as usize;
            out.push_str(&format!(
                "{id},{},{},{},{source}\n",
                self.value[i], self.band[i], self.region[i]
            ));
        }
        out
    }

    /// The `load_csv` request creating the table from observations `range`.
    pub fn load_request(&self, range: std::ops::Range<usize>) -> Request {
        Request::LoadCsv(LoadCsvRequest {
            table: self.name.clone(),
            columns: COLUMNS
                .iter()
                .map(|(n, t)| (n.to_string(), t.to_string()))
                .collect(),
            entity_column: "id".to_string(),
            source_column: "worker".to_string(),
            csv: self.csv(range),
            append: false,
        })
    }

    /// `append_stream` requests for consecutive batches of `batch_rows`
    /// observations starting at `from`, `count` of them.
    pub fn append_requests(&self, from: usize, batch_rows: usize, count: usize) -> Vec<Request> {
        (0..count)
            .map(|k| {
                let lo = from + k * batch_rows;
                Request::AppendStream {
                    table: self.name.clone(),
                    source_column: "worker".to_string(),
                    csv: self.csv(lo..lo + batch_rows),
                }
            })
            .collect()
    }

    /// Requests loading observations `0..rows` in chunks of `chunk`: a
    /// `load_csv` creating the table, then `append_stream`s.
    pub fn chunked_load(&self, rows: usize, chunk: usize) -> Vec<Request> {
        let mut requests = vec![self.load_request(0..chunk)];
        requests.extend(self.append_requests(chunk, chunk, rows / chunk - 1));
        requests
    }

    /// Ground-truth SUM(value) over entities with `band` in `[lo, hi)`,
    /// per region when `grouped` (index = region), else one total.
    pub fn truth(&self, lo: u32, hi: u32, grouped: bool) -> Vec<f64> {
        let mut sums = vec![0.0; if grouped { REGIONS } else { 1 }];
        for i in 0..self.value.len() {
            if (lo..hi).contains(&self.band[i]) {
                let slot = if grouped { self.region[i] as usize } else { 0 };
                sums[slot] += self.value[i];
            }
        }
        sums
    }
}

/// One distinct query a workload issues.
#[derive(Clone)]
pub struct Selection {
    pub sql: String,
    pub request: Request,
    /// Ground truth per universe (per region for grouped queries).
    pub truth: Vec<f64>,
    pub grouped: bool,
}

impl Selection {
    pub fn band_range(table: &Table, lo: u32, hi: u32, grouped: bool) -> Selection {
        let mut sql = format!(
            "SELECT SUM(value) FROM {} WHERE band >= {lo} AND band < {hi}",
            table.name
        );
        if grouped {
            sql.push_str(" GROUP BY region");
        }
        Selection {
            request: Request::Query(QueryRequest {
                sql: sql.clone(),
                estimators: ESTIMATORS.iter().map(|s| s.to_string()).collect(),
                cached: true,
                trace: false,
            }),
            sql,
            truth: table.truth(lo, hi, grouped),
            grouped,
        }
    }
}

impl Selection {
    /// The same selection with a redundant `region >= 0` term: equal
    /// answers and truth, but its own profile-cache entry.
    pub fn probe(self) -> Selection {
        let sql = self.sql.replace(" WHERE ", " WHERE region >= 0 AND ");
        Selection {
            request: Request::Query(QueryRequest {
                sql: sql.clone(),
                estimators: ESTIMATORS.iter().map(|s| s.to_string()).collect(),
                cached: true,
                trace: false,
            }),
            sql,
            ..self
        }
    }
}

/// `count` distinct band-range selections whose widths follow a fixed
/// geometric ladder from `min_width` to `max_width` bands, so every seed
/// asks for the same sizes; the seed picks only where each range starts.
/// Every `grouped_every`-th selection is grouped by region.
pub fn band_selections(
    table: &Table,
    count: usize,
    min_width: u32,
    max_width: u32,
    grouped_every: usize,
    rng: &mut Rng,
) -> Vec<Selection> {
    let mut seen = std::collections::HashSet::new();
    let ratio = max_width as f64 / min_width as f64;
    (0..count)
        .map(|i| {
            let step = i as f64 / (count.max(2) - 1) as f64;
            let width = (min_width as f64 * ratio.powf(step)).round() as u32;
            let grouped = grouped_every > 0 && i % grouped_every == grouped_every - 1;
            loop {
                let lo = rng.next_below(table.bands - width as usize) as u32;
                if seen.insert((lo, width, grouped)) {
                    return Selection::band_range(table, lo, lo + width, grouped);
                }
            }
        })
        .collect()
}
