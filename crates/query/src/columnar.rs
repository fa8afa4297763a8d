//! The column store behind [`crate::table::IntegratedTable`] and the
//! vectorized kernels that run over it.
//!
//! The columns *are* the table: there is no row store behind them. A
//! [`Projection`] holds every cell in primitive buffers, plus each entity's
//! multiplicity and lineage and the entity-key index:
//!
//! ```text
//! column j (FLOAT)   values:  [ f64; rows ]       (Int cells widened, as_f64)
//!                    ints:    [ (row, i64) ]      (which cells were Int, exactly)
//!                    valid:   [ u64; ⌈rows/64⌉ ]  (bit = cell is non-NULL)
//! column k (TEXT)    codes:   [ u32; rows ]       (first-appearance dictionary code)
//!                    pool:    [ str; uniq ]       (+ string → code lookup)
//! multiplicity       mults:   [ u64; rows ]
//! lineage            per row  [ (source, count) ] (sorted by source)
//! key index          GroupKey → row               (entity_key → row once a
//!                                                  FLOAT key turns lossy)
//! lazily built       per numeric column a sort permutation, per TEXT
//!                    column the lexicographic order of its pool
//! ```
//!
//! Cells enter through one writer, `Projection::extend_for_append`, which
//! every load, append, single insert and restore goes through. A row exists
//! only when something asks for it: `Projection::cell` rebuilds an exact
//! [`Value`] from the buffers. Lazily built orders are merged forward by
//! appends, never rebuilt, and never built by loading, so loading stays
//! O(n log n) whatever the batch size.
//!
//! Predicates compile to `(true, false)` bitmap pairs (Kleene three-valued
//! logic: a row with neither bit set is *unknown*) through one word kernel
//! that compares 64 rows per step without a per-row branch, so AND/OR/NOT
//! become word-wide bit operations. The value sort is computed
//! once per column as a stable permutation of the valid rows; every
//! selection's sorted order is derived by filtering that permutation, never
//! by re-sorting. All kernels reproduce per-record evaluation bit for bit —
//! the same `as_f64` widening, `total_cmp` ordering, and three-valued
//! comparison rules — which the `columnar_parity` suite pins against the
//! row oracle in `uu_bench::oracle`.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::predicate::{CmpOp, Predicate, PredicateError};
use crate::schema::{ColumnType, Schema};
use crate::value::Value;
use uu_core::profile::merge_runs;
use uu_core::sample::ObservedItem;

/// Bitmap word width.
const WORD: usize = 64;

/// Number of `u64` words covering `rows` bits.
fn words_for(rows: usize) -> usize {
    rows.div_ceil(WORD)
}

/// Mask selecting the in-range bits of the last word (all ones when `rows`
/// is a multiple of the word width).
fn tail_mask(rows: usize) -> u64 {
    match rows % WORD {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    }
}

/// `dst &= src`, word-wise.
pub(crate) fn and_in_place(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

/// Number of set bits.
pub(crate) fn count_ones(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

/// Calls `f(row)` for every set bit in ascending row order.
pub(crate) fn for_each_set(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            f(w * WORD + b);
        }
    }
}

/// True when bit `row` is set.
#[inline]
pub(crate) fn bit(bits: &[u64], row: usize) -> bool {
    bits[row / WORD] >> (row % WORD) & 1 == 1
}

/// A Kleene truth assignment over all rows: bit set in `t` = true, bit set
/// in `f` = false, neither = unknown. The two bitmaps are disjoint.
struct Mask {
    t: Vec<u64>,
    f: Vec<u64>,
}

impl Mask {
    /// Every row true.
    fn all_true(rows: usize) -> Mask {
        let words = words_for(rows);
        let mut t = vec![u64::MAX; words];
        if let Some(last) = t.last_mut() {
            *last = tail_mask(rows);
        }
        Mask {
            t,
            f: vec![0; words],
        }
    }

    /// Every row unknown (NULL literal, or an incomparable column/literal
    /// type pairing — string vs. number).
    fn all_unknown(rows: usize) -> Mask {
        let words = words_for(rows);
        Mask {
            t: vec![0; words],
            f: vec![0; words],
        }
    }

    /// Kleene conjunction: true iff both true, false iff either false —
    /// De Morgan's law over [`Mask::or`].
    fn and(self, other: Mask) -> Mask {
        self.not().or(other.not()).not()
    }

    /// Kleene disjunction: true iff either true, false iff both false.
    fn or(mut self, other: Mask) -> Mask {
        for ((t, f), (ot, of)) in self
            .t
            .iter_mut()
            .zip(self.f.iter_mut())
            .zip(other.t.iter().zip(&other.f))
        {
            *t |= ot;
            *f &= of;
        }
        self
    }

    /// Kleene negation: swaps true and false; unknown stays unknown.
    fn not(self) -> Mask {
        Mask {
            t: self.f,
            f: self.t,
        }
    }
}

/// A TEXT column's dictionary: every distinct string once, coded in order of
/// first appearance, so a code never changes once assigned.
#[derive(Debug, Clone, Default)]
struct Dict {
    /// Code → string.
    pool: Vec<Arc<str>>,
    /// String → code (shares the pool's allocations).
    lookup: HashMap<Arc<str>, u32>,
    /// Lexicographic order of the pool, built on the first ordered
    /// comparison and merged forward by later appends, like the sort
    /// permutations.
    order: OnceLock<DictOrder>,
}

/// Lexicographic order of a dictionary's pool.
#[derive(Debug, Clone)]
struct DictOrder {
    /// Codes in lexicographic order of their strings.
    sorted: Vec<u32>,
    /// Code → lexicographic rank (inverse permutation of `sorted`).
    rank: Vec<u32>,
}

impl Dict {
    /// The code of `s`, assigning the next one when the string is new.
    fn code(&mut self, s: String) -> u32 {
        if let Some(&code) = self.lookup.get(s.as_str()) {
            return code;
        }
        let code = self.pool.len() as u32;
        let s: Arc<str> = Arc::from(s);
        self.pool.push(Arc::clone(&s));
        self.lookup.insert(s, code);
        code
    }

    /// The lexicographic order, built on first use.
    fn order(&self) -> &DictOrder {
        self.order.get_or_init(|| {
            let mut sorted: Vec<u32> = (0..self.pool.len() as u32).collect();
            sorted.sort_unstable_by(|&a, &b| self.pool[a as usize].cmp(&self.pool[b as usize]));
            DictOrder::from_sorted(sorted)
        })
    }

    /// Splices strings coded since the order was built into it: one sorted
    /// merge and one rank rebuild per append, instead of an O(pool) shift
    /// per new string. A no-op when the order was never built.
    fn absorb(&mut self) {
        let pool = &self.pool;
        let Some(order) = self.order.get_mut() else {
            return;
        };
        let mut delta: Vec<u32> = (order.sorted.len() as u32..pool.len() as u32).collect();
        if delta.is_empty() {
            return;
        }
        delta.sort_unstable_by(|&a, &b| pool[a as usize].cmp(&pool[b as usize]));
        // New strings are distinct from every old one, so the merge never
        // ties and reproduces the full lexicographic order exactly.
        *order = DictOrder::from_sorted(merge_runs(&order.sorted, &delta, |o, n| {
            pool[o as usize] < pool[n as usize]
        }));
    }
}

impl DictOrder {
    fn from_sorted(sorted: Vec<u32>) -> DictOrder {
        let mut rank = vec![0u32; sorted.len()];
        for (pos, &code) in sorted.iter().enumerate() {
            rank[code as usize] = pos as u32;
        }
        DictOrder { sorted, rank }
    }
}

/// A column's sort permutation `perm` with the valid `delta` rows (in row
/// order, every one past the rows `perm` covers) merged in by value.
fn absorb_rows(
    perm: &[u32],
    delta: impl Iterator<Item = u32>,
    value_at: impl Fn(u32) -> f64,
) -> Vec<u32> {
    let mut delta: Vec<u32> = delta.collect();
    // Delta rows arrive in row order, so a stable sort keeps ties in row
    // order — exactly the tie rule of a full re-sort. Every delta row index
    // exceeds every old one, so on a value tie the old row comes first, as
    // in the full re-sort.
    delta.sort_by(|&a, &b| value_at(a).total_cmp(&value_at(b)));
    merge_runs(perm, &delta, |o, n| {
        value_at(o).total_cmp(&value_at(n)).is_le()
    })
}

/// Primitive buffers of one column. Invalid (NULL) rows hold a placeholder;
/// every consumer checks the validity bitmap first.
#[derive(Debug, Clone)]
enum ColumnData {
    /// FLOAT column: cells widened with `Value::as_f64`, which is exactly
    /// how comparison and aggregation read them. `ints` remembers the cells
    /// that were `Value::Int`, as `(row, value)` in row order, so a row
    /// built from the columns gets the exact cell back.
    Float {
        values: Vec<f64>,
        ints: Vec<(u32, i64)>,
    },
    /// INT column.
    Int(Vec<i64>),
    /// TEXT column, dictionary-encoded: `codes[row]` indexes the pool.
    Str { codes: Vec<u32>, dict: Dict },
}

/// One column: primitive data plus validity.
#[derive(Debug, Clone)]
struct Column {
    data: ColumnData,
    /// Bit per row: cell is non-NULL.
    valid: Vec<u64>,
}

impl Column {
    fn new(ty: ColumnType) -> Column {
        let data = match ty {
            ColumnType::Float => ColumnData::Float {
                values: Vec::new(),
                ints: Vec::new(),
            },
            ColumnType::Int => ColumnData::Int(Vec::new()),
            ColumnType::Str => ColumnData::Str {
                codes: Vec::new(),
                dict: Dict::default(),
            },
        };
        Column {
            data,
            valid: Vec::new(),
        }
    }

    /// Appends `cell` (already validated against the column type) as `row`.
    fn push(&mut self, row: usize, cell: Value) {
        if row % WORD == 0 {
            self.valid.push(0);
        }
        if !cell.is_null() {
            self.valid[row / WORD] |= 1 << (row % WORD);
        }
        match (&mut self.data, cell) {
            (ColumnData::Float { values, ints }, cell) => {
                if let Value::Int(i) = cell {
                    ints.push((row as u32, i));
                }
                values.push(cell.as_f64().unwrap_or(0.0));
            }
            (ColumnData::Int(values), Value::Int(i)) => values.push(i),
            (ColumnData::Int(values), _) => values.push(0),
            (ColumnData::Str { codes, dict }, Value::Str(s)) => codes.push(dict.code(s)),
            (ColumnData::Str { codes, .. }, _) => codes.push(0),
        }
    }
}

/// Hashable canonical group identity of a cell, mirroring
/// [`Value::entity_key`] without materialising the string: two cells map to
/// the same key iff their entity keys are equal — unless a FLOAT column
/// holds an INT beyond 2^53, whose widened `f64` may collide with a
/// neighbour (see [`Projection::lossy_ints`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum GroupKey {
    /// NULL cell (SQL groups NULLs together).
    Null,
    /// Integer-valued key: INT cells, and FLOAT cells with
    /// `fract() == 0 && |v| < 1e15` (the `entity_key` canonicalisation that
    /// unifies `1` and `1.0`, and `-0.0` with `0.0`).
    Int(i64),
    /// Any NaN (all payloads display as `NaN`).
    Nan,
    /// Other floats, by bit pattern (distinct finite non-integral values
    /// display distinctly; ±0.0 never reaches here).
    Bits(u64),
    /// TEXT cell, by dictionary code.
    Str(u32),
}

/// The group key of a FLOAT cell.
fn float_key(f: f64) -> GroupKey {
    if f.is_nan() {
        GroupKey::Nan
    } else if f.fract() == 0.0 && f.abs() < 1e15 {
        GroupKey::Int(f as i64)
    } else {
        GroupKey::Bits(f.to_bits())
    }
}

/// True for an INT whose `f64` widening may not round-trip.
fn lossy(i: i64) -> bool {
    i.unsigned_abs() > 1 << 53
}

/// Entity key → row. Keyed on [`GroupKey`] — the grouped pass's identity —
/// until a FLOAT key column receives an INT beyond 2^53; from then on keyed
/// on `Value::entity_key` strings, the one identity that stays exact.
#[derive(Debug, Clone)]
enum KeyIndex {
    Typed(HashMap<GroupKey, u32>),
    Exact(HashMap<String, u32>),
}

/// The column store of one integrated table: every cell, every
/// multiplicity and every lineage list, plus the entity-key index. This is
/// the table itself; rows exist only when built on demand
/// (`Projection::cell`, `Projection::lineage`).
#[derive(Debug, Clone)]
pub struct Projection {
    rows: usize,
    key_col: usize,
    columns: Vec<Column>,
    /// Per-row total observation count (`Entity::multiplicity`).
    mults: Vec<u64>,
    /// Per-row `(source, count)` lineage, sorted by source.
    lineage: Vec<Vec<(u32, u32)>>,
    index: KeyIndex,
    /// Lazily-built stable sort permutation per column: indices of *valid*
    /// rows in ascending value order (`total_cmp` over the widened floats,
    /// ties in row order). Numeric columns only.
    sort_perms: Vec<OnceLock<Vec<u32>>>,
}

impl Projection {
    /// An empty store for `schema`, deduplicating entities on column
    /// `key_col`.
    pub(crate) fn new(schema: &Schema, key_col: usize) -> Projection {
        Projection {
            rows: 0,
            key_col,
            columns: schema.columns().iter().map(|c| Column::new(c.ty)).collect(),
            mults: Vec::new(),
            lineage: Vec::new(),
            index: KeyIndex::Typed(HashMap::new()),
            sort_perms: (0..schema.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The column writer — the one way cells enter the store. Each staged
    /// record is `(cells, lineage)`: its cells already validated against
    /// the schema with a non-NULL key, its lineage sorted by source. A
    /// record whose key is new becomes a row (first record wins); otherwise
    /// only its lineage is added to the existing row. Afterwards every
    /// dictionary order and sort permutation already built absorbs the new
    /// rows by a sorted merge instead of a rebuild. Returns the rows the
    /// records re-observed, including rows an earlier record of the same
    /// call created (ascending, deduplicated), and the number of
    /// permutation merges.
    pub(crate) fn extend_for_append(
        &mut self,
        staged: impl IntoIterator<Item = (Vec<Value>, Vec<(u32, u32)>)>,
    ) -> (Vec<u32>, usize) {
        let old_rows = self.rows;
        let staged = staged.into_iter();
        if let KeyIndex::Typed(map) = &mut self.index {
            map.reserve(staged.size_hint().0);
        }
        let mut touched = Vec::new();
        for (cells, lineage) in staged {
            let row = match self.find(&cells[self.key_col]) {
                Some(row) => {
                    touched.push(row as u32);
                    row
                }
                None => self.push_row(cells),
            };
            self.mults[row] += lineage.iter().map(|&(_, k)| u64::from(k)).sum::<u64>();
            let counts = &mut self.lineage[row];
            if counts.is_empty() {
                *counts = lineage;
                continue;
            }
            for (source, k) in lineage {
                match counts.binary_search_by_key(&source, |&(s, _)| s) {
                    Ok(pos) => counts[pos].1 += k,
                    Err(pos) => counts.insert(pos, (source, k)),
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        (touched, self.absorb(old_rows))
    }

    /// Appends a row of cells and indexes its key. Returns the row.
    fn push_row(&mut self, cells: Vec<Value>) -> usize {
        let (row, key_col) = (self.rows, self.key_col);
        let key = (&self.columns[key_col].data, &cells[key_col], &self.index);
        if matches!(key, (ColumnData::Float { .. }, Value::Int(i), KeyIndex::Typed(_)) if lossy(*i))
        {
            // Typed keys cannot tell this key from its widened neighbours:
            // re-key every row on exact strings, once.
            let exact = (0..row).map(|r| (self.cell(key_col, r).entity_key(), r as u32));
            self.index = KeyIndex::Exact(exact.collect());
        }
        for (column, cell) in self.columns.iter_mut().zip(cells) {
            column.push(row, cell);
        }
        self.rows += 1;
        self.mults.push(0);
        self.lineage.push(Vec::new());
        let mut index = std::mem::replace(&mut self.index, KeyIndex::Typed(HashMap::new()));
        match &mut index {
            KeyIndex::Typed(map) => map.insert(self.group_key(key_col, row), row as u32),
            KeyIndex::Exact(map) => map.insert(self.cell(key_col, row).entity_key(), row as u32),
        };
        self.index = index;
        row
    }

    /// Brings every built dictionary order and sort permutation up to date
    /// with rows `old_rows..`. Returns the number of permutation merges.
    fn absorb(&mut self, old_rows: usize) -> usize {
        let rows = self.rows;
        let mut merges = 0;
        for (col, slot) in self.columns.iter_mut().zip(&mut self.sort_perms) {
            if let ColumnData::Str { dict, .. } = &mut col.data {
                dict.absorb();
            }
            let Some(perm) = slot.get_mut() else {
                continue;
            };
            merges += 1;
            let delta = (old_rows..rows)
                .filter(|&row| bit(&col.valid, row))
                .map(|row| row as u32);
            *perm = match &col.data {
                ColumnData::Float { values, .. } => {
                    absorb_rows(perm, delta, |r| values[r as usize])
                }
                ColumnData::Int(v) => absorb_rows(perm, delta, |r| v[r as usize] as f64),
                ColumnData::Str { .. } => unreachable!("sort permutation of a TEXT column"),
            };
        }
        merges
    }

    /// The row whose key cell has the entity key of `key`, if any. A key of
    /// a type the key column cannot hold finds nothing.
    pub(crate) fn find(&self, key: &Value) -> Option<usize> {
        let row = match &self.index {
            KeyIndex::Exact(map) => map.get(&key.entity_key()),
            KeyIndex::Typed(map) => {
                let typed = match (&self.columns[self.key_col].data, key) {
                    (ColumnData::Int(_), Value::Int(i)) => GroupKey::Int(*i),
                    (ColumnData::Float { .. }, Value::Float(f)) => float_key(*f),
                    // An INT probe of a FLOAT column keys on its widening,
                    // unless widening changes its entity key: then no
                    // stored cell can share it (none is lossy yet).
                    (ColumnData::Float { .. }, Value::Int(i))
                        if !lossy(*i) || Value::Float(*i as f64).entity_key() == i.to_string() =>
                    {
                        float_key(*i as f64)
                    }
                    (ColumnData::Str { dict, .. }, Value::Str(s)) => {
                        GroupKey::Str(*dict.lookup.get(s.as_str())?)
                    }
                    _ => return None,
                };
                map.get(&typed)
            }
        };
        row.map(|&r| r as usize)
    }

    /// Number of rows (= unique entities).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Approximate heap footprint: value buffers, validity bitmaps,
    /// dictionaries, multiplicities, lineage, the key index and any
    /// dictionary orders and sort permutations built so far.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of_val as bytes;
        let mut total = std::mem::size_of::<Self>() + bytes(self.mults.as_slice());
        for col in &self.columns {
            total += bytes(col.valid.as_slice());
            total += match &col.data {
                ColumnData::Float { values, ints } => bytes(&values[..]) + bytes(&ints[..]),
                ColumnData::Int(v) => bytes(&v[..]),
                ColumnData::Str { codes, dict } => {
                    let order = dict.order.get().map_or(0, |o| 8 * o.sorted.len());
                    // Each string: its bytes, two `Arc` handles, a code.
                    let strings: usize = dict.pool.iter().map(|s| s.len() + 36).sum();
                    bytes(&codes[..]) + order + strings
                }
            };
        }
        // Each lineage list: its `Vec` header and its pairs.
        total += self
            .lineage
            .iter()
            .map(|l| 24 + 8 * l.capacity())
            .sum::<usize>();
        total += match &self.index {
            KeyIndex::Typed(map) => 24 * map.len(),
            KeyIndex::Exact(map) => map.keys().map(|k| k.len() + 32).sum(),
        };
        let perms = self.sort_perms.iter().filter_map(OnceLock::get);
        total + perms.map(|p| bytes(&p[..])).sum::<usize>()
    }

    /// Per-row multiplicities.
    pub(crate) fn mults(&self) -> &[u64] {
        &self.mults
    }

    /// The item `row` contributes to an aggregate of column `attr`: the
    /// cell widened with `as_f64` (`0.0` for `COUNT(*)`), the multiplicity
    /// and the lineage. `None` when the cell is NULL.
    pub(crate) fn item(&self, row: usize, attr: Option<usize>) -> Option<ObservedItem> {
        let value = match attr {
            Some(col) if !bit(&self.columns[col].valid, row) => return None,
            Some(col) => self.float_at(col, row),
            None => 0.0,
        };
        Some(ObservedItem {
            value,
            multiplicity: self.mults[row],
            source_counts: self.lineage[row].clone(),
        })
    }

    /// The `(source, count)` lineage of `row`, sorted by source.
    pub(crate) fn lineage(&self, row: usize) -> &[(u32, u32)] {
        &self.lineage[row]
    }

    /// The exact cell of column `col` at `row`, built from the column.
    pub(crate) fn cell(&self, col: usize, row: usize) -> Value {
        let c = &self.columns[col];
        if !bit(&c.valid, row) {
            return Value::Null;
        }
        match &c.data {
            ColumnData::Float { values, ints } => {
                match ints.binary_search_by_key(&(row as u32), |&(r, _)| r) {
                    Ok(i) => Value::Int(ints[i].1),
                    Err(_) => Value::Float(values[row]),
                }
            }
            ColumnData::Int(values) => Value::Int(values[row]),
            ColumnData::Str { codes, dict } => {
                Value::Str(dict.pool[codes[row] as usize].to_string())
            }
        }
    }

    /// The validity bitmap of column `col`.
    pub(crate) fn valid_bits(&self, col: usize) -> &[u64] {
        &self.columns[col].valid
    }

    /// Whether grouping by `col` must key on exact entity-key strings: a
    /// FLOAT column holds an INT cell beyond 2^53, whose widened `f64` may
    /// not round-trip. Comparisons and aggregation widen such cells too, so
    /// only grouping cares.
    pub(crate) fn lossy_ints(&self, col: usize) -> bool {
        let data = &self.columns[col].data;
        matches!(data, ColumnData::Float { ints, .. } if ints.iter().any(|&(_, i)| lossy(i)))
    }

    /// The cell of a numeric column widened to `f64` (exactly
    /// `Value::as_f64`). Only meaningful for valid rows.
    #[inline]
    pub(crate) fn float_at(&self, col: usize, row: usize) -> f64 {
        match &self.columns[col].data {
            ColumnData::Float { values, .. } => values[row],
            ColumnData::Int(v) => v[row] as f64,
            ColumnData::Str { .. } => unreachable!("numeric access to a TEXT column"),
        }
    }

    /// The canonical group identity of a cell (NULL-aware).
    pub(crate) fn group_key(&self, col: usize, row: usize) -> GroupKey {
        let c = &self.columns[col];
        if !bit(&c.valid, row) {
            return GroupKey::Null;
        }
        match &c.data {
            ColumnData::Int(v) => GroupKey::Int(v[row]),
            ColumnData::Str { codes, .. } => GroupKey::Str(codes[row]),
            ColumnData::Float { values, .. } => float_key(values[row]),
        }
    }

    /// The stable ascending sort permutation of column `col`'s valid rows,
    /// built on first use and memoized on the store. Ties keep row order,
    /// so filtering this permutation by any selection reproduces a stable
    /// `total_cmp` sort of the selected items exactly.
    pub(crate) fn sort_perm(&self, col: usize) -> &[u32] {
        self.sort_perms[col].get_or_init(|| {
            let c = &self.columns[col];
            let mut perm: Vec<u32> = Vec::with_capacity(self.rows);
            for_each_set(&c.valid, |row| perm.push(row as u32));
            match &c.data {
                ColumnData::Float { values, .. } => {
                    perm.sort_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
                }
                ColumnData::Int(v) => {
                    perm.sort_by(|&a, &b| {
                        (v[a as usize] as f64).total_cmp(&(v[b as usize] as f64))
                    });
                }
                ColumnData::Str { .. } => unreachable!("sort permutation of a TEXT column"),
            }
            perm
        })
    }

    /// Compiles `predicate` into a selection bitmap over all rows: bit set
    /// = the predicate is *true* for the row (unknown filters out, SQL
    /// `WHERE` semantics). Columns are resolved in depth-first order, so an
    /// unknown column surfaces exactly as in per-record evaluation.
    pub(crate) fn selection_mask(
        &self,
        schema: &Schema,
        predicate: &Predicate,
    ) -> Result<Vec<u64>, PredicateError> {
        Ok(self.eval_mask(schema, predicate)?.t)
    }

    fn eval_mask(&self, schema: &Schema, predicate: &Predicate) -> Result<Mask, PredicateError> {
        match predicate {
            Predicate::True => Ok(Mask::all_true(self.rows)),
            Predicate::Cmp { column, op, value } => {
                let idx = schema
                    .index_of(column)
                    .ok_or_else(|| PredicateError::UnknownColumn(column.clone()))?;
                Ok(self.cmp_mask(idx, *op, value))
            }
            Predicate::And(a, b) => {
                let a = self.eval_mask(schema, a)?;
                let b = self.eval_mask(schema, b)?;
                Ok(a.and(b))
            }
            Predicate::Or(a, b) => {
                let a = self.eval_mask(schema, a)?;
                let b = self.eval_mask(schema, b)?;
                Ok(a.or(b))
            }
            Predicate::Not(inner) => Ok(self.eval_mask(schema, inner)?.not()),
        }
    }

    /// The comparison kernel: one column against one literal. Every typed
    /// comparison maps both sides to an `i64` key whose order is the
    /// `Value::compare` order, and runs through `cmp_words`.
    fn cmp_mask(&self, col: usize, op: CmpOp, lit: &Value) -> Mask {
        let c = &self.columns[col];
        match (&c.data, lit) {
            // NULL literal: unknown everywhere.
            (_, Value::Null) => Mask::all_unknown(self.rows),
            (ColumnData::Str { codes, dict }, Value::Str(s)) => {
                // Rows key on twice their dictionary rank; an absent literal
                // keys on the odd slot just below its insertion rank, so it
                // orders between its neighbours and equals no row.
                let DictOrder { sorted, rank } = dict.order();
                let pool = &dict.pool;
                let lit_rank = sorted.partition_point(|&i| *pool[i as usize] < **s);
                let present = sorted
                    .get(lit_rank)
                    .is_some_and(|&i| *pool[i as usize] == **s);
                let lit = 2 * lit_rank as i64 - i64::from(!present);
                // NULL rows of an all-NULL column hold code 0 over an empty
                // pool; validity masks whatever key they get.
                let key = |code: u32| rank.get(code as usize).map_or(0, |&r| 2 * i64::from(r));
                cmp_words(codes, &c.valid, op, lit, key)
            }
            // String vs. number (either direction): incomparable.
            (ColumnData::Str { .. }, _) | (_, Value::Str(_)) => Mask::all_unknown(self.rows),
            (ColumnData::Float { values, .. }, lit) => {
                let l = total_key(lit.as_f64().expect("numeric literal"));
                cmp_words(values, &c.valid, op, l, total_key)
            }
            (ColumnData::Int(values), lit) => {
                let l = total_key(lit.as_f64().expect("numeric literal"));
                cmp_words(values, &c.valid, op, l, |v| total_key(v as f64))
            }
        }
    }
}

/// An `i64` whose signed order is `f64::total_cmp` order (the same bit
/// transform `total_cmp` applies), so numeric rows compare as integers.
#[inline]
fn total_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The word kernel: compares 64 rows per step with no data-dependent
/// branch. The operator is matched once; each 64-row chunk of `values`
/// folds `key(value) op lit` into one `u64`, which validity splits into
/// true and false bits (NULL rows stay unknown, bits past the last row stay
/// clear).
fn cmp_words<T: Copy>(
    values: &[T],
    valid: &[u64],
    op: CmpOp,
    lit: i64,
    key: impl Fn(T) -> i64,
) -> Mask {
    fn fold<T: Copy>(values: &[T], valid: &[u64], pass: impl Fn(T) -> bool) -> Mask {
        let (mut t, mut f) = (
            Vec::with_capacity(valid.len()),
            Vec::with_capacity(valid.len()),
        );
        for (chunk, &vw) in values.chunks(WORD).zip(valid) {
            let mut word = 0u64;
            for (b, &v) in chunk.iter().enumerate() {
                word |= (pass(v) as u64) << b;
            }
            t.push(word & vw);
            f.push(!word & vw);
        }
        Mask { t, f }
    }
    match op {
        CmpOp::Eq => fold(values, valid, |v| key(v) == lit),
        CmpOp::Ne => fold(values, valid, |v| key(v) != lit),
        CmpOp::Lt => fold(values, valid, |v| key(v) < lit),
        CmpOp::Le => fold(values, valid, |v| key(v) <= lit),
        CmpOp::Gt => fold(values, valid, |v| key(v) > lit),
        CmpOp::Ge => fold(values, valid, |v| key(v) >= lit),
    }
}

/// Derives the sorted item permutation of a selection from the full-column
/// sort: walks `sort_perm(col)` once, keeping selected rows and mapping
/// each to its item index (= rank among selected rows in table order). With
/// no aggregate column every value is the same, so the stable order is the
/// item order itself.
pub(crate) fn sorted_idx_filtered(
    proj: &Projection,
    col: Option<usize>,
    selected: &[u64],
    count: usize,
) -> Vec<u32> {
    let Some(col) = col else {
        return (0..count as u32).collect();
    };
    // Exclusive prefix popcounts of `selected`, for O(1) row → item rank.
    let mut prefix = Vec::with_capacity(selected.len());
    let mut acc = 0u32;
    for &w in selected {
        prefix.push(acc);
        acc += w.count_ones();
    }
    let mut idx = Vec::with_capacity(count);
    for &r in proj.sort_perm(col) {
        let (w, b) = (r as usize / WORD, r as usize % WORD);
        if selected[w] >> b & 1 == 1 {
            let rank = prefix[w] + (selected[w] & ((1u64 << b) - 1)).count_ones();
            idx.push(rank);
        }
    }
    debug_assert_eq!(idx.len(), count);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    /// A store holding `rows`, each observed once by source 0, written
    /// through the one column writer. Column 0 is the key.
    fn store(schema: &Schema, rows: Vec<Vec<Value>>) -> Projection {
        let mut proj = Projection::new(schema, 0);
        proj.extend_for_append(rows.into_iter().map(|cells| (cells, vec![(0, 1)])));
        proj
    }

    #[test]
    fn bitmap_tail_is_masked() {
        assert_eq!(tail_mask(64), u64::MAX);
        assert_eq!(tail_mask(65), 1);
        assert_eq!(count_ones(&Mask::all_true(70).t), 70);
    }

    #[test]
    fn numeric_kernel_handles_nan_like_total_cmp() {
        let schema = Schema::new([("k", ColumnType::Int), ("x", ColumnType::Float)]);
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        let rows = values
            .iter()
            .enumerate()
            .map(|(i, &v)| vec![Value::Int(i as i64), Value::Float(v)])
            .collect();
        let proj = store(&schema, rows);
        let pred = Predicate::cmp("x", CmpOp::Gt, Value::from(1.0));
        let mask = proj.selection_mask(&schema, &pred).unwrap();
        let selected: Vec<usize> = {
            let mut out = Vec::new();
            for_each_set(&mask, |r| out.push(r));
            out
        };
        // total_cmp: NaN > inf > 1.0; ±0.0 and -inf are not.
        assert_eq!(selected, vec![0, 1]);
        // The sort permutation orders -inf < -0.0 < 0.0 < inf < NaN.
        assert_eq!(proj.sort_perm(1), &[2, 4, 3, 1, 0]);
    }

    #[test]
    fn string_kernel_matches_value_compare() {
        let schema = Schema::new([("k", ColumnType::Int), ("s", ColumnType::Str)]);
        let cells = [
            Value::from("banana"),
            Value::Null,
            Value::from("apple"),
            Value::from("cherry"),
            Value::from("banana"),
        ];
        let rows = cells
            .iter()
            .enumerate()
            .map(|(i, v)| vec![Value::Int(i as i64), v.clone()])
            .collect();
        let proj = store(&schema, rows);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for lit in ["apple", "banana", "blueberry", "zzz"] {
                let pred = Predicate::cmp("s", op, Value::from(lit));
                let mask = proj.selection_mask(&schema, &pred).unwrap();
                for (row, cell) in cells.iter().enumerate() {
                    let want = pred
                        .eval(
                            &schema,
                            &Record::new(&schema, vec![Value::Int(row as i64), cell.clone()])
                                .unwrap(),
                        )
                        .unwrap();
                    assert_eq!(bit(&mask, row), want, "{op} {lit:?} row {row}");
                }
            }
        }
    }

    #[test]
    fn unknown_predicate_column_errors_in_dfs_order() {
        let schema = Schema::new([("k", ColumnType::Int)]);
        let proj = store(&schema, vec![vec![Value::Int(1)]]);
        let pred = Predicate::cmp("aa", CmpOp::Eq, Value::Int(1)).and(Predicate::cmp(
            "bb",
            CmpOp::Eq,
            Value::Int(2),
        ));
        assert_eq!(
            proj.selection_mask(&schema, &pred).unwrap_err(),
            PredicateError::UnknownColumn("aa".into())
        );
    }

    #[test]
    fn group_keys_canonicalise_like_entity_key() {
        let schema = Schema::new([("k", ColumnType::Int), ("g", ColumnType::Float)]);
        let cells = [
            Value::Float(1.0),
            Value::Int(1),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::from_bits(f64::NAN.to_bits() | 1)),
            Value::Null,
            Value::Float(0.5),
        ];
        let rows = cells
            .iter()
            .enumerate()
            .map(|(i, v)| vec![Value::Int(i as i64), v.clone()])
            .collect();
        let proj = store(&schema, rows);
        for a in 0..cells.len() {
            for b in 0..cells.len() {
                let same_key = proj.group_key(1, a) == proj.group_key(1, b);
                let same_entity = cells[a].entity_key() == cells[b].entity_key();
                assert_eq!(same_key, same_entity, "{:?} vs {:?}", cells[a], cells[b]);
            }
        }
    }

    #[test]
    fn lossy_int_flag_trips_only_past_2_53() {
        let schema = Schema::new([("k", ColumnType::Int), ("x", ColumnType::Float)]);
        let exact = store(&schema, vec![vec![Value::Int(0), Value::Int(1 << 53)]]);
        assert!(!exact.lossy_ints(1));
        let lossy = store(
            &schema,
            vec![vec![Value::Int(0), Value::Int((1 << 53) + 1)]],
        );
        assert!(lossy.lossy_ints(1));
    }

    #[test]
    fn cells_come_back_exactly() {
        let schema = Schema::new([
            ("k", ColumnType::Int),
            ("x", ColumnType::Float),
            ("s", ColumnType::Str),
        ]);
        let nan = f64::from_bits(f64::NAN.to_bits() | 7);
        let rows = vec![
            vec![Value::Int(0), Value::Int(5), Value::from("b")],
            vec![Value::Int(1), Value::Float(5.0), Value::Null],
            vec![Value::Int(2), Value::Float(-0.0), Value::from("a")],
            vec![Value::Int(3), Value::Float(nan), Value::from("b")],
            vec![Value::Int(4), Value::Null, Value::from("")],
            vec![Value::Int(5), Value::Int(i64::MIN), Value::from("a")],
        ];
        let proj = store(&schema, rows.clone());
        for (row, cells) in rows.iter().enumerate() {
            for (col, want) in cells.iter().enumerate() {
                let got = proj.cell(col, row);
                match (&got, want) {
                    (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                    _ => assert_eq!(&got, want, "row {row} col {col}"),
                }
            }
        }
    }

    #[test]
    fn extend_for_append_matches_a_from_scratch_build() {
        let schema = Schema::new([
            ("k", ColumnType::Int),
            ("x", ColumnType::Float),
            ("s", ColumnType::Str),
        ]);
        let old_rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(0), Value::Float(3.0), Value::from("mango")],
            vec![Value::Int(1), Value::Null, Value::from("apple")],
            vec![Value::Int(2), Value::Float(f64::NAN), Value::Null],
            vec![Value::Int(3), Value::Float(-0.0), Value::from("mango")],
        ];
        let delta_rows: Vec<Vec<Value>> = vec![
            // Ties 3.0 (old row 0 must sort first), introduces "banana" and
            // "zucchini" (dictionary widens at both ends), repeats "apple".
            vec![Value::Int(4), Value::Float(3.0), Value::from("banana")],
            vec![
                Value::Int(5),
                Value::Float(f64::NEG_INFINITY),
                Value::from("zucchini"),
            ],
            vec![Value::Int(6), Value::Float(0.0), Value::from("apple")],
        ];
        let mut all = old_rows.clone();
        all.extend(delta_rows.clone());

        let mut grown = store(&schema, old_rows);
        // Build both numeric perms and the dictionary order so the merge
        // paths run.
        grown.sort_perm(0);
        grown.sort_perm(1);
        let probe = Predicate::cmp("s", CmpOp::Lt, Value::from("m"));
        grown.selection_mask(&schema, &probe).unwrap();
        let (touched, merges) =
            grown.extend_for_append(delta_rows.into_iter().map(|cells| (cells, vec![(0, 1)])));
        assert!(touched.is_empty());
        assert_eq!(merges, 2);

        let fresh = store(&schema, all);
        assert_eq!(grown.rows(), fresh.rows());
        assert_eq!(grown.sort_perm(0), fresh.sort_perm(0));
        assert_eq!(grown.sort_perm(1), fresh.sort_perm(1));
        assert_eq!(grown.mults(), fresh.mults());
        for col in 0..schema.len() {
            assert_eq!(grown.valid_bits(col), fresh.valid_bits(col));
            for row in 0..grown.rows() {
                assert_eq!(grown.group_key(col, row), fresh.group_key(col, row));
            }
        }
        // Every comparison kernel sees the widened dictionary identically.
        for op in OPS {
            for lit in [
                "aardvark", "apple", "banana", "mango", "pear", "zucchini", "zzz",
            ] {
                let pred = Predicate::cmp("s", op, Value::from(lit));
                assert_eq!(
                    grown.selection_mask(&schema, &pred).unwrap(),
                    fresh.selection_mask(&schema, &pred).unwrap(),
                    "{op} {lit:?}"
                );
            }
        }
    }

    /// A FLOAT cell from a selector: NaN of both signs, ±0.0, ±∞, NULL, and
    /// a few small values that tie often.
    fn float_cell(selector: u64) -> Value {
        match selector % 10 {
            0 => Value::Float(f64::NAN),
            1 => Value::Float(-f64::NAN),
            2 => Value::Float(0.0),
            3 => Value::Float(-0.0),
            4 => Value::Float(f64::INFINITY),
            5 => Value::Float(f64::NEG_INFINITY),
            6 => Value::Null,
            // An INT cell in a FLOAT column widens like any other.
            7 => Value::Int((selector / 10 % 4) as i64),
            _ => Value::Float((selector / 10 % 5) as f64 * 0.5),
        }
    }

    /// An INT cell from a selector: NULL, the extremes, and small ties.
    fn int_cell(selector: u64) -> Value {
        match selector % 6 {
            0 => Value::Null,
            1 => Value::Int(i64::MIN),
            2 => Value::Int(i64::MAX),
            _ => Value::Int((selector / 6 % 4) as i64 - 2),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Appending `k` rows, from one to twice the table's size, to a
        /// store whose sort permutations are built must leave every
        /// permutation equal to a fresh `sort_perm` of the whole table:
        /// ties across old and new rows keep the old row first.
        #[test]
        fn merged_permutations_equal_a_fresh_sort(
            base in proptest::collection::vec((0u64..1_000, 0u64..1_000), 1..40),
            delta in proptest::collection::vec((0u64..1_000, 0u64..1_000), 1..80),
        ) {
            let schema = Schema::new([
                ("k", ColumnType::Int),
                ("x", ColumnType::Float),
                ("n", ColumnType::Int),
            ]);
            let delta = &delta[..delta.len().min(2 * base.len())];
            let rows: Vec<Vec<Value>> = base
                .iter()
                .chain(delta)
                .enumerate()
                .map(|(key, &(x, n))| vec![Value::Int(key as i64), float_cell(x), int_cell(n)])
                .collect();
            let mut grown = store(&schema, rows[..base.len()].to_vec());
            for col in 0..schema.len() {
                grown.sort_perm(col);
            }
            let staged = rows[base.len()..].iter().map(|cells| (cells.clone(), vec![(0, 1)]));
            let (_, merges) = grown.extend_for_append(staged);
            proptest::prop_assert_eq!(merges, schema.len());
            let fresh = store(&schema, rows);
            for col in 0..schema.len() {
                proptest::prop_assert_eq!(grown.sort_perm(col), fresh.sort_perm(col), "column {}", col);
            }
        }
    }

    #[test]
    fn extend_refreshes_touched_multiplicities() {
        let schema = Schema::new([("k", ColumnType::Int), ("x", ColumnType::Float)]);
        let rows: Vec<Vec<Value>> = (0..3)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect();
        let mut proj = store(&schema, rows);
        // Row 1 re-observed by sources 0 and 2; the record's other cells
        // lose to the first record.
        let (touched, merges) = proj.extend_for_append([
            (vec![Value::Int(1), Value::Float(9.0)], vec![(0, 2)]),
            (vec![Value::Int(1), Value::Null], vec![(2, 1)]),
        ]);
        assert_eq!(touched, vec![1]);
        assert_eq!(merges, 0, "no permutation was built, so none merged");
        assert_eq!(proj.mults(), &[1, 4, 1]);
        assert_eq!(proj.lineage(1), &[(0, 3), (2, 1)]);
        assert_eq!(proj.cell(1, 1), Value::Float(1.0));
    }

    #[test]
    fn filtered_permutation_is_a_stable_subset_sort() {
        let schema = Schema::new([("k", ColumnType::Int), ("x", ColumnType::Float)]);
        let values = [3.0, 1.0, 3.0, 2.0, 1.0, f64::NAN, 0.5];
        let rows = values
            .iter()
            .enumerate()
            .map(|(i, &v)| vec![Value::Int(i as i64), Value::Float(v)])
            .collect();
        let proj = store(&schema, rows);
        // Select rows 0, 2, 3, 4, 6 (drop 1 and 5).
        let selected = vec![0b101_1101u64];
        let idx = sorted_idx_filtered(&proj, Some(1), &selected, 5);
        // Items in table order: [3.0, 3.0, 2.0, 1.0, 0.5]; stable ascending
        // sort of those items is [0.5, 1.0, 2.0, 3.0, 3.0] = items 4,3,2,0,1.
        assert_eq!(idx, vec![4, 3, 2, 0, 1]);
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Checks one comparison mask against `Value::compare` plus the operator
    /// on every row, and that no bit past the last row is set.
    fn assert_mask_matches(mask: &Mask, cells: &[Value], op: CmpOp, lit: &Value, what: &str) {
        let want_for = |cell: &Value| {
            cell.compare(lit).map(|ord| match op {
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => ord.is_ne(),
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
            })
        };
        assert_eq!(mask.t.len(), words_for(cells.len()), "{what}");
        assert_eq!(mask.f.len(), words_for(cells.len()), "{what}");
        for (row, cell) in cells.iter().enumerate() {
            let want = want_for(cell);
            let got = (bit(&mask.t, row), bit(&mask.f, row));
            let expected = (want == Some(true), want == Some(false));
            assert_eq!(got, expected, "{what}: {cell:?} {op} {lit:?} at row {row}");
        }
        for row in cells.len()..mask.t.len() * WORD {
            assert!(
                !bit(&mask.t, row) && !bit(&mask.f, row),
                "{what}: bit {row}"
            );
        }
    }

    #[test]
    fn word_kernel_matches_value_compare_on_numeric_columns() {
        let schema = Schema::new([
            ("k", ColumnType::Int),
            ("x", ColumnType::Float),
            ("n", ColumnType::Int),
        ]);
        let big = (1i64 << 53) + 1;
        let floats = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            1.5,
            2.0,
            -3.25,
            big as f64,
            1e300,
        ];
        let ints = [0, 1, 2, -1, 3, big, big - 2, i64::MAX, i64::MIN, -7];
        let lits = [
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Int(big),
            Value::Float(1.5),
            Value::Int(2),
        ];
        for rows in [1, 63, 64, 65, 127, 128, 129] {
            // NULLs fall in the last word: every third row of it.
            let last_word = (rows - 1) / WORD * WORD;
            let null_at = |row: usize| row >= last_word && (row - last_word) % 3 == 2;
            let table: Vec<Vec<Value>> = (0..rows)
                .map(|row| {
                    let (x, n) = if null_at(row) {
                        (Value::Null, Value::Null)
                    } else {
                        (
                            Value::Float(floats[row % floats.len()]),
                            Value::Int(ints[row * 7 % ints.len()]),
                        )
                    };
                    vec![Value::Int(row as i64), x, n]
                })
                .collect();
            let proj = store(&schema, table.clone());
            for col in [1, 2] {
                let cells: Vec<Value> = table.iter().map(|r| r[col].clone()).collect();
                for op in OPS {
                    for lit in &lits {
                        let mask = proj.cmp_mask(col, op, lit);
                        assert_mask_matches(
                            &mask,
                            &cells,
                            op,
                            lit,
                            &format!("{rows} rows, col {col}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn word_kernel_matches_value_compare_on_a_grown_dictionary() {
        let schema = Schema::new([("k", ColumnType::Int), ("s", ColumnType::Str)]);
        // The build sees only "bb", "dd", "ff"; the append adds strings
        // before, between and after them, whose codes sit at the pool end.
        let old = ["dd", "bb", "ff"];
        let new = ["gg", "cc", "aa", "ee", "dd"];
        let rows = 129;
        let old_rows = 70;
        let cells: Vec<Value> = (0..rows)
            .map(|row| match row {
                r if r >= 128 || (r >= 64 && r % 4 == 1) => Value::Null,
                r if r < old_rows => Value::from(old[r % old.len()]),
                r => Value::from(new[r % new.len()]),
            })
            .collect();
        let table: Vec<Vec<Value>> = cells
            .iter()
            .enumerate()
            .map(|(row, cell)| vec![Value::Int(row as i64), cell.clone()])
            .collect();
        let mut proj = store(&schema, table[..old_rows].to_vec());
        // Build the dictionary order before the append, so it is merged.
        proj.cmp_mask(1, CmpOp::Eq, &Value::from("dd"));
        proj.extend_for_append(
            table[old_rows..]
                .iter()
                .map(|cells| (cells.clone(), vec![(0, 1)])),
        );
        let lits = [
            "a", "aa", "bb", "bc", "cc", "cd", "dd", "ee", "ff", "fz", "gg", "zz",
        ];
        for op in OPS {
            for lit in lits {
                let lit = Value::from(lit);
                let mask = proj.cmp_mask(1, op, &lit);
                assert_mask_matches(&mask, &cells, op, &lit, "grown dictionary");
            }
        }
        // An all-NULL TEXT column has an empty pool: every row is unknown.
        let nulls = (0..3).map(|k| vec![Value::Int(k), Value::Null]).collect();
        let proj = store(&schema, nulls);
        let mask = proj.cmp_mask(1, CmpOp::Ge, &Value::from("a"));
        assert_mask_matches(
            &mask,
            &vec![Value::Null; 3],
            CmpOp::Ge,
            &Value::from("a"),
            "empty pool",
        );
    }
}
