//! Columnar projections of an [`crate::table::IntegratedTable`] and the
//! vectorized kernels that run over them.
//!
//! The paper's cold path executes three primitives per query — predicate
//! selection, a value sort, and the bucket partition — and the row
//! representation pays boxed [`crate::value::Value`] dispatch per record for
//! each. A [`Projection`] flattens the table once per `(instance, version)`
//! into primitive buffers:
//!
//! ```text
//! column j (FLOAT)   values:  [ f64; rows ]     (Int cells widened, as_f64)
//!                    valid:   [ u64; ⌈rows/64⌉ ] (bit = cell is non-NULL)
//! column k (TEXT)    codes:   [ u32; rows ]     (rank in sorted dict)
//!                    pool:    [ String; uniq ]   (sorted, deduplicated)
//! multiplicity       mults:   [ u64; rows ]
//! sort permutations  per numeric column, valid rows ascending (lazy)
//! ```
//!
//! Predicates compile to `(true, false)` bitmap pairs (Kleene three-valued
//! logic: a row with neither bit set is *unknown*) through one word kernel
//! that compares 64 rows per step without a per-row branch, so AND/OR/NOT
//! become word-wide bit operations. The value sort is computed
//! once per column as a stable permutation of the valid rows; every
//! selection's sorted order is derived by filtering that permutation, never
//! by re-sorting. All kernels reproduce the row path bit for bit — the same
//! `as_f64` widening, `total_cmp` ordering, and three-valued comparison
//! rules — which the `columnar_parity` suite pins.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::predicate::{CmpOp, Predicate, PredicateError};
use crate::schema::{ColumnType, Schema};
use crate::table::Entity;
use crate::value::Value;

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
fn bit(bits: &[u64], row: usize) -> bool {
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

    /// Kleene conjunction: true iff both true, false iff either false.
    fn and(mut self, other: Mask) -> Mask {
        for ((t, f), (ot, of)) in self
            .t
            .iter_mut()
            .zip(self.f.iter_mut())
            .zip(other.t.iter().zip(&other.f))
        {
            *t &= ot;
            *f |= of;
        }
        self
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

/// Primitive buffers of one column. Invalid (NULL) rows hold an arbitrary
/// placeholder; every consumer checks the validity bitmap first.
#[derive(Debug)]
enum ColumnData {
    /// FLOAT column: cells widened with `Value::as_f64` (Int cells included,
    /// matching row-path comparison and aggregation semantics exactly).
    Float(Vec<f64>),
    /// INT column, kept exact for grouping.
    Int(Vec<i64>),
    /// TEXT column, dictionary-encoded: `codes[row]` indexes the
    /// deduplicated `pool`, and `rank` maps a pool index to its
    /// lexicographic rank, so ordered comparisons against a literal reduce
    /// to one rank lookup plus integer compares per row. At build time the
    /// pool is sorted, making `sorted` and `rank` the identity; appends push
    /// new strings onto the pool end and splice them into `sorted`, so old
    /// codes never need re-coding when the dictionary widens.
    Str {
        codes: Vec<u32>,
        pool: Vec<String>,
        /// Pool indices in lexicographic order of their strings.
        sorted: Vec<u32>,
        /// Pool index → lexicographic rank (inverse permutation of `sorted`).
        rank: Vec<u32>,
    },
}

/// One projected column: primitive data plus validity.
#[derive(Debug)]
struct ColumnProjection {
    data: ColumnData,
    /// Bit per row: cell is non-NULL.
    valid: Vec<u64>,
    /// A FLOAT column held an INT cell whose magnitude exceeds 2^53, i.e.
    /// the widened `f64` may not round-trip. Comparisons and aggregation
    /// widen in the row path too, so only entity-key *grouping* (which keys
    /// on the exact decimal string) must key such a column on strings.
    lossy_ints: bool,
}

/// Hashable canonical group identity of a cell, mirroring
/// [`Value::entity_key`] without materialising the string: two cells map to
/// the same key iff their entity keys are equal.
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

/// A columnar snapshot of one table state, cached on the table per
/// `(instance, version)` and shared read-only across queries.
#[derive(Debug)]
pub struct Projection {
    version: u64,
    rows: usize,
    columns: Vec<ColumnProjection>,
    /// Per-row total observation count (`Entity::multiplicity`).
    mults: Vec<u64>,
    /// Lazily-built stable sort permutation per column: indices of *valid*
    /// rows in ascending value order (`total_cmp` over the widened floats,
    /// ties in row order). Numeric columns only.
    sort_perms: Vec<OnceLock<Vec<u32>>>,
}

impl Projection {
    /// Flattens `entities` under `schema` into primitive buffers.
    pub(crate) fn build(schema: &Schema, entities: &[Entity], version: u64) -> Projection {
        let rows = entities.len();
        let words = words_for(rows);
        let columns = schema
            .columns()
            .iter()
            .enumerate()
            .map(|(j, col)| {
                let mut valid = vec![0u64; words];
                let mut lossy_ints = false;
                let data = match col.ty {
                    ColumnType::Float => {
                        let mut values = vec![0.0f64; rows];
                        for (row, e) in entities.iter().enumerate() {
                            let cell = e.record.value(j);
                            if let Some(v) = cell.as_f64() {
                                values[row] = v;
                                valid[row / WORD] |= 1 << (row % WORD);
                                if let Value::Int(i) = cell {
                                    lossy_ints |= i.unsigned_abs() > (1 << 53);
                                }
                            }
                        }
                        ColumnData::Float(values)
                    }
                    ColumnType::Int => {
                        let mut values = vec![0i64; rows];
                        for (row, e) in entities.iter().enumerate() {
                            if let Value::Int(i) = e.record.value(j) {
                                values[row] = *i;
                                valid[row / WORD] |= 1 << (row % WORD);
                            }
                        }
                        ColumnData::Int(values)
                    }
                    ColumnType::Str => {
                        let mut pool: Vec<String> = entities
                            .iter()
                            .filter_map(|e| e.record.value(j).as_str().map(str::to_string))
                            .collect();
                        pool.sort_unstable();
                        pool.dedup();
                        let mut codes = vec![0u32; rows];
                        for (row, e) in entities.iter().enumerate() {
                            if let Some(s) = e.record.value(j).as_str() {
                                let code = pool
                                    .binary_search_by(|p| p.as_str().cmp(s))
                                    .expect("pool contains every cell string");
                                codes[row] = code as u32;
                                valid[row / WORD] |= 1 << (row % WORD);
                            }
                        }
                        let sorted: Vec<u32> = (0..pool.len() as u32).collect();
                        let rank = sorted.clone();
                        ColumnData::Str {
                            codes,
                            pool,
                            sorted,
                            rank,
                        }
                    }
                };
                ColumnProjection {
                    data,
                    valid,
                    lossy_ints,
                }
            })
            .collect();
        let mults = entities.iter().map(Entity::multiplicity).collect();
        Projection {
            version,
            rows,
            columns,
            mults,
            sort_perms: (0..schema.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Grows the projection in place for an append of
    /// `entities[old_rows..]`: primitive buffers and validity bitmaps
    /// extend, dictionaries widen without re-coding old rows, multiplicities
    /// of `touched` pre-existing rows refresh, and every sort permutation
    /// already built absorbs the new rows by a sorted merge instead of an
    /// `n log n` re-sort. Returns the number of permutation merges
    /// performed. The result is bit-for-bit identical to
    /// [`Projection::build`] over the full entity slice, except that
    /// dictionary codes of strings first seen in the delta sit at the pool
    /// end rather than in rank order — an encoding choice the comparison
    /// kernels absorb through the `rank` indirection.
    pub(crate) fn extend_for_append(
        &mut self,
        schema: &Schema,
        entities: &[Entity],
        touched: &[u32],
        version: u64,
    ) -> usize {
        let old_rows = self.rows;
        let rows = entities.len();
        debug_assert!(rows >= old_rows, "appends never shrink a table");
        let words = words_for(rows);
        for (j, col) in self.columns.iter_mut().enumerate() {
            col.valid.resize(words, 0);
            match &mut col.data {
                ColumnData::Float(values) => {
                    values.reserve(rows - old_rows);
                    for (row, e) in entities.iter().enumerate().skip(old_rows) {
                        let cell = e.record.value(j);
                        if let Some(v) = cell.as_f64() {
                            values.push(v);
                            col.valid[row / WORD] |= 1 << (row % WORD);
                            if let Value::Int(i) = cell {
                                col.lossy_ints |= i.unsigned_abs() > (1 << 53);
                            }
                        } else {
                            values.push(0.0);
                        }
                    }
                }
                ColumnData::Int(values) => {
                    values.reserve(rows - old_rows);
                    for (row, e) in entities.iter().enumerate().skip(old_rows) {
                        if let Value::Int(i) = e.record.value(j) {
                            values.push(*i);
                            col.valid[row / WORD] |= 1 << (row % WORD);
                        } else {
                            values.push(0);
                        }
                    }
                }
                ColumnData::Str {
                    codes,
                    pool,
                    sorted,
                    rank,
                } => {
                    codes.reserve(rows - old_rows);
                    // Strings the dictionary has never seen get codes at the
                    // pool end in first-appearance order, but their splice
                    // into the lexicographic order is batched: one sorted
                    // merge and one rank rebuild per append, instead of an
                    // O(pool) shift per new string.
                    let base = pool.len() as u32;
                    let mut new_strings: Vec<String> = Vec::new();
                    let mut new_index: HashMap<String, u32> = HashMap::new();
                    for (row, e) in entities.iter().enumerate().skip(old_rows) {
                        let Some(s) = e.record.value(j).as_str() else {
                            codes.push(0);
                            continue;
                        };
                        let code = if let Some(&c) = new_index.get(s) {
                            c
                        } else {
                            let pos = sorted.partition_point(|&i| pool[i as usize].as_str() < s);
                            match sorted.get(pos) {
                                Some(&i) if pool[i as usize] == s => i,
                                _ => {
                                    let c = base + new_strings.len() as u32;
                                    new_strings.push(s.to_string());
                                    new_index.insert(s.to_string(), c);
                                    c
                                }
                            }
                        };
                        codes.push(code);
                        col.valid[row / WORD] |= 1 << (row % WORD);
                    }
                    if !new_strings.is_empty() {
                        let mut delta: Vec<u32> = (base..base + new_strings.len() as u32).collect();
                        delta.sort_unstable_by(|&a, &b| {
                            new_strings[(a - base) as usize].cmp(&new_strings[(b - base) as usize])
                        });
                        pool.extend(new_strings);
                        // New strings are distinct from every old one, so the
                        // merge never ties and reproduces the full
                        // lexicographic order exactly.
                        let mut merged = Vec::with_capacity(sorted.len() + delta.len());
                        let mut old_it = sorted.iter().copied().peekable();
                        let mut new_it = delta.into_iter().peekable();
                        while let (Some(&o), Some(&n)) = (old_it.peek(), new_it.peek()) {
                            if pool[o as usize] < pool[n as usize] {
                                merged.push(o);
                                old_it.next();
                            } else {
                                merged.push(n);
                                new_it.next();
                            }
                        }
                        merged.extend(old_it);
                        merged.extend(new_it);
                        *sorted = merged;
                        rank.resize(pool.len(), 0);
                        for (pos, &c) in sorted.iter().enumerate() {
                            rank[c as usize] = pos as u32;
                        }
                    }
                }
            }
        }
        self.mults
            .extend(entities[old_rows..].iter().map(Entity::multiplicity));
        for &row in touched {
            self.mults[row as usize] = entities[row as usize].multiplicity();
        }
        let mut merges = 0;
        for (col, slot) in self.columns.iter().zip(&mut self.sort_perms) {
            let Some(old_perm) = slot.take() else {
                continue;
            };
            merges += 1;
            let value_at: &dyn Fn(u32) -> f64 = match &col.data {
                ColumnData::Float(v) => &|r| v[r as usize],
                ColumnData::Int(v) => &|r| v[r as usize] as f64,
                ColumnData::Str { .. } => unreachable!("sort permutation of a TEXT column"),
            };
            let mut delta: Vec<u32> = Vec::new();
            for row in old_rows..rows {
                if bit(&col.valid, row) {
                    delta.push(row as u32);
                }
            }
            // Delta rows arrive in row order, so a stable sort keeps ties in
            // row order — exactly the tie rule of a full re-sort.
            delta.sort_by(|&a, &b| value_at(a).total_cmp(&value_at(b)));
            let mut merged = Vec::with_capacity(old_perm.len() + delta.len());
            let mut old_it = old_perm.into_iter().peekable();
            let mut new_it = delta.into_iter().peekable();
            while let (Some(&o), Some(&n)) = (old_it.peek(), new_it.peek()) {
                // Every delta row index exceeds every old row index, so on a
                // value tie the old row comes first — matching the stable
                // full re-sort bit for bit.
                if value_at(o).total_cmp(&value_at(n)).is_le() {
                    merged.push(o);
                    old_it.next();
                } else {
                    merged.push(n);
                    new_it.next();
                }
            }
            merged.extend(old_it);
            merged.extend(new_it);
            slot.set(merged).expect("slot was just emptied");
        }
        debug_assert_eq!(self.columns.len(), schema.len());
        self.rows = rows;
        self.version = version;
        merges
    }

    /// The table version this projection snapshots.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of rows (= unique entities).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Approximate heap footprint: value buffers, validity bitmaps, string
    /// pools, multiplicities, and any sort permutations built so far.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let mut total = size_of::<Self>();
        for col in &self.columns {
            total += size_of_val(col.valid.as_slice());
            total += match &col.data {
                ColumnData::Float(v) => size_of_val(v.as_slice()),
                ColumnData::Int(v) => size_of_val(v.as_slice()),
                ColumnData::Str {
                    codes,
                    pool,
                    sorted,
                    rank,
                } => {
                    size_of_val(codes.as_slice())
                        + size_of_val(sorted.as_slice())
                        + size_of_val(rank.as_slice())
                        + pool
                            .iter()
                            .map(|s| size_of::<String>() + s.len())
                            .sum::<usize>()
                }
            };
        }
        total += size_of_val(self.mults.as_slice());
        for perm in &self.sort_perms {
            if let Some(p) = perm.get() {
                total += size_of_val(p.as_slice());
            }
        }
        total
    }

    /// Per-row multiplicities.
    pub(crate) fn mults(&self) -> &[u64] {
        &self.mults
    }

    /// The validity bitmap of column `col`.
    pub(crate) fn valid_bits(&self, col: usize) -> &[u64] {
        &self.columns[col].valid
    }

    /// Whether grouping by `col` must key on exact entity-key strings (see
    /// [`ColumnProjection::lossy_ints`]).
    pub(crate) fn lossy_ints(&self, col: usize) -> bool {
        self.columns[col].lossy_ints
    }

    /// The cell of a numeric column widened to `f64` (exactly
    /// `Value::as_f64`). Only meaningful for valid rows.
    #[inline]
    pub(crate) fn float_at(&self, col: usize, row: usize) -> f64 {
        match &self.columns[col].data {
            ColumnData::Float(v) => v[row],
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
            ColumnData::Float(v) => {
                let f = v[row];
                if f.is_nan() {
                    GroupKey::Nan
                } else if f.fract() == 0.0 && f.abs() < 1e15 {
                    GroupKey::Int(f as i64)
                } else {
                    GroupKey::Bits(f.to_bits())
                }
            }
        }
    }

    /// The stable ascending sort permutation of column `col`'s valid rows,
    /// built on first use and memoized on the projection. Ties keep row
    /// order, so filtering this permutation by any selection reproduces a
    /// stable `total_cmp` sort of the selected items exactly.
    pub(crate) fn sort_perm(&self, col: usize) -> &[u32] {
        self.sort_perms[col].get_or_init(|| {
            let c = &self.columns[col];
            let mut perm: Vec<u32> = Vec::with_capacity(self.rows);
            for_each_set(&c.valid, |row| perm.push(row as u32));
            match &c.data {
                ColumnData::Float(v) => {
                    perm.sort_by(|&a, &b| v[a as usize].total_cmp(&v[b as usize]));
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
            (
                ColumnData::Str {
                    codes,
                    pool,
                    sorted,
                    rank,
                },
                Value::Str(s),
            ) => {
                // Rows key on twice their dictionary rank; an absent literal
                // keys on the odd slot just below its insertion rank, so it
                // orders between its neighbours and equals no row.
                let lit_rank = sorted.partition_point(|&i| pool[i as usize].as_str() < s);
                let present = sorted
                    .get(lit_rank)
                    .is_some_and(|&i| pool[i as usize] == *s);
                let lit = 2 * lit_rank as i64 - i64::from(!present);
                // NULL rows of an all-NULL column hold code 0 over an empty
                // pool; validity masks whatever key they get.
                let key = |code: u32| rank.get(code as usize).map_or(0, |&r| 2 * i64::from(r));
                cmp_words(codes, &c.valid, op, lit, key)
            }
            // String vs. number (either direction): incomparable.
            (ColumnData::Str { .. }, _) | (_, Value::Str(_)) => Mask::all_unknown(self.rows),
            (ColumnData::Float(values), lit) => {
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

    fn entities(schema: &Schema, rows: Vec<Vec<Value>>) -> Vec<Entity> {
        rows.into_iter()
            .map(|values| Entity {
                record: Record::new(schema, values).unwrap(),
                source_counts: vec![(0, 1)],
            })
            .collect()
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
        let ents = entities(&schema, rows);
        let proj = Projection::build(&schema, &ents, 0);
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
        let ents = entities(&schema, rows);
        let proj = Projection::build(&schema, &ents, 0);
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
        let ents = entities(&schema, vec![vec![Value::Int(1)]]);
        let proj = Projection::build(&schema, &ents, 0);
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
        let ents = entities(&schema, rows);
        let proj = Projection::build(&schema, &ents, 0);
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
        let exact = entities(&schema, vec![vec![Value::Int(0), Value::Int(1 << 53)]]);
        assert!(!Projection::build(&schema, &exact, 0).lossy_ints(1));
        let lossy = entities(
            &schema,
            vec![vec![Value::Int(0), Value::Int((1 << 53) + 1)]],
        );
        assert!(Projection::build(&schema, &lossy, 0).lossy_ints(1));
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
        all.extend(delta_rows);
        let old_ents = entities(&schema, old_rows);
        let all_ents = entities(&schema, all);

        let mut grown = Projection::build(&schema, &old_ents, 3);
        // Initialize both numeric perms so the merge path runs.
        grown.sort_perm(0);
        grown.sort_perm(1);
        let merges = grown.extend_for_append(&schema, &all_ents, &[], 7);
        assert_eq!(merges, 2);

        let fresh = Projection::build(&schema, &all_ents, 7);
        assert_eq!(grown.rows(), fresh.rows());
        assert_eq!(grown.sort_perm(0), fresh.sort_perm(0));
        assert_eq!(grown.sort_perm(1), fresh.sort_perm(1));
        assert_eq!(grown.mults(), fresh.mults());
        for col in 0..schema.len() {
            assert_eq!(grown.valid_bits(col), fresh.valid_bits(col));
        }
        // Group keys agree up to code renaming: same-key pairs are identical.
        for a in 0..grown.rows() {
            for b in 0..grown.rows() {
                assert_eq!(
                    grown.group_key(2, a) == grown.group_key(2, b),
                    fresh.group_key(2, a) == fresh.group_key(2, b),
                    "group key equivalence rows {a},{b}"
                );
            }
        }
        // Every comparison kernel sees the widened dictionary identically.
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
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

    #[test]
    fn extend_refreshes_touched_multiplicities() {
        let schema = Schema::new([("k", ColumnType::Int), ("x", ColumnType::Float)]);
        let rows: Vec<Vec<Value>> = (0..3)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect();
        let mut ents = entities(&schema, rows);
        let mut proj = Projection::build(&schema, &ents, 0);
        ents[1].source_counts = vec![(0, 4)];
        let merges = proj.extend_for_append(&schema, &ents, &[1], 1);
        assert_eq!(merges, 0, "no permutation was built, so none merged");
        assert_eq!(proj.mults(), &[1, 4, 1]);
        assert_eq!(proj.version(), 1);
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
        let ents = entities(&schema, rows);
        let proj = Projection::build(&schema, &ents, 0);
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
            let proj = Projection::build(&schema, &entities(&schema, table.clone()), 0);
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
        let ents = entities(&schema, table);
        let mut proj = Projection::build(&schema, &ents[..old_rows], 0);
        proj.extend_for_append(&schema, &ents, &[], 1);
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
        let nulls = entities(&schema, vec![vec![Value::Int(0), Value::Null]; 3]);
        let proj = Projection::build(&schema, &nulls, 0);
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
