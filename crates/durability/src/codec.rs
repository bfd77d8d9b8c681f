//! Stable byte-level codecs for everything the durability layer persists.
//!
//! All integers are little-endian; collections are a `u32` count followed
//! by the elements; strings are UTF-8 bytes behind a `u32` length. The
//! format carries no self-description — framing, versioning and checksums
//! are the snapshot's job ([`crate::snapshot`]).
//! Decoders validate counts against the remaining input, so a corrupt
//! (CRC-passing but logically damaged) frame degrades into a decode error,
//! never a huge allocation or a panic. Typed columns and dictionary codes
//! are decoded from one bounds-checked slice of `n * width` bytes rather
//! than one checked read per value; the bytes are the same either way.
//!
//! A hash table is stored as its image: tuple width, directory depth,
//! resize count, then `(key, value)` per arena entry in arena order. Chains
//! list entries newest first however the directory got split, so
//! [`ExtendibleHashTable::from_entries`] relinks the arena into a table
//! `==` to the original that answers every probe in the same order; no
//! directory, chain link or split state is written.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

use hashstash_types::{DataType, Field, Schema, Value};

use hashstash_cache::{AggHt, AggState, ColumnHt, StoredHt};
use hashstash_hashtable::ExtendibleHashTable;
use hashstash_plan::{
    AggExpr, AggFunc, HtFingerprint, HtKind, Interval, JoinEdge, PredBox, Region,
};
use hashstash_storage::{Column, Table};

/// Decode failure: a human-readable description of the first inconsistency.
pub type DecodeResult<T> = std::result::Result<T, String>;

// ---------------------------------------------------------------- writer

/// Append-only byte sink (a thin `Vec<u8>` wrapper).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A collection count (`u32`).
    pub fn put_count(&mut self, n: usize) {
        self.put_u32(n as u32);
    }

    /// Fixed-width values back to back, no count (see
    /// [`Reader::get_array`]).
    fn put_array<T: Copy, const W: usize>(&mut self, values: &[T], to: impl Fn(T) -> [u8; W]) {
        self.buf.reserve(values.len() * W);
        for &v in values {
            self.buf.extend_from_slice(&to(v));
        }
    }
}

// ---------------------------------------------------------------- reader

/// Cursor over an encoded byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor consumed the whole input.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(format!(
                "truncated input: need {n} bytes, have {}",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> DecodeResult<u32> {
        // tidy:allow(no-panic-paths): take(4) guarantees exactly 4 bytes
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> DecodeResult<u64> {
        // tidy:allow(no-panic-paths): take(8) guarantees exactly 8 bytes
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> DecodeResult<i64> {
        // tidy:allow(no-panic-paths): take(8) guarantees exactly 8 bytes
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i32(&mut self) -> DecodeResult<i32> {
        // tidy:allow(no-panic-paths): take(4) guarantees exactly 4 bytes
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_str(&mut self) -> DecodeResult<String> {
        self.get_str_ref().map(str::to_string)
    }

    /// A string as a shared `Arc<str>`, copied once out of the input.
    fn get_arc_str(&mut self) -> DecodeResult<Arc<str>> {
        self.get_str_ref().map(Arc::from)
    }

    /// A string borrowed from the input.
    fn get_str_ref(&mut self) -> DecodeResult<&'a str> {
        let n = self.get_u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|e| format!("invalid UTF-8 string: {e}"))
    }

    /// `n` fixed-width values decoded from one bounds-checked slice of
    /// `n * W` bytes (the inverse of [`Writer::put_array`]).
    fn get_array<T, const W: usize>(
        &mut self,
        n: usize,
        from: impl Fn([u8; W]) -> T,
    ) -> DecodeResult<Vec<T>> {
        let len = n
            .checked_mul(W)
            .ok_or_else(|| format!("corrupt count {n}: array size overflows"))?;
        let (chunks, _) = self.take(len)?.as_chunks::<W>();
        Ok(chunks.iter().map(|&c| from(c)).collect())
    }

    /// A collection count, validated against the remaining input: each
    /// element occupies at least `min_elem_bytes`, so a corrupt count can
    /// never provoke an over-allocation.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> DecodeResult<usize> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(format!(
                "corrupt count {n}: exceeds remaining {} bytes",
                self.remaining()
            ));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------- scalars

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Date => 3,
    }
}

fn dtype_of(tag: u8) -> DecodeResult<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Date,
        t => return Err(format!("unknown data-type tag {t}")),
    })
}

/// Encode one scalar value.
pub fn encode_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Int(x) => {
            w.put_u8(0);
            w.put_i64(*x);
        }
        Value::Float(f) => {
            w.put_u8(1);
            w.put_f64(f.0);
        }
        Value::Str(s) => {
            w.put_u8(2);
            w.put_str(s);
        }
        Value::Date(d) => {
            w.put_u8(3);
            w.put_i32(*d);
        }
    }
}

/// Decode one scalar value.
pub fn decode_value(r: &mut Reader<'_>) -> DecodeResult<Value> {
    Ok(match r.get_u8()? {
        0 => Value::Int(r.get_i64()?),
        1 => Value::float(r.get_f64()?),
        2 => Value::str(r.get_str_ref()?),
        3 => Value::Date(r.get_i32()?),
        t => return Err(format!("unknown value tag {t}")),
    })
}

/// Encode a schema (field names and types).
pub fn encode_schema(w: &mut Writer, s: &Schema) {
    w.put_count(s.len());
    for f in s.fields() {
        w.put_str(&f.name);
        w.put_u8(dtype_tag(f.dtype));
    }
}

/// Decode a schema.
pub fn decode_schema(r: &mut Reader<'_>) -> DecodeResult<Schema> {
    let n = r.get_count(5)?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.get_str()?;
        let dtype = dtype_of(r.get_u8()?)?;
        fields.push(Field::new(name, dtype));
    }
    Ok(Schema::new(fields))
}

// ---------------------------------------------------------------- regions

fn encode_bound(w: &mut Writer, b: &Bound<Value>) {
    match b {
        Bound::Unbounded => w.put_u8(0),
        Bound::Included(v) => {
            w.put_u8(1);
            encode_value(w, v);
        }
        Bound::Excluded(v) => {
            w.put_u8(2);
            encode_value(w, v);
        }
    }
}

fn decode_bound(r: &mut Reader<'_>) -> DecodeResult<Bound<Value>> {
    Ok(match r.get_u8()? {
        0 => Bound::Unbounded,
        1 => Bound::Included(decode_value(r)?),
        2 => Bound::Excluded(decode_value(r)?),
        t => return Err(format!("unknown bound tag {t}")),
    })
}

fn encode_interval(w: &mut Writer, iv: &Interval) {
    encode_bound(w, iv.lo());
    encode_bound(w, iv.hi());
}

fn decode_interval(r: &mut Reader<'_>) -> DecodeResult<Interval> {
    let lo = decode_bound(r)?;
    let hi = decode_bound(r)?;
    Ok(Interval::new(lo, hi))
}

fn encode_predbox(w: &mut Writer, b: &PredBox) {
    let constrained: Vec<_> = b.constrained().collect();
    w.put_count(constrained.len());
    for (attr, iv) in constrained {
        w.put_str(attr);
        encode_interval(w, iv);
    }
}

fn decode_predbox(r: &mut Reader<'_>) -> DecodeResult<PredBox> {
    let n = r.get_count(6)?;
    let mut b = PredBox::all();
    for _ in 0..n {
        let attr = r.get_str()?;
        let iv = decode_interval(r)?;
        b.constrain(attr.as_str(), iv);
    }
    Ok(b)
}

/// Encode a predicate region as its disjoint boxes.
pub fn encode_region(w: &mut Writer, region: &Region) {
    w.put_count(region.boxes().len());
    for b in region.boxes() {
        encode_predbox(w, b);
    }
}

/// Decode a region. The boxes are re-unioned, so the result is *set-equal*
/// to the original (the representation may re-coalesce) — which is exactly
/// the equivalence lineage matching and publish dedup use.
pub fn decode_region(r: &mut Reader<'_>) -> DecodeResult<Region> {
    let n = r.get_count(4)?;
    let mut region = Region::empty();
    for _ in 0..n {
        region = region.union(&Region::from_box(decode_predbox(r)?));
    }
    Ok(region)
}

// ---------------------------------------------------------------- lineage

fn kind_tag(k: HtKind) -> u8 {
    match k {
        HtKind::JoinBuild => 0,
        HtKind::Aggregate => 1,
        HtKind::SharedGroup => 2,
    }
}

fn kind_of(tag: u8) -> DecodeResult<HtKind> {
    Ok(match tag {
        0 => HtKind::JoinBuild,
        1 => HtKind::Aggregate,
        2 => HtKind::SharedGroup,
        t => return Err(format!("unknown ht-kind tag {t}")),
    })
}

fn func_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::Sum => 0,
        AggFunc::Count => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Avg => 4,
    }
}

fn func_of(tag: u8) -> DecodeResult<AggFunc> {
    Ok(match tag {
        0 => AggFunc::Sum,
        1 => AggFunc::Count,
        2 => AggFunc::Min,
        3 => AggFunc::Max,
        4 => AggFunc::Avg,
        t => return Err(format!("unknown agg-func tag {t}")),
    })
}

fn encode_attrs(w: &mut Writer, attrs: &[Arc<str>]) {
    w.put_count(attrs.len());
    for a in attrs {
        w.put_str(a);
    }
}

fn decode_attrs(r: &mut Reader<'_>) -> DecodeResult<Vec<Arc<str>>> {
    let n = r.get_count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_arc_str()?);
    }
    Ok(out)
}

/// Encode a hash-table fingerprint (the full lineage).
pub fn encode_fingerprint(w: &mut Writer, fp: &HtFingerprint) {
    w.put_u8(kind_tag(fp.kind));
    w.put_count(fp.tables.len());
    for t in &fp.tables {
        w.put_str(t);
    }
    w.put_count(fp.edges.len());
    for e in &fp.edges {
        w.put_str(&e.left_table);
        w.put_str(&e.left_col);
        w.put_str(&e.right_table);
        w.put_str(&e.right_col);
    }
    encode_region(w, &fp.region);
    encode_attrs(w, &fp.key_attrs);
    encode_attrs(w, &fp.payload_attrs);
    w.put_count(fp.aggregates.len());
    for a in &fp.aggregates {
        w.put_u8(func_tag(a.func));
        w.put_str(&a.attr);
    }
}

/// Decode a fingerprint.
pub fn decode_fingerprint(r: &mut Reader<'_>) -> DecodeResult<HtFingerprint> {
    let kind = kind_of(r.get_u8()?)?;
    let n_tables = r.get_count(4)?;
    let mut tables = BTreeSet::new();
    for _ in 0..n_tables {
        tables.insert(r.get_arc_str()?);
    }
    let n_edges = r.get_count(16)?;
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let lt = r.get_str()?;
        let lc = r.get_str()?;
        let rt = r.get_str()?;
        let rc = r.get_str()?;
        edges.push(JoinEdge::new(&lt, &lc, &rt, &rc));
    }
    let region = decode_region(r)?;
    let key_attrs = decode_attrs(r)?;
    let payload_attrs = decode_attrs(r)?;
    let n_aggs = r.get_count(5)?;
    let mut aggregates = Vec::with_capacity(n_aggs);
    for _ in 0..n_aggs {
        let func = func_of(r.get_u8()?)?;
        let attr = r.get_str()?;
        aggregates.push(AggExpr::new(func, attr.as_str()));
    }
    Ok(HtFingerprint {
        kind,
        tables,
        edges,
        region,
        key_attrs,
        payload_attrs,
        aggregates,
    }
    .normalized())
}

// ---------------------------------------------------------------- payloads

fn encode_f64s(w: &mut Writer, v: &[f64]) {
    w.put_count(v.len());
    w.put_array(v, |x| x.to_bits().to_le_bytes());
}

fn encode_i64s(w: &mut Writer, v: &[i64]) {
    w.put_count(v.len());
    w.put_array(v, i64::to_le_bytes);
}

fn decode_f64s(r: &mut Reader<'_>) -> DecodeResult<Vec<f64>> {
    let n = r.get_count(8)?;
    r.get_array(n, |b| f64::from_bits(u64::from_le_bytes(b)))
}

fn decode_i64s(r: &mut Reader<'_>) -> DecodeResult<Vec<i64>> {
    let n = r.get_count(8)?;
    r.get_array(n, i64::from_le_bytes)
}

/// An aggregate's state column: its function's tag, then its values as a
/// typed array (`AVG`: the sums, then the counts; `MIN`/`MAX`: a column).
fn encode_state(w: &mut Writer, state: &AggState) {
    w.put_u8(func_tag(state.func()));
    match state {
        AggState::Sum(v) => encode_f64s(w, v),
        AggState::Count(v) => encode_i64s(w, v),
        AggState::Avg { sum, count } => {
            encode_f64s(w, sum);
            encode_i64s(w, count);
        }
        AggState::Min(c) | AggState::Max(c) => encode_column(w, c),
    }
}

fn decode_state(r: &mut Reader<'_>) -> DecodeResult<AggState> {
    Ok(match func_of(r.get_u8()?)? {
        AggFunc::Sum => AggState::Sum(decode_f64s(r)?),
        AggFunc::Count => AggState::Count(decode_i64s(r)?),
        AggFunc::Avg => AggState::Avg {
            sum: decode_f64s(r)?,
            count: decode_i64s(r)?,
        },
        AggFunc::Min => AggState::Min(decode_column(r)?),
        AggFunc::Max => AggState::Max(decode_column(r)?),
    })
}

fn encode_ht<V>(w: &mut Writer, ht: &ExtendibleHashTable<V>, enc: impl Fn(&mut Writer, &V)) {
    let stats = ht.stats();
    w.put_u64(stats.tuple_width as u64);
    w.put_u8(ht.bucket_count().trailing_zeros() as u8);
    w.put_u64(stats.resizes as u64);
    w.put_count(ht.len());
    for (key, v) in ht.iter() {
        w.put_u64(key);
        enc(w, v);
    }
}

/// Decode a hash-table image. A depth whose directory would have more
/// slots than `max(2, entries)` is rejected before anything is allocated:
/// no table the engine builds has one, so it can only be a forged image.
fn decode_ht<V>(
    r: &mut Reader<'_>,
    dec: impl Fn(&mut Reader<'_>) -> DecodeResult<V>,
) -> DecodeResult<ExtendibleHashTable<V>> {
    let tuple_width = r.get_u64()? as usize;
    let global_depth = r.get_u8()?;
    let resizes = r.get_u64()? as usize;
    let n = r.get_count(8)?;
    if global_depth > 1 && (global_depth >= 32 || 1usize << global_depth > n) {
        return Err(format!(
            "hash-table depth {global_depth} too large for {n} entries"
        ));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.get_u64()?;
        entries.push((key, dec(r)?));
    }
    Ok(ExtendibleHashTable::from_entries(
        tuple_width,
        global_depth,
        resizes,
        entries,
    ))
}

/// Encode a cached table: a hash table as a tag byte and its image — a join
/// or grouping table's payload as its typed columns after the index, an
/// aggregate table's group-key columns and then its state columns — and a
/// temp table, untagged, as [`encode_table`] writes a table (a snapshot
/// entry's kind byte tells [`decode_stored_ht`]'s hash tables from
/// [`decode_table`]'s temp tables).
pub fn encode_stored_ht(w: &mut Writer, ht: &StoredHt) {
    match ht {
        StoredHt::Rows(t) => {
            w.put_u8(0);
            encode_ht(w, t.index(), |_, ()| {});
            w.put_count(t.columns().len());
            for c in t.columns() {
                encode_column(w, c);
            }
        }
        StoredHt::Agg(t) => {
            w.put_u8(1);
            encode_ht(w, t.index(), |_, ()| {});
            w.put_count(t.groups().len());
            for c in t.groups() {
                encode_column(w, c);
            }
            w.put_count(t.states().len());
            for s in t.states() {
                encode_state(w, s);
            }
        }
        StoredHt::Materialized(t) => encode_table(w, t.table()),
    }
}

/// Decode a cached hash table (a temp table is [`decode_table`]).
pub fn decode_stored_ht(r: &mut Reader<'_>) -> DecodeResult<StoredHt> {
    Ok(match r.get_u8()? {
        0 => {
            let index = decode_ht(r, |_| Ok(()))?;
            let n = r.get_count(5)?;
            let columns = (0..n)
                .map(|_| decode_column(r))
                .collect::<DecodeResult<Vec<_>>>()?;
            let table = ColumnHt::from_parts(index, columns)
                .ok_or("payload columns out of step with the arena")?;
            StoredHt::Rows(table)
        }
        1 => {
            let index = decode_ht(r, |_| Ok(()))?;
            let n = r.get_count(5)?;
            let groups = (0..n)
                .map(|_| decode_column(r))
                .collect::<DecodeResult<Vec<_>>>()?;
            let n = r.get_count(5)?;
            let states = (0..n)
                .map(|_| decode_state(r))
                .collect::<DecodeResult<Vec<_>>>()?;
            let table = AggHt::from_parts(index, groups, states)
                .ok_or("aggregate columns out of step with the arena")?;
            StoredHt::Agg(table)
        }
        t => return Err(format!("unknown stored-ht tag {t}")),
    })
}

// ---------------------------------------------------------------- storage

fn encode_column(w: &mut Writer, c: &Column) {
    match c {
        Column::Int(v) => {
            w.put_u8(0);
            w.put_count(v.len());
            w.put_array(v, i64::to_le_bytes);
        }
        Column::Float(v) => {
            w.put_u8(1);
            w.put_count(v.len());
            w.put_array(v, |x| x.to_bits().to_le_bytes());
        }
        Column::Date(v) => {
            w.put_u8(2);
            w.put_count(v.len());
            w.put_array(v, i32::to_le_bytes);
        }
        Column::Str { dict, codes } => {
            w.put_u8(3);
            w.put_count(dict.len());
            for s in dict {
                w.put_str(s);
            }
            w.put_count(codes.len());
            w.put_array(codes, u32::to_le_bytes);
        }
    }
}

fn decode_column(r: &mut Reader<'_>) -> DecodeResult<Column> {
    Ok(match r.get_u8()? {
        0 => {
            let n = r.get_count(8)?;
            Column::Int(r.get_array(n, i64::from_le_bytes)?)
        }
        1 => {
            let n = r.get_count(8)?;
            Column::Float(r.get_array(n, |b| f64::from_bits(u64::from_le_bytes(b)))?)
        }
        2 => {
            let n = r.get_count(4)?;
            Column::Date(r.get_array(n, i32::from_le_bytes)?)
        }
        3 => {
            let n_dict = r.get_count(4)?;
            let mut dict: Vec<Arc<str>> = Vec::with_capacity(n_dict);
            for _ in 0..n_dict {
                dict.push(r.get_arc_str()?);
            }
            let n_codes = r.get_count(4)?;
            let codes = r.get_array(n_codes, u32::from_le_bytes)?;
            if let Some(&code) = codes.iter().find(|&&c| c as usize >= dict.len()) {
                return Err(format!(
                    "dictionary code {code} out of range ({} entries)",
                    dict.len()
                ));
            }
            Column::Str { dict, codes }
        }
        t => return Err(format!("unknown column tag {t}")),
    })
}

/// Encode a base table: name, schema, columns, indexed column positions.
pub fn encode_table(w: &mut Writer, t: &Table) {
    w.put_str(t.name());
    encode_schema(w, t.schema());
    w.put_count(t.schema().len());
    for i in 0..t.schema().len() {
        encode_column(w, t.column(i));
    }
    let indexed = t.indexed_columns();
    w.put_count(indexed.len());
    for col in indexed {
        w.put_u64(col as u64);
    }
}

/// Decode a base table, rebuilding its secondary indexes.
pub fn decode_table(r: &mut Reader<'_>) -> DecodeResult<Table> {
    let name = r.get_str()?;
    let schema = decode_schema(r)?;
    let n_cols = r.get_count(5)?;
    let mut columns = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        columns.push(decode_column(r)?);
    }
    let n_idx = r.get_count(8)?;
    let mut indexed = Vec::with_capacity(n_idx);
    for _ in 0..n_idx {
        indexed.push(r.get_u64()? as usize);
    }
    Table::from_parts(name, schema, columns, &indexed).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_storage::TableBuilder;
    use hashstash_types::Row;

    fn roundtrip<T>(
        value: &T,
        enc: impl Fn(&mut Writer, &T),
        dec: impl Fn(&mut Reader<'_>) -> DecodeResult<T>,
    ) -> T {
        let mut w = Writer::new();
        enc(&mut w, value);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        let out = dec(&mut r).expect("roundtrip decodes");
        assert!(r.is_exhausted(), "decoder consumed the whole encoding");
        out
    }

    #[test]
    fn value_roundtrip() {
        for v in [
            Value::Int(-42),
            Value::float(2.5),
            Value::float(f64::NAN),
            Value::str("Brand#12"),
            Value::Date(12345),
        ] {
            assert_eq!(roundtrip(&v, encode_value, decode_value), v);
        }
    }

    #[test]
    fn schema_roundtrip() {
        let schema = Schema::new(vec![
            Field::new("a.x", DataType::Int),
            Field::new("a.y", DataType::Str),
        ]);
        assert_eq!(roundtrip(&schema, encode_schema, decode_schema), schema);
    }

    #[test]
    fn region_roundtrip_is_set_equal() {
        let b1 = PredBox::all().with("t.a", Interval::closed(Value::Int(0), Value::Int(9)));
        let b2 = PredBox::all().with("t.a", Interval::closed(Value::Int(20), Value::Int(29)));
        let region = Region::from_box(b1).union(&Region::from_box(b2));
        let out = roundtrip(&region, encode_region, decode_region);
        assert!(out.set_eq(&region));
    }

    fn sample_fingerprint() -> HtFingerprint {
        HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: ["orders", "customer"]
                .iter()
                .map(|s| Arc::from(*s))
                .collect(),
            edges: vec![JoinEdge::new(
                "orders",
                "orders.o_custkey",
                "customer",
                "customer.c_custkey",
            )],
            region: Region::from_box(PredBox::all().with(
                "customer.c_age",
                Interval::closed(Value::Int(20), Value::Int(30)),
            )),
            key_attrs: vec![Arc::from("customer.c_custkey")],
            payload_attrs: vec![Arc::from("customer.c_custkey"), Arc::from("customer.c_age")],
            aggregates: vec![],
        }
        .normalized()
    }

    #[test]
    fn fingerprint_roundtrip_same_lineage() {
        let fp = sample_fingerprint();
        let out = roundtrip(&fp, encode_fingerprint, decode_fingerprint);
        assert!(out.same_lineage(&fp));
        assert_eq!(out.tables, fp.tables);
        assert_eq!(out.edges, fp.edges);
    }

    #[test]
    fn stored_ht_roundtrip_layout_eq() {
        let mut ht = ColumnHt::new(16, &[DataType::Int, DataType::Str]);
        for i in 0..64u64 {
            let row = Row::new(vec![Value::Int(i as i64), Value::str("p")]);
            ht.insert(i % 7, &row).unwrap();
        }
        // The image is the header (width, depth, resizes), per entry its
        // key, then the payload as typed columns: 8 B per int, a 4 B code
        // per string, and the dictionary ("p") once — no directory, no
        // chain links, no per-value tag.
        let columns = 4 + (1 + 4 + 64 * 8) + (1 + 4 + (4 + 1) + 4 + 64 * 4);
        let stored = StoredHt::Rows(ht);
        let mut w = Writer::new();
        encode_stored_ht(&mut w, &stored);
        assert_eq!(w.len(), 1 + 17 + 4 + 64 * 8 + columns);
        let out = roundtrip(&stored, encode_stored_ht, decode_stored_ht);
        match (&stored, &out) {
            (StoredHt::Rows(a), StoredHt::Rows(b)) => assert!(a == b),
            _ => panic!("kind preserved"),
        }
        assert_eq!(out.logical_bytes(), stored.logical_bytes());
    }

    #[test]
    fn agg_ht_roundtrip() {
        // Every state kind, over an int and a string group key.
        let funcs = [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        let aggs: Vec<(AggFunc, DataType)> = funcs.iter().map(|&f| (f, DataType::Str)).collect();
        let mut ht = AggHt::new(48, &[DataType::Int, DataType::Str], &aggs);
        let groups = [
            Column::Int((0..20).map(|i| i % 4).collect()),
            Column::Str {
                dict: vec!["x".into(), "y".into()],
                codes: (0..20).map(|i| i % 2).collect(),
            },
        ];
        let args = Column::Str {
            dict: vec!["b".into(), "a".into(), "c".into()],
            codes: (0..20).map(|i| i % 3).collect(),
        };
        let keys: Vec<u64> = (0..20).map(|i| i % 4).collect();
        ht.fold(&keys, &groups, &[Some(&args); 5], None).unwrap();
        assert_eq!(ht.len(), 4);
        let stored = StoredHt::Agg(ht);
        let out = roundtrip(&stored, encode_stored_ht, decode_stored_ht);
        match (&stored, &out) {
            (StoredHt::Agg(a), StoredHt::Agg(b)) => assert!(a == b),
            _ => panic!("kind preserved"),
        }
        assert_eq!(out.logical_bytes(), stored.logical_bytes());
        // Every truncation is an error, never a short table.
        let mut w = Writer::new();
        encode_stored_ht(&mut w, &stored);
        let bytes = w.into_inner();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(decode_stored_ht(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn table_roundtrip_with_indexes() {
        let mut b = TableBuilder::new(
            "t",
            vec![
                ("id", DataType::Int),
                ("d", DataType::Date),
                ("s", DataType::Str),
                ("f", DataType::Float),
            ],
        );
        for i in 0..10 {
            b.push_row(vec![
                Value::Int(i),
                Value::Date(100 + i as i32),
                Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                Value::float(i as f64 / 2.0),
            ]);
        }
        let t = b.finish_with_indexes(&["d"]).unwrap();
        let out = roundtrip(&t, encode_table, decode_table);
        assert_eq!(out.name(), t.name());
        assert_eq!(out.row_count(), t.row_count());
        assert_eq!(out.indexed_columns(), t.indexed_columns());
        for i in 0..t.row_count() {
            assert_eq!(out.row(i), t.row(i));
        }
    }

    #[test]
    fn corrupt_input_degrades_to_error() {
        let mut w = Writer::new();
        encode_fingerprint(&mut w, &sample_fingerprint());
        let bytes = w.into_inner();
        // Truncations must error, never panic or over-allocate.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(decode_fingerprint(&mut r).is_err(), "cut at {cut}");
        }
        // So must every truncation of a base table: each column kind, a
        // dictionary and an index, cut inside every fixed-width array.
        let mut b = TableBuilder::new(
            "t",
            vec![
                ("id", DataType::Int),
                ("d", DataType::Date),
                ("s", DataType::Str),
                ("f", DataType::Float),
            ],
        );
        for i in 0..6 {
            b.push_row(vec![
                Value::Int(i),
                Value::Date(100 - i as i32),
                Value::str(["a", "bb", "ccc"][i as usize % 3]),
                Value::float(i as f64 * 0.25),
            ]);
        }
        let mut w = Writer::new();
        encode_table(&mut w, &b.finish_with_indexes(&["d", "s"]).unwrap());
        let bytes = w.into_inner();
        assert!(decode_table(&mut Reader::new(&bytes)).is_ok());
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(decode_table(&mut r).is_err(), "table cut at {cut}");
        }
        // A wild count must be rejected by the remaining-bytes check.
        let mut evil = Writer::new();
        evil.put_str("t");
        encode_schema(
            &mut evil,
            &Schema::new(vec![Field::new("a", DataType::Int)]),
        );
        evil.put_u32(u32::MAX);
        let evil = evil.into_inner();
        assert!(decode_table(&mut Reader::new(&evil)).is_err());
    }
}
