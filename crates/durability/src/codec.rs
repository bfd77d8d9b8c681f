//! Stable byte-level codecs for everything the durability layer persists.
//!
//! All integers are little-endian; collections are a `u32` count followed
//! by the elements; strings are UTF-8 bytes behind a `u32` length. The
//! format carries no self-description — framing, versioning and checksums
//! are the snapshot's job ([`crate::snapshot`]).
//! Decoders validate counts against the remaining input, so a corrupt
//! (CRC-passing but logically damaged) frame degrades into a decode error,
//! never a huge allocation or a panic.
//!
//! Hash tables round-trip through
//! [`ExtendibleHashTable::layout`](hashstash_hashtable::ExtendibleHashTable::layout)
//! / `from_layout`, preserving the *physical* layout — directory, lazy-split
//! depths, arena order and chain links — so a rehydrated table is
//! `layout_eq` to the original and answers probes in the same order.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

use hashstash_types::{DataType, Field, Row, Schema, Value};

use hashstash_cache::{AggAccum, AggPayload, MaterializedRows, StoredHt};
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
        let n = self.get_u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8 string: {e}"))
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
        2 => Value::str(&r.get_str()?),
        3 => Value::Date(r.get_i32()?),
        t => return Err(format!("unknown value tag {t}")),
    })
}

/// Encode a row as its value vector.
pub fn encode_row(w: &mut Writer, row: &Row) {
    w.put_count(row.len());
    for v in row.values() {
        encode_value(w, v);
    }
}

/// Decode a row.
pub fn decode_row(r: &mut Reader<'_>) -> DecodeResult<Row> {
    let n = r.get_count(1)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(decode_value(r)?);
    }
    Ok(Row::new(values))
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
        out.push(Arc::from(r.get_str()?.as_str()));
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
        tables.insert(Arc::from(r.get_str()?.as_str()));
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

fn encode_accum(w: &mut Writer, a: &AggAccum) {
    match a {
        AggAccum::Sum(s) => {
            w.put_u8(0);
            w.put_f64(*s);
        }
        AggAccum::Count(c) => {
            w.put_u8(1);
            w.put_i64(*c);
        }
        AggAccum::Min(m) | AggAccum::Max(m) => {
            w.put_u8(if matches!(a, AggAccum::Min(_)) { 2 } else { 3 });
            match m {
                Some(v) => {
                    w.put_u8(1);
                    encode_value(w, v);
                }
                None => w.put_u8(0),
            }
        }
        AggAccum::Avg { sum, count } => {
            w.put_u8(4);
            w.put_f64(*sum);
            w.put_i64(*count);
        }
    }
}

fn decode_accum(r: &mut Reader<'_>) -> DecodeResult<AggAccum> {
    Ok(match r.get_u8()? {
        0 => AggAccum::Sum(r.get_f64()?),
        1 => AggAccum::Count(r.get_i64()?),
        tag @ (2 | 3) => {
            let present = r.get_u8()? != 0;
            let v = if present {
                Some(decode_value(r)?)
            } else {
                None
            };
            if tag == 2 {
                AggAccum::Min(v)
            } else {
                AggAccum::Max(v)
            }
        }
        4 => {
            let sum = r.get_f64()?;
            let count = r.get_i64()?;
            AggAccum::Avg { sum, count }
        }
        t => return Err(format!("unknown accumulator tag {t}")),
    })
}

fn encode_agg_payload(w: &mut Writer, p: &AggPayload) {
    encode_row(w, &p.group);
    w.put_count(p.accums.len());
    for a in &p.accums {
        encode_accum(w, a);
    }
}

fn decode_agg_payload(r: &mut Reader<'_>) -> DecodeResult<AggPayload> {
    let group = decode_row(r)?;
    let n = r.get_count(2)?;
    let mut accums = Vec::with_capacity(n);
    for _ in 0..n {
        accums.push(decode_accum(r)?);
    }
    Ok(AggPayload { group, accums })
}

fn encode_ht<V>(w: &mut Writer, ht: &ExtendibleHashTable<V>, enc: impl Fn(&mut Writer, &V)) {
    let l = ht.layout();
    w.put_u64(l.tuple_width as u64);
    w.put_u8(l.global_depth);
    w.put_u64(l.resizes as u64);
    w.put_u64(l.distinct_keys as u64);
    w.put_count(l.directory.len());
    for &head in l.directory {
        w.put_u32(head);
    }
    for d in l.depths() {
        w.put_u8(d);
    }
    w.put_count(ht.len());
    for (key, next, v) in ht.arena_entries() {
        w.put_u64(key);
        w.put_u32(next);
        enc(w, v);
    }
}

fn decode_ht<V>(
    r: &mut Reader<'_>,
    dec: impl Fn(&mut Reader<'_>) -> DecodeResult<V>,
) -> DecodeResult<ExtendibleHashTable<V>> {
    let tuple_width = r.get_u64()? as usize;
    let global_depth = r.get_u8()?;
    let resizes = r.get_u64()? as usize;
    let distinct_keys = r.get_u64()? as usize;
    let n_dir = r.get_count(4)?;
    let mut directory = Vec::with_capacity(n_dir);
    for _ in 0..n_dir {
        directory.push(r.get_u32()?);
    }
    let mut depth = Vec::with_capacity(n_dir);
    for _ in 0..n_dir {
        depth.push(r.get_u8()?);
    }
    let n_arena = r.get_count(12)?;
    let mut arena = Vec::with_capacity(n_arena);
    for _ in 0..n_arena {
        let key = r.get_u64()?;
        let next = r.get_u32()?;
        arena.push((key, next, dec(r)?));
    }
    ExtendibleHashTable::from_layout(
        tuple_width,
        global_depth,
        resizes,
        distinct_keys,
        directory,
        depth,
        arena,
    )
    .ok_or_else(|| "inconsistent hash-table layout".to_string())
}

/// Encode a cached table: a hash table tagged and with its physical layout,
/// a temp table as its untagged rows (a snapshot entry's kind byte tells
/// [`decode_stored_ht`]'s hash tables from [`decode_rows`]' temp tables).
pub fn encode_stored_ht(w: &mut Writer, ht: &StoredHt) {
    match ht {
        StoredHt::Rows(t) => {
            w.put_u8(0);
            encode_ht(w, t, encode_row);
        }
        StoredHt::Agg(t) => {
            w.put_u8(1);
            encode_ht(w, t, encode_agg_payload);
        }
        StoredHt::Materialized(rows) => encode_rows(w, rows),
    }
}

/// Decode a cached hash table (a temp table is [`decode_rows`]).
pub fn decode_stored_ht(r: &mut Reader<'_>) -> DecodeResult<StoredHt> {
    Ok(match r.get_u8()? {
        0 => StoredHt::Rows(decode_ht(r, decode_row)?),
        1 => StoredHt::Agg(decode_ht(r, decode_agg_payload)?),
        t => return Err(format!("unknown stored-ht tag {t}")),
    })
}

/// Encode materialized temp-table rows.
pub fn encode_rows(w: &mut Writer, rows: &MaterializedRows) {
    w.put_count(rows.rows().len());
    for row in rows.rows() {
        encode_row(w, row);
    }
}

/// Decode materialized temp-table rows (footprint is recomputed).
pub fn decode_rows(r: &mut Reader<'_>) -> DecodeResult<Vec<Row>> {
    let n = r.get_count(4)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(decode_row(r)?);
    }
    Ok(rows)
}

// ---------------------------------------------------------------- storage

fn encode_column(w: &mut Writer, c: &Column) {
    match c {
        Column::Int(v) => {
            w.put_u8(0);
            w.put_count(v.len());
            for &x in v {
                w.put_i64(x);
            }
        }
        Column::Float(v) => {
            w.put_u8(1);
            w.put_count(v.len());
            for &x in v {
                w.put_f64(x);
            }
        }
        Column::Date(v) => {
            w.put_u8(2);
            w.put_count(v.len());
            for &x in v {
                w.put_i32(x);
            }
        }
        Column::Str { dict, codes } => {
            w.put_u8(3);
            w.put_count(dict.len());
            for s in dict {
                w.put_str(s);
            }
            w.put_count(codes.len());
            for &c in codes {
                w.put_u32(c);
            }
        }
    }
}

fn decode_column(r: &mut Reader<'_>) -> DecodeResult<Column> {
    Ok(match r.get_u8()? {
        0 => {
            let n = r.get_count(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.get_i64()?);
            }
            Column::Int(v)
        }
        1 => {
            let n = r.get_count(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.get_f64()?);
            }
            Column::Float(v)
        }
        2 => {
            let n = r.get_count(4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.get_i32()?);
            }
            Column::Date(v)
        }
        3 => {
            let n_dict = r.get_count(4)?;
            let mut dict: Vec<Arc<str>> = Vec::with_capacity(n_dict);
            for _ in 0..n_dict {
                dict.push(Arc::from(r.get_str()?.as_str()));
            }
            let n_codes = r.get_count(4)?;
            let mut codes = Vec::with_capacity(n_codes);
            for _ in 0..n_codes {
                let code = r.get_u32()?;
                if code as usize >= dict.len().max(1) {
                    return Err(format!(
                        "dictionary code {code} out of range ({} entries)",
                        dict.len()
                    ));
                }
                codes.push(code);
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
    fn row_and_schema_roundtrip() {
        let row = Row::new(vec![Value::Int(1), Value::str("x"), Value::float(0.5)]);
        assert_eq!(roundtrip(&row, encode_row, decode_row), row);
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
        let mut ht = ExtendibleHashTable::new(16);
        for i in 0..64u64 {
            ht.insert(i % 7, Row::new(vec![Value::Int(i as i64), Value::str("p")]));
        }
        // The image is the header, the directory (4 B head + 1 B depth per
        // slot) and per entry its key, chain link and row — no query tag.
        let dir = ht.layout().directory.len();
        let rows: usize = ht
            .iter()
            .map(|(_, row)| {
                let mut w = Writer::new();
                encode_row(&mut w, row);
                w.len()
            })
            .sum();
        let stored = StoredHt::Rows(ht);
        let mut w = Writer::new();
        encode_stored_ht(&mut w, &stored);
        assert_eq!(w.len(), 1 + 25 + 4 + dir * 5 + 4 + 64 * 12 + rows);
        let out = roundtrip(&stored, encode_stored_ht, decode_stored_ht);
        match (&stored, &out) {
            (StoredHt::Rows(a), StoredHt::Rows(b)) => assert!(a.layout_eq(b)),
            _ => panic!("kind preserved"),
        }
        assert_eq!(out.logical_bytes(), stored.logical_bytes());
    }

    #[test]
    fn agg_ht_roundtrip() {
        let mut ht = ExtendibleHashTable::new(24);
        for i in 0..20u64 {
            let group = Row::new(vec![Value::Int((i % 4) as i64)]);
            ht.upsert(
                i % 4,
                || AggPayload {
                    group: group.clone(),
                    accums: vec![AggAccum::Sum(0.0), AggAccum::Avg { sum: 0.0, count: 0 }],
                },
                |p| {
                    p.accums[0].update(&Value::Int(i as i64));
                    p.accums[1].update(&Value::Int(i as i64));
                },
            );
        }
        let stored = StoredHt::Agg(ht);
        let out = roundtrip(&stored, encode_stored_ht, decode_stored_ht);
        match (&stored, &out) {
            (StoredHt::Agg(a), StoredHt::Agg(b)) => assert!(a.layout_eq(b)),
            _ => panic!("kind preserved"),
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
        // A wild count must be rejected by the remaining-bytes check.
        let mut evil = Writer::new();
        evil.put_u32(u32::MAX);
        let evil = evil.into_inner();
        assert!(decode_rows(&mut Reader::new(&evil)).is_err());
    }
}
