//! `QuerySpec` → SQL text. The trace generator produces `QuerySpec`s, the
//! wire takes text; [`query`] renders one and proves the rendering is
//! lossless by parsing it back and comparing with the original.

use std::fmt::Write as _;
use std::ops::Bound;

use hashstash_plan::QuerySpec;
use hashstash_server::CatalogSchema;
use hashstash_sql::parse_query;
use hashstash_storage::Catalog;
use hashstash_types::date::format_date;
use hashstash_types::Value;

/// One benchmark query: the text a client sends and the spec it lowers to.
#[derive(Debug, Clone)]
pub struct Query {
    pub sql: String,
    pub spec: QuerySpec,
}

fn literal(v: &Value) -> String {
    match v {
        Value::Date(d) => format!("'{}'", format_date(*d)),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

/// Render `q` as SQL in the grammar `hashstash_sql` accepts: comma-joined
/// FROM, join edges and range predicates as one conjunctive WHERE.
pub fn render(q: &QuerySpec) -> String {
    let mut items: Vec<String> = Vec::new();
    if q.is_aggregate() {
        items.extend(q.group_by.iter().map(|g| g.to_string()));
        items.extend(q.aggregates.iter().map(|a| a.to_string()));
    } else if q.projection.is_empty() {
        items.push("*".to_string());
    } else {
        items.extend(q.projection.iter().map(|p| p.to_string()));
    }
    let tables: Vec<&str> = q.tables.iter().map(|t| t.as_ref()).collect();
    let mut sql = format!("SELECT {} FROM {}", items.join(", "), tables.join(", "));

    let mut conj: Vec<String> = q.joins.iter().map(|e| e.to_string()).collect();
    for (attr, iv) in q.predicates.constrained() {
        match iv.lo() {
            Bound::Included(v) => conj.push(format!("{attr} >= {}", literal(v))),
            Bound::Excluded(v) => conj.push(format!("{attr} > {}", literal(v))),
            Bound::Unbounded => {}
        }
        match iv.hi() {
            // Date ranges are half-open in the trace generator; the plan
            // layer stores them closed (dates are discrete), so write the
            // exclusive end back.
            Bound::Included(Value::Date(d)) => {
                conj.push(format!("{attr} < '{}'", format_date(d + 1)));
            }
            Bound::Included(v) => conj.push(format!("{attr} <= {}", literal(v))),
            Bound::Excluded(v) => conj.push(format!("{attr} < {}", literal(v))),
            Bound::Unbounded => {}
        }
    }
    if !conj.is_empty() {
        let _ = write!(sql, " WHERE {}", conj.join(" AND "));
    }
    if !q.group_by.is_empty() {
        let groups: Vec<&str> = q.group_by.iter().map(|g| g.as_ref()).collect();
        let _ = write!(sql, " GROUP BY {}", groups.join(", "));
    }
    sql
}

/// Render `spec` and check the text lowers back to exactly `spec`. A
/// mismatch means the benchmark would measure a different query than the
/// generator produced, so it aborts the run.
pub fn query(spec: QuerySpec, catalog: &Catalog) -> Query {
    let sql = render(&spec);
    match parse_query(&sql, spec.id.0, &CatalogSchema(catalog)) {
        Ok(back) if back == spec => Query { sql, spec },
        Ok(back) => {
            panic!("SQL round trip changed the query:\n  sql: {sql}\n  in:  {spec}\n  out: {back}")
        }
        Err(e) => panic!(
            "rendered SQL does not parse: {}\n{}",
            e.message,
            e.render(&sql)
        ),
    }
}

/// Parse hand-written SQL (tenant-mix queries) into a [`Query`].
pub fn parsed(sql: &str, id: u32, catalog: &Catalog) -> Query {
    match parse_query(sql, id, &CatalogSchema(catalog)) {
        Ok(spec) => Query {
            sql: sql.to_string(),
            spec,
        },
        Err(e) => panic!(
            "benchmark SQL does not parse: {}\n{}",
            e.message,
            e.render(sql)
        ),
    }
}
