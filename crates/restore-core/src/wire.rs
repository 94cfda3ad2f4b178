//! The serializable query surface: JSON encodings of [`Query`] requests and
//! query results, shared by the `restore-serve` HTTP front-end, its client,
//! and the serving tests (which pin HTTP responses bit-identical to direct
//! [`Snapshot`](crate::Snapshot) execution).
//!
//! Built on `restore-util`'s hand-rolled JSON module — no serde. The wire
//! format is compact and closed over the SPJA query algebra:
//!
//! ```json
//! {
//!   "tables": ["neighborhood", "apartment"],
//!   "filter": {"cmp": ["ge", {"col": "rent"}, {"lit": 2000}]},
//!   "group_by": ["state"],
//!   "aggregates": [{"fn": "avg", "col": "rent"}],
//!   "seed": 7,
//!   "confidence": {"kind": "avg", "table": "apartment",
//!                  "column": "rent", "level": 0.95}
//! }
//! ```
//!
//! Scalars: JSON `null` ↔ [`Value::Null`], strings ↔ [`Value::Str`], and
//! numbers decode as [`Value::Int`] when integral, [`Value::Float`]
//! otherwise — SQL comparisons widen ints to floats, so query semantics do
//! not depend on the distinction. Non-finite floats encode as `null` (JSON
//! has no NaN); finite floats use Rust's shortest round-trip rendering, so
//! a response carries the *exact* bits of the aggregate it reports.

use restore_db::{Agg, ArithOp, CmpOp, Expr, Query, QueryResult, Table, Value};
use restore_util::json::{parse, JsonValue};
use restore_util::json_object;

use crate::confidence::{ConfidenceInterval, ConfidenceQuery};

/// A malformed wire document; the message is safe to return to the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

/// One `POST /v1/{tenant}/query` body: the query, the determinism seed, and
/// an optional confidence-interval request piggybacked on the same
/// completed join.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    pub query: Query,
    pub seed: u64,
    pub confidence: Option<ConfidenceSpec>,
}

/// A §6 confidence-interval request riding along with a query.
#[derive(Clone, Debug)]
pub struct ConfidenceSpec {
    pub query: ConfidenceQuery,
    pub level: f64,
}

impl QueryRequest {
    pub fn new(query: Query, seed: u64) -> Self {
        Self {
            query,
            seed,
            confidence: None,
        }
    }

    pub fn with_confidence(mut self, query: ConfidenceQuery, level: f64) -> Self {
        self.confidence = Some(ConfidenceSpec { query, level });
        self
    }

    /// Parses a request body.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let Some(doc) = parse(body) else {
            return err("request body is not valid JSON");
        };
        let tables = match doc.get("tables").and_then(JsonValue::as_array) {
            Some(ts) if !ts.is_empty() => ts
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| WireError("tables entries must be strings".into()))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return err("request needs a non-empty \"tables\" array"),
        };
        let mut query = Query::new(tables);
        if let Some(f) = doc.get("filter") {
            if *f != JsonValue::Null {
                query.filter = Some(expr_from_wire(f)?);
            }
        }
        if let Some(g) = doc.get("group_by") {
            let Some(cols) = g.as_array() else {
                return err("\"group_by\" must be an array of column names");
            };
            for c in cols {
                match c.as_str() {
                    Some(name) => query.group_by.push(name.to_string()),
                    None => return err("\"group_by\" entries must be strings"),
                }
            }
        }
        if let Some(a) = doc.get("aggregates") {
            let Some(aggs) = a.as_array() else {
                return err("\"aggregates\" must be an array");
            };
            for agg in aggs {
                query.aggregates.push(agg_from_wire(agg)?);
            }
        }
        // Seeds travel as JSON numbers (f64): only values up to 2^53 are
        // exactly representable, and a silently rounded seed would break
        // the determinism contract — reject instead.
        let seed = match doc.get("seed") {
            None => 0,
            Some(v) => match v.as_f64() {
                Some(s) if s >= 0.0 && s.fract() == 0.0 && s < 9_007_199_254_740_992.0 => s as u64,
                _ => return err("\"seed\" must be a non-negative integer below 2^53"),
            },
        };
        let confidence = match doc.get("confidence") {
            None | Some(JsonValue::Null) => None,
            Some(c) => Some(confidence_from_wire(c)?),
        };
        Ok(Self {
            query,
            seed,
            confidence,
        })
    }

    /// Renders the request body (the client side of the wire).
    pub fn to_json(&self) -> String {
        let query = &self.query;
        let mut doc = json_object! { "tables": query.tables.clone() };
        if let Some(f) = &query.filter {
            doc.push("filter", expr_to_wire(f));
        }
        if !query.group_by.is_empty() {
            doc.push("group_by", query.group_by.clone());
        }
        if !query.aggregates.is_empty() {
            let aggs: Vec<JsonValue> = query.aggregates.iter().map(agg_to_wire).collect();
            doc.push("aggregates", aggs);
        }
        doc.push("seed", self.seed);
        if let Some(c) = &self.confidence {
            doc.push("confidence", confidence_to_wire(c));
        }
        doc.to_json()
    }
}

fn value_to_wire(v: &Value) -> JsonValue {
    match v {
        Value::Null => JsonValue::Null,
        Value::Int(i) => (*i).into(),
        Value::Float(f) => (*f).into(),
        Value::Str(s) => (**s).into(),
    }
}

fn value_from_wire(v: &JsonValue) -> Result<Value, WireError> {
    match v {
        JsonValue::Null => Ok(Value::Null),
        JsonValue::Str(s) => Ok(Value::str(s)),
        _ => match v.as_f64() {
            Some(n) if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 => {
                Ok(Value::Int(n as i64))
            }
            Some(n) => Ok(Value::Float(n)),
            None => err("literals must be null, a number, or a string"),
        },
    }
}

/// Each comparison operator's wire name, read in both directions.
const CMP_OPS: [(CmpOp, &str); 6] = [
    (CmpOp::Eq, "eq"),
    (CmpOp::Ne, "ne"),
    (CmpOp::Lt, "lt"),
    (CmpOp::Le, "le"),
    (CmpOp::Gt, "gt"),
    (CmpOp::Ge, "ge"),
];

/// Each arithmetic operator's wire name, read in both directions.
const ARITH_OPS: [(ArithOp, &str); 4] = [
    (ArithOp::Add, "add"),
    (ArithOp::Sub, "sub"),
    (ArithOp::Mul, "mul"),
    (ArithOp::Div, "div"),
];

/// The name `names` gives `v`: the encode direction of a name table.
pub(crate) fn name_of<T: PartialEq>(names: &[(T, &'static str)], v: &T) -> &'static str {
    let named = names.iter().find(|(t, _)| t == v);
    named.expect("a name table lists every variant").1
}

/// The variant `names` calls `name`: the decode direction of a name table.
pub(crate) fn named<T: Clone>(names: &[(T, &str)], name: &str) -> Option<T> {
    names
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(t, _)| t.clone())
}

/// Renders a filter expression tree.
fn expr_to_wire(e: &Expr) -> JsonValue {
    let pair = |a: &Expr, b: &Expr| JsonValue::Arr(vec![expr_to_wire(a), expr_to_wire(b)]);
    let op = |name: &str, a: &Expr, b: &Expr| {
        JsonValue::Arr(vec![name.into(), expr_to_wire(a), expr_to_wire(b)])
    };
    match e {
        Expr::Col(name) => json_object! { "col": name.as_str() },
        Expr::Lit(v) => json_object! { "lit": value_to_wire(v) },
        Expr::Cmp(a, o, b) => json_object! { "cmp": op(name_of(&CMP_OPS, o), a, b) },
        Expr::And(a, b) => json_object! { "and": pair(a, b) },
        Expr::Or(a, b) => json_object! { "or": pair(a, b) },
        Expr::Not(a) => json_object! { "not": expr_to_wire(a) },
        Expr::Arith(a, o, b) => json_object! { "arith": op(name_of(&ARITH_OPS, o), a, b) },
        Expr::IsNull(a) => json_object! { "is_null": expr_to_wire(a) },
    }
}

fn binary_pair(v: &JsonValue, what: &str) -> Result<(Expr, Expr), WireError> {
    let Some(pair) = v.as_array() else {
        return err(format!("{what} expects [lhs, rhs]"));
    };
    if pair.len() != 2 {
        return err(format!("{what} expects exactly two operands"));
    }
    Ok((expr_from_wire(&pair[0])?, expr_from_wire(&pair[1])?))
}

/// Parses a filter expression tree. One call per JSON level, so the
/// parser's nesting bound bounds this recursion too.
fn expr_from_wire(v: &JsonValue) -> Result<Expr, WireError> {
    let fields = v.fields();
    if fields.len() != 1 {
        return err("expressions are single-key objects like {\"col\": …}");
    }
    let (key, inner) = &fields[0];
    Ok(match key.as_str() {
        "col" => match inner.as_str() {
            Some(name) => Expr::Col(name.to_string()),
            None => return err("\"col\" expects a column name string"),
        },
        "lit" => Expr::Lit(value_from_wire(inner)?),
        "cmp" | "arith" => {
            let Some(parts) = inner.as_array() else {
                return err(format!("\"{key}\" expects [op, lhs, rhs]"));
            };
            if parts.len() != 3 {
                return err(format!("\"{key}\" expects exactly [op, lhs, rhs]"));
            }
            let Some(op) = parts[0].as_str() else {
                return err(format!("\"{key}\" operator must be a string"));
            };
            let (a, b) = (
                Box::new(expr_from_wire(&parts[1])?),
                Box::new(expr_from_wire(&parts[2])?),
            );
            if key == "cmp" {
                let Some(op) = named(&CMP_OPS, op) else {
                    return err(format!("unknown comparison operator {op:?}"));
                };
                Expr::Cmp(a, op, b)
            } else {
                let Some(op) = named(&ARITH_OPS, op) else {
                    return err(format!("unknown arithmetic operator {op:?}"));
                };
                Expr::Arith(a, op, b)
            }
        }
        "and" => {
            let (a, b) = binary_pair(inner, "\"and\"")?;
            Expr::And(Box::new(a), Box::new(b))
        }
        "or" => {
            let (a, b) = binary_pair(inner, "\"or\"")?;
            Expr::Or(Box::new(a), Box::new(b))
        }
        "not" => Expr::Not(Box::new(expr_from_wire(inner)?)),
        "is_null" => Expr::IsNull(Box::new(expr_from_wire(inner)?)),
        other => return err(format!("unknown expression kind {other:?}")),
    })
}

/// Renders an aggregate spec.
fn agg_to_wire(agg: &Agg) -> JsonValue {
    let (name, col) = match agg {
        Agg::CountStar => return json_object! { "fn": "count_star" },
        Agg::Count(c) => ("count", c),
        Agg::Sum(c) => ("sum", c),
        Agg::Avg(c) => ("avg", c),
        Agg::Min(c) => ("min", c),
        Agg::Max(c) => ("max", c),
    };
    json_object! { "fn": name, "col": col.as_str() }
}

/// Parses an aggregate spec.
fn agg_from_wire(v: &JsonValue) -> Result<Agg, WireError> {
    let Some(name) = v.get("fn").and_then(JsonValue::as_str) else {
        return err("aggregates look like {\"fn\": \"avg\", \"col\": …}");
    };
    if name == "count_star" {
        return Ok(Agg::CountStar);
    }
    let Some(col) = v.get("col").and_then(JsonValue::as_str) else {
        return err(format!("aggregate {name:?} needs a \"col\""));
    };
    let col = col.to_string();
    Ok(match name {
        "count" => Agg::Count(col),
        "sum" => Agg::Sum(col),
        "avg" => Agg::Avg(col),
        "min" => Agg::Min(col),
        "max" => Agg::Max(col),
        other => return err(format!("unknown aggregate {other:?}")),
    })
}

fn confidence_to_wire(spec: &ConfidenceSpec) -> JsonValue {
    let (kind, table, column, value) = match &spec.query {
        ConfidenceQuery::CountFraction {
            table,
            column,
            value,
        } => ("count_fraction", table, column, Some(value)),
        ConfidenceQuery::Avg { table, column } => ("avg", table, column, None),
        ConfidenceQuery::Sum { table, column } => ("sum", table, column, None),
    };
    let mut doc = json_object! {
        "kind": kind, "table": table.as_str(), "column": column.as_str(),
    };
    if let Some(v) = value {
        doc.push("value", v.as_str());
    }
    doc.push("level", spec.level);
    doc
}

fn confidence_from_wire(v: &JsonValue) -> Result<ConfidenceSpec, WireError> {
    let field = |key: &str| -> Result<String, WireError> {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| WireError(format!("confidence spec needs a string \"{key}\"")))
    };
    let kind = field("kind")?;
    let (table, column) = (field("table")?, field("column")?);
    let query = match kind.as_str() {
        "count_fraction" => ConfidenceQuery::CountFraction {
            table,
            column,
            value: field("value")?,
        },
        "avg" => ConfidenceQuery::Avg { table, column },
        "sum" => ConfidenceQuery::Sum { table, column },
        other => return err(format!("unknown confidence kind {other:?}")),
    };
    let level = match v.get("level") {
        None => 0.95,
        Some(l) => match l.as_f64() {
            Some(l) if l > 0.0 && l < 1.0 => l,
            _ => return err("confidence \"level\" must be in (0, 1)"),
        },
    };
    Ok(ConfidenceSpec { query, level })
}

/// Renders a table's rows as an array of JSON arrays — the one row
/// encoding both response surfaces share, so their byte-stability
/// contracts cannot drift apart.
fn rows_to_wire(table: &Table) -> JsonValue {
    let rows = (0..table.n_rows()).map(|r| {
        let cells = (0..table.n_cols()).map(|c| value_to_wire(&table.value(r, c)));
        JsonValue::Arr(cells.collect())
    });
    JsonValue::Arr(rows.collect())
}

/// Renders a [`QueryResult`] (plus an optional confidence interval) as the
/// `POST /v1/{tenant}/query` response body. Finite floats use shortest
/// round-trip rendering, so equal results produce byte-equal bodies — the
/// serving tests' bit-equality contract rides on this.
pub fn query_response_json(result: &QueryResult, ci: Option<&ConfidenceInterval>) -> String {
    let table = &result.table;
    let columns: Vec<JsonValue> = table
        .fields()
        .iter()
        .map(|f| f.name.as_str().into())
        .collect();
    let doc = json_object! {
        "group_cols": result.group_cols,
        "columns": columns,
        "rows": rows_to_wire(table),
        "scalar": result.scalar(),
        "confidence": ci.map(confidence_interval_to_wire),
    };
    doc.to_json()
}

/// Renders a [`ConfidenceInterval`].
fn confidence_interval_to_wire(ci: &ConfidenceInterval) -> JsonValue {
    json_object! {
        "lo": ci.lo, "hi": ci.hi, "estimate": ci.estimate, "theoretical": ci.theoretical,
    }
}

/// Renders a full table (the `GET /v1/{tenant}/tables/{name}` response):
/// schema plus every row, in the table's own column order.
pub fn table_json(table: &Table) -> String {
    let columns: Vec<JsonValue> = table
        .fields()
        .iter()
        .map(|f| json_object! { "name": f.name.as_str(), "dtype": f.dtype.to_string() })
        .collect();
    let doc = json_object! {
        "name": table.name(),
        "n_rows": table.n_rows(),
        "columns": columns,
        "rows": rows_to_wire(table),
    };
    doc.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_db::{DataType, Field};

    fn demo_request() -> QueryRequest {
        let query = Query::new(["neighborhood", "apartment"])
            .filter(
                Expr::col("rent")
                    .ge(Expr::lit(2000.0))
                    .and(Expr::col("state").eq(Expr::lit("CA")).not())
                    .or(Expr::IsNull(Box::new(Expr::col("rent")))),
            )
            .group_by(["state"])
            .aggregate(Agg::Avg("rent".into()))
            .aggregate(Agg::CountStar);
        QueryRequest::new(query, 7).with_confidence(
            ConfidenceQuery::CountFraction {
                table: "apartment".into(),
                column: "room_type".into(),
                value: "Private room".into(),
            },
            0.9,
        )
    }

    /// `demo_request`'s body, byte for byte.
    const PINNED_REQUEST: &str = concat!(
        r#"{"tables":["neighborhood","apartment"],"#,
        r#""filter":{"or":[{"and":[{"cmp":["ge",{"col":"rent"},{"lit":2000}]},"#,
        r#"{"not":{"cmp":["eq",{"col":"state"},{"lit":"CA"}]}}]},{"is_null":{"col":"rent"}}]},"#,
        r#""group_by":["state"],"aggregates":[{"fn":"avg","col":"rent"},{"fn":"count_star"}],"#,
        r#""seed":7,"confidence":{"kind":"count_fraction","table":"apartment","#,
        r#""column":"room_type","value":"Private room","level":0.9}}"#
    );

    #[test]
    fn request_round_trips_through_json() {
        let req = demo_request();
        let body = req.to_json();
        let parsed = QueryRequest::from_json(&body).expect("parse");
        // Query/Expr have no PartialEq; canonical JSON is the identity.
        assert_eq!(parsed.to_json(), body);
        assert_eq!(body, PINNED_REQUEST);
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.query.tables, req.query.tables);
        assert_eq!(parsed.query.group_by, req.query.group_by);
        assert_eq!(parsed.query.aggregates, req.query.aggregates);
        let spec = parsed.confidence.expect("confidence");
        assert_eq!(spec.level, 0.9);
        assert!(matches!(spec.query, ConfidenceQuery::CountFraction { .. }));
    }

    #[test]
    fn minimal_request_defaults() {
        let req = QueryRequest::from_json(r#"{"tables":["tb"]}"#).expect("parse");
        assert_eq!(req.seed, 0);
        assert!(req.query.filter.is_none());
        assert!(req.query.aggregates.is_empty());
        assert!(req.confidence.is_none());
    }

    #[test]
    fn arithmetic_and_every_cmp_op_round_trip() {
        let e = Expr::Arith(
            Box::new(Expr::col("a")),
            ArithOp::Div,
            Box::new(Expr::lit(3i64)),
        );
        for op in ["eq", "ne", "lt", "le", "gt", "ge"] {
            let operands = vec![
                op.into(),
                expr_to_wire(&e),
                json_object! { "lit": JsonValue::Null },
            ];
            let body = json_object! { "cmp": operands }.to_json();
            let parsed = expr_from_wire(&parse(&body).unwrap()).expect("parse");
            assert_eq!(expr_to_wire(&parsed).to_json(), body);
        }
    }

    /// A literal outside the BMP decodes the same whether it arrives as raw
    /// UTF-8 or as the RFC 8259 escape pair Python's `json.dumps` sends; a
    /// lone surrogate is a malformed body.
    #[test]
    fn an_escaped_surrogate_pair_literal_decodes_as_raw_utf8_does() {
        let (high, low) = (r"\ud83d", r"\uDE00");
        let body = |lit: &str| {
            let filter = format!(r#"{{"cmp":["eq",{{"col":"c"}},{{"lit":"{lit}"}}]}}"#);
            QueryRequest::from_json(&format!(r#"{{"tables":["t"],"filter":{filter}}}"#))
        };
        let raw = body("\u{1f600}").expect("raw UTF-8").to_json();
        let escaped = body(&format!("{high}{low}")).expect("escaped pair");
        assert_eq!(escaped.to_json(), raw);
        assert!(raw.contains('\u{1f600}') && body(high).is_err());
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        for (body, needle) in [
            ("nope", "not valid JSON"),
            ("{}", "tables"),
            (r#"{"tables":[]}"#, "non-empty"),
            (r#"{"tables":["t"],"seed":-1}"#, "seed"),
            (r#"{"tables":["t"],"seed":1.5}"#, "seed"),
            // 2^53 + 1: not exactly representable as f64 — a silent
            // round-down would serve the wrong seed.
            (r#"{"tables":["t"],"seed":9007199254740993}"#, "seed"),
            (r#"{"tables":["t"],"seed":1e300}"#, "seed"),
            (
                r#"{"tables":["t"],"filter":{"zap":1}}"#,
                "unknown expression",
            ),
            (
                r#"{"tables":["t"],"aggregates":[{"fn":"median","col":"x"}]}"#,
                "unknown aggregate",
            ),
            (
                r#"{"tables":["t"],"confidence":{"kind":"avg","table":"t","column":"c","level":2}}"#,
                "level",
            ),
        ] {
            let e = QueryRequest::from_json(body).expect_err(body);
            assert!(e.0.contains(needle), "{body}: {e}");
        }
    }

    #[test]
    fn response_encodes_values_and_scalar() {
        let mut t = Table::new(
            "out",
            vec![
                Field::new("state", DataType::Str),
                Field::new("avg_rent", DataType::Float),
            ],
        );
        t.push_row(&[Value::str("CA"), Value::Float(0.1 + 0.2)])
            .unwrap();
        t.push_row(&[Value::Null, Value::Float(f64::NAN)]).unwrap();
        let res = QueryResult {
            table: t,
            group_cols: 1,
        };
        let body = query_response_json(&res, None);
        // Shortest-round-trip float rendering preserves the exact bits.
        assert!(body.contains("0.30000000000000004"), "{body}");
        assert!(body.contains("[null,null]"), "NaN and Null encode as null");
        assert!(body.contains("\"group_cols\":1"));
        assert!(body.contains("\"scalar\":null"));
        assert_eq!(
            body,
            concat!(
                r#"{"group_cols":1,"columns":["state","avg_rent"],"#,
                r#""rows":[["CA",0.30000000000000004],[null,null]],"scalar":null,"confidence":null}"#
            )
        );
        let reparsed = parse(&body).expect("response is valid JSON");
        assert_eq!(
            reparsed.get("columns").unwrap().as_array().unwrap()[0].as_str(),
            Some("state")
        );
    }

    #[test]
    fn scalar_response_reports_the_single_aggregate() {
        let mut t = Table::new("out", vec![Field::new("count", DataType::Int)]);
        t.push_row(&[Value::Int(42)]).unwrap();
        let res = QueryResult {
            table: t,
            group_cols: 0,
        };
        let ci = ConfidenceInterval {
            lo: 40.0,
            hi: 44.5,
            estimate: 42.0,
            theoretical: Some((0.0, 100.0)),
        };
        let body = query_response_json(&res, Some(&ci));
        assert!(body.contains("\"scalar\":42"), "{body}");
        assert!(body.contains("\"lo\":40"), "{body}");
        assert!(body.contains("\"theoretical\":[0,100]"), "{body}");
        assert_eq!(
            body,
            concat!(
                r#"{"group_cols":0,"columns":["count"],"rows":[[42]],"scalar":42,"#,
                r#""confidence":{"lo":40,"hi":44.5,"estimate":42,"theoretical":[0,100]}}"#
            )
        );
    }

    #[test]
    fn table_json_carries_schema_and_rows() {
        let mut t = Table::new(
            "tb",
            vec![
                Field::new("id", DataType::Int),
                Field::new("b", DataType::Str),
            ],
        );
        t.push_row(&[Value::Int(1), Value::str("b\"1")]).unwrap();
        let body = table_json(&t);
        assert!(body.contains("\"name\":\"tb\""));
        assert!(body.contains("\"dtype\":\"INT\""));
        assert!(body.contains("[1,\"b\\\"1\"]"), "{body}");
        assert!(parse(&body).is_some(), "valid JSON: {body}");
        assert_eq!(
            body,
            concat!(
                r#"{"name":"tb","n_rows":1,"columns":[{"name":"id","dtype":"INT"},"#,
                r#"{"name":"b","dtype":"STR"}],"rows":[[1,"b\"1"]]}"#
            )
        );
        // Integers travel exactly, past 2^53 and down to `i64::MIN`. The row
        // needs two INT columns, so it gets a table of its own.
        let mut wide = Table::new(
            "wide",
            vec![
                Field::new("id", DataType::Int),
                Field::new("n", DataType::Int),
            ],
        );
        wide.push_row(&[Value::Int((1 << 53) + 1), Value::Int(i64::MIN)])
            .unwrap();
        assert_eq!(
            table_json(&wide),
            concat!(
                r#"{"name":"wide","n_rows":1,"columns":[{"name":"id","dtype":"INT"},"#,
                r#"{"name":"n","dtype":"INT"}],"#,
                r#""rows":[[9007199254740993,-9223372036854775808]]}"#
            )
        );
    }
}
