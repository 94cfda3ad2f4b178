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
use restore_util::json::{escape, parse, JsonValue, ToJson};

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
        let mut parts = vec![format!("\"tables\":{}", self.query.tables.to_json())];
        if let Some(f) = &self.query.filter {
            parts.push(format!("\"filter\":{}", expr_to_wire(f)));
        }
        if !self.query.group_by.is_empty() {
            parts.push(format!("\"group_by\":{}", self.query.group_by.to_json()));
        }
        if !self.query.aggregates.is_empty() {
            let aggs: Vec<String> = self.query.aggregates.iter().map(agg_to_wire).collect();
            parts.push(format!("\"aggregates\":[{}]", aggs.join(",")));
        }
        parts.push(format!("\"seed\":{}", self.seed));
        if let Some(c) = &self.confidence {
            parts.push(format!("\"confidence\":{}", confidence_to_wire(c)));
        }
        format!("{{{}}}", parts.join(","))
    }
}

fn value_to_wire(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Int(i) => format!("{i}"),
        Value::Float(f) => f.to_json(),
        Value::Str(s) => format!("\"{}\"", escape(s)),
    }
}

fn value_from_wire(v: &JsonValue) -> Result<Value, WireError> {
    match v {
        JsonValue::Null => Ok(Value::Null),
        JsonValue::Str(s) => Ok(Value::str(s)),
        JsonValue::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
                Ok(Value::Int(*n as i64))
            } else {
                Ok(Value::Float(*n))
            }
        }
        _ => err("literals must be null, a number, or a string"),
    }
}

fn cmp_op_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn cmp_op_from(name: &str) -> Result<CmpOp, WireError> {
    Ok(match name {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        other => return err(format!("unknown comparison operator {other:?}")),
    })
}

fn arith_op_name(op: ArithOp) -> &'static str {
    match op {
        ArithOp::Add => "add",
        ArithOp::Sub => "sub",
        ArithOp::Mul => "mul",
        ArithOp::Div => "div",
    }
}

fn arith_op_from(name: &str) -> Result<ArithOp, WireError> {
    Ok(match name {
        "add" => ArithOp::Add,
        "sub" => ArithOp::Sub,
        "mul" => ArithOp::Mul,
        "div" => ArithOp::Div,
        other => return err(format!("unknown arithmetic operator {other:?}")),
    })
}

/// Renders a filter expression tree.
pub(crate) fn expr_to_wire(e: &Expr) -> String {
    match e {
        Expr::Col(name) => format!("{{\"col\":\"{}\"}}", escape(name)),
        Expr::Lit(v) => format!("{{\"lit\":{}}}", value_to_wire(v)),
        Expr::Cmp(a, op, b) => format!(
            "{{\"cmp\":[\"{}\",{},{}]}}",
            cmp_op_name(*op),
            expr_to_wire(a),
            expr_to_wire(b)
        ),
        Expr::And(a, b) => format!("{{\"and\":[{},{}]}}", expr_to_wire(a), expr_to_wire(b)),
        Expr::Or(a, b) => format!("{{\"or\":[{},{}]}}", expr_to_wire(a), expr_to_wire(b)),
        Expr::Not(a) => format!("{{\"not\":{}}}", expr_to_wire(a)),
        Expr::Arith(a, op, b) => format!(
            "{{\"arith\":[\"{}\",{},{}]}}",
            arith_op_name(*op),
            expr_to_wire(a),
            expr_to_wire(b)
        ),
        Expr::IsNull(a) => format!("{{\"is_null\":{}}}", expr_to_wire(a)),
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
pub(crate) fn expr_from_wire(v: &JsonValue) -> Result<Expr, WireError> {
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
                Expr::Cmp(a, cmp_op_from(op)?, b)
            } else {
                Expr::Arith(a, arith_op_from(op)?, b)
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
pub(crate) fn agg_to_wire(agg: &Agg) -> String {
    match agg {
        Agg::CountStar => "{\"fn\":\"count_star\"}".to_string(),
        Agg::Count(c) => format!("{{\"fn\":\"count\",\"col\":\"{}\"}}", escape(c)),
        Agg::Sum(c) => format!("{{\"fn\":\"sum\",\"col\":\"{}\"}}", escape(c)),
        Agg::Avg(c) => format!("{{\"fn\":\"avg\",\"col\":\"{}\"}}", escape(c)),
        Agg::Min(c) => format!("{{\"fn\":\"min\",\"col\":\"{}\"}}", escape(c)),
        Agg::Max(c) => format!("{{\"fn\":\"max\",\"col\":\"{}\"}}", escape(c)),
    }
}

/// Parses an aggregate spec.
pub(crate) fn agg_from_wire(v: &JsonValue) -> Result<Agg, WireError> {
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

fn confidence_to_wire(spec: &ConfidenceSpec) -> String {
    let (kind, table, column, value) = match &spec.query {
        ConfidenceQuery::CountFraction {
            table,
            column,
            value,
        } => ("count_fraction", table, column, Some(value)),
        ConfidenceQuery::Avg { table, column } => ("avg", table, column, None),
        ConfidenceQuery::Sum { table, column } => ("sum", table, column, None),
    };
    let mut parts = vec![
        format!("\"kind\":\"{kind}\""),
        format!("\"table\":\"{}\"", escape(table)),
        format!("\"column\":\"{}\"", escape(column)),
    ];
    if let Some(v) = value {
        parts.push(format!("\"value\":\"{}\"", escape(v)));
    }
    parts.push(format!("\"level\":{}", spec.level.to_json()));
    format!("{{{}}}", parts.join(","))
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

/// Renders a table's rows as a comma-joined list of JSON arrays — the one
/// row encoding both response surfaces share, so their byte-stability
/// contracts cannot drift apart.
fn rows_json(table: &Table) -> String {
    let mut rows = Vec::with_capacity(table.n_rows());
    for r in 0..table.n_rows() {
        let cells: Vec<String> = (0..table.n_cols())
            .map(|c| value_to_wire(&table.value(r, c)))
            .collect();
        rows.push(format!("[{}]", cells.join(",")));
    }
    rows.join(",")
}

/// Renders a [`QueryResult`] (plus an optional confidence interval) as the
/// `POST /v1/{tenant}/query` response body. Finite floats use shortest
/// round-trip rendering, so equal results produce byte-equal bodies — the
/// serving tests' bit-equality contract rides on this.
pub fn query_response_json(result: &QueryResult, ci: Option<&ConfidenceInterval>) -> String {
    let table = &result.table;
    let columns: Vec<String> = table.fields().iter().map(|f| f.name.clone()).collect();
    let scalar = match result.scalar() {
        Some(s) => s.to_json(),
        None => "null".to_string(),
    };
    let confidence = match ci {
        Some(ci) => confidence_interval_json(ci),
        None => "null".to_string(),
    };
    format!(
        "{{\"group_cols\":{},\"columns\":{},\"rows\":[{}],\"scalar\":{},\"confidence\":{}}}",
        result.group_cols,
        columns.to_json(),
        rows_json(table),
        scalar,
        confidence
    )
}

/// Renders a [`ConfidenceInterval`].
pub(crate) fn confidence_interval_json(ci: &ConfidenceInterval) -> String {
    let theoretical = match ci.theoretical {
        Some((lo, hi)) => format!("[{},{}]", lo.to_json(), hi.to_json()),
        None => "null".to_string(),
    };
    format!(
        "{{\"lo\":{},\"hi\":{},\"estimate\":{},\"theoretical\":{}}}",
        ci.lo.to_json(),
        ci.hi.to_json(),
        ci.estimate.to_json(),
        theoretical
    )
}

/// Renders a full table (the `GET /v1/{tenant}/tables/{name}` response):
/// schema plus every row, in the table's own column order.
pub fn table_json(table: &Table) -> String {
    let columns: Vec<String> = table
        .fields()
        .iter()
        .map(|f| {
            format!(
                "{{\"name\":\"{}\",\"dtype\":\"{}\"}}",
                escape(&f.name),
                f.dtype
            )
        })
        .collect();
    format!(
        "{{\"name\":\"{}\",\"n_rows\":{},\"columns\":[{}],\"rows\":[{}]}}",
        escape(table.name()),
        table.n_rows(),
        columns.join(","),
        rows_json(table)
    )
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

    #[test]
    fn request_round_trips_through_json() {
        let req = demo_request();
        let body = req.to_json();
        let parsed = QueryRequest::from_json(&body).expect("parse");
        // Query/Expr have no PartialEq; canonical JSON is the identity.
        assert_eq!(parsed.to_json(), body);
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
            let body = format!(
                "{{\"cmp\":[\"{op}\",{},{{\"lit\":null}}]}}",
                expr_to_wire(&e)
            );
            let parsed = expr_from_wire(&parse(&body).unwrap()).expect("parse");
            assert_eq!(expr_to_wire(&parsed), body);
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
    }
}
