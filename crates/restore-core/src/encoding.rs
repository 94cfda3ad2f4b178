//! Attribute encoders: every model attribute becomes a categorical token
//! domain, mirroring naru \[40\] (the paper's stated starting point).
//!
//! * strings → dictionary codes;
//! * low-cardinality numerics → one token per distinct value;
//! * high-cardinality numerics → quantile bins (token decodes to the bin's
//!   mean, which preserves conditional averages — what the bias-reduction
//!   metric measures);
//! * tuple factors → a bounded integer range.
//!
//! The completion models reserve one extra **MASK** token per attribute for
//! unknown values (NULLs, unknown tuple factors); the MASK token is the
//! encoder cardinality and is excluded at sampling time.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::str::FromStr;

use restore_db::{Column, DataType, DbResult, Value};

/// Numeric columns with at most this many distinct values stay categorical.
/// High enough that year-like attributes (`production_year`,
/// `landlord_since`) keep exact values — group-by queries on them must
/// produce matching keys after completion.
pub(crate) const MAX_DISTINCT_CATEGORICAL: usize = 96;

/// An encoder mapping scalar values to dense tokens and back.
#[derive(Clone, Debug)]
pub enum AttrEncoder {
    /// Distinct-value dictionary (strings or small numeric domains).
    Categorical {
        values: Vec<Value>,
        index: HashMap<String, u32>,
    },
    /// Quantile bins over a continuous column. `edges` has `k+1` entries for
    /// `k` bins; `means` holds the mean of the training values per bin.
    Binned { edges: Vec<f64>, means: Vec<f64> },
    /// Clamped integer range (tuple factors).
    IntRange { min: i64, max: i64 },
}

impl AttrEncoder {
    /// Fits an encoder on a column. `max_bins` bounds the quantile bins.
    pub fn fit(column: &Column, max_bins: usize) -> AttrEncoder {
        match column {
            Column::Str { .. } => {
                let mut distinct: BTreeMap<String, Value> = BTreeMap::new();
                for i in 0..column.len() {
                    let v = column.get(i);
                    if !v.is_null() {
                        distinct.entry(v.to_string()).or_insert(v);
                    }
                }
                Self::categorical_from(distinct)
            }
            _ => {
                // NaN is no value to learn (it encodes to MASK, like NULL).
                let mut vals: Vec<f64> = (0..column.len())
                    .filter_map(|i| column.get(i).as_f64())
                    .filter(|v| !v.is_nan())
                    .collect();
                vals.sort_by(f64::total_cmp);
                let mut distinct: Vec<f64> = Vec::new();
                for &v in &vals {
                    if distinct.last().is_none_or(|&d| d != v) {
                        distinct.push(v);
                    }
                }
                if distinct.len() <= MAX_DISTINCT_CATEGORICAL {
                    let is_int = matches!(column, Column::Int(_));
                    let mut map: BTreeMap<String, Value> = BTreeMap::new();
                    for &v in &distinct {
                        let val = if is_int {
                            Value::Int(v as i64)
                        } else {
                            Value::Float(v)
                        };
                        map.insert(val.to_string(), val);
                    }
                    // Preserve numeric order rather than lexicographic.
                    let values: Vec<Value> = distinct
                        .iter()
                        .map(|&v| {
                            if is_int {
                                Value::Int(v as i64)
                            } else {
                                Value::Float(v)
                            }
                        })
                        .collect();
                    let index = values
                        .iter()
                        .enumerate()
                        .map(|(i, v)| (v.to_string(), i as u32))
                        .collect();
                    AttrEncoder::Categorical { values, index }
                } else {
                    Self::fit_bins(&vals, max_bins)
                }
            }
        }
    }

    fn categorical_from(distinct: BTreeMap<String, Value>) -> AttrEncoder {
        let values: Vec<Value> = distinct.into_values().collect();
        let index = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.to_string(), i as u32))
            .collect();
        AttrEncoder::Categorical { values, index }
    }

    /// Quantile-bins a sorted value slice.
    fn fit_bins(sorted: &[f64], max_bins: usize) -> AttrEncoder {
        let k = max_bins.max(2).min(sorted.len().max(2));
        let mut edges = Vec::with_capacity(k + 1);
        for i in 0..=k {
            let pos = (i * (sorted.len() - 1)) / k;
            edges.push(sorted[pos]);
        }
        edges.dedup();
        if edges.len() < 2 {
            edges = vec![sorted[0], sorted[sorted.len() - 1] + 1.0];
        }
        let bins = edges.len() - 1;
        let mut sums = vec![0.0f64; bins];
        let mut counts = vec![0usize; bins];
        for &v in sorted {
            let b = bin_of(&edges, v);
            sums[b] += v;
            counts[b] += 1;
        }
        let means = sums
            .iter()
            .zip(&counts)
            .enumerate()
            .map(|(b, (s, &c))| {
                if c > 0 {
                    s / c as f64
                } else {
                    (edges[b] + edges[b + 1]) / 2.0
                }
            })
            .collect();
        AttrEncoder::Binned { edges, means }
    }

    /// Fits a tuple-factor encoder for counts in `[0, max_observed]`.
    pub fn fit_tuple_factor(counts: impl IntoIterator<Item = i64>, cap: i64) -> AttrEncoder {
        let max = counts.into_iter().max().unwrap_or(0).clamp(0, cap);
        AttrEncoder::IntRange {
            min: 0,
            max: max.max(1),
        }
    }

    /// Number of real (non-MASK) tokens.
    pub fn cardinality(&self) -> usize {
        match self {
            AttrEncoder::Categorical { values, .. } => values.len().max(1),
            AttrEncoder::Binned { means, .. } => means.len(),
            AttrEncoder::IntRange { min, max } => (max - min + 1) as usize,
        }
    }

    /// The MASK token index (one past the real tokens).
    pub fn mask_token(&self) -> u32 {
        self.cardinality() as u32
    }

    /// Cardinality including the MASK token — the width the model uses.
    pub(crate) fn model_cardinality(&self) -> usize {
        self.cardinality() + 1
    }

    /// Encodes a value; NULLs, NaN and unknown values map to `None` (the
    /// model feeds MASK with zero loss weight for those). Dictionaries match
    /// by what the value prints as, so `Int` 2013, `Float` 2013.0 and the
    /// string "2013" are one key.
    pub fn encode(&self, v: &Value) -> Option<u32> {
        if v.is_null() || matches!(v, Value::Float(x) if x.is_nan()) {
            return None;
        }
        match self {
            AttrEncoder::Categorical { index, .. } => index.get(&v.to_string()).copied(),
            AttrEncoder::Binned { edges, .. } => {
                let x = v.as_f64()?;
                Some(bin_of(edges, x) as u32)
            }
            AttrEncoder::IntRange { min, max } => {
                let x = v.as_i64()?;
                Some((x.clamp(*min, *max) - min) as u32)
            }
        }
    }

    /// [`AttrEncoder::encode`] down a column: the tokens of `rows` (of every
    /// row when `None`), MASK where `encode` gives `None`. Works on the
    /// column's storage — one dictionary lookup per distinct string, a typed
    /// copy of the dictionary for numbers, the bin search on the raw `f64` —
    /// so no cell becomes a `Value` or a `String`; the pairings with nothing
    /// typed to gain go through `encode` cell by cell.
    pub fn encode_column(&self, column: &Column, rows: Option<&[usize]>) -> Vec<u32> {
        let mask = self.mask_token();
        match (column, self) {
            (Column::Int(cells), _) => self.encode_ints(cells, rows),
            (Column::Str { dict, codes }, AttrEncoder::Categorical { index, .. }) => {
                let by_code: Vec<Option<u32>> = (0..dict.len() as u32)
                    .map(|code| index.get(&**dict.value(code)).copied())
                    .collect();
                tokens_of(codes, rows, mask, |code| by_code[code as usize])
            }
            (Column::Float(cells), AttrEncoder::Categorical { index, .. }) => {
                let typed = typed_index(index, f64::to_bits);
                let token = |x: f64| typed.get(&x.to_bits()).copied().filter(|_| !x.is_nan());
                tokens_of(cells, rows, mask, token)
            }
            (Column::Float(cells), AttrEncoder::Binned { edges, .. }) => {
                let token = |x: f64| (!x.is_nan()).then(|| bin_of(edges, x) as u32);
                tokens_of(cells, rows, mask, token)
            }
            _ => for_rows(rows, column.len(), |r| {
                self.encode(&column.get(r)).unwrap_or(mask)
            }),
        }
    }

    /// [`AttrEncoder::encode_column`] over the storage of an `Int` column —
    /// which is also how the walk holds its tuple factors.
    pub(crate) fn encode_ints(&self, cells: &[Option<i64>], rows: Option<&[usize]>) -> Vec<u32> {
        let mask = self.mask_token();
        match self {
            AttrEncoder::Categorical { index, .. } => {
                let typed = typed_index(index, |i: i64| i);
                tokens_of(cells, rows, mask, |i| typed.get(&i).copied())
            }
            AttrEncoder::Binned { edges, .. } => {
                tokens_of(cells, rows, mask, |i| Some(bin_of(edges, i as f64) as u32))
            }
            AttrEncoder::IntRange { min, max } => tokens_of(cells, rows, mask, |i| {
                Some((i.clamp(*min, *max) - min) as u32)
            }),
        }
    }

    /// Decodes a token back into a value (bin tokens decode to bin means).
    pub fn decode(&self, token: u32) -> Value {
        match self {
            AttrEncoder::Categorical { values, .. } => {
                values.get(token as usize).cloned().unwrap_or(Value::Null)
            }
            AttrEncoder::Binned { means, .. } => means
                .get(token as usize)
                .map_or(Value::Null, |&m| Value::Float(m)),
            AttrEncoder::IntRange { min, max } => {
                let v = min + token as i64;
                if v <= *max {
                    Value::Int(v)
                } else {
                    Value::Null
                }
            }
        }
    }

    /// [`AttrEncoder::decode`] down a column of tokens (each at most the
    /// MASK token, which decodes to NULL), coerced into `dtype`: one decoded
    /// value per token, among which the tokens pick
    /// ([`Column::gather_compact`]: the dictionary holds what was sampled,
    /// in order of first appearance).
    pub fn decode_column(&self, tokens: &[u32], dtype: DataType) -> DbResult<Column> {
        let mut per_token = Column::new(dtype);
        for token in 0..self.model_cardinality() as u32 {
            per_token.push(&coerce(&self.decode(token), dtype))?;
        }
        let picks: Vec<usize> = tokens.iter().map(|&t| t as usize).collect();
        Ok(per_token.gather_compact(&picks))
    }

    /// Numeric view of a token (used for euclidean replacement features and
    /// confidence bounds over continuous attributes).
    pub fn token_numeric(&self, token: u32) -> Option<f64> {
        self.decode(token).as_f64()
    }
}

/// Coerces a sampled value into the column dtype (bin means are floats even
/// for integer columns).
pub(crate) fn coerce(v: &Value, dtype: DataType) -> Value {
    match (v, dtype) {
        (Value::Float(f), DataType::Int) => Value::Int(f.round() as i64),
        (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
        _ => v.clone(),
    }
}

/// `token(cell)` for `rows` of `cells` (for all of them when `None`); MASK
/// for NULL cells and for values without a token.
fn tokens_of<T: Copy>(
    cells: &[Option<T>],
    rows: Option<&[usize]>,
    mask: u32,
    token: impl Fn(T) -> Option<u32>,
) -> Vec<u32> {
    for_rows(rows, cells.len(), |r| {
        cells[r].and_then(&token).unwrap_or(mask)
    })
}

/// `token(r)` for every `r` in `rows`, or in `0..n` when there is no list.
fn for_rows(rows: Option<&[usize]>, n: usize, token: impl Fn(usize) -> u32) -> Vec<u32> {
    match rows {
        Some(rows) => rows.iter().map(|&r| token(r)).collect(),
        None => (0..n).map(token).collect(),
    }
}

/// A string-keyed dictionary as seen by values of type `T`: dictionaries
/// match by `to_string()`, so a `T` has a key's token exactly when the key
/// parses to it and prints back as itself (`"2013"` for an `i64`, not
/// `"2013.0"` or `"+5"`).
fn typed_index<T: FromStr + ToString, K: Hash + Eq>(
    index: &HashMap<String, u32>,
    key: impl Fn(T) -> K,
) -> HashMap<K, u32> {
    let typed = |(text, &token): (&String, &u32)| {
        let value: T = text.parse().ok()?;
        (value.to_string() == *text).then(|| (key(value), token))
    };
    index.iter().filter_map(typed).collect()
}

/// The bin of a value that is not NaN.
fn bin_of(edges: &[f64], v: f64) -> usize {
    // edges are sorted; bin i covers [edges[i], edges[i+1]) with the last
    // bin closed on the right.
    let bins = edges.len() - 1;
    let order = |e: &f64| {
        e.partial_cmp(&v)
            .expect("neither bin edges nor encoded values are NaN")
    };
    match edges.binary_search_by(order) {
        Ok(i) => i.min(bins - 1),
        Err(0) => 0,
        Err(i) => (i - 1).min(bins - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str_column(vals: &[&str]) -> Column {
        let mut c = Column::new(DataType::Str);
        for v in vals {
            c.push(&Value::str(*v)).unwrap();
        }
        c
    }

    fn float_column(vals: &[f64]) -> Column {
        let mut c = Column::new(DataType::Float);
        for &v in vals {
            c.push(&Value::Float(v)).unwrap();
        }
        c
    }

    #[test]
    fn categorical_round_trip() {
        let enc = AttrEncoder::fit(&str_column(&["b", "a", "b", "c"]), 8);
        assert_eq!(enc.cardinality(), 3);
        for v in ["a", "b", "c"] {
            let t = enc.encode(&Value::str(v)).unwrap();
            assert_eq!(enc.decode(t), Value::str(v));
        }
        assert_eq!(enc.encode(&Value::str("zzz")), None);
        assert_eq!(enc.encode(&Value::Null), None);
    }

    #[test]
    fn small_int_domain_stays_categorical_in_order() {
        let mut c = Column::new(DataType::Int);
        for v in [2014i64, 2008, 2011, 2008, 2014] {
            c.push(&Value::Int(v)).unwrap();
        }
        let enc = AttrEncoder::fit(&c, 8);
        assert_eq!(enc.cardinality(), 3);
        // Numeric order preserved: token 0 = 2008 < token 1 = 2011 < ...
        assert_eq!(enc.decode(0), Value::Int(2008));
        assert_eq!(enc.decode(2), Value::Int(2014));
    }

    #[test]
    fn continuous_column_is_binned() {
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let enc = AttrEncoder::fit(&float_column(&vals), 10);
        assert!(matches!(enc, AttrEncoder::Binned { .. }));
        assert!(enc.cardinality() <= 10);
        // Encoding is monotone.
        let t_low = enc.encode(&Value::Float(5.0)).unwrap();
        let t_high = enc.encode(&Value::Float(995.0)).unwrap();
        assert!(t_low < t_high);
        // Decoding returns the bin mean, which lies inside the bin.
        let m = enc.decode(t_low).as_f64().unwrap();
        assert!((0.0..=150.0).contains(&m));
    }

    #[test]
    fn bin_means_preserve_global_mean() {
        let vals: Vec<f64> = (0..500).map(|i| (i as f64).sqrt() * 10.0).collect();
        let enc = AttrEncoder::fit(&float_column(&vals), 16);
        let true_mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let decoded_mean = vals
            .iter()
            .map(|&v| {
                enc.decode(enc.encode(&Value::Float(v)).unwrap())
                    .as_f64()
                    .unwrap()
            })
            .sum::<f64>()
            / vals.len() as f64;
        assert!(
            (true_mean - decoded_mean).abs() < 0.02 * true_mean.abs(),
            "encode/decode shifted the mean: {true_mean} -> {decoded_mean}"
        );
    }

    #[test]
    fn out_of_range_values_clamp_to_edge_bins() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let enc = AttrEncoder::fit(&float_column(&vals), 8);
        assert_eq!(enc.encode(&Value::Float(-50.0)), Some(0));
        let t = enc.encode(&Value::Float(1e9)).unwrap();
        assert_eq!(t as usize, enc.cardinality() - 1);
    }

    #[test]
    fn tuple_factor_encoder_clamps() {
        let enc = AttrEncoder::fit_tuple_factor([0i64, 3, 7], 64);
        assert_eq!(enc.cardinality(), 8);
        assert_eq!(enc.encode(&Value::Int(3)), Some(3));
        assert_eq!(enc.encode(&Value::Int(100)), Some(7));
        assert_eq!(enc.decode(5), Value::Int(5));
        assert_eq!(enc.mask_token(), 8);
        assert_eq!(enc.decode(enc.mask_token()), Value::Null);
    }

    #[test]
    fn constant_column_has_cardinality_one() {
        let enc = AttrEncoder::fit(&str_column(&["x", "x", "x"]), 8);
        assert_eq!(enc.cardinality(), 1);
        assert_eq!(enc.model_cardinality(), 2);
    }

    #[test]
    fn degenerate_numeric_column() {
        let enc = AttrEncoder::fit(&float_column(&[5.0; 200]), 8);
        // One distinct value -> categorical with a single token.
        assert_eq!(enc.cardinality(), 1);
        assert_eq!(enc.decode(0), Value::Float(5.0));
    }

    #[test]
    fn nan_fits_and_encodes_like_null() {
        // Few distinct values: a dictionary without a NaN entry.
        let listed = AttrEncoder::fit(&float_column(&[2.0, f64::NAN, 1.0, f64::NAN]), 8);
        assert_eq!(listed.cardinality(), 2);
        // Many: bins whose edges and means are finite.
        let mut vals: Vec<f64> = (0..300).map(|i| i as f64).collect();
        vals[7] = f64::NAN;
        let binned = AttrEncoder::fit(&float_column(&vals), 8);
        let AttrEncoder::Binned { edges, means } = &binned else {
            panic!("300 distinct values must bin");
        };
        assert!(edges.iter().chain(means).all(|x| x.is_finite()));
        for enc in [&listed, &binned] {
            assert_eq!(enc.encode(&Value::Float(f64::NAN)), None);
            let col = float_column(&[1.0, f64::NAN]);
            let tokens = enc.encode_column(&col, None);
            assert_eq!(tokens[1], enc.mask_token());
            assert_ne!(tokens[0], enc.mask_token());
        }
    }
}
