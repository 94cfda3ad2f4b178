//! Versioned on-disk snapshot format: instant cold starts for sealed
//! snapshots.
//!
//! A snapshot file is `magic ++ version ++ meta ++ payload ++ checksum`:
//!
//! ```text
//! offset  size     content
//! 0       8        magic "RSTRSNAP"
//! 8       4        format version, u32 LE (currently 3)
//! 12      8        meta length in bytes, u64 LE
//! 20      m        meta JSON (UTF-8): catalog, annotation, config (the
//!                  one training config every model was built under),
//!                  per-model stats + parameter shapes, selected paths
//! 20+m    p        binary payload: column sections per table (catalog
//!                  order), then raw little-endian f32 weight blocks per
//!                  model (sorted path order, authoritative unpadded
//!                  ParamStore layout)
//! 20+m+p  8        FNV-1a 64 checksum over ALL preceding bytes, u64 LE
//! ```
//!
//! The loader does **not** deserialize trained state it can recompute:
//! encoders, context tables and network masks are deterministic functions
//! of the stored incomplete database and config, so
//! [`CompletionModel::rehydrate`] rebuilds them and then overwrites only
//! the weights. Together with path-derived synthesis seeds this makes the
//! round-trip invariant exact: `load(save(snapshot))` serves
//! **byte-identically** to the in-memory original for any `(query, seed)`.
//! The completed-join cache is deliberately not persisted — a loaded
//! snapshot starts cold and repopulates with bit-identical entries.
//!
//! Numeric fidelity in the meta JSON: `f32`/`f64` stats round-trip exactly
//! (f32→f64 promotion is exact, Rust's `Display` prints shortest
//! round-trip decimals, and parsing is correctly rounded); the u64 serve
//! seed is stored as a decimal *string* because the JSON reader funnels
//! numbers through `f64`, which loses integers above 2^53.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use restore_db::{Column, DataType, Database, Dictionary, Field, ForeignKey, Table};
use restore_util::json::{parse, JsonValue};
use restore_util::{fnv1a64, json_object, write_atomic};

use crate::annotation::SchemaAnnotation;
use crate::cache::JoinCache;
use crate::completion::CompleterConfig;
use crate::error::CoreError;
use crate::model::{CompletionModel, TrainConfig};
use crate::paths::CompletionPath;
use crate::restore::RestoreConfig;
use crate::selection::{BiasDirection, SelectionStrategy, SuspectedBias};
use crate::snapshot::{plan_slots, Snapshot};
use crate::wire::{name_of, named};

/// File magic of snapshot files.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"RSTRSNAP";
/// Current format version. Bump on ANY layout change — the loader refuses
/// other versions rather than misreading them.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// Errors of the snapshot persistence layer.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The file is not a valid snapshot: bad magic, failed checksum,
    /// truncation, or malformed metadata.
    Corrupt(String),
    /// The file is a snapshot, but of a format version this build does not
    /// speak.
    UnsupportedVersion(u32),
    /// Structural reconstruction failed (schema/model rebuild).
    Core(CoreError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot io error: {e}"),
            PersistError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (this build speaks {SNAPSHOT_FORMAT_VERSION})"
                )
            }
            PersistError::Core(e) => write!(f, "snapshot reconstruction failed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CoreError> for PersistError {
    fn from(e: CoreError) -> Self {
        PersistError::Core(e)
    }
}

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

impl Snapshot {
    /// Serializes this snapshot into the versioned on-disk format.
    /// Deterministic: the same snapshot always produces the same bytes
    /// (maps are emitted in sorted order), so re-saving an unchanged
    /// version is byte-idempotent.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        for name in self.db.table_names() {
            let table = self.db.table(name).expect("catalog table");
            for col in table.columns() {
                write_column(&mut payload, col);
            }
        }
        for model in self.models.values() {
            for mat in model.params().values() {
                for &v in mat.data() {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
            }
        }

        let meta = self.meta_json().to_json();
        let mut out = Vec::with_capacity(20 + meta.len() + payload.len() + 8);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(meta.len() as u64).to_le_bytes());
        out.extend_from_slice(meta.as_bytes());
        out.extend_from_slice(&payload);
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Writes this snapshot to `path` atomically (temp file → fsync →
    /// rename → directory fsync). Returns the file size in bytes.
    pub fn save(&self, path: &Path) -> Result<u64, PersistError> {
        let bytes = self.to_bytes();
        write_atomic(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Reads and reconstructs a snapshot from `path`.
    pub fn load(path: &Path) -> Result<Snapshot, PersistError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Reconstructs a snapshot from serialized bytes, validating magic,
    /// version and checksum before touching any content.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, PersistError> {
        if bytes.len() < 28 {
            return Err(corrupt(format!("file too short ({} bytes)", bytes.len())));
        }
        if &bytes[..8] != SNAPSHOT_MAGIC {
            return Err(corrupt("bad magic (not a snapshot file)"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        let meta_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let meta_end = 20usize
            .checked_add(meta_len)
            .filter(|&e| e <= body.len())
            .ok_or_else(|| corrupt("meta length exceeds file size"))?;
        let meta_str = std::str::from_utf8(&body[20..meta_end])
            .map_err(|_| corrupt("meta is not valid UTF-8"))?;
        let meta = parse(meta_str).ok_or_else(|| corrupt("meta is not valid JSON"))?;
        let mut cur = Cursor::new(&body[meta_end..]);

        // ---- catalog -----------------------------------------------------
        let mut db = Database::new();
        for tmeta in arr(&meta, "tables")? {
            let name = str_field(tmeta, "name")?;
            let n_rows = usize_field(tmeta, "n_rows")?;
            let mut fields = Vec::new();
            let mut columns = Vec::new();
            for fmeta in arr(tmeta, "fields")? {
                let dtype = str_field(fmeta, "dtype")?;
                let dtype = named(&DTYPES, dtype)
                    .ok_or_else(|| corrupt(format!("unknown dtype {dtype:?}")))?;
                fields.push(Field::new(str_field(fmeta, "name")?, dtype));
                columns.push(read_column(&mut cur, name, dtype, n_rows)?);
            }
            let table = Table::from_columns(name, fields, columns)
                .map_err(|e| corrupt(format!("table {name}: {e}")))?;
            db.add_table(table);
        }
        for fkmeta in arr(&meta, "foreign_keys")? {
            let fk = ForeignKey::new(
                str_field(fkmeta, "child")?,
                str_field(fkmeta, "child_col")?,
                str_field(fkmeta, "parent")?,
                str_field(fkmeta, "parent_col")?,
            );
            db.add_foreign_key(fk)
                .map_err(|e| corrupt(format!("foreign key: {e}")))?;
        }

        // ---- annotation + config ----------------------------------------
        let incomplete: Vec<String> = arr(&meta, "incomplete")?
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect::<Option<_>>()
            .ok_or_else(|| corrupt("incomplete table list"))?;
        let annotation = SchemaAnnotation::with_incomplete(incomplete);
        let config = config_from_json(field(&meta, "config")?)?;
        let serve_seed = str_field(&meta, "serve_seed")?;
        let serve_seed = serve_seed
            .parse::<u64>()
            .map_err(|_| corrupt(format!("serve_seed {serve_seed:?} is not a u64")))?;

        // ---- models (weight blocks follow the catalog in the payload) ---
        let mut models = BTreeMap::new();
        for mmeta in arr(&meta, "models")? {
            let tables: Vec<String> = arr(mmeta, "tables")?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or_else(|| corrupt("model path tables"))?;
            // Total scalar count across all parameter blocks: the weights
            // are handed to the model as one raw LE byte slice and stream
            // straight into the rebuilt store — no intermediate matrices.
            let mut scalars = 0usize;
            for shape in arr(mmeta, "shapes")? {
                let dims = shape
                    .as_array()
                    .filter(|d| d.len() == 2)
                    .ok_or_else(|| corrupt("parameter shape"))?;
                let rows = json_usize(&dims[0], "shape rows")?;
                let cols = json_usize(&dims[1], "shape cols")?;
                scalars = rows
                    .checked_mul(cols)
                    .and_then(|n| scalars.checked_add(n))
                    .ok_or_else(|| corrupt("parameter shape overflow"))?;
            }
            let raw = cur.take(
                scalars
                    .checked_mul(4)
                    .ok_or_else(|| corrupt("parameter shape overflow"))?,
            )?;
            let path = CompletionPath::from_tables(&db, &tables)
                .map_err(|e| corrupt(format!("model path {tables:?}: {e}")))?;
            let mut model = CompletionModel::rehydrate(&db, &annotation, path, &config.train, raw)?;
            // `val_per_attr` feeds the §5 selection criterion, so a loaded
            // model must report exactly what the trained one did.
            model.val_per_attr = f32_list(mmeta, "val_per_attr")?;
            if model.val_per_attr.len() != model.attrs().len() {
                return Err(corrupt(format!(
                    "model {tables:?} has {} per-attr losses, but {} attrs",
                    model.val_per_attr.len(),
                    model.attrs().len()
                )));
            }
            model.train_losses = f32_list(mmeta, "train_losses")?;
            model.val_loss = num_field(mmeta, "val_loss")? as f32;
            model.train_seconds = num_field(mmeta, "train_seconds")?;
            models.insert(tables, Arc::new(model));
        }
        if cur.pos != cur.buf.len() {
            return Err(corrupt(format!(
                "{} unconsumed payload bytes",
                cur.buf.len() - cur.pos
            )));
        }

        let selected = chains_from_json(&meta, "selected")?;
        let forced = chains_from_json(&meta, "forced")?;
        let suspected = suspected_from_json(arr(&meta, "suspected")?)?;

        // Loaded snapshots start with a cold cache; path-derived seeds make
        // the repopulated entries bit-identical to the original's.
        let cache = JoinCache::with_budget(config.cache_budget_bytes);
        Ok(Snapshot {
            db: Arc::new(db),
            annotation,
            config,
            plans: plan_slots(&models),
            models,
            selected,
            forced,
            suspected,
            cache,
            serve_seed,
        })
    }

    fn meta_json(&self) -> JsonValue {
        let tables: Vec<JsonValue> = self
            .db
            .table_names()
            .map(|name| {
                let t = self.db.table(name).expect("catalog table");
                let fields: Vec<JsonValue> = t
                    .fields()
                    .iter()
                    .map(|f| {
                        let dtype = name_of(&DTYPES, &f.dtype);
                        json_object! { "name": f.name.as_str(), "dtype": dtype }
                    })
                    .collect();
                json_object! { "name": name, "n_rows": t.n_rows(), "fields": fields }
            })
            .collect();
        let foreign_keys: Vec<JsonValue> = self
            .db
            .foreign_keys()
            .iter()
            .map(|fk| {
                json_object! {
                    "child": fk.child.as_str(),
                    "child_col": fk.child_col.as_str(),
                    "parent": fk.parent.as_str(),
                    "parent_col": fk.parent_col.as_str(),
                }
            })
            .collect();
        let models: Vec<JsonValue> = self
            .models
            .iter()
            .map(|(key, m)| {
                let shapes: Vec<JsonValue> = m
                    .params()
                    .values()
                    .iter()
                    .map(|mat| mat.shape().into())
                    .collect();
                json_object! {
                    "tables": key.clone(),
                    "train_losses": m.train_losses.clone(),
                    "val_per_attr": m.val_per_attr.clone(),
                    "val_loss": m.val_loss,
                    "train_seconds": m.train_seconds,
                    "shapes": shapes,
                }
            })
            .collect();
        let incomplete: Vec<&str> = self.annotation.incomplete_tables().collect();
        json_object! {
            "format": "restore-snapshot",
            "serve_seed": self.serve_seed.to_string(),
            "incomplete": incomplete,
            "config": config_to_json(&self.config),
            "tables": tables,
            "foreign_keys": foreign_keys,
            "models": models,
            "selected": chains_to_json(&self.selected),
            "forced": chains_to_json(&self.forced),
            "suspected": suspected_to_json(&self.suspected),
        }
    }
}

// ---- binary column sections ---------------------------------------------

/// Column tags in the payload (one byte before each column body).
const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;
const TAG_STR: u8 = 2;

fn write_bitmap(out: &mut Vec<u8>, present: impl ExactSizeIterator<Item = bool>) {
    let n = present.len();
    let mut bytes = vec![0u8; n.div_ceil(8)];
    for (i, p) in present.enumerate() {
        if p {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bytes);
}

fn write_column(out: &mut Vec<u8>, col: &Column) {
    match col {
        Column::Int(v) => {
            out.push(TAG_INT);
            write_bitmap(out, v.iter().map(Option::is_some));
            for x in v {
                out.extend_from_slice(&x.unwrap_or(0).to_le_bytes());
            }
        }
        Column::Float(v) => {
            out.push(TAG_FLOAT);
            write_bitmap(out, v.iter().map(Option::is_some));
            for x in v {
                // Bit pattern, not value: NaN payloads survive round trips.
                out.extend_from_slice(&x.unwrap_or(0.0).to_bits().to_le_bytes());
            }
        }
        Column::Str { dict, codes } => {
            out.push(TAG_STR);
            out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
            for c in 0..dict.len() {
                let s = dict.value(c as u32);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            write_bitmap(out, codes.iter().map(Option::is_some));
            for c in codes {
                out.extend_from_slice(&c.unwrap_or(0).to_le_bytes());
            }
        }
    }
}

/// Refuses `n_rows` values of `width` bytes, with their presence bitmap,
/// that the rest of the payload cannot hold — before anything is allocated
/// for them, so a declared row count costs no more memory than the file.
fn ensure_rows(
    cur: &Cursor<'_>,
    table: &str,
    n_rows: usize,
    width: usize,
) -> Result<(), PersistError> {
    let remaining = cur.buf.len() - cur.pos;
    let needed = n_rows
        .checked_mul(width)
        .and_then(|n| n.checked_add(n_rows.div_ceil(8)));
    match needed {
        Some(n) if n <= remaining => Ok(()),
        _ => Err(corrupt(format!(
            "table {table:?} declares {n_rows} rows, more than the {remaining} payload bytes left hold"
        ))),
    }
}

fn read_column(
    cur: &mut Cursor<'_>,
    table: &str,
    dtype: DataType,
    n_rows: usize,
) -> Result<Column, PersistError> {
    let tag = cur.u8()?;
    let expected = match dtype {
        DataType::Int => TAG_INT,
        DataType::Float => TAG_FLOAT,
        DataType::Str => TAG_STR,
    };
    if tag != expected {
        return Err(corrupt(format!(
            "column tag {tag} does not match declared dtype {}",
            name_of(&DTYPES, &dtype)
        )));
    }
    match dtype {
        DataType::Int => {
            ensure_rows(cur, table, n_rows, 8)?;
            let present = cur.bitmap(n_rows)?;
            let mut v = Vec::with_capacity(n_rows);
            for p in present {
                let x = cur.i64_le()?;
                v.push(p.then_some(x));
            }
            Ok(Column::Int(v))
        }
        DataType::Float => {
            ensure_rows(cur, table, n_rows, 8)?;
            let present = cur.bitmap(n_rows)?;
            let mut v = Vec::with_capacity(n_rows);
            for p in present {
                let x = f64::from_bits(cur.u64_le()?);
                v.push(p.then_some(x));
            }
            Ok(Column::Float(v))
        }
        DataType::Str => {
            let n_dict = cur.u32_le()? as usize;
            let mut dict = Dictionary::new();
            for i in 0..n_dict {
                let len = cur.u32_le()? as usize;
                let s = std::str::from_utf8(cur.take(len)?)
                    .map_err(|_| corrupt("dictionary entry is not UTF-8"))?;
                let code = dict.intern(s);
                if code as usize != i {
                    return Err(corrupt("duplicate dictionary entry"));
                }
            }
            ensure_rows(cur, table, n_rows, 4)?;
            let present = cur.bitmap(n_rows)?;
            let mut codes = Vec::with_capacity(n_rows);
            for p in present {
                let c = cur.u32_le()?;
                if p && c as usize >= n_dict {
                    return Err(corrupt(format!("string code {c} out of dictionary range")));
                }
                codes.push(p.then_some(c));
            }
            Ok(Column::Str { dict, codes })
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("payload truncated"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32_le(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64_le(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64_le(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bitmap(&mut self, n: usize) -> Result<Vec<bool>, PersistError> {
        let bytes = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
    }
}

// ---- meta JSON helpers ---------------------------------------------------

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, PersistError> {
    v.get(key)
        .ok_or_else(|| corrupt(format!("missing meta field {key:?}")))
}

fn arr<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], PersistError> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| corrupt(format!("meta field {key:?} is not an array")))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, PersistError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| corrupt(format!("meta field {key:?} is not a string")))
}

fn num_field(v: &JsonValue, key: &str) -> Result<f64, PersistError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| corrupt(format!("meta field {key:?} is not a number")))
}

fn json_usize(v: &JsonValue, what: &str) -> Result<usize, PersistError> {
    v.as_f64()
        .filter(|&x| x >= 0.0 && x.fract() == 0.0)
        .map(|x| x as usize)
        .ok_or_else(|| corrupt(format!("{what} is not a non-negative integer")))
}

fn usize_field(v: &JsonValue, key: &str) -> Result<usize, PersistError> {
    json_usize(field(v, key)?, key)
}

fn f32_list(v: &JsonValue, key: &str) -> Result<Vec<f32>, PersistError> {
    arr(v, key)?
        .iter()
        .map(|x| {
            x.as_f64()
                .map(|f| f as f32)
                .ok_or_else(|| corrupt(format!("meta field {key:?} holds a non-number")))
        })
        .collect()
}

/// Each dtype's meta name, read in both directions.
const DTYPES: [(DataType, &str); 3] = [
    (DataType::Int, "int"),
    (DataType::Float, "float"),
    (DataType::Str, "str"),
];

fn chains_to_json(map: &BTreeMap<String, Vec<String>>) -> JsonValue {
    JsonValue::Arr(
        map.iter()
            .map(|(k, chain)| (k.as_str(), chain.clone()).into())
            .collect(),
    )
}

fn chains_from_json(
    meta: &JsonValue,
    key: &str,
) -> Result<BTreeMap<String, Vec<String>>, PersistError> {
    let mut out = BTreeMap::new();
    for entry in arr(meta, key)? {
        let pair = entry
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| corrupt(format!("meta field {key:?} entry is not a pair")))?;
        let table = pair[0]
            .as_str()
            .ok_or_else(|| corrupt(format!("{key} table name")))?;
        let chain: Vec<String> = pair[1]
            .as_array()
            .ok_or_else(|| corrupt(format!("{key} chain")))?
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect::<Option<_>>()
            .ok_or_else(|| corrupt(format!("{key} chain entry")))?;
        out.insert(table.to_string(), chain);
    }
    Ok(out)
}

/// Each bias direction's meta name, read in both directions.
const BIAS_DIRECTIONS: [(BiasDirection, &str); 2] = [
    (BiasDirection::Overestimated, "overestimated"),
    (BiasDirection::Underestimated, "underestimated"),
];

fn suspected_to_json(hints: &[SuspectedBias]) -> JsonValue {
    let hint = |s: &SuspectedBias| {
        json_object! {
            "table": s.table.as_str(),
            "column": s.column.as_str(),
            "direction": name_of(&BIAS_DIRECTIONS, &s.direction),
            "value": s.value.as_deref(),
        }
    };
    JsonValue::Arr(hints.iter().map(hint).collect())
}

fn suspected_from_json(entries: &[JsonValue]) -> Result<Vec<SuspectedBias>, PersistError> {
    entries
        .iter()
        .map(|e| {
            Ok(SuspectedBias {
                table: str_field(e, "table")?.to_string(),
                column: str_field(e, "column")?.to_string(),
                direction: {
                    let name = str_field(e, "direction")?;
                    named(&BIAS_DIRECTIONS, name)
                        .ok_or_else(|| corrupt(format!("unknown bias direction {name:?}")))?
                },
                value: match field(e, "value")? {
                    JsonValue::Null => None,
                    JsonValue::Str(s) => Some(s.clone()),
                    _ => return Err(corrupt("suspected bias value must be a string or null")),
                },
            })
        })
        .collect()
}

fn train_to_json(t: &TrainConfig) -> JsonValue {
    json_object! {
        "epochs": t.epochs,
        "batch_size": t.batch_size,
        "hidden": t.hidden.clone(),
        "max_train_rows": t.max_train_rows,
        "ctx_dim": t.ctx_dim,
        "min_steps": t.min_steps,
        "workers": t.workers,
    }
}

fn train_from_json(v: &JsonValue) -> Result<TrainConfig, PersistError> {
    Ok(TrainConfig {
        epochs: usize_field(v, "epochs")?,
        batch_size: usize_field(v, "batch_size")?,
        hidden: arr(v, "hidden")?
            .iter()
            .map(|h| json_usize(h, "hidden layer width"))
            .collect::<Result<_, _>>()?,
        max_train_rows: usize_field(v, "max_train_rows")?,
        ctx_dim: usize_field(v, "ctx_dim")?,
        min_steps: usize_field(v, "min_steps")?,
        workers: usize_field(v, "workers")?,
    })
}

fn completer_to_json(c: &CompleterConfig) -> JsonValue {
    json_object! {
        "batch_size": c.batch_size,
        "workers": c.workers,
    }
}

fn completer_from_json(v: &JsonValue) -> Result<CompleterConfig, PersistError> {
    Ok(CompleterConfig {
        batch_size: usize_field(v, "batch_size")?,
        workers: usize_field(v, "workers")?,
    })
}

/// Each selection strategy's meta name, read in both directions.
const STRATEGIES: [(SelectionStrategy, &str); 2] = [
    (SelectionStrategy::BestValLoss, "best_val_loss"),
    (
        SelectionStrategy::SuspectedBiasRanking,
        "suspected_bias_ranking",
    ),
];

fn config_to_json(c: &RestoreConfig) -> JsonValue {
    json_object! {
        "train": train_to_json(&c.train),
        "completer": completer_to_json(&c.completer),
        "max_candidates": c.max_candidates,
        "strategy": name_of(&STRATEGIES, &c.strategy),
        "cache_budget_bytes": c.cache_budget_bytes,
    }
}

fn config_from_json(v: &JsonValue) -> Result<RestoreConfig, PersistError> {
    Ok(RestoreConfig {
        train: train_from_json(field(v, "train")?)?,
        completer: completer_from_json(field(v, "completer")?)?,
        max_candidates: usize_field(v, "max_candidates")?,
        strategy: {
            let name = str_field(v, "strategy")?;
            named(&STRATEGIES, name)
                .ok_or_else(|| corrupt(format!("unknown selection strategy {name:?}")))?
        },
        cache_budget_bytes: usize_field(v, "cache_budget_bytes")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_json_round_trips() {
        let cfg = RestoreConfig::default();
        let back = config_from_json(&config_to_json(&cfg)).unwrap();
        assert_eq!(back.train.epochs, cfg.train.epochs);
        assert_eq!(back.train.hidden, cfg.train.hidden);
        assert_eq!(back.completer.batch_size, cfg.completer.batch_size);
        assert_eq!(back.cache_budget_bytes, cfg.cache_budget_bytes);
        assert_eq!(back.strategy, cfg.strategy);
        assert_eq!(back.max_candidates, cfg.max_candidates);
    }

    #[test]
    fn rejects_bad_magic_version_and_checksum() {
        assert!(matches!(
            Snapshot::from_bytes(b"not a snapshot file at all.."),
            Err(PersistError::Corrupt(_))
        ));
        let mut fake = Vec::new();
        fake.extend_from_slice(SNAPSHOT_MAGIC);
        fake.extend_from_slice(&99u32.to_le_bytes());
        fake.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            Snapshot::from_bytes(&fake),
            Err(PersistError::UnsupportedVersion(99))
        ));
        let mut bad = Vec::new();
        bad.extend_from_slice(SNAPSHOT_MAGIC);
        bad.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        bad.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(PersistError::Corrupt(m)) if m.contains("checksum")
        ));
        // A well-formed file whose meta says `"serve_seed":null`: there is
        // no unsealed snapshot to load it as.
        let rs = crate::ReStore::new(Database::new(), RestoreConfig::default());
        let mut file = rs.seal(41).to_bytes();
        let seed = file.windows(4).position(|w| w == br#""41""#).unwrap();
        file[seed..seed + 4].copy_from_slice(b"null");
        let body = file.len() - 8;
        let checksum = fnv1a64(&file[..body]);
        file[body..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&file),
            Err(PersistError::Corrupt(m)) if m.contains("serve_seed")
        ));
    }
}
