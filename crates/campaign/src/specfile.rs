//! `rcb run --spec file.toml` — campaign specs from files.
//!
//! Loads a [`CampaignSpec`] — cells, adversaries, topologies, **and world
//! schedules** — from a declarative spec file. This is the one way a
//! campaign is written down: the scenario catalog is itself a set of spec
//! files (`crates/campaign/scenarios/*.toml`) embedded into the binary and
//! parsed here, so a copied and edited catalog file runs through
//! `rcb run --spec` without recompiling anything.
//!
//! Two front-ends share one builder:
//!
//! * a hand-rolled **TOML subset** (no external dependency, in the spirit
//!   of [`crate::jsonin`]): `key = value` pairs, `[[cell]]` and
//!   `[[cell.event]]` array-of-tables headers, `#` comments, strings,
//!   integers, floats, booleans, and (nested) single-line arrays;
//! * **JSON** (detected by a leading `{`), parsed with [`crate::jsonin`]
//!   and mapped onto the same intermediate form — the layout is the same
//!   (`cells` array, each with an `events` array).
//!
//! Every failure is a [`SpecError`] carrying the file, the line (TOML), and
//! the offending key — malformed files fail loudly with context, never
//! panic. Unknown keys are rejected rather than ignored so typos cannot
//! silently drop an event.
//!
//! ## Spec layout
//!
//! ```toml
//! name = "my-nemesis"
//! description = "uniform jammer swapped for a reactive one mid-run"
//!
//! [[cell]]                     # one aggregation cell
//! protocol = "multicast"       # core | multicast | multicast-c | adv |
//!                              # naive | naive-config | single-channel |
//!                              # decay | multi-hop | multi-message
//! n = 32
//! adversary = "uniform"        # silent | uniform | burst | pulse | sweep |
//!                              # random-subset | gilbert-elliott | reactive |
//!                              # reactive-window | hotspot
//! budget = 20000               # adversary knobs: budget, frac, start, ...
//! frac = 0.5
//! topology = "complete"        # complete | line | grid | random-geometric |
//!                              # dynamic (then: cols, radius, base, p_down)
//! max_slots = 50000000
//!
//! [[cell.event]]               # world-schedule events, nondecreasing slots
//! slot = 4096
//! kind = "swap-eve"            # swap-eve | partition | heal | crash |
//!                              # recover | set-link-loss
//! adversary = "reactive"
//! budget = 20000
//! max_channels = 8
//! ```
//!
//! Protocol and adversary keys live in one namespace per table; the
//! adversary budget is spelled `budget` (not `t`) and `random-subset` /
//! `hotspot` use `adv_k`, so they can never collide with protocol knobs.
//!
//! ## Sweeps
//!
//! No cell key takes an array, so an array on a cell key declares a sweep
//! axis: the cell expands into the cross product of its array-valued keys,
//! the first such key outermost, every expanded cell keeping the other
//! keys and the events. `n = [32, 128]` followed by
//! `protocol = ["naive", "decay"]` gives the cells (32, naive),
//! (32, decay), (128, naive), (128, decay), in that order. An empty array
//! is an error, and each element must be what the key takes as a scalar.
//! Arrays in `[[cell.event]]` tables (`groups`, `nodes`) are values, never
//! axes. The rule is the builder's, so it holds for JSON cells too.

use crate::jsonin;
use crate::scenario::{CampaignSpec, CellSpec};
use crate::Json;
use rcb_harness::{AdversaryKind, ProtocolKind, ScheduleSpec, TopologyKind};
use rcb_sim::WorldEvent;

/// A spec-file loading error with file/line/key context.
///
/// `line` is `0` when no line information exists (I/O errors, JSON specs —
/// the JSON parser reports byte offsets in `msg` instead).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    pub file: String,
    pub line: usize,
    pub msg: String,
}

impl SpecError {
    fn new(file: &str, line: usize, msg: impl Into<String>) -> Self {
        Self {
            file: file.to_string(),
            line,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: {}", self.file, self.line, self.msg)
        } else {
            write!(f, "{}: {}", self.file, self.msg)
        }
    }
}

impl std::error::Error for SpecError {}

/// A parsed spec-file value (shared by the TOML and JSON front-ends).
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Arr(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::Arr(_) => "array",
        }
    }
}

/// One `key = value` binding with its source line (0 for JSON).
#[derive(Clone, Debug)]
struct Entry {
    key: String,
    value: Value,
    line: usize,
}

/// A flat key/value table (the document head, one cell, or one event).
#[derive(Clone, Debug, Default)]
struct Table {
    line: usize,
    entries: Vec<Entry>,
}

impl Table {
    fn insert(
        &mut self,
        file: &str,
        key: &str,
        value: Value,
        line: usize,
    ) -> Result<(), SpecError> {
        if let Some(prev) = self.entries.iter().find(|e| e.key == key) {
            return Err(SpecError::new(
                file,
                line,
                format!("duplicate key `{key}` (first set on line {})", prev.line),
            ));
        }
        self.entries.push(Entry {
            key: key.to_string(),
            value,
            line,
        });
        Ok(())
    }

    /// Remove and return a key's value, if present.
    fn take(&mut self, key: &str) -> Option<Entry> {
        let i = self.entries.iter().position(|e| e.key == key)?;
        Some(self.entries.remove(i))
    }

    /// After building: any key still present is unknown.
    fn reject_leftovers(&self, file: &str, what: &str) -> Result<(), SpecError> {
        match self.entries.first() {
            None => Ok(()),
            Some(e) => Err(SpecError::new(
                file,
                e.line,
                format!("unknown key `{}` in {what}", e.key),
            )),
        }
    }
}

/// The intermediate form both front-ends produce.
#[derive(Clone, Debug, Default)]
struct RawSpec {
    doc: Table,
    cells: Vec<RawCell>,
}

#[derive(Clone, Debug, Default)]
struct RawCell {
    table: Table,
    events: Vec<Table>,
}

// ---------------------------------------------------------------------------
// TOML-subset front-end
// ---------------------------------------------------------------------------

fn parse_toml(text: &str, file: &str) -> Result<RawSpec, SpecError> {
    let mut raw = RawSpec::default();
    // Which table the next `key = value` line lands in.
    enum Target {
        Doc,
        Cell,
        Event,
    }
    let mut target = Target::Doc;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let Some(name) = rest.strip_suffix("]]") else {
                return Err(SpecError::new(file, lineno, "unterminated table header"));
            };
            match name.trim() {
                "cell" => {
                    raw.cells.push(RawCell {
                        table: Table {
                            line: lineno,
                            entries: Vec::new(),
                        },
                        events: Vec::new(),
                    });
                    target = Target::Cell;
                }
                "cell.event" => {
                    let Some(cell) = raw.cells.last_mut() else {
                        return Err(SpecError::new(
                            file,
                            lineno,
                            "[[cell.event]] before any [[cell]]",
                        ));
                    };
                    cell.events.push(Table {
                        line: lineno,
                        entries: Vec::new(),
                    });
                    target = Target::Event;
                }
                other => {
                    return Err(SpecError::new(
                        file,
                        lineno,
                        format!(
                            "unknown table `[[{other}]]` (expected [[cell]] or [[cell.event]])"
                        ),
                    ))
                }
            }
            continue;
        }
        if line.starts_with('[') {
            return Err(SpecError::new(
                file,
                lineno,
                format!("unsupported table header `{line}` (only [[cell]] and [[cell.event]])"),
            ));
        }
        let Some(eq) = line.find('=') else {
            return Err(SpecError::new(
                file,
                lineno,
                format!("expected `key = value`, got `{line}`"),
            ));
        };
        let key = line[..eq].trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(SpecError::new(file, lineno, format!("invalid key `{key}`")));
        }
        let value = parse_value(line[eq + 1..].trim(), file, lineno)?;
        let table = match target {
            Target::Doc => &mut raw.doc,
            Target::Cell => &mut raw.cells.last_mut().expect("cell exists").table,
            Target::Event => raw
                .cells
                .last_mut()
                .expect("cell exists")
                .events
                .last_mut()
                .expect("event exists"),
        };
        table.insert(file, key, value, lineno)?;
    }
    Ok(raw)
}

/// Parse one (possibly nested-array) value from the text after `=`.
fn parse_value(s: &str, file: &str, line: usize) -> Result<Value, SpecError> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value_at(s, bytes, &mut pos, file, line)?;
    skip_ws(bytes, &mut pos);
    if pos < bytes.len() && bytes[pos] != b'#' {
        return Err(SpecError::new(
            file,
            line,
            format!("trailing characters after value: `{}`", &s[pos..]),
        ));
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && (bytes[*pos] == b' ' || bytes[*pos] == b'\t') {
        *pos += 1;
    }
}

fn parse_value_at(
    s: &str,
    bytes: &[u8],
    pos: &mut usize,
    file: &str,
    line: usize,
) -> Result<Value, SpecError> {
    skip_ws(bytes, pos);
    if *pos >= bytes.len() {
        return Err(SpecError::new(file, line, "missing value after `=`"));
    }
    match bytes[*pos] {
        b'"' => {
            let mut out = String::new();
            let mut i = *pos + 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'"' => {
                        *pos = i + 1;
                        return Ok(Value::Str(out));
                    }
                    b'\\' if i + 1 < bytes.len() => {
                        out.push(bytes[i + 1] as char);
                        i += 2;
                    }
                    _ => {
                        // Strings in specs are names/descriptions: plain
                        // (possibly multi-byte) text copied through.
                        let ch = s[i..].chars().next().expect("in bounds");
                        out.push(ch);
                        i += ch.len_utf8();
                    }
                }
            }
            Err(SpecError::new(file, line, "unterminated string"))
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(bytes, pos);
                if *pos >= bytes.len() {
                    return Err(SpecError::new(file, line, "unterminated array"));
                }
                if bytes[*pos] == b']' {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                items.push(parse_value_at(s, bytes, pos, file, line)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {}
                    _ => return Err(SpecError::new(file, line, "expected `,` or `]` in array")),
                }
            }
        }
        _ => {
            let start = *pos;
            while *pos < bytes.len() && !b" \t,]#".contains(&bytes[*pos]) {
                *pos += 1;
            }
            let tok = &s[start..*pos];
            match tok {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                _ => {
                    if tok.contains(['.', 'e', 'E']) {
                        tok.parse::<f64>().map(Value::Float).map_err(|_| {
                            SpecError::new(file, line, format!("invalid value `{tok}`"))
                        })
                    } else {
                        tok.parse::<i64>().map(Value::Int).map_err(|_| {
                            SpecError::new(file, line, format!("invalid value `{tok}`"))
                        })
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// JSON front-end (same layout, via jsonin)
// ---------------------------------------------------------------------------

fn parse_json(text: &str, file: &str) -> Result<RawSpec, SpecError> {
    let json = jsonin::parse(text).map_err(|e| SpecError::new(file, 0, e.to_string()))?;
    let Json::Object(fields) = json else {
        return Err(SpecError::new(file, 0, "spec must be a JSON object"));
    };
    let mut raw = RawSpec::default();
    for (key, value) in fields {
        if key == "cells" {
            let Json::Array(cells) = value else {
                return Err(SpecError::new(file, 0, "`cells` must be an array"));
            };
            for (ci, cell) in cells.into_iter().enumerate() {
                let Json::Object(cell_fields) = cell else {
                    return Err(SpecError::new(
                        file,
                        0,
                        format!("cell {ci} must be an object"),
                    ));
                };
                let mut rc = RawCell::default();
                for (ck, cv) in cell_fields {
                    if ck == "events" {
                        let Json::Array(events) = cv else {
                            return Err(SpecError::new(
                                file,
                                0,
                                format!("cell {ci}: `events` must be an array"),
                            ));
                        };
                        for (ei, ev) in events.into_iter().enumerate() {
                            let Json::Object(ev_fields) = ev else {
                                return Err(SpecError::new(
                                    file,
                                    0,
                                    format!("cell {ci} event {ei} must be an object"),
                                ));
                            };
                            let mut et = Table::default();
                            for (ek, evv) in ev_fields {
                                let v = json_value(evv, file, &ek)?;
                                et.insert(file, &ek, v, 0)?;
                            }
                            rc.events.push(et);
                        }
                    } else {
                        let v = json_value(cv, file, &ck)?;
                        rc.table.insert(file, &ck, v, 0)?;
                    }
                }
                raw.cells.push(rc);
            }
        } else {
            let v = json_value(value, file, &key)?;
            raw.doc.insert(file, &key, v, 0)?;
        }
    }
    Ok(raw)
}

fn json_value(j: Json, file: &str, key: &str) -> Result<Value, SpecError> {
    match j {
        Json::Bool(b) => Ok(Value::Bool(b)),
        Json::Int(i) => i64::try_from(i)
            .map(Value::Int)
            .map_err(|_| SpecError::new(file, 0, format!("`{key}`: integer out of range"))),
        Json::Float(f) => Ok(Value::Float(f)),
        Json::Str(s) => Ok(Value::Str(s)),
        Json::Array(items) => Ok(Value::Arr(
            items
                .into_iter()
                .map(|v| json_value(v, file, key))
                .collect::<Result<_, _>>()?,
        )),
        Json::Null | Json::Object(_) => Err(SpecError::new(
            file,
            0,
            format!("`{key}`: nulls and nested objects are not spec values"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Shared builder: RawSpec -> CampaignSpec
// ---------------------------------------------------------------------------

/// Typed take: required key of a given shape, with key context in errors.
fn req(t: &mut Table, file: &str, what: &str, key: &str) -> Result<Entry, SpecError> {
    t.take(key).ok_or_else(|| {
        SpecError::new(
            file,
            t.line,
            format!("{what}: missing required key `{key}`"),
        )
    })
}

fn as_u64(e: &Entry, file: &str) -> Result<u64, SpecError> {
    match e.value {
        Value::Int(i) if i >= 0 => Ok(i as u64),
        _ => Err(SpecError::new(
            file,
            e.line,
            format!(
                "`{}` must be a nonnegative integer, got {}",
                e.key,
                e.value.type_name()
            ),
        )),
    }
}

fn as_u32(e: &Entry, file: &str) -> Result<u32, SpecError> {
    u32::try_from(as_u64(e, file)?)
        .map_err(|_| SpecError::new(file, e.line, format!("`{}` does not fit in 32 bits", e.key)))
}

fn as_f64(e: &Entry, file: &str) -> Result<f64, SpecError> {
    match e.value {
        Value::Float(f) => Ok(f),
        Value::Int(i) => Ok(i as f64),
        _ => Err(SpecError::new(
            file,
            e.line,
            format!("`{}` must be a number, got {}", e.key, e.value.type_name()),
        )),
    }
}

fn as_str(e: &Entry, file: &str) -> Result<String, SpecError> {
    match &e.value {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(SpecError::new(
            file,
            e.line,
            format!("`{}` must be a string, got {}", e.key, e.value.type_name()),
        )),
    }
}

fn as_u32_list(e: &Entry, file: &str) -> Result<Vec<u32>, SpecError> {
    let Value::Arr(items) = &e.value else {
        return Err(SpecError::new(
            file,
            e.line,
            format!("`{}` must be an array of node ids", e.key),
        ));
    };
    items
        .iter()
        .map(|v| match v {
            Value::Int(i) if *i >= 0 && *i <= u32::MAX as i64 => Ok(*i as u32),
            _ => Err(SpecError::new(
                file,
                e.line,
                format!(
                    "`{}` entries must be node ids (nonnegative integers)",
                    e.key
                ),
            )),
        })
        .collect()
}

fn req_u64(t: &mut Table, file: &str, what: &str, key: &str) -> Result<u64, SpecError> {
    let e = req(t, file, what, key)?;
    as_u64(&e, file)
}

fn req_f64(t: &mut Table, file: &str, what: &str, key: &str) -> Result<f64, SpecError> {
    let e = req(t, file, what, key)?;
    as_f64(&e, file)
}

fn req_str(t: &mut Table, file: &str, what: &str, key: &str) -> Result<String, SpecError> {
    let e = req(t, file, what, key)?;
    as_str(&e, file)
}

fn opt_u64(t: &mut Table, file: &str, key: &str) -> Result<Option<u64>, SpecError> {
    t.take(key).map(|e| as_u64(&e, file)).transpose()
}

fn opt_f64(t: &mut Table, file: &str, key: &str) -> Result<Option<f64>, SpecError> {
    t.take(key).map(|e| as_f64(&e, file)).transpose()
}

fn opt_str(t: &mut Table, file: &str, key: &str) -> Result<Option<String>, SpecError> {
    t.take(key).map(|e| as_str(&e, file)).transpose()
}

/// Build an [`AdversaryKind`] from a name plus its knobs in `t`. Shared by
/// the cell adversary and `swap-eve` events. The budget key is `budget`
/// and `random-subset`/`hotspot` take `adv_k`, so adversary knobs never
/// collide with protocol knobs in the flat cell namespace.
fn build_adversary(
    t: &mut Table,
    file: &str,
    what: &str,
    name: &str,
) -> Result<AdversaryKind, SpecError> {
    Ok(match name {
        "silent" => AdversaryKind::Silent,
        "uniform" => AdversaryKind::Uniform {
            t: req_u64(t, file, what, "budget")?,
            frac: req_f64(t, file, what, "frac")?,
        },
        "burst" => AdversaryKind::Burst {
            t: req_u64(t, file, what, "budget")?,
            start: opt_u64(t, file, "start")?.unwrap_or(0),
        },
        "pulse" => AdversaryKind::Pulse {
            t: req_u64(t, file, what, "budget")?,
            period: req_u64(t, file, what, "period")?,
            duty: req_u64(t, file, what, "duty")?,
            frac: req_f64(t, file, what, "frac")?,
        },
        "sweep" => AdversaryKind::Sweep {
            t: req_u64(t, file, what, "budget")?,
            width: req_u64(t, file, what, "width")?,
            step: req_u64(t, file, what, "step")?,
        },
        "random-subset" => AdversaryKind::RandomSubset {
            t: req_u64(t, file, what, "budget")?,
            k: req_u64(t, file, what, "adv_k")?,
        },
        "gilbert-elliott" => AdversaryKind::GilbertElliott {
            t: req_u64(t, file, what, "budget")?,
            p_gb: req_f64(t, file, what, "p_gb")?,
            p_bg: req_f64(t, file, what, "p_bg")?,
            frac: req_f64(t, file, what, "frac")?,
        },
        "reactive" => AdversaryKind::Reactive {
            t: req_u64(t, file, what, "budget")?,
            max_channels: req_u64(t, file, what, "max_channels")?,
        },
        "reactive-window" => AdversaryKind::ReactiveWindow {
            t: req_u64(t, file, what, "budget")?,
            window: req_u64(t, file, what, "window")?,
            max_channels: req_u64(t, file, what, "max_channels")?,
            threshold: req_u64(t, file, what, "threshold")?,
        },
        "hotspot" => AdversaryKind::Hotspot {
            t: req_u64(t, file, what, "budget")?,
            k: req_u64(t, file, what, "adv_k")?,
            decay: req_f64(t, file, what, "decay")?,
        },
        other => {
            return Err(SpecError::new(
                file,
                t.line,
                format!(
                    "{what}: unknown adversary `{other}` (silent, uniform, burst, pulse, \
                     sweep, random-subset, gilbert-elliott, reactive, reactive-window, hotspot)"
                ),
            ))
        }
    })
}

fn build_topology(
    t: &mut Table,
    file: &str,
    what: &str,
    name: &str,
) -> Result<TopologyKind, SpecError> {
    let base = |t: &mut Table, file: &str, name: &str| -> Result<TopologyKind, SpecError> {
        Ok(match name {
            "complete" => TopologyKind::Complete,
            "line" => TopologyKind::Line,
            "grid" => TopologyKind::Grid {
                cols: {
                    let e = req(t, file, what, "cols")?;
                    as_u32(&e, file)?
                },
            },
            "random-geometric" => TopologyKind::RandomGeometric {
                radius: req_f64(t, file, what, "radius")?,
            },
            other => {
                return Err(SpecError::new(
                    file,
                    t.line,
                    format!(
                        "{what}: unknown topology `{other}` (complete, line, grid, \
                         random-geometric, dynamic)"
                    ),
                ))
            }
        })
    };
    if name == "dynamic" {
        let inner = req_str(t, file, what, "base")?;
        let inner = base(t, file, &inner)?;
        Ok(TopologyKind::Dynamic {
            base: Box::new(inner),
            p_down: req_f64(t, file, what, "p_down")?,
        })
    } else {
        base(t, file, name)
    }
}

fn build_protocol(
    t: &mut Table,
    file: &str,
    what: &str,
    name: &str,
) -> Result<ProtocolKind, SpecError> {
    let n = req_u64(t, file, what, "n")?;
    Ok(match name {
        "core" | "multicast-core" => ProtocolKind::Core {
            n,
            t: req_u64(t, file, what, "t")?,
            params: Default::default(),
        },
        "multicast" => ProtocolKind::MultiCast {
            n,
            params: Default::default(),
        },
        "multicast-c" => ProtocolKind::MultiCastC {
            n,
            c: req_u64(t, file, what, "c")?,
            params: Default::default(),
        },
        "adv" | "multicast-adv" => ProtocolKind::Adv {
            n,
            params: Default::default(),
        },
        "naive" => ProtocolKind::Naive {
            n,
            act_prob: opt_f64(t, file, "act_prob")?.unwrap_or(1.0),
        },
        "naive-config" => ProtocolKind::NaiveConfig {
            n,
            channels: req_u64(t, file, what, "channels")?,
            act_prob: opt_f64(t, file, "act_prob")?.unwrap_or(1.0),
        },
        "single-channel" => ProtocolKind::SingleChannel {
            n,
            params: Default::default(),
        },
        "decay" => ProtocolKind::Decay { n },
        "multi-hop" => ProtocolKind::MultiHop {
            n,
            channels: req_u64(t, file, what, "channels")?,
            p: req_f64(t, file, what, "p")?,
        },
        "multi-message" => ProtocolKind::MultiMessage {
            n,
            k: {
                let e = req(t, file, what, "k")?;
                as_u32(&e, file)?
            },
            channels: req_u64(t, file, what, "channels")?,
            p: req_f64(t, file, what, "p")?,
        },
        other => {
            return Err(SpecError::new(
                file,
                t.line,
                format!(
                    "{what}: unknown protocol `{other}` (core, multicast, multicast-c, adv, \
                     naive, naive-config, single-channel, decay, multi-hop, multi-message)"
                ),
            ))
        }
    })
}

/// Build one event table: its slot, the event, and (for `swap-eve`) the
/// adversary it seats. Schedule rules are left to `ScheduleSpec::try_push`.
fn build_event(
    t: &mut Table,
    file: &str,
    what: &str,
) -> Result<(u64, WorldEvent, Option<AdversaryKind>), SpecError> {
    let slot = req_u64(t, file, what, "slot")?;
    let kind = req_str(t, file, what, "kind")?;
    let event = match kind.as_str() {
        "swap-eve" => {
            let name = req_str(t, file, what, "adversary")?;
            let swap = build_adversary(t, file, what, &name)?;
            return Ok((slot, WorldEvent::SwapEve, Some(swap)));
        }
        "partition" => {
            let e = req(t, file, what, "groups")?;
            let Value::Arr(groups) = &e.value else {
                return Err(SpecError::new(
                    file,
                    e.line,
                    "`groups` must be an array of node-id arrays",
                ));
            };
            let groups = groups
                .iter()
                .map(|g| {
                    let ge = Entry {
                        key: "groups".into(),
                        value: g.clone(),
                        line: e.line,
                    };
                    as_u32_list(&ge, file)
                })
                .collect::<Result<Vec<_>, _>>()?;
            WorldEvent::Partition { groups }
        }
        "heal" => WorldEvent::Heal,
        "crash" => WorldEvent::CrashNodes {
            nodes: {
                let e = req(t, file, what, "nodes")?;
                as_u32_list(&e, file)?
            },
        },
        "recover" => WorldEvent::RecoverNodes {
            nodes: {
                let e = req(t, file, what, "nodes")?;
                as_u32_list(&e, file)?
            },
        },
        "set-link-loss" => WorldEvent::SetLinkLoss {
            p: req_f64(t, file, what, "p")?,
        },
        other => {
            return Err(SpecError::new(
                file,
                t.line,
                format!(
                    "{what}: unknown event kind `{other}` (swap-eve, partition, heal, \
                     crash, recover, set-link-loss)"
                ),
            ))
        }
    };
    Ok((slot, event, None))
}

fn build_cell(raw: &mut RawCell, file: &str, index: usize) -> Result<CellSpec, SpecError> {
    let what = format!("cell {index}");
    let t = &mut raw.table;
    let proto_name = req_str(t, file, &what, "protocol")?;
    let protocol = build_protocol(t, file, &what, &proto_name)?;
    let adv_name = opt_str(t, file, "adversary")?.unwrap_or_else(|| "silent".into());
    let adversary = build_adversary(t, file, &what, &adv_name)?;
    let topo_name = opt_str(t, file, "topology")?.unwrap_or_else(|| "complete".into());
    let topology = build_topology(t, file, &what, &topo_name)?;
    let max_slots = opt_u64(t, file, "max_slots")?;
    t.reject_leftovers(file, &what)?;

    let mut schedule = ScheduleSpec::new();
    for (ei, event_table) in raw.events.iter_mut().enumerate() {
        let ewhat = format!("cell {index} event {ei}");
        let (slot, event, swap) = build_event(event_table, file, &ewhat)?;
        schedule
            .try_push(slot, event, swap)
            .map_err(|e| SpecError::new(file, event_table.line, format!("{ewhat}: {e}")))?;
        event_table.reject_leftovers(file, &ewhat)?;
    }

    let mut cell = CellSpec::new(protocol, adversary)
        .with_topology(topology)
        .with_schedule(schedule);
    if let Some(cap) = max_slots {
        cell = cell.with_max_slots(cap);
    }
    Ok(cell)
}

/// Expand a cell's array-valued keys into the cross product of their
/// elements, the first such key outermost (see the module docs). A cell
/// without arrays comes back as itself.
fn expand_axes(raw: RawCell, file: &str) -> Result<Vec<RawCell>, SpecError> {
    let mut tables = vec![Table {
        line: raw.table.line,
        entries: Vec::new(),
    }];
    for entry in raw.table.entries {
        let values = match entry.value {
            Value::Arr(items) if items.is_empty() => {
                return Err(SpecError::new(
                    file,
                    entry.line,
                    format!(
                        "`{}` is an empty array: a sweep axis needs a value",
                        entry.key
                    ),
                ))
            }
            Value::Arr(items) => items,
            scalar => vec![scalar],
        };
        let mut next = Vec::with_capacity(tables.len() * values.len());
        for table in &tables {
            for value in &values {
                let mut table = table.clone();
                table.entries.push(Entry {
                    key: entry.key.clone(),
                    value: value.clone(),
                    line: entry.line,
                });
                next.push(table);
            }
        }
        tables = next;
    }
    Ok(tables
        .into_iter()
        .map(|table| RawCell {
            table,
            events: raw.events.clone(),
        })
        .collect())
}

fn build_spec(mut raw: RawSpec, file: &str) -> Result<CampaignSpec, SpecError> {
    let name = req_str(&mut raw.doc, file, "spec", "name")?;
    let description = opt_str(&mut raw.doc, file, "description")?.unwrap_or_default();
    raw.doc.reject_leftovers(file, "the spec header")?;
    if raw.cells.is_empty() {
        return Err(SpecError::new(file, 0, "spec defines no [[cell]]"));
    }
    let mut cells = Vec::new();
    for raw_cell in raw.cells {
        for mut c in expand_axes(raw_cell, file)? {
            cells.push(build_cell(&mut c, file, cells.len())?);
        }
    }
    Ok(CampaignSpec {
        name,
        description,
        cells,
    })
}

/// Parse a spec from text. `file` is used for error context only. The
/// format is TOML unless the first non-whitespace byte is `{` (JSON).
pub fn parse_spec(text: &str, file: &str) -> Result<CampaignSpec, SpecError> {
    let raw = if text.trim_start().starts_with('{') {
        parse_json(text, file)?
    } else {
        parse_toml(text, file)?
    };
    build_spec(raw, file)
}

/// Load a campaign spec from a TOML or JSON file (`rcb run --spec`).
pub fn load_spec(path: &str) -> Result<CampaignSpec, SpecError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SpecError::new(path, 0, format!("cannot read spec file: {e}")))?;
    parse_spec(&text, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# A spec exercising every table kind.
name = "demo"
description = "swap then crash"

[[cell]]
protocol = "multicast"
n = 32
adversary = "uniform"
budget = 20000
frac = 0.5
max_slots = 100000

[[cell.event]]
slot = 4096
kind = "swap-eve"
adversary = "reactive"
budget = 20000
max_channels = 8

[[cell.event]]
slot = 8192
kind = "crash"
nodes = [30, 31]

[[cell]]
protocol = "multi-hop"
n = 64
channels = 8
p = 0.25
topology = "grid"
cols = 8

[[cell.event]]
slot = 64
kind = "partition"
groups = [[0, 1, 2, 3]]

[[cell.event]]
slot = 512
kind = "heal"
"#;

    #[test]
    fn full_toml_spec_round_trips() {
        let spec = parse_spec(FULL, "demo.toml").expect("valid spec");
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.description, "swap then crash");
        assert_eq!(spec.cells.len(), 2);

        let c0 = &spec.cells[0];
        assert!(matches!(c0.protocol, ProtocolKind::MultiCast { n: 32, .. }));
        assert!(matches!(
            c0.adversary,
            AdversaryKind::Uniform { t: 20000, .. }
        ));
        assert_eq!(c0.max_slots, 100_000);
        assert_eq!(c0.schedule.len(), 2);
        assert_eq!(c0.schedule.detail(), "swap-eve@4096, crash@8192");
        let (_, WorldEvent::SwapEve) = &c0.schedule.events.events()[0] else {
            panic!("first event must be the swap");
        };
        assert!(matches!(
            &c0.schedule.swaps[0],
            AdversaryKind::Reactive {
                t: 20000,
                max_channels: 8
            }
        ));

        let c1 = &spec.cells[1];
        assert!(matches!(c1.topology, TopologyKind::Grid { cols: 8 }));
        assert_eq!(c1.schedule.detail(), "partition@64, heal@512");
        let (_, WorldEvent::Partition { groups }) = &c1.schedule.events.events()[0] else {
            panic!("first event must be the partition");
        };
        assert_eq!(groups, &vec![vec![0, 1, 2, 3]]);
        assert_eq!(c1.max_slots, 50_000_000, "default cap");
    }

    #[test]
    fn json_spec_parses_to_the_same_cells() {
        let json = r#"{
            "name": "demo",
            "cells": [{
                "protocol": "naive", "n": 16,
                "events": [{"slot": 0, "kind": "crash", "nodes": [14, 15]}]
            }]
        }"#;
        let spec = parse_spec(json, "demo.json").expect("valid JSON spec");
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.cells.len(), 1);
        assert!(matches!(spec.cells[0].adversary, AdversaryKind::Silent));
        assert_eq!(spec.cells[0].schedule.detail(), "crash@0");
    }

    #[test]
    fn truncated_file_fails_with_line_context() {
        let err = parse_spec("name = \"demo\"\n[[cell\n", "broken.toml").unwrap_err();
        assert_eq!(err.file, "broken.toml");
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("unterminated table header"), "{err}");
        assert_eq!(err.to_string(), "broken.toml:2: unterminated table header");

        let err = parse_spec("name = \"unterminated\n", "broken.toml").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("unterminated string"), "{err}");

        let err = parse_spec(
            "name = \"x\"\n[[cell]]\nprotocol = \"naive\"\nn =\n",
            "broken.toml",
        )
        .unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.msg.contains("missing value"), "{err}");
    }

    #[test]
    fn unknown_keys_fail_with_key_and_line_context() {
        let text = "name = \"x\"\n\n[[cell]]\nprotocol = \"naive\"\nn = 16\nbananas = 7\n";
        let err = parse_spec(text, "spec.toml").unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.msg.contains("unknown key `bananas`"), "{err}");

        let text = "name = \"x\"\n[[cell]]\nprotocol = \"warp-drive\"\nn = 16\n";
        let err = parse_spec(text, "spec.toml").unwrap_err();
        assert!(err.msg.contains("unknown protocol `warp-drive`"), "{err}");
    }

    #[test]
    fn out_of_order_events_fail_with_line_context() {
        let text = "name = \"x\"\n[[cell]]\nprotocol = \"naive\"\nn = 16\n\
                    [[cell.event]]\nslot = 500\nkind = \"heal\"\n\
                    [[cell.event]]\nslot = 100\nkind = \"heal\"\n";
        let err = parse_spec(text, "spec.toml").unwrap_err();
        assert_eq!(err.line, 8, "error points at the offending event table");
        assert!(err.msg.contains("out-of-order"), "{err}");
        assert!(err.msg.contains("slot 100 after slot 500"), "{err}");
    }

    #[test]
    fn missing_required_keys_name_the_key() {
        let err = parse_spec("[[cell]]\nprotocol = \"naive\"\nn = 4\n", "x.toml").unwrap_err();
        assert!(err.msg.contains("missing required key `name`"), "{err}");

        let err =
            parse_spec("name = \"x\"\n[[cell]]\nprotocol = \"naive\"\n", "x.toml").unwrap_err();
        assert!(err.msg.contains("missing required key `n`"), "{err}");

        let err = parse_spec("name = \"x\"\n", "x.toml").unwrap_err();
        assert!(err.msg.contains("no [[cell]]"), "{err}");
    }

    #[test]
    fn event_validation_catches_bad_kinds_and_probabilities() {
        let base = "name = \"x\"\n[[cell]]\nprotocol = \"naive\"\nn = 4\n[[cell.event]]\n";
        let err = parse_spec(
            &format!("{base}slot = 0\nkind = \"meteor-strike\"\n"),
            "x.toml",
        )
        .unwrap_err();
        assert!(
            err.msg.contains("unknown event kind `meteor-strike`"),
            "{err}"
        );

        let err = parse_spec(
            &format!("{base}slot = 0\nkind = \"set-link-loss\"\np = 1.5\n"),
            "x.toml",
        )
        .unwrap_err();
        assert!(err.msg.contains("must be in [0, 1]"), "{err}");

        let err = parse_spec(&format!("{base}kind = \"heal\"\n"), "x.toml").unwrap_err();
        assert!(err.msg.contains("missing required key `slot`"), "{err}");
    }

    /// A partition without groups breaks the engine's schedule rule; the
    /// loader reports it at the event's table instead of letting the
    /// first trial panic on it.
    #[test]
    fn empty_partition_fails_at_its_event_line() {
        let text = "name = \"x\"\n[[cell]]\nprotocol = \"naive\"\nn = 16\n\
                    [[cell.event]]\nslot = 0\nkind = \"heal\"\n\
                    [[cell.event]]\nslot = 64\nkind = \"partition\"\ngroups = []\n";
        let err = parse_spec(text, "empty-partition.toml").unwrap_err();
        assert_eq!(
            err.to_string(),
            "empty-partition.toml:8: cell 0 event 1: a partition needs at least one group"
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse_spec("name = \"a\"\nname = \"b\"\n", "x.toml").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("duplicate key `name`"), "{err}");
    }

    /// One line per cell: protocol, adversary, topology and schedule.
    fn cell_lines(spec: &CampaignSpec) -> Vec<String> {
        spec.cells
            .iter()
            .map(|c| {
                format!(
                    "{} vs {} on {} [{}]",
                    c.protocol.detail(),
                    c.adversary.detail(),
                    c.topology.detail(),
                    c.schedule.detail()
                )
            })
            .collect()
    }

    #[test]
    fn cell_arrays_expand_first_key_outermost() {
        let text = "name = \"x\"\n[[cell]]\nn = [16, 32]\nprotocol = \"naive\"\n\
                    act_prob = [0.5, 1.0]\nadversary = \"uniform\"\nbudget = 100\n\
                    frac = 0.25\nmax_slots = 1000\n";
        let spec = parse_spec(text, "sweep.toml").expect("valid sweep");
        assert_eq!(
            cell_lines(&spec),
            [
                "NaiveEpidemic{n=16, act_prob=0.5} vs uniform{T=100, frac=0.25} on complete []",
                "NaiveEpidemic{n=16, act_prob=1} vs uniform{T=100, frac=0.25} on complete []",
                "NaiveEpidemic{n=32, act_prob=0.5} vs uniform{T=100, frac=0.25} on complete []",
                "NaiveEpidemic{n=32, act_prob=1} vs uniform{T=100, frac=0.25} on complete []",
            ]
        );
        assert!(spec.cells.iter().all(|c| c.max_slots == 1000));

        // Swapping the keys swaps the nesting.
        let swapped = "name = \"x\"\n[[cell]]\nprotocol = \"naive\"\n\
                       act_prob = [0.5, 1.0]\nn = [16, 32]\n";
        let spec = parse_spec(swapped, "sweep.toml").expect("valid sweep");
        let ns: Vec<String> = spec.cells.iter().map(|c| c.protocol.detail()).collect();
        assert_eq!(
            ns,
            [
                "NaiveEpidemic{n=16, act_prob=0.5}",
                "NaiveEpidemic{n=32, act_prob=0.5}",
                "NaiveEpidemic{n=16, act_prob=1}",
                "NaiveEpidemic{n=32, act_prob=1}",
            ]
        );

        // The builder owns the rule, so JSON cells sweep the same way.
        let json = r#"{"name": "x", "cells": [{"protocol": ["naive", "decay"], "n": 16}]}"#;
        let spec = parse_spec(json, "sweep.json").expect("valid JSON sweep");
        assert_eq!(spec.cells.len(), 2);
        assert!(matches!(
            spec.cells[1].protocol,
            ProtocolKind::Decay { n: 16 }
        ));
    }

    #[test]
    fn empty_or_mistyped_axes_fail_with_file_and_line() {
        let base = "name = \"x\"\n[[cell]]\nprotocol = \"naive\"\n";
        let err = parse_spec(&format!("{base}n = []\n"), "sweep.toml").unwrap_err();
        assert_eq!((err.file.as_str(), err.line), ("sweep.toml", 4));
        assert!(err.msg.contains("`n` is an empty array"), "{err}");

        let err = parse_spec(&format!("{base}n = [16, \"x\"]\n"), "sweep.toml").unwrap_err();
        assert_eq!((err.file.as_str(), err.line), ("sweep.toml", 4));
        assert!(
            err.msg
                .contains("`n` must be a nonnegative integer, got string"),
            "{err}"
        );

        let err = parse_spec(&format!("{base}n = [[16]]\n"), "sweep.toml").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.msg.contains("got array"), "{err}");
    }

    /// `[[cell.event]]` arrays stay values (`full_toml_spec_round_trips`
    /// covers `groups`); an axis on the cell copies its events into every
    /// expanded cell.
    #[test]
    fn event_arrays_are_values_not_axes() {
        let text = "name = \"x\"\n[[cell]]\nprotocol = \"naive\"\nn = [8, 16]\n\
                    [[cell.event]]\nslot = 4\nkind = \"crash\"\nnodes = [1, 2]\n";
        let spec = parse_spec(text, "x.toml").expect("valid spec");
        assert_eq!(
            cell_lines(&spec),
            [
                "NaiveEpidemic{n=8, act_prob=1} vs silent on complete [crash@4]",
                "NaiveEpidemic{n=16, act_prob=1} vs silent on complete [crash@4]",
            ]
        );
        for cell in &spec.cells {
            let (_, WorldEvent::CrashNodes { nodes }) = &cell.schedule.events.events()[0] else {
                panic!("the event must be the crash");
            };
            assert_eq!(nodes, &vec![1, 2]);
        }
    }

    /// A spec without arrays builds one cell per table, exactly the cell
    /// a hand-written `CellSpec` gives.
    #[test]
    fn specs_without_arrays_parse_as_before() {
        let text = "name = \"tiny\"\ndescription = \"naive epidemic, no jamming\"\n\
                    [[cell]]\nprotocol = \"naive\"\nn = 16\nmax_slots = 100000\n";
        let by_hand = CampaignSpec {
            name: "tiny".into(),
            description: "naive epidemic, no jamming".into(),
            cells: vec![CellSpec::new(
                ProtocolKind::Naive {
                    n: 16,
                    act_prob: 1.0,
                },
                AdversaryKind::Silent,
            )
            .with_max_slots(100_000)],
        };
        let parsed = parse_spec(text, "tiny.toml").expect("valid spec");
        assert_eq!(format!("{parsed:?}"), format!("{by_hand:?}"));
    }

    #[test]
    fn load_spec_reports_missing_files_without_panicking() {
        let err = load_spec("/no/such/spec.toml").unwrap_err();
        assert_eq!(err.file, "/no/such/spec.toml");
        assert_eq!(err.line, 0);
        assert!(err.msg.contains("cannot read spec file"), "{err}");
    }
}
