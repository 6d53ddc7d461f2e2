//! The direct JSONL codec behind [`parse_request`](super::parse_request)
//! and [`render_response`](super::render_response).
//!
//! Both run once per line on the service's main thread, so neither builds
//! a `serde` `Value` tree for the common lines:
//!
//! * [`scan_request`] is a borrowed single-pass scanner for well-formed v1
//!   and v2 request lines of the known shapes. It returns `None` for any
//!   line it does not fully recognise — malformed JSON, escapes, duplicate
//!   or unknown keys, `null`s, wrong types, protocol errors, `restore` —
//!   and the caller re-parses that line through the `Value` parser, which
//!   stays the one implementation of every protocol error message.
//! * [`write_response`] writes the fixed key order into one pre-sized
//!   `String`. Only the cold `obs` and `snapshot` payloads still go
//!   through `serde_json`.

use std::fmt::{Display, Write};

use super::{
    AdmitOp, CreateOp, DestroyOp, Op, PauseOp, PerTaskMargin, QueryOp, QueryStats, ReleaseOp,
    Request, Response, ResumeOp, Route, SnapshotOp, StatsOp, TaskParams, DEFAULT_SESSION,
};

// ---------------------------------------------------------------- scanning

/// A JSON number as the `serde_json` shim reads it: integer text as `i64`,
/// then as `u64`, anything else as `f64` (so `-0` is the integer 0).
#[derive(Debug, Clone, Copy)]
enum Num {
    Int(i64),
    UInt(u64),
    Float(f64),
}

impl Num {
    /// As a task time parameter: every number converts.
    fn to_f64(self) -> f64 {
        match self {
            Num::Int(n) => n as f64,
            Num::UInt(n) => n as f64,
            Num::Float(x) => x,
        }
    }

    /// As an unsigned integer: negative and non-integer numbers do not.
    fn to_u64(self) -> Option<u64> {
        match self {
            Num::Int(n) => u64::try_from(n).ok(),
            Num::UInt(n) => Some(n),
            Num::Float(_) => None,
        }
    }
}

/// Cursor over one request line. Every method returns `None` where the
/// input leaves the fast path.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skip the whitespace the `serde_json` shim skips (not form feed).
    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, byte: u8) -> Option<()> {
        self.eat(byte).then_some(())
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// A string without escapes, borrowed from the line. Both delimiters
    /// are ASCII, so the slice ends fall on character boundaries.
    fn string(&mut self) -> Option<&'a str> {
        self.expect(b'"')?;
        let start = self.pos;
        let len = self.text.as_bytes()[start..].iter().position(|&b| b == b'"' || b == b'\\')?;
        self.pos = start + len;
        self.expect(b'"')?;
        Some(&self.text[start..start + len])
    }

    fn boolean(&mut self) -> Option<bool> {
        let rest = &self.text.as_bytes()[self.pos..];
        let (value, len) = if rest.starts_with(b"true") {
            (true, 4)
        } else if rest.starts_with(b"false") {
            (false, 5)
        } else {
            return None;
        };
        self.pos += len;
        Some(value)
    }

    /// A number spanning exactly the bytes the shim's number rule takes
    /// (`-`? digits, `.` digits, exponent), converted the way it converts.
    fn number(&mut self) -> Option<Num> {
        let start = self.pos;
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            return None;
        }
        self.eat(b'-');
        self.digits();
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Some(Num::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Some(Num::UInt(n));
            }
        }
        text.parse::<f64>().ok().map(Num::Float)
    }

    /// Walk an object, handing each key to `member` with the cursor on its
    /// value.
    fn object(&mut self, mut member: impl FnMut(&mut Self, &'a str) -> Option<()>) -> Option<()> {
        self.expect(b'{')?;
        self.ws();
        if self.eat(b'}') {
            return Some(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            member(self, key)?;
            self.ws();
            if !self.eat(b',') {
                return self.expect(b'}');
            }
        }
    }

    /// A flat `task` object with each of its four keys exactly once.
    fn task(&mut self) -> Option<TaskParams> {
        let (mut exec, mut deadline, mut period, mut area) = (None, None, None, None);
        self.object(|s, key| {
            let slot = match key {
                "exec" => &mut exec,
                "deadline" => &mut deadline,
                "period" => &mut period,
                "area" => &mut area,
                _ => return None,
            };
            once(slot, s.number()?)
        })?;
        Some(TaskParams {
            exec: exec?.to_f64(),
            deadline: deadline?.to_f64(),
            period: period?.to_f64(),
            area: u32::try_from(area?.to_u64()?).ok()?,
        })
    }
}

/// Fill a key's slot, refusing a duplicate key.
fn once<T>(slot: &mut Option<T>, value: T) -> Option<()> {
    slot.is_none().then(|| *slot = Some(value))
}

/// The top-level keys of a request line, each already of its protocol
/// type.
#[derive(Default)]
struct Fields<'a> {
    id: Option<&'a str>,
    session: Option<&'a str>,
    op: Option<&'a str>,
    shard: Option<u32>,
    task: Option<TaskParams>,
    handle: Option<u64>,
    margins: Option<bool>,
}

impl Fields<'_> {
    /// Lower onto [`Op`] exactly as the `Value` parser would, for the lines
    /// it accepts; `None` for every line it answers with an error.
    fn lower(self) -> Option<Request> {
        let id = self.id.map(str::to_string);
        let margins = self.margins.unwrap_or(false);
        let Some(session) = self.session else {
            let session = DEFAULT_SESSION.to_string();
            let op = match self.op? {
                "admit" => Op::Admit(AdmitOp { session, task: self.task?, margins }),
                "release" => Op::Release(ReleaseOp { session, handle: self.handle? }),
                "query" => Op::Query(QueryOp { session, margins }),
                "stats" => Op::Stats(StatsOp { session }),
                _ => return None,
            };
            return Some(Request { id, op, route: Route::Shard(self.shard.unwrap_or(0)) });
        };
        if session.is_empty() || self.shard.is_some() {
            return None;
        }
        let session = session.to_string();
        // v2 is strict: each op takes only its own payload keys, listed as
        // (task, handle, margins) presence.
        let payload = (self.task.is_some(), self.handle.is_some(), self.margins.is_some());
        let op = match (self.op?, payload) {
            ("admit", (true, false, _)) => {
                Op::Admit(AdmitOp { session, task: self.task?, margins })
            }
            ("release", (false, true, false)) => {
                Op::Release(ReleaseOp { session, handle: self.handle? })
            }
            ("query", (false, false, _)) => Op::Query(QueryOp { session, margins }),
            ("stats", (false, false, false)) => Op::Stats(StatsOp { session }),
            ("create", (false, false, false)) => Op::Create(CreateOp { session }),
            ("pause", (false, false, false)) => Op::Pause(PauseOp { session }),
            ("resume", (false, false, false)) => Op::Resume(ResumeOp { session }),
            ("snapshot", (false, false, false)) => Op::Snapshot(SnapshotOp { session }),
            ("destroy", (false, false, false)) => Op::Destroy(DestroyOp { session }),
            _ => return None,
        };
        Some(Request { id, op, route: Route::Session })
    }
}

/// Decode a well-formed request line of a known shape in one pass, or
/// `None` when the line needs the `Value` parser.
pub(super) fn scan_request(line: &str) -> Option<Request> {
    let mut s = Scanner { text: line, pos: 0 };
    let mut f = Fields::default();
    s.ws();
    s.object(|s, key| match key {
        "id" => once(&mut f.id, s.string()?),
        "session" => once(&mut f.session, s.string()?),
        "op" => once(&mut f.op, s.string()?),
        "shard" => once(&mut f.shard, u32::try_from(s.number()?.to_u64()?).ok()?),
        "task" => once(&mut f.task, s.task()?),
        "handle" => once(&mut f.handle, s.number()?.to_u64()?),
        "margins" => once(&mut f.margins, s.boolean()?),
        _ => None,
    })?;
    s.ws();
    if s.pos != line.len() {
        return None;
    }
    f.lower()
}

// ---------------------------------------------------------------- writing

/// Bytes reserved for a response line before its margin rows: a data-op
/// line with a generated id is about 250 bytes.
const LINE_CAPACITY: usize = 320;
/// Bytes reserved per margin row.
const ROW_CAPACITY: usize = 48;

/// Write one response line in the fixed key order of
/// [`Response`]'s fields, omitting the v2 keys when absent.
pub(super) fn write_response(resp: &Response) -> String {
    let rows = resp.margins.as_ref().map_or(0, Vec::len);
    let mut out = String::with_capacity(LINE_CAPACITY + rows * ROW_CAPACITY);
    out.push_str("{\"id\":");
    string(&mut out, &resp.id);
    out.push_str(",\"seq\":");
    integer(&mut out, resp.seq);
    out.push_str(",\"op\":");
    string(&mut out, &resp.op);
    out.push_str(",\"shard\":");
    integer(&mut out, resp.shard);
    out.push_str(if resp.ok { ",\"ok\":true" } else { ",\"ok\":false" });
    out.push_str(",\"verdict\":");
    nullable(&mut out, resp.verdict.as_deref(), string);
    out.push_str(",\"tier\":");
    nullable(&mut out, resp.tier.as_deref(), string);
    out.push_str(",\"handle\":");
    nullable(&mut out, resp.handle, integer);
    out.push_str(",\"tasks\":");
    nullable(&mut out, resp.tasks, integer);
    out.push_str(",\"ut\":");
    nullable(&mut out, resp.ut, float);
    out.push_str(",\"us\":");
    nullable(&mut out, resp.us, float);
    out.push_str(",\"margin\":");
    nullable(&mut out, resp.margin, float);
    out.push_str(",\"margins\":");
    nullable(&mut out, resp.margins.as_deref(), margin_rows);
    out.push_str(",\"stats\":");
    nullable(&mut out, resp.stats.as_ref(), query_stats);
    out.push_str(",\"obs\":");
    nullable(&mut out, resp.obs.as_ref(), serialized);
    out.push_str(",\"reason\":");
    nullable(&mut out, resp.reason.as_deref(), string);
    out.push_str(",\"error\":");
    nullable(&mut out, resp.error.as_deref(), string);
    out.push_str(",\"latency_us\":");
    nullable(&mut out, resp.latency_us, integer);
    if let Some(session) = &resp.session {
        out.push_str(",\"session\":");
        string(&mut out, session);
    }
    if let Some(lifecycle) = &resp.lifecycle {
        out.push_str(",\"lifecycle\":");
        string(&mut out, lifecycle);
    }
    if let Some(snapshot) = &resp.snapshot {
        out.push_str(",\"snapshot\":");
        serialized(&mut out, snapshot);
    }
    out.push('}');
    out
}

/// `null`, or the value through `write`.
fn nullable<T>(out: &mut String, value: Option<T>, write: impl FnOnce(&mut String, T)) {
    match value {
        Some(value) => write(out, value),
        None => out.push_str("null"),
    }
}

fn integer(out: &mut String, n: impl Display) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{n}");
}

/// Shortest round-trip form with `.0` on integral values (`{:?}`);
/// non-finite values have no JSON form and are written as `null`.
fn float(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// A quoted string with the `serde_json` shim's escapes: `"`, `\`, the
/// named control characters and `\u00xx` (lowercase hex) for the other
/// ones below 0x20.
/// Runs without escapes are copied whole, so a string needing none is one
/// scan and one copy.
fn string(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[start..i]);
        start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[start..]);
    out.push('"');
}

fn margin_rows(out: &mut String, rows: &[PerTaskMargin]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        out.push_str(if i == 0 { "{\"index\":" } else { ",{\"index\":" });
        integer(out, row.index);
        out.push_str(",\"handle\":");
        nullable(out, row.handle, integer);
        out.push_str(",\"margin\":");
        float(out, row.margin);
        out.push('}');
    }
    out.push(']');
}

fn query_stats(out: &mut String, stats: &QueryStats) {
    let t = &stats.tiers;
    let _ = write!(
        out,
        "{{\"decisions\":{},\"accepted\":{},\"rejected\":{},\"tiers\":\
         {{\"dp_inc\":{},\"gn1\":{},\"gn2\":{},\"exact\":{}}}}}",
        stats.decisions, stats.accepted, stats.rejected, t.dp_inc, t.gn1, t.gn2, t.exact
    );
}

/// The cold nested payloads (`obs`, `snapshot`) through `serde_json`.
fn serialized(out: &mut String, value: &impl serde::Serialize) {
    out.push_str(&serde_json::to_string(value).expect("payload serialization is infallible"));
}
