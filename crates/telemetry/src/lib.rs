//! Side-band telemetry plane for the Olive workspace.
//!
//! Olive's security argument rests on a hard invariant: round output,
//! enclave signature, and the adversary-visible trace digest are bitwise
//! identical across thread counts, chunk sizes, crypto backends, shard
//! counts, and fault scripts. Observability therefore has to be provably
//! **side-band** — it may read everything but must never perturb the
//! computation. This crate provides that plane:
//!
//! * **Spans** — hierarchical begin/end scopes (round → ingest-chunk →
//!   shard ingress, …) emitted as one JSONL record at close, carrying a
//!   sequential id, the enclosing span's id, caller-supplied
//!   deterministic fields, and the wall-clock duration.
//! * **Counters / histograms** — monotonic totals and min/max/sum/count
//!   summaries accumulated under a mutex (order-independent, so worker
//!   threads may contribute) and flushed in sorted key order.
//! * **Events** — immediate records with deterministic fields only
//!   (fault firings, recovery attempts).
//!
//! Every record is a single JSON object per line. Wall-clock data lives
//! exclusively in a `"wall"` object that is **always the last key**, so
//! the *deterministic projection* of a stream — the part that must be
//! byte-identical across runs — is obtained by stripping that suffix
//! ([`deterministic_projection`]). Everything else (counts, bytes,
//! chunk/shard ids, fault sites, span ids) is a pure function of the
//! input and the armed/disarmed state never changes the computation.
//!
//! The exporter is armed by `OLIVE_METRICS=<path|stdout|off>` (default
//! off), which `olive_memsim::RuntimeConfig` parses into the process's
//! one shared handle; [`Telemetry::to_buffer`] and friends build handles
//! directly. Disarmed, every entry point is a branch on an `Option` — no
//! clock reads, no locks, no allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A field value in a telemetry record.
///
/// Deterministic fields should stick to integers, booleans and strings;
/// floats are for wall-clock/throughput data (their `Display` rendering
/// is stable for identical bits, but identical bits across runs is
/// exactly what wall-clock data does not promise).
#[derive(Debug, Clone)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (wall-clock data).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (JSON-escaped on write).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn value_into(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
    }
}

/// Renders `,"k":v` pairs (leading comma per pair) into `out`.
fn fields_into(out: &mut String, fields: &[(&str, Value)]) {
    for (k, v) in fields {
        out.push_str(",\"");
        escape_into(out, k);
        out.push_str("\":");
        value_into(out, v);
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

enum Sink {
    Stdout,
    File(std::io::BufWriter<std::fs::File>),
    Buffer(Vec<u8>),
}

struct State {
    sink: Sink,
    next_span: u64,
    stack: Vec<u64>,
    counters: BTreeMap<(String, String), u64>,
    hists: BTreeMap<(String, String), Hist>,
}

struct Inner {
    state: Mutex<State>,
}

impl Inner {
    fn new(sink: Sink) -> Arc<Inner> {
        Arc::new(Inner {
            state: Mutex::new(State {
                sink,
                next_span: 1,
                stack: Vec::new(),
                counters: BTreeMap::new(),
                hists: BTreeMap::new(),
            }),
        })
    }

    fn write_line(state: &mut State, line: &str) {
        match &mut state.sink {
            Sink::Stdout => {
                let stdout = std::io::stdout();
                let mut lock = stdout.lock();
                let _ = lock.write_all(line.as_bytes());
                let _ = lock.write_all(b"\n");
            }
            Sink::File(f) => {
                let _ = f.write_all(line.as_bytes());
                let _ = f.write_all(b"\n");
                let _ = f.flush();
            }
            Sink::Buffer(buf) => {
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
            }
        }
    }
}

/// A cheap-to-clone handle onto one telemetry stream (or onto nothing,
/// when disarmed). Every instrumented component holds one; clones share
/// the sink, the span-id sequence, and the counter tables.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("armed", &self.inner.is_some()).finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::off()
    }
}

impl Telemetry {
    /// The disarmed handle: every entry point is a no-op.
    pub fn off() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Armed, writing JSONL lines to stdout.
    pub fn stdout() -> Telemetry {
        Telemetry { inner: Some(Inner::new(Sink::Stdout)) }
    }

    /// Armed, appending JSONL lines to `path` (created if absent).
    /// Append mode lets several processes share one artifact file; each
    /// record is written as one line.
    pub fn to_file(path: &str) -> std::io::Result<Telemetry> {
        let f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Telemetry { inner: Some(Inner::new(Sink::File(std::io::BufWriter::new(f)))) })
    }

    /// Armed, collecting JSONL lines in memory — the test sink. Read
    /// back with [`Telemetry::buffer_contents`].
    pub fn to_buffer() -> Telemetry {
        Telemetry { inner: Some(Inner::new(Sink::Buffer(Vec::new()))) }
    }

    /// Whether this handle writes anywhere. Disarmed handles cost one
    /// branch per call.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span. The record is emitted when the returned [`Span`] is
    /// dropped (or explicitly [`Span::end`]ed), carrying the given
    /// deterministic fields, any added later via [`Span::field`], and
    /// the wall-clock duration. Spans nest via an internal stack, so
    /// open/close them on one thread (the main round loop).
    pub fn span(&self, name: &str, det: &[(&str, Value)]) -> Span {
        let Some(inner) = &self.inner else {
            return Span(None);
        };
        let (id, parent) = {
            let mut st = inner.state.lock().expect("telemetry mutex");
            let id = st.next_span;
            st.next_span += 1;
            let parent = st.stack.last().copied().unwrap_or(0);
            st.stack.push(id);
            (id, parent)
        };
        let mut det_buf = String::new();
        fields_into(&mut det_buf, det);
        Span(Some(SpanData {
            inner: Arc::clone(inner),
            id,
            parent,
            name: name.to_string(),
            det: det_buf,
            start: Instant::now(),
        }))
    }

    /// Emits an immediate record with deterministic fields only (plus
    /// the id of the currently open span, itself deterministic).
    pub fn event(&self, name: &str, det: &[(&str, Value)]) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut st = inner.state.lock().expect("telemetry mutex");
        let span = st.stack.last().copied().unwrap_or(0);
        let mut line = String::with_capacity(96);
        line.push_str("{\"record\":\"event\",\"name\":\"");
        escape_into(&mut line, name);
        let _ = write!(line, "\",\"deterministic\":{{\"span\":{span}");
        fields_into(&mut line, det);
        line.push_str("}}");
        Inner::write_line(&mut st, &line);
    }

    /// Adds `delta` to the monotonic counter `(name, key)`. Totals are
    /// order-independent, so worker threads may count concurrently;
    /// [`Telemetry::flush_stats`] emits them sorted.
    pub fn count(&self, name: &str, key: &str, delta: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut st = inner.state.lock().expect("telemetry mutex");
        *st.counters.entry((name.to_string(), key.to_string())).or_insert(0) += delta;
    }

    /// Records one observation into the histogram `(name, key)`
    /// (count/sum/min/max summary).
    pub fn observe(&self, name: &str, key: &str, value: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut st = inner.state.lock().expect("telemetry mutex");
        let h = st.hists.entry((name.to_string(), key.to_string())).or_default();
        if h.count == 0 {
            h.min = value;
            h.max = value;
        } else {
            h.min = h.min.min(value);
            h.max = h.max.max(value);
        }
        h.count += 1;
        h.sum += value;
    }

    /// Emits every accumulated counter and histogram as one record each,
    /// in sorted `(name, key)` order, then clears them. Call at a
    /// deterministic point (end of round) so the flushed order is a
    /// pure function of the computation.
    pub fn flush_stats(&self) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut st = inner.state.lock().expect("telemetry mutex");
        let counters = std::mem::take(&mut st.counters);
        let hists = std::mem::take(&mut st.hists);
        for ((name, key), total) in &counters {
            let mut line = String::with_capacity(96);
            line.push_str("{\"record\":\"counter\",\"name\":\"");
            escape_into(&mut line, name);
            line.push_str("\",\"key\":\"");
            escape_into(&mut line, key);
            let _ = write!(line, "\",\"deterministic\":{{\"total\":{total}}}}}");
            Inner::write_line(&mut st, &line);
        }
        for ((name, key), h) in &hists {
            let mut line = String::with_capacity(128);
            line.push_str("{\"record\":\"histogram\",\"name\":\"");
            escape_into(&mut line, name);
            line.push_str("\",\"key\":\"");
            escape_into(&mut line, key);
            let _ = write!(
                line,
                "\",\"deterministic\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}}}",
                h.count, h.sum, h.min, h.max
            );
            Inner::write_line(&mut st, &line);
        }
    }

    /// The accumulated stream, when this handle writes to the in-memory
    /// buffer sink; `None` otherwise. Leaves the buffer intact.
    pub fn buffer_contents(&self) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let st = inner.state.lock().expect("telemetry mutex");
        match &st.sink {
            Sink::Buffer(buf) => Some(String::from_utf8_lossy(buf).into_owned()),
            _ => None,
        }
    }
}

struct SpanData {
    inner: Arc<Inner>,
    id: u64,
    parent: u64,
    name: String,
    det: String,
    start: Instant,
}

/// An open span. The record is emitted when this guard drops; early
/// returns and error unwinds therefore still close their spans.
pub struct Span(Option<SpanData>);

impl Span {
    /// Adds a deterministic field to the span record (appended after the
    /// fields given at open).
    pub fn field(&mut self, key: &str, value: Value) {
        if let Some(d) = &mut self.0 {
            let mut det = std::mem::take(&mut d.det);
            fields_into(&mut det, &[(key, value)]);
            d.det = det;
        }
    }

    /// Closes the span, emitting its record. Equivalent to dropping it;
    /// this form documents the close point.
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(d) = self.0.take() else {
            return;
        };
        let ns = d.start.elapsed().as_nanos() as u64;
        let mut line = String::with_capacity(128 + d.det.len());
        line.push_str("{\"record\":\"span\",\"name\":\"");
        escape_into(&mut line, &d.name);
        let _ = write!(line, "\",\"id\":{},\"parent\":{}", d.id, d.parent);
        line.push_str(",\"deterministic\":{");
        line.push_str(d.det.strip_prefix(',').unwrap_or(&d.det));
        let _ = write!(line, "}},\"wall\":{{\"ns\":{ns}}}}}");
        let mut st = d.inner.state.lock().expect("telemetry mutex");
        // Unwind the stack through this id: panicking/erroring code may
        // leak deeper spans; truncating keeps later parents correct.
        if let Some(pos) = st.stack.iter().rposition(|&x| x == d.id) {
            st.stack.truncate(pos);
        }
        Inner::write_line(&mut st, &line);
    }
}

/// Strips the wall-clock suffix from every line of a JSONL stream,
/// returning the byte-stable *deterministic projection*. Records without
/// a `"wall"` object pass through unchanged. The schema guarantees
/// `"wall"` is the final key of any record that has one, so a simple
/// suffix cut is exact.
pub fn deterministic_projection(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        match line.find(",\"wall\":") {
            Some(i) => {
                out.push_str(&line[..i]);
                out.push('}');
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_handle_emits_nothing_and_costs_nothing() {
        let t = Telemetry::off();
        assert!(!t.is_armed());
        let mut s = t.span("round", &[("round", 1u64.into())]);
        s.field("clients", 5u64.into());
        s.end();
        t.event("fault", &[]);
        t.count("bytes", "hw", 10);
        t.observe("blob", "coordinator", 7);
        t.flush_stats();
        assert_eq!(t.buffer_contents(), None);
    }

    #[test]
    fn spans_nest_with_sequential_ids() {
        let t = Telemetry::to_buffer();
        let outer = t.span("round", &[("round", 3u64.into())]);
        let inner = t.span("chunk", &[("chunk", 0u64.into())]);
        inner.end();
        outer.end();
        let out = t.buffer_contents().unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        // Inner closes first, referencing the outer as parent.
        assert!(lines[0].starts_with(
            "{\"record\":\"span\",\"name\":\"chunk\",\"id\":2,\"parent\":1,\
             \"deterministic\":{\"chunk\":0},\"wall\":{\"ns\":"
        ));
        assert!(lines[1].starts_with(
            "{\"record\":\"span\",\"name\":\"round\",\"id\":1,\"parent\":0,\
             \"deterministic\":{\"round\":3},\"wall\":{\"ns\":"
        ));
    }

    #[test]
    fn events_bind_the_open_span() {
        let t = Telemetry::to_buffer();
        let s = t.span("round", &[]);
        t.event("fault_fired", &[("site", "kill@2.0".into())]);
        s.end();
        let out = t.buffer_contents().unwrap();
        assert!(out.lines().next().unwrap().contains(
            "\"record\":\"event\",\"name\":\"fault_fired\",\
             \"deterministic\":{\"span\":1,\"site\":\"kill@2.0\"}"
        ));
    }

    #[test]
    fn counters_and_histograms_flush_sorted_and_clear() {
        let t = Telemetry::to_buffer();
        t.count("sealed_bytes", "hw", 100);
        t.count("opened_bytes", "hw", 40);
        t.count("sealed_bytes", "hw", 1);
        t.observe("ckpt_blob_bytes", "coordinator", 10);
        t.observe("ckpt_blob_bytes", "coordinator", 4);
        t.flush_stats();
        t.flush_stats(); // second flush emits nothing: tables cleared
        let out = t.buffer_contents().unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"record\":\"counter\",\"name\":\"opened_bytes\",\"key\":\"hw\",\
             \"deterministic\":{\"total\":40}}"
        );
        assert_eq!(
            lines[1],
            "{\"record\":\"counter\",\"name\":\"sealed_bytes\",\"key\":\"hw\",\
             \"deterministic\":{\"total\":101}}"
        );
        assert_eq!(
            lines[2],
            "{\"record\":\"histogram\",\"name\":\"ckpt_blob_bytes\",\"key\":\"coordinator\",\
             \"deterministic\":{\"count\":2,\"sum\":14,\"min\":4,\"max\":10}}"
        );
    }

    /// The ORAM comparator's per-chunk metrics ride the existing
    /// counter/histogram schema unchanged — pin the exact lines the
    /// round pipeline's `oram_evicted_blocks` count and
    /// `oram_stash_occupancy` observation produce, so the names stay a
    /// stable contract for stream consumers.
    #[test]
    fn oram_counters_use_the_existing_schema() {
        let t = Telemetry::to_buffer();
        t.count("oram_evicted_blocks", "coordinator", 96);
        t.observe("oram_stash_occupancy", "max", 7);
        t.observe("oram_stash_occupancy", "max", 5);
        t.flush_stats();
        let out = t.buffer_contents().unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "{\"record\":\"counter\",\"name\":\"oram_evicted_blocks\",\"key\":\"coordinator\",\
             \"deterministic\":{\"total\":96}}"
        );
        assert_eq!(
            lines[1],
            "{\"record\":\"histogram\",\"name\":\"oram_stash_occupancy\",\"key\":\"max\",\
             \"deterministic\":{\"count\":2,\"sum\":12,\"min\":5,\"max\":7}}"
        );
    }

    #[test]
    fn projection_strips_exactly_the_wall_suffix() {
        let t = Telemetry::to_buffer();
        let s = t.span("round", &[("round", 1u64.into())]);
        t.event("fault_fired", &[("site", "drop@0.1".into())]);
        s.end();
        t.count("frames", "s0:c2s", 2);
        t.flush_stats();
        let out = t.buffer_contents().unwrap();
        let proj = deterministic_projection(&out);
        assert!(!proj.contains("\"wall\""));
        assert!(proj.contains(
            "\"name\":\"round\",\"id\":1,\"parent\":0,\
                               \"deterministic\":{\"round\":1}}"
        ));
        // Records without wall data pass through byte-identical.
        for (line, pline) in out.lines().zip(proj.lines()) {
            if !line.contains(",\"wall\":") {
                assert_eq!(line, pline);
            }
        }
    }

    #[test]
    fn two_identical_streams_project_identically() {
        let run = || {
            let t = Telemetry::to_buffer();
            let mut s = t.span("round", &[("round", 9u64.into())]);
            s.field("clients", 17u64.into());
            t.count("sealed_bytes", "ct", 4096);
            t.event("fault_fired", &[("site", "crash@3".into()), ("chunk", 3u64.into())]);
            s.end();
            t.flush_stats();
            deterministic_projection(&t.buffer_contents().unwrap())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn strings_are_json_escaped() {
        let t = Telemetry::to_buffer();
        t.event("b", &[("label", "a\"b\\c\nd".into())]);
        let out = t.buffer_contents().unwrap();
        assert!(out.contains("\"label\":\"a\\\"b\\\\c\\u000ad\""));
    }

    #[test]
    fn leaked_child_spans_do_not_corrupt_the_stack() {
        let t = Telemetry::to_buffer();
        let outer = t.span("round", &[]);
        let _leaked = t.span("chunk", &[]); // dropped *after* outer below
        drop(outer); // truncates the stack through its own id
        let tail = t.span("finalize", &[]);
        drop(tail);
        let out = t.buffer_contents().unwrap();
        // The post-unwind span sees no stale parent.
        assert!(out.lines().any(|l| l.contains("\"name\":\"finalize\",\"id\":3,\"parent\":0")));
    }

    #[test]
    fn file_sink_appends_lines() {
        let path =
            std::env::temp_dir().join(format!("olive-telemetry-test-{}", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        {
            let t = Telemetry::to_file(&path).unwrap();
            t.event("a", &[("n", 1u64.into())]);
        }
        {
            let t = Telemetry::to_file(&path).unwrap();
            t.event("b", &[("n", 2u64.into())]);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "append mode must keep earlier records");
        let _ = std::fs::remove_file(&path);
    }
}
