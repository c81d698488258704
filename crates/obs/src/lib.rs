//! Lightweight structured-event observability for the Voiceprint pipeline.
//!
//! The detection pipeline (collector → comparator → confirmation, plus the
//! streaming runtime around it) needs to answer operational questions —
//! *why was pair (i, j) flagged?*, *where did this round's deadline go?*,
//! *how often does the lower bound prune a pair?* — without dragging in an
//! external tracing stack (the repository must build offline against local
//! dependency stubs, see CHANGES.md).
//!
//! This crate is that layer, dependency-free by construction:
//!
//! * [`Event`] — a named bag of typed fields ([`FieldValue`]).
//! * [`Sink`] — where events go. [`MemorySink`] buffers them for test
//!   assertions; [`JsonLinesSink`] frames each event as one JSON object
//!   per line for benches and offline analysis.
//! * A process-global dispatch slot ([`set_sink`] / [`clear_sink`] /
//!   [`emit`]) with an atomic fast path: when no sink is installed,
//!   [`emit`] is a single relaxed load and the event closure is never run.
//! * [`Span`] — wall-clock timing that emits an event on
//!   [`finish`](Span::finish).
//! * [`Counter`] — a named monotonic counter.
//! * [`Histogram`] — a fixed-bucket histogram with atomic counts, safe to
//!   record into from parallel workers.
//!
//! # Determinism contract
//!
//! Observability must never change detection output. The instrumented
//! crates always compile their hooks in; with no sink installed each hook
//! is one relaxed load, and with a sink, events are derived from values
//! the pipeline already computed, never fed back into it. The
//! golden-digest tests pin the same bits with and without a sink.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::borrow::Cow;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// A typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FieldValue {
    /// Unsigned integer (counts, identifiers, durations in nanoseconds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point (distances, densities, thresholds).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Static string (enum-like tags: outcomes, reasons).
    Str(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<u8> for FieldValue {
    fn from(v: u8) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

/// A structured event: a static name plus an ordered list of typed fields.
///
/// Field keys are [`Cow`] so the common case (static keys) allocates
/// nothing, while histogram bucket labels (`le_500`, …) can be built
/// dynamically.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name, dot-separated by pipeline stage (`compare.sweep`,
    /// `runtime.round`, …). See DESIGN.md §12 for the taxonomy.
    pub name: &'static str,
    /// Ordered key → value pairs.
    pub fields: Vec<(Cow<'static, str>, FieldValue)>,
}

impl Event {
    /// Start a new event with no fields.
    pub fn new(name: &'static str) -> Self {
        Event {
            name,
            fields: Vec::new(),
        }
    }

    /// Attach a field (builder style).
    #[must_use]
    pub fn with(mut self, key: impl Into<Cow<'static, str>>, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Destination for emitted events. Implementations must be cheap and must
/// never panic: a sink runs inside the detection hot path.
pub trait Sink: Send + Sync {
    /// Record one event.
    fn record(&self, event: &Event);
}

/// Recover a mutex guard even if a holder panicked: every protected value
/// in this crate (an event buffer, an output stream) stays usable after a
/// poisoned write, and observability must never take the pipeline down.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// In-memory sink for tests: buffers every event for later assertions.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all recorded events, in emission order.
    pub fn events(&self) -> Vec<Event> {
        lock_unpoisoned(&self.events).clone()
    }

    /// Number of recorded events with the given name.
    pub fn count(&self, name: &str) -> usize {
        lock_unpoisoned(&self.events)
            .iter()
            .filter(|e| e.name == name)
            .count()
    }

    /// Drop all recorded events.
    pub fn clear(&self) {
        lock_unpoisoned(&self.events).clear();
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        lock_unpoisoned(&self.events).push(event.clone());
    }
}

/// JSON-lines sink: one event per line, `{"event":NAME, key: value, …}`.
///
/// The encoder is hand-rolled (no serde in the offline build): keys are
/// escaped per RFC 8259, finite floats use Rust's shortest round-trip
/// formatting, and non-finite floats — which JSON cannot represent — are
/// encoded as `null`.
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wrap a writer. Each event is written and flushed as one line.
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    /// Unwrap the inner writer (e.g. to inspect a `Vec<u8>` in tests).
    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<W: Write + Send> Sink for JsonLinesSink<W> {
    fn record(&self, event: &Event) {
        let line = encode_json_line(event);
        let mut out = lock_unpoisoned(&self.out);
        // An I/O error must not panic the pipeline; drop the event.
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

fn push_json_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

fn push_json_value(buf: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => buf.push_str(&n.to_string()),
        FieldValue::I64(n) => buf.push_str(&n.to_string()),
        FieldValue::F64(x) if x.is_finite() => buf.push_str(&x.to_string()),
        FieldValue::F64(_) => buf.push_str("null"),
        FieldValue::Bool(b) => buf.push_str(if *b { "true" } else { "false" }),
        FieldValue::Str(s) => push_json_string(buf, s),
    }
}

/// Encode an event as a single JSON-lines record (trailing `\n` included).
pub fn encode_json_line(event: &Event) -> String {
    let mut buf = String::with_capacity(64 + 24 * event.fields.len());
    buf.push_str("{\"event\":");
    push_json_string(&mut buf, event.name);
    for (k, v) in &event.fields {
        buf.push(',');
        push_json_string(&mut buf, k);
        buf.push(':');
        push_json_value(&mut buf, v);
    }
    buf.push_str("}\n");
    buf
}

// --- global dispatch -------------------------------------------------------

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

fn sink_slot<'a>() -> std::sync::RwLockReadGuard<'a, Option<Arc<dyn Sink>>> {
    match SINK.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Install the process-global sink. Replaces any previous sink.
pub fn set_sink(sink: Arc<dyn Sink>) {
    let mut slot = match SINK.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    *slot = Some(sink);
    ACTIVE.store(true, Ordering::Release);
}

/// Remove the process-global sink. Subsequent [`emit`] calls are no-ops.
pub fn clear_sink() {
    let mut slot = match SINK.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    ACTIVE.store(false, Ordering::Release);
    *slot = None;
}

/// `true` when a sink is installed. One relaxed atomic load — cheap enough
/// to guard timing captures in per-pair hot loops.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Emit an event to the installed sink, if any.
///
/// The closure is only invoked when a sink is active, so callers pay
/// nothing to *construct* events on the disabled path. Any
/// [`ScopedLabels`] active on the emitting thread are appended to the
/// event's fields before it reaches the sink.
#[inline]
pub fn emit(build: impl FnOnce() -> Event) {
    if !is_active() {
        return;
    }
    if let Some(sink) = sink_slot().as_ref() {
        let mut event = build();
        LABELS.with(|labels| {
            let labels = labels.borrow();
            if !labels.is_empty() {
                event.fields.extend(labels.iter().cloned());
            }
        });
        sink.record(&event);
    }
}

// --- scoped labels ---------------------------------------------------------

thread_local! {
    static LABELS: std::cell::RefCell<Vec<(Cow<'static, str>, FieldValue)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// RAII guard that appends fixed labels to **every event emitted from
/// the current thread** while it lives — the fleet-labelling primitive
/// for multi-shard deployments, where each shard's worker thread tags
/// its events with `observer` / `cell` so one sink can answer both
/// per-node and fleet-level queries without any call-site changes.
///
/// Guards nest: labels accumulate in attachment order and each guard
/// removes exactly the labels it added. Labels are thread-local, so
/// parallel shards never see each other's tags.
///
/// ```
/// use std::sync::Arc;
/// let mem = Arc::new(vp_obs::MemorySink::new());
/// let _sink = vp_obs::ScopedSink::install(mem.clone());
/// {
///     let _tags = vp_obs::ScopedLabels::attach([("observer", 7u64), ("cell", 3u64)]);
///     vp_obs::emit(|| vp_obs::Event::new("runtime.round"));
/// }
/// assert_eq!(
///     mem.events()[0].field("cell"),
///     Some(&vp_obs::FieldValue::U64(3))
/// );
/// ```
#[derive(Debug)]
pub struct ScopedLabels {
    added: usize,
}

impl ScopedLabels {
    /// Attach `labels` to every event emitted from this thread until the
    /// returned guard is dropped.
    pub fn attach<K, V>(labels: impl IntoIterator<Item = (K, V)>) -> Self
    where
        K: Into<Cow<'static, str>>,
        V: Into<FieldValue>,
    {
        let added = LABELS.with(|slot| {
            let mut slot = slot.borrow_mut();
            let before = slot.len();
            slot.extend(labels.into_iter().map(|(k, v)| (k.into(), v.into())));
            slot.len() - before
        });
        ScopedLabels { added }
    }
}

impl Drop for ScopedLabels {
    fn drop(&mut self) {
        LABELS.with(|slot| {
            let mut slot = slot.borrow_mut();
            let keep = slot.len().saturating_sub(self.added);
            slot.truncate(keep);
        });
    }
}

// Serialises tests (and anything else) that install the global sink.
static SCOPE: Mutex<()> = Mutex::new(());

/// RAII guard that installs a sink for the lifetime of a scope and clears
/// it on drop. Holding the guard serialises against other `ScopedSink`
/// users, so concurrent `cargo test` threads cannot observe each other's
/// events.
pub struct ScopedSink {
    _serial: MutexGuard<'static, ()>,
}

impl ScopedSink {
    /// Install `sink` globally until the returned guard is dropped.
    pub fn install(sink: Arc<dyn Sink>) -> Self {
        let serial = lock_unpoisoned(&SCOPE);
        set_sink(sink);
        ScopedSink { _serial: serial }
    }
}

impl Drop for ScopedSink {
    fn drop(&mut self) {
        clear_sink();
    }
}

// --- span ------------------------------------------------------------------

/// A wall-clock span: created via [`span`], emits an event carrying
/// `duration_ns` when [`finish`](Span::finish)ed.
///
/// When no sink is active at creation time the clock is never read and
/// `finish` is a no-op.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<(Cow<'static, str>, FieldValue)>,
}

/// Start a span. See [`Span`].
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        // vp-lint: allow(wall-clock) — spans time the pipeline for sinks; events never feed back into it
        start: is_active().then(Instant::now),
        fields: Vec::new(),
    }
}

impl Span {
    /// Attach a field to the event emitted at finish (builder style).
    #[must_use]
    pub fn field(
        mut self,
        key: impl Into<Cow<'static, str>>,
        value: impl Into<FieldValue>,
    ) -> Self {
        if self.start.is_some() {
            self.fields.push((key.into(), value.into()));
        }
        self
    }

    /// Stop the clock and emit the span event.
    pub fn finish(self) {
        if let Some(start) = self.start {
            let duration_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut fields = self.fields;
            fields.push((Cow::Borrowed("duration_ns"), FieldValue::U64(duration_ns)));
            emit(move || Event {
                name: self.name,
                fields,
            });
        }
    }
}

// --- counter ---------------------------------------------------------------

/// A named monotonic counter. `const`-constructible so instrumented crates
/// can keep them in `static`s; [`emit`](Counter::emit) snapshots the total
/// as an event.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Emit the current total as an event `{name, total}`.
    pub fn emit(&self) {
        let (name, total) = (self.name, self.get());
        emit(|| Event::new(name).with("total", total));
    }
}

// --- histogram -------------------------------------------------------------

/// Fixed-bucket histogram over `u64` samples (typically nanoseconds).
///
/// Bucket `i` counts samples `v` with `v <= bounds[i]` (and greater than
/// `bounds[i-1]`); one extra overflow bucket counts everything above the
/// last bound. Counts are atomic, so parallel workers can
/// [`record`](Histogram::record) into a shared histogram without locking.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

/// Plain-value snapshot of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, ascending; `counts` has one extra
    /// overflow entry.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total number of recorded samples.
    pub total: u64,
    /// Sum of all recorded samples (saturating).
    pub sum: u64,
}

impl Histogram {
    /// Build a histogram from inclusive upper bounds. Bounds are sorted
    /// and deduplicated; an empty list yields a single overflow bucket.
    pub fn new(mut bounds: Vec<u64>) -> Self {
        bounds.sort_unstable();
        bounds.dedup();
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Geometric bucket ladder: `first, first*factor, …` (`n` bounds).
    /// `factor < 2` is treated as 2; values saturate at `u64::MAX`.
    pub fn exponential(first: u64, factor: u64, n: usize) -> Self {
        let factor = factor.max(2);
        let mut bounds = Vec::with_capacity(n);
        let mut b = first.max(1);
        for _ in 0..n {
            bounds.push(b);
            b = b.saturating_mul(factor);
        }
        Histogram::new(bounds)
    }

    /// Record one sample.
    #[inline]
    // vp-lint: allow(panic-reachability) — partition_point returns <= bounds.len() and counts holds bounds.len()+1 slots
    pub fn record(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        // Saturating accumulate: overflow in a diagnostic sum must not wrap.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Plain-value snapshot of the current counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            total: self.total.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Append the snapshot to `event` as fields: `le_<bound>` per bucket,
    /// plus `overflow`, `count` and `sum`.
    #[must_use]
    pub fn attach_to(&self, mut event: Event) -> Event {
        let snap = self.snapshot();
        for (bound, count) in snap.bounds.iter().zip(&snap.counts) {
            event = event.with(format!("le_{bound}"), *count);
        }
        if let Some(overflow) = snap.counts.last() {
            event = event.with("overflow", *overflow);
        }
        event.with("count", snap.total).with("sum", snap.sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_lookup_and_builder() {
        let e = Event::new("x").with("a", 1u64).with("b", true);
        assert_eq!(e.field("a"), Some(&FieldValue::U64(1)));
        assert_eq!(e.field("b"), Some(&FieldValue::Bool(true)));
        assert_eq!(e.field("c"), None);
    }

    #[test]
    fn histogram_bucketing_is_inclusive_upper_bound() {
        let h = Histogram::new(vec![10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.bounds, vec![10, 100]);
        // <=10: {0, 10}; <=100: {11, 100}; overflow: {101, 5000}.
        assert_eq!(s.counts, vec![2, 2, 2]);
        assert_eq!(s.total, 6);
        assert_eq!(s.sum, 10 + 11 + 100 + 101 + 5000);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let h = Histogram::new(vec![100, 10, 100]);
        assert_eq!(h.snapshot().bounds, vec![10, 100]);
    }

    #[test]
    fn histogram_exponential_ladder_saturates() {
        let h = Histogram::exponential(1 << 62, 4, 4);
        let s = h.snapshot();
        assert_eq!(s.bounds, vec![1 << 62, u64::MAX]);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let h = Histogram::new(vec![1]);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.snapshot().sum, u64::MAX);
    }

    #[test]
    fn histogram_attach_to_emits_bucket_fields() {
        let h = Histogram::new(vec![10]);
        h.record(5);
        h.record(50);
        let e = h.attach_to(Event::new("hist"));
        assert_eq!(e.field("le_10"), Some(&FieldValue::U64(1)));
        assert_eq!(e.field("overflow"), Some(&FieldValue::U64(1)));
        assert_eq!(e.field("count"), Some(&FieldValue::U64(2)));
        assert_eq!(e.field("sum"), Some(&FieldValue::U64(55)));
    }

    #[test]
    fn json_lines_framing() {
        let e = Event::new("compare.sweep")
            .with("pairs", 3usize)
            .with("density", 12.5f64)
            .with("nan", f64::NAN)
            .with("tag", "a\"b\\c\nd")
            .with("ok", true)
            .with("delta", -4i64);
        let line = encode_json_line(&e);
        assert_eq!(
            line,
            "{\"event\":\"compare.sweep\",\"pairs\":3,\"density\":12.5,\"nan\":null,\"tag\":\"a\\\"b\\\\c\\nd\",\"ok\":true,\"delta\":-4}\n"
        );
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.record(&Event::new("a").with("k", 1u64));
        sink.record(&Event::new("b"));
        let buf = sink.into_inner();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"event\":\"a\",\"k\":1}");
        assert_eq!(lines[1], "{\"event\":\"b\"}");
    }

    #[test]
    fn json_control_chars_are_escaped() {
        let e = Event::new("x").with("k", "\u{1}\t");
        assert_eq!(
            encode_json_line(&e),
            "{\"event\":\"x\",\"k\":\"\\u0001\\t\"}\n"
        );
    }

    #[test]
    fn scoped_sink_installs_and_clears() {
        {
            // Other tests install sinks concurrently; holding `SCOPE`
            // keeps their guards out while this one checks for no sink.
            let _serial = lock_unpoisoned(&SCOPE);
            assert!(!is_active());
        }
        let mem = Arc::new(MemorySink::new());
        {
            let _guard = ScopedSink::install(mem.clone());
            assert!(is_active());
            emit(|| Event::new("inside"));
        }
        let _serial = lock_unpoisoned(&SCOPE);
        assert!(!is_active());
        let mut ran = false;
        emit(|| {
            ran = true;
            Event::new("outside")
        });
        assert!(!ran, "emit closure must not run without a sink");
        assert_eq!(mem.count("inside"), 1);
        assert_eq!(mem.count("outside"), 0);
    }

    #[test]
    fn scoped_labels_tag_events_nest_and_detach() {
        let mem = Arc::new(MemorySink::new());
        let _guard = ScopedSink::install(mem.clone());
        {
            let _outer = ScopedLabels::attach([("observer", 7u64), ("cell", 3u64)]);
            emit(|| Event::new("tagged").with("k", 1u64));
            {
                let _inner = ScopedLabels::attach([("shard", 2u64)]);
                emit(|| Event::new("nested"));
            }
            emit(|| Event::new("after_inner"));
        }
        emit(|| Event::new("untagged"));

        let events = mem.events();
        assert_eq!(events[0].field("observer"), Some(&FieldValue::U64(7)));
        assert_eq!(events[0].field("cell"), Some(&FieldValue::U64(3)));
        assert_eq!(events[0].field("k"), Some(&FieldValue::U64(1)));
        assert_eq!(events[1].field("shard"), Some(&FieldValue::U64(2)));
        assert_eq!(events[1].field("observer"), Some(&FieldValue::U64(7)));
        assert_eq!(events[2].field("shard"), None, "inner guard detached");
        assert_eq!(events[2].field("cell"), Some(&FieldValue::U64(3)));
        assert_eq!(events[3].field("observer"), None, "outer guard detached");
    }

    #[test]
    fn scoped_labels_are_thread_local() {
        let mem = Arc::new(MemorySink::new());
        let _guard = ScopedSink::install(mem.clone());
        let _here = ScopedLabels::attach([("observer", 1u64)]);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _there = ScopedLabels::attach([("observer", 2u64)]);
                emit(|| Event::new("from_worker"));
            });
        });
        emit(|| Event::new("from_main"));
        let events = mem.events();
        assert_eq!(events[0].name, "from_worker");
        assert_eq!(events[0].field("observer"), Some(&FieldValue::U64(2)));
        assert_eq!(events[1].field("observer"), Some(&FieldValue::U64(1)));
    }

    #[test]
    fn span_emits_duration() {
        let mem = Arc::new(MemorySink::new());
        let _guard = ScopedSink::install(mem.clone());
        let s = span("work").field("items", 7usize);
        s.finish();
        let events = mem.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "work");
        assert_eq!(events[0].field("items"), Some(&FieldValue::U64(7)));
        assert!(matches!(
            events[0].field("duration_ns"),
            Some(FieldValue::U64(_))
        ));
    }

    #[test]
    fn counter_accumulates_and_emits() {
        static C: Counter = Counter::new("test.counter");
        C.add(2);
        C.add(3);
        assert!(C.get() >= 5);
        let mem = Arc::new(MemorySink::new());
        let _guard = ScopedSink::install(mem.clone());
        C.emit();
        assert_eq!(mem.count("test.counter"), 1);
    }

    #[test]
    fn histogram_is_shareable_across_threads() {
        let h = std::sync::Arc::new(Histogram::new(vec![100]));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().total, 4000);
    }
}
