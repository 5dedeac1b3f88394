//! Flight recorder ("black box"): per-thread ring buffers that keep the
//! most recent spans, counter deltas, and events, and dump them to a
//! `fun3d-blackbox/1` JSONL file when a run dies.
//!
//! The paper's instrumentation story is post-mortem: reports and event
//! streams are written *after* a run completes, so a panic, a diverging
//! solve, or a killed process leaves nothing behind.  The recorder closes
//! that gap.  While armed, every closed span, counter bump, and emitted
//! event also lands in a fixed-capacity ring on the recording thread; on
//! panic (a process-wide hook), on solver anomaly, or on serve-side SLO
//! saturation the rings are serialized so the last N records per thread
//! survive the failure.
//!
//! ## Cost contract
//!
//! The recorder matches the profiler's off-path discipline: when disarmed,
//! every capture hook is a single `Relaxed` atomic load.  When armed,
//! writers append through [`Mutex::try_lock`] and **never block** — a
//! concurrent dump makes the colliding record count as dropped instead of
//! stalling the hot path.  The recorder only observes; it never feeds back
//! into solver state, so numerical results are bitwise identical armed or
//! not (pinned by a solver test).

use crate::json::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::Instant;

/// Schema identifier written as the JSONL header line.
pub const SCHEMA: &str = "fun3d-blackbox/1";

/// Default per-thread ring capacity (records, not bytes).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One captured record in a thread's ring.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightRecord {
    /// A span that closed: its full path, open time, and duration.
    Span {
        /// Slash-separated span path (or bare name on a disabled registry).
        path: String,
        /// Open time, seconds since the recorder was armed.
        t_s: f64,
        /// Open-to-close duration in seconds.
        dur_s: f64,
    },
    /// A counter bump.
    Counter {
        /// Counter name (or `path:name` for addressed counters).
        path: String,
        /// The delta added.
        delta: f64,
        /// Capture time, seconds since the recorder was armed.
        t_s: f64,
    },
    /// An event emitted into any [`crate::events::EventSink`] (enabled or
    /// not), carried as its rendered `fun3d-events/1` JSON object.
    Event {
        /// The event's `ev` tag (`newton_step`, `anomaly`, ...).
        tag: String,
        /// The full event object as compact JSON text.
        data: String,
        /// Capture time, seconds since the recorder was armed.
        t_s: f64,
    },
}

impl FlightRecord {
    /// Capture time, seconds since the recorder was armed.
    pub fn t_s(&self) -> f64 {
        match self {
            FlightRecord::Span { t_s, .. }
            | FlightRecord::Counter { t_s, .. }
            | FlightRecord::Event { t_s, .. } => *t_s,
        }
    }
}

struct RingBuf {
    slots: Vec<FlightRecord>,
    /// Next write index; when the ring is full this is also the oldest slot.
    head: usize,
    /// Total records ever written (wraparound included).
    written: u64,
}

impl RingBuf {
    fn push(&mut self, capacity: usize, rec: FlightRecord) {
        self.written += 1;
        if capacity == 0 {
            return;
        }
        if self.slots.len() < capacity {
            self.slots.push(rec);
        } else {
            self.slots[self.head] = rec;
        }
        self.head = (self.head + 1) % capacity;
    }

    /// Records oldest-first.
    fn ordered(&self, capacity: usize) -> Vec<FlightRecord> {
        if self.slots.len() < capacity || capacity == 0 {
            self.slots.clone()
        } else {
            let mut out = Vec::with_capacity(capacity);
            out.extend_from_slice(&self.slots[self.head..]);
            out.extend_from_slice(&self.slots[..self.head]);
            out
        }
    }
}

struct Ring {
    thread: String,
    capacity: usize,
    buf: Mutex<RingBuf>,
    /// Records lost to try_lock contention (a dump was in progress).
    dropped: AtomicU64,
}

impl Ring {
    fn new(thread: String, capacity: usize) -> Self {
        Self {
            thread,
            capacity,
            buf: Mutex::new(RingBuf {
                slots: Vec::with_capacity(capacity.min(DEFAULT_CAPACITY)),
                head: 0,
                written: 0,
            }),
            dropped: AtomicU64::new(0),
        }
    }

    /// Non-blocking append: a locked buffer (dump in progress) drops the
    /// record and counts it instead of stalling the recording thread.
    fn push(&self, rec: FlightRecord) {
        match self.buf.try_lock() {
            Ok(mut b) => b.push(self.capacity, rec),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

struct State {
    gen: u64,
    capacity: usize,
    epoch: Instant,
    rings: Vec<Arc<Ring>>,
    dump_path: Option<String>,
}

/// The one-flag fast gate every capture hook reads first.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Arm generation; bumped by [`arm`] so cached thread rings re-register.
static GEN: AtomicU64 = AtomicU64::new(0);
static STATE: Mutex<Option<State>> = Mutex::new(None);
static HOOK: Once = Once::new();

thread_local! {
    /// (generation, arm epoch, this thread's ring) — cached so the armed
    /// hot path takes no global lock.
    static TL_RING: std::cell::RefCell<Option<(u64, Instant, Arc<Ring>)>> =
        const { std::cell::RefCell::new(None) };
}

fn lock_state() -> std::sync::MutexGuard<'static, Option<State>> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the recorder is capturing.  This is the whole disarmed cost of
/// every hook: one `Relaxed` load.
#[inline]
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm the recorder: fresh rings of `capacity` records per thread, dumping
/// to `dump_path` (when given) on panic or by [`dump_now`].  Re-arming
/// discards previously captured rings.  Installs the process panic hook on
/// first use.
pub fn arm(capacity: usize, dump_path: Option<&str>) {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(path) = dump_now("panic") {
                eprintln!("fun3d-blackbox: wrote {path}");
            }
            prev(info);
        }));
    });
    let mut st = lock_state();
    let gen = GEN.load(Ordering::Relaxed) + 1;
    GEN.store(gen, Ordering::Relaxed);
    *st = Some(State {
        gen,
        capacity,
        epoch: Instant::now(),
        rings: Vec::new(),
        dump_path: dump_path.map(str::to_string),
    });
    ARMED.store(true, Ordering::Relaxed);
}

/// Stop capturing.  Captured rings stay readable (e.g. by [`dump_now`])
/// until the next [`arm`].
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Run `f` with this thread's ring and the arm epoch, registering the ring
/// on first use (or after a re-arm).  Returns `None` when never armed.
fn with_ring<R>(f: impl FnOnce(&Instant, &Ring) -> R) -> Option<R> {
    let gen = GEN.load(Ordering::Relaxed);
    TL_RING.with(|tl| {
        let mut tl = tl.borrow_mut();
        let stale = match &*tl {
            Some((g, _, _)) => *g != gen,
            None => true,
        };
        if stale {
            let mut st = lock_state();
            let st = st.as_mut()?;
            let name = std::thread::current()
                .name()
                .unwrap_or("thread")
                .to_string();
            let ring = Arc::new(Ring::new(format!("{name}#{}", st.rings.len()), st.capacity));
            st.rings.push(Arc::clone(&ring));
            *tl = Some((st.gen, st.epoch, ring));
        }
        let (_, epoch, ring) = tl.as_ref().expect("just ensured");
        Some(f(epoch, ring))
    })
}

/// A span opened while the recorder was armed; closing it records a
/// [`FlightRecord::Span`].
#[derive(Debug)]
pub(crate) struct OpenSpan {
    path: String,
    start: f64,
}

/// Begin recording a span under its bare `name` (disabled-registry path).
pub(crate) fn span_open(name: &str) -> Option<OpenSpan> {
    if !is_armed() {
        return None;
    }
    span_open_owned(name.to_string())
}

/// Begin recording a span under an already-resolved full path.
pub(crate) fn span_open_owned(path: String) -> Option<OpenSpan> {
    if !is_armed() {
        return None;
    }
    let start = with_ring(|epoch, _| epoch.elapsed().as_secs_f64())?;
    Some(OpenSpan { path, start })
}

/// Close an open span, appending it to this thread's ring.
pub(crate) fn span_close(open: OpenSpan) {
    if !is_armed() {
        return;
    }
    with_ring(|epoch, ring| {
        let now = epoch.elapsed().as_secs_f64();
        ring.push(FlightRecord::Span {
            path: open.path,
            t_s: open.start,
            dur_s: (now - open.start).max(0.0),
        });
    });
}

/// Record a counter bump.
pub(crate) fn counter(path: &str, delta: f64) {
    if !is_armed() {
        return;
    }
    with_ring(|epoch, ring| {
        ring.push(FlightRecord::Counter {
            path: path.to_string(),
            delta,
            t_s: epoch.elapsed().as_secs_f64(),
        });
    });
}

/// Record an emitted event as its rendered JSON object.
pub(crate) fn event(tag: &str, data: String) {
    if !is_armed() {
        return;
    }
    with_ring(|epoch, ring| {
        ring.push(FlightRecord::Event {
            tag: tag.to_string(),
            data,
            t_s: epoch.elapsed().as_secs_f64(),
        });
    });
}

fn record_to_json(r: &FlightRecord) -> Value {
    match r {
        FlightRecord::Span { path, t_s, dur_s } => Value::Obj(vec![
            ("rec".into(), Value::Str("span".into())),
            ("path".into(), Value::Str(path.clone())),
            ("t_s".into(), Value::Num(*t_s)),
            ("dur_s".into(), Value::Num(*dur_s)),
        ]),
        FlightRecord::Counter { path, delta, t_s } => Value::Obj(vec![
            ("rec".into(), Value::Str("counter".into())),
            ("path".into(), Value::Str(path.clone())),
            ("delta".into(), Value::Num(*delta)),
            ("t_s".into(), Value::Num(*t_s)),
        ]),
        FlightRecord::Event { tag, data, t_s } => Value::Obj(vec![
            ("rec".into(), Value::Str("event".into())),
            ("tag".into(), Value::Str(tag.clone())),
            ("data".into(), Value::Str(data.clone())),
            ("t_s".into(), Value::Num(*t_s)),
        ]),
    }
}

fn record_from_json(v: &Value) -> Result<FlightRecord, String> {
    let f = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing/invalid field {key:?}"))
    };
    let s = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing/invalid field {key:?}"))
    };
    match v.get("rec").and_then(Value::as_str) {
        Some("span") => Ok(FlightRecord::Span {
            path: s("path")?,
            t_s: f("t_s")?,
            dur_s: f("dur_s")?,
        }),
        Some("counter") => Ok(FlightRecord::Counter {
            path: s("path")?,
            delta: f("delta")?,
            t_s: f("t_s")?,
        }),
        Some("event") => Ok(FlightRecord::Event {
            tag: s("tag")?,
            data: s("data")?,
            t_s: f("t_s")?,
        }),
        other => Err(format!("unknown rec tag {other:?}")),
    }
}

/// One thread's ring as read back from a dump.
#[derive(Debug, Clone, PartialEq)]
pub struct RingDump {
    /// Recording thread label (`name#index`).
    pub thread: String,
    /// Records lost to dump-time contention.
    pub dropped: u64,
    /// Total records ever written to the ring (wraparound included).
    pub written: u64,
    /// Surviving records, oldest first.
    pub records: Vec<FlightRecord>,
}

/// A parsed `fun3d-blackbox/1` dump.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackboxDump {
    /// Per-thread ring capacity the recorder was armed with.
    pub capacity: u64,
    /// Why the dump was taken (`panic`, `anomaly`, `saturation`, `manual`).
    pub reason: String,
    /// One entry per recording thread.
    pub rings: Vec<RingDump>,
}

/// Serialize every ring as `fun3d-blackbox/1` JSONL text.  `None` when the
/// recorder was never armed.
pub fn dump_string(reason: &str) -> Option<String> {
    let st = lock_state();
    let st = st.as_ref()?;
    let mut out = String::new();
    out.push_str(
        &Value::Obj(vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            ("capacity".into(), Value::Num(st.capacity as f64)),
            ("reason".into(), Value::Str(reason.into())),
            ("rings".into(), Value::Num(st.rings.len() as f64)),
        ])
        .render(),
    );
    out.push('\n');
    for ring in &st.rings {
        // Blocking lock is safe here: writers only try_lock, so they shed
        // onto the dropped counter instead of deadlocking against us.
        let buf = ring.buf.lock().unwrap_or_else(|e| e.into_inner());
        out.push_str(
            &Value::Obj(vec![
                ("ring".into(), Value::Str(ring.thread.clone())),
                (
                    "dropped".into(),
                    Value::Num(ring.dropped.load(Ordering::Relaxed) as f64),
                ),
                ("written".into(), Value::Num(buf.written as f64)),
            ])
            .render(),
        );
        out.push('\n');
        for rec in buf.ordered(ring.capacity) {
            out.push_str(&record_to_json(&rec).render());
            out.push('\n');
        }
    }
    Some(out)
}

/// Write the rings to the path configured at [`arm`] time.  Returns the
/// path on success; `None` when unarmed, no path was configured, or the
/// write failed (a dump must never turn a failing run into a different
/// failure).
pub fn dump_now(reason: &str) -> Option<String> {
    let path = lock_state().as_ref()?.dump_path.clone()?;
    let text = dump_string(reason)?;
    std::fs::write(&path, text).ok()?;
    Some(path)
}

/// Write the rings to an explicit path.
pub fn dump_to(path: &str, reason: &str) -> std::io::Result<()> {
    let text =
        dump_string(reason).ok_or_else(|| std::io::Error::other("flight recorder never armed"))?;
    std::fs::write(path, text)
}

/// Parse `fun3d-blackbox/1` JSONL text (inverse of [`dump_string`]).
pub fn parse_dump(text: &str) -> Result<BlackboxDump, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty blackbox dump")?;
    let hv = Value::parse(header).map_err(|e| format!("bad header: {e}"))?;
    let schema = hv
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("header missing schema field")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema {schema:?}, expected {SCHEMA:?}"
        ));
    }
    let capacity = hv.get("capacity").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let reason = hv
        .get("reason")
        .and_then(Value::as_str)
        .unwrap_or("unknown")
        .to_string();
    let mut rings: Vec<RingDump> = Vec::new();
    for (i, line) in lines.enumerate() {
        let v = Value::parse(line).map_err(|e| format!("line {}: {e}", i + 2))?;
        if let Some(thread) = v.get("ring").and_then(Value::as_str) {
            rings.push(RingDump {
                thread: thread.to_string(),
                dropped: v.get("dropped").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                written: v.get("written").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                records: Vec::new(),
            });
        } else {
            let rec = record_from_json(&v).map_err(|e| format!("line {}: {e}", i + 2))?;
            rings
                .last_mut()
                .ok_or_else(|| format!("line {}: record before any ring header", i + 2))?
                .records
                .push(rec);
        }
    }
    Ok(BlackboxDump {
        capacity,
        reason,
        rings,
    })
}

/// Read and parse a dump file.
pub fn read_dump(path: &str) -> std::io::Result<BlackboxDump> {
    let text = std::fs::read_to_string(path)?;
    parse_dump(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global; tests that arm it must not overlap.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn my_records() -> Vec<FlightRecord> {
        // Only this thread's ring: captures from concurrently running tests
        // land on their own threads' rings.
        with_ring(|_, ring| {
            let buf = ring.buf.lock().unwrap();
            buf.ordered(ring.capacity)
        })
        .unwrap_or_default()
    }

    #[test]
    fn disarmed_recorder_captures_nothing() {
        let _g = guard();
        disarm();
        assert!(!is_armed());
        counter("bb_off/never", 1.0);
        assert!(span_open("bb_off/span").is_none());
    }

    #[test]
    fn ring_wraparound_keeps_most_recent() {
        let _g = guard();
        arm(4, None);
        for i in 0..10 {
            counter("bb_wrap/c", i as f64);
        }
        let recs = my_records();
        disarm();
        assert_eq!(recs.len(), 4);
        let deltas: Vec<f64> = recs
            .iter()
            .map(|r| match r {
                FlightRecord::Counter { delta, .. } => *delta,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(deltas, vec![6.0, 7.0, 8.0, 9.0]);
        // Capture times are monotone oldest-first.
        let ts: Vec<f64> = recs.iter().map(FlightRecord::t_s).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn capacity_edge_cases_hold_property() {
        let _g = guard();
        // Property over tiny capacities and record counts (deterministic
        // LCG stands in for proptest; no external deps): the ring holds the
        // last min(n, cap) records and `written` counts every push.
        let mut lcg: u64 = 0x243F_6A88_85A3_08D3;
        for cap in [0usize, 1, 2, 3, 7] {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let n = (lcg >> 33) as usize % 23;
            arm(cap, None);
            for i in 0..n {
                counter("bb_prop/c", i as f64);
            }
            let recs = my_records();
            let written = with_ring(|_, ring| ring.buf.lock().unwrap().written).unwrap();
            disarm();
            assert_eq!(written, n as u64, "cap {cap} n {n}");
            assert_eq!(recs.len(), n.min(cap), "cap {cap} n {n}");
            for (k, r) in recs.iter().enumerate() {
                let FlightRecord::Counter { delta, .. } = r else {
                    panic!("unexpected {r:?}")
                };
                assert_eq!(*delta, (n - recs.len() + k) as f64, "cap {cap} n {n}");
            }
        }
    }

    #[test]
    fn concurrent_writers_get_their_own_rings_and_dump_parses() {
        let _g = guard();
        arm(64, None);
        let threads: Vec<_> = (0..3)
            .map(|t| {
                std::thread::Builder::new()
                    .name(format!("bb-writer-{t}"))
                    .spawn(move || {
                        for i in 0..50 {
                            counter(&format!("bb_conc/t{t}"), i as f64);
                        }
                    })
                    .unwrap()
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let text = dump_string("manual").expect("armed recorder dumps");
        disarm();
        let dump = parse_dump(&text).expect("dump parses");
        assert_eq!(dump.reason, "manual");
        assert_eq!(dump.capacity, 64);
        for t in 0..3 {
            let ring = dump
                .rings
                .iter()
                .find(|r| r.thread.starts_with(&format!("bb-writer-{t}#")))
                .unwrap_or_else(|| panic!("missing ring for writer {t}"));
            assert_eq!(ring.written, 50);
            assert_eq!(ring.records.len(), 50);
        }
    }

    #[test]
    fn dump_during_write_never_blocks_writers() {
        let _g = guard();
        arm(32, None);
        let stop = Arc::new(AtomicBool::new(false));
        // Start handshake: the writer signals once its ring exists (after
        // its first push), so every dump below runs against a live writer.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let writer = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("bb-hammer".into())
                .spawn(move || {
                    counter("bb_dump/hammer", 0.0);
                    started_tx.send(()).unwrap();
                    let mut n: u64 = 1;
                    while !stop.load(Ordering::Relaxed) {
                        counter("bb_dump/hammer", n as f64);
                        n += 1;
                    }
                    n
                })
                .unwrap()
        };
        started_rx.recv().unwrap();
        // Dump repeatedly while the writer hammers its ring.
        let mut last = String::new();
        for _ in 0..20 {
            last = dump_string("manual").unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let pushed = writer.join().unwrap();
        assert!(pushed > 0, "writer made progress under concurrent dumps");
        let dump = parse_dump(&last).expect("mid-write dump parses");
        // written + dropped accounts for every push attempt seen so far.
        let ring = dump
            .rings
            .iter()
            .find(|r| r.thread.starts_with("bb-hammer#"))
            .expect("hammer ring present");
        assert!(ring.written + ring.dropped <= pushed);
        disarm();
    }

    #[test]
    fn rearm_resets_rings_and_file_round_trips() {
        let _g = guard();
        arm(8, None);
        counter("bb_old/stale", 1.0);
        arm(8, None); // discard
        counter("bb_new/fresh", 2.0);
        {
            let _s = span_open("bb_new/span").map(span_close);
        }
        event("newton_step", r#"{"ev":"newton_step","step":1}"#.into());
        let path = std::env::temp_dir().join("fun3d_blackbox_test.jsonl");
        let path = path.to_str().unwrap();
        dump_to(path, "manual").unwrap();
        disarm();
        let dump = read_dump(path).unwrap();
        std::fs::remove_file(path).ok();
        let recs: Vec<&FlightRecord> = dump.rings.iter().flat_map(|r| &r.records).collect();
        assert!(recs.iter().all(|r| !matches!(
            r,
            FlightRecord::Counter { path, .. } if path == "bb_old/stale"
        )));
        assert!(recs
            .iter()
            .any(|r| matches!(r, FlightRecord::Counter { path, .. } if path == "bb_new/fresh")));
        assert!(recs
            .iter()
            .any(|r| matches!(r, FlightRecord::Span { path, .. } if path == "bb_new/span")));
        assert!(recs.iter().any(
            |r| matches!(r, FlightRecord::Event { tag, data, .. } if tag == "newton_step"
                && data.contains("\"step\":1"))
        ));
    }

    #[test]
    fn parse_rejects_malformed_dumps() {
        assert!(parse_dump("").is_err());
        assert!(parse_dump("{\"schema\":\"fun3d-blackbox/999\"}\n").is_err());
        let no_ring = format!(
            "{}\n{}\n",
            r#"{"schema":"fun3d-blackbox/1","capacity":4,"reason":"manual","rings":1}"#,
            r#"{"rec":"counter","path":"x","delta":1,"t_s":0}"#
        );
        assert!(parse_dump(&no_ring).is_err(), "record before ring header");
        let bad_rec = format!(
            "{}\n{}\n{}\n",
            r#"{"schema":"fun3d-blackbox/1","capacity":4,"reason":"manual","rings":1}"#,
            r#"{"ring":"main#0","dropped":0,"written":1}"#,
            r#"{"rec":"bogus"}"#
        );
        assert!(parse_dump(&bad_rec).is_err());
        // Header alone is a valid empty dump.
        let empty = parse_dump(
            "{\"schema\":\"fun3d-blackbox/1\",\"capacity\":4,\"reason\":\"panic\",\"rings\":0}\n",
        )
        .unwrap();
        assert!(empty.rings.is_empty());
        assert_eq!(empty.reason, "panic");
    }
}
