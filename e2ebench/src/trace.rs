//! An in-memory span recorder and the self-time arithmetic over its
//! spans.
//!
//! Spans are recorded by the benchmark around its calls into the
//! library, kept in memory while the benchmark runs and written out
//! once at exit, so recording costs a clock read and a vector push.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within its [`Tracer`] (ids start at 1).
    pub id: u64,
    /// Layer boundary the span wraps, e.g. `"index"` or `"store.get"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The job the span belongs to, if it can be attributed to one.
    pub job: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans on this thread, innermost last: `(id, job)`.
    static OPEN: RefCell<Vec<(u64, Option<u64>)>> = const { RefCell::new(Vec::new()) };
}

/// Records spans while enabled; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that closes when the guard drops. Its parent is the
    /// innermost span open on this thread; with `job: None` it inherits
    /// that parent's job.
    pub fn enter(&self, name: &'static str, job: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, job) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let top = open.last().copied();
            let job = job.or(top.and_then(|(_, j)| j));
            open.push((id, job));
            (top.map(|(p, _)| p), job)
        });
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self,
                id,
                name,
                parent,
                job,
                start: Instant::now(),
            }),
        }
    }

    /// Records a finished span with explicit bounds and parent — for
    /// intervals that overlap on one thread, such as the jobs a single
    /// client keeps outstanding on a service. Returns the span's id.
    pub fn record(
        &self,
        name: &'static str,
        job: Option<u64>,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if self.enabled() {
            self.push(Span {
                id,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
                job,
            });
        }
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

struct OpenSpan<'t> {
    tracer: &'t Tracer,
    id: u64,
    name: &'static str,
    parent: Option<u64>,
    job: Option<u64>,
    start: Instant,
}

/// Closes its span on drop (see [`Tracer::enter`]).
pub struct SpanGuard<'t> {
    open: Option<OpenSpan<'t>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(s) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&(id, _)| id == s.id) {
                open.remove(pos);
            }
        });
        s.tracer.push(Span {
            id: s.id,
            name: s.name,
            start_ns: s.tracer.ns(s.start),
            end_ns: s.tracer.ns(end),
            parent: s.parent,
            job: s.job,
        });
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the interval; children may overlap each other).
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span, keyed by id: its duration minus the part
/// of it that its child spans cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// One JSON object per span, one per line.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            r#"{{"id":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"job":{}}}"#,
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.job)
        );
    }
    out
}
