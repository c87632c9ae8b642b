//! In-memory spans of a traced pass, written out as Chrome trace-event JSON
//! when the run ends.

use cdf_sim::json::{field, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval. `parent` indexes the span list it was recorded in.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the interval covers: `pass`, `cell`, `setup`, `warmup`, `measure`.
    pub name: &'static str,
    /// Cell key (empty for the pass span).
    pub cell: String,
    /// Start, in ns since the process's trace epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Small id of the host thread that ran the interval.
    pub thread: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the trace epoch to `t`.
pub fn since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// A small, stable id for the calling thread.
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

/// Records a span from `start` to `end` on the calling thread.
pub fn span(
    name: &'static str,
    cell: &str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
) -> Span {
    Span {
        name,
        cell: cell.to_string(),
        start_ns: since_epoch(start),
        dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        thread: thread_id(),
        parent,
    }
}

/// Appends `child` spans under `parent_index`, re-basing their parent
/// indices from the child list onto `out`.
pub fn adopt(out: &mut Vec<Span>, parent_index: usize, child: Vec<Span>) {
    let base = out.len();
    out.extend(child.into_iter().map(|mut s| {
        s.parent = Some(s.parent.map_or(parent_index, |p| base + p));
        s
    }));
}

/// The spans as a Chrome/Perfetto trace-event document; each event carries
/// its own id and its parent's in `args`.
pub fn to_json(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::Obj(vec![
                field("name", s.name),
                field("ph", "X"),
                field("ts", s.start_ns as f64 / 1e3),
                field("dur", s.dur_ns as f64 / 1e3),
                field("pid", 1u64),
                field("tid", s.thread),
                field(
                    "args",
                    Json::Obj(vec![
                        field("id", id),
                        field("parent", s.parent.map_or(Json::Null, Json::from)),
                        field("cell", s.cell.as_str()),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![field("traceEvents", Json::Arr(events))])
}
