//! Benchmark-side spans: the harness records one around each call into a
//! layer, in memory it allocated before the run, and writes them out at
//! exit. Nothing inside the crates under test is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Returned by [`SpanLog::begin`] when nothing was recorded.
pub const NO_SPAN: u32 = u32::MAX;

/// Spans one driver thread can hold; a traced phase ends early when its
/// log fills, so every operation of the phase pays for its spans.
pub const SPAN_CAP: usize = 1 << 17;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, or [`NO_SPAN`].
    pub parent: u32,
    /// The operation (message sequence number, rep number) this span
    /// belongs to; spans of one operation share it.
    pub op: u64,
}

/// One driver thread's span recorder. Off, it costs a branch per call.
pub struct SpanLog {
    t0: Instant,
    pub tid: u32,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    on: bool,
}

impl SpanLog {
    /// A recorder that records nothing (untraced runs).
    pub fn off() -> SpanLog {
        SpanLog {
            t0: Instant::now(),
            tid: 0,
            spans: Vec::new(),
            open: Vec::new(),
            on: false,
        }
    }

    /// A recorder with room for `cap` spans, stamping against `t0` (shared
    /// by every thread's log so their timelines line up).
    pub fn on(t0: Instant, tid: u32, cap: usize) -> SpanLog {
        SpanLog {
            t0,
            tid,
            spans: Vec::with_capacity(cap),
            open: Vec::with_capacity(16),
            on: true,
        }
    }

    /// No room left: the traced phase should stop.
    pub fn full(&self) -> bool {
        self.on && self.spans.len() >= self.spans.capacity()
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> u32 {
        if !self.on || self.spans.len() >= self.spans.capacity() {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_SPAN);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(id);
        id
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = now;
        // Spans close in LIFO order; tolerate an early return that skipped
        // an inner `end` by unwinding to this span.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Durations (ns) of every span called `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_SPAN {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }
}

/// Per span name: `(count, total ns, self ns)` over all logs.
pub fn totals(logs: &[SpanLog]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for log in logs {
        for (s, own) in log.spans.iter().zip(log.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
    }
    out
}

/// Write every span as Chrome trace-event JSON (one track per driver
/// thread; open it in Perfetto). `args` carries the parent index, the
/// operation id and the self time.
pub fn write_chrome(path: &std::path::Path, logs: &[SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    let mut first = true;
    for log in logs {
        for (s, own) in log.spans.iter().zip(log.self_ns()) {
            if !first {
                writeln!(w, ",")?;
            }
            first = false;
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                r#"{{"ph":"X","pid":1,"tid":{},"ts":{:.3},"dur":{:.3},"name":"{}","args":{{"parent":{},"op":{},"self_ns":{}}}}}"#,
                log.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.name,
                parent,
                s.op,
                own
            )?;
        }
    }
    writeln!(w, "\n]")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_log_records_nothing() {
        let mut log = SpanLog::off();
        let id = log.begin("x", 1);
        assert_eq!(id, NO_SPAN);
        log.end(id);
        assert!(log.spans.is_empty() && !log.full());
    }

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut log = SpanLog::on(Instant::now(), 0, 8);
        let outer = log.begin("outer", 7);
        let inner = log.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.end(inner);
        log.end(outer);
        let sib = log.begin("sib", 8);
        log.end(sib);
        assert_eq!(log.spans[inner as usize].parent, outer);
        assert_eq!(log.spans[outer as usize].parent, NO_SPAN);
        assert_eq!(log.spans[sib as usize].parent, NO_SPAN);
        let own = log.self_ns();
        let dur = |i: u32| log.spans[i as usize].end_ns - log.spans[i as usize].start_ns;
        assert_eq!(own[outer as usize], dur(outer) - dur(inner));
        assert_eq!(own[inner as usize], dur(inner));
        assert!(dur(inner) >= 2_000_000);
        let t = totals(std::slice::from_ref(&log));
        assert_eq!(t["outer"].0, 1);
        assert_eq!(t["outer"].2 + t["inner"].2, t["outer"].1);
    }

    #[test]
    fn full_log_stops_recording_and_says_so() {
        let mut log = SpanLog::on(Instant::now(), 0, 2);
        for op in 0..2 {
            let id = log.begin("a", op);
            log.end(id);
        }
        assert!(log.full());
        assert_eq!(log.begin("a", 9), NO_SPAN);
        assert_eq!(log.spans.len(), 2);
    }

    #[test]
    fn chrome_output_parses_back_with_every_span() {
        let mut log = SpanLog::on(Instant::now(), 3, 8);
        let a = log.begin("a", 1);
        let b = log.begin("b", 1);
        log.end(b);
        log.end(a);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("trace.json");
        write_chrome(&path, std::slice::from_ref(&log)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = charm_trace::json::parse(&text).unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("name").and_then(|v| v.as_str()), Some("b"));
        let parent = arr[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(|v| v.as_f64()), Some(0.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
