//! The bench-side span recorder of the traced pass.
//!
//! A span is recorded around every call the harness makes into a layer
//! (`layer:call`, e.g. `service:pump`). Spans nest by call order on one
//! thread, so a span's parent is the one open when it began and its self
//! time is its duration minus its children's. Everything stays in memory
//! until the run ends; spans inside pf-rt and pf-service are a later
//! issue. With the recorder off (the untraced pass) `span` costs one
//! branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept per recorder for the Chrome-trace file; past it a span only
/// feeds the per-name totals (a closed-loop reader makes millions).
const KEEP: usize = 50_000;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    /// Rep or request id the span belongs to.
    pub id: u64,
}

#[derive(Default, Clone, Copy)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    id: u64,
    index: Option<u32>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<Open>,
    totals: BTreeMap<&'static str, Total>,
}

/// One thread's recorder.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    /// Chrome-trace thread id.
    pub tid: u32,
    st: RefCell<State>,
    /// Recorders of threads this one's thread started and joined.
    adopted: RefCell<Vec<Recorder>>,
}

pub struct Guard<'a>(Option<&'a Recorder>);

impl Recorder {
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Self {
        Recorder {
            on,
            epoch,
            tid,
            st: RefCell::default(),
            adopted: RefCell::default(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Keep a joined thread's recorder with this one, for the table and
    /// the trace file.
    pub fn adopt(&self, other: Recorder) {
        self.adopted.borrow_mut().push(other);
    }

    pub fn off() -> Self {
        Self::new(false, Instant::now(), 0)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, id: u64) -> Guard<'_> {
        if !self.on {
            return Guard(None);
        }
        let mut st = self.st.borrow_mut();
        let index = (st.spans.len() < KEEP).then(|| {
            let parent = st.open.last().and_then(|o| o.index);
            st.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                id,
            });
            (st.spans.len() - 1) as u32
        });
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        st.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            id,
            index,
        });
        Guard(Some(self))
    }

    fn close(&self) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.st.borrow_mut();
        let o = st.open.pop().expect("a guard closes the span it opened");
        let ns = end_ns - o.start_ns;
        if let Some(i) = o.index {
            let s = &mut st.spans[i as usize];
            (s.start_ns, s.end_ns, s.id) = (o.start_ns, end_ns, o.id);
        }
        let t = st.totals.entry(o.name).or_default();
        t.count += 1;
        t.ns += ns;
        t.self_ns += ns - o.child_ns;
        if let Some(parent) = st.open.last_mut() {
            parent.child_ns += ns;
        }
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        self.st.borrow().totals.clone()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(r) = self.0 {
            r.close();
        }
    }
}

/// Self time per span name and per layer (the part of the name before
/// `:`) over `rec` and the recorders it adopted, as printable lines; the
/// last line compares their sum with `wall_ns`, the time the harness ran.
pub fn self_time_table(rec: &Recorder, wall_ns: u64) -> Vec<String> {
    let mut by_name = rec.totals();
    for other in rec.adopted.borrow().iter() {
        for (name, t) in other.totals() {
            let e = by_name.entry(name).or_default();
            e.count += t.count;
            e.ns += t.ns;
            e.self_ns += t.self_ns;
        }
    }
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let mut lines = vec![format!(
        "# {:<28} {:>10} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    )];
    for (name, t) in &by_name {
        *by_layer
            .entry(name.split(':').next().unwrap_or(name))
            .or_default() += t.self_ns;
        lines.push(format!(
            "# {:<28} {:>10} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let sum: u64 = by_layer.values().sum();
    for (layer, ns) in &by_layer {
        lines.push(format!(
            "# layer {:<22} self {:>10.3} ms  {:>5.1} %",
            layer,
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / sum.max(1) as f64
        ));
    }
    // An adopted thread ran beside this one, so its spans are extra.
    let own: u64 = rec.totals().values().map(|t| t.self_ns).sum();
    lines.push(format!(
        "# self times of this thread's spans sum to {:.3} ms, {:.1} % of the {:.3} ms the run took",
        own as f64 / 1e6,
        100.0 * own as f64 / wall_ns.max(1) as f64,
        wall_ns as f64 / 1e6
    ));
    lines
}

/// Write the spans of `rec` and the recorders it adopted as Chrome-trace
/// JSON (`chrome://tracing`, Perfetto); returns how many.
pub fn write_chrome_trace(path: &std::path::Path, rec: Recorder) -> std::io::Result<usize> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut n = 0;
    let adopted = rec.adopted.take();
    for rec in std::iter::once(rec).chain(adopted) {
        let tid = rec.tid;
        for s in rec.st.into_inner().spans {
            let sep = if n == 0 { "" } else { ",\n" };
            write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent.map_or(-1, i64::from),
            )?;
            n += 1;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let rec = Recorder::new(true, Instant::now(), 0);
        {
            let _root = rec.span("bench:root", 0);
            for i in 0..3 {
                let _child = rec.span("rt:child", i);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let t = rec.totals();
        assert_eq!(t["rt:child"].count, 3);
        assert_eq!(
            t["bench:root"].self_ns + t["rt:child"].ns,
            t["bench:root"].ns
        );
        assert_eq!(t["rt:child"].self_ns, t["rt:child"].ns);
        let spans = rec.st.into_inner().spans;
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
    }

    #[test]
    fn off_recorder_records_nothing() {
        let rec = Recorder::off();
        drop(rec.span("rt:x", 1));
        assert!(rec.totals().is_empty());
    }
}
