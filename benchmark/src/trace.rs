//! Outside-in span recorder. Spans are recorded by the benchmark around
//! its own calls into each program layer (`layers.rs`), kept in memory, and
//! written as JSON lines when the run ends. When the tracer is off a span
//! is one branch and the call.
//!
//! All program calls are made from the one client thread, one after the
//! other, so the *layer* spans (every span that is not a `bench.op` root)
//! never overlap unless nested; `bench.op` roots do overlap on the serving
//! workloads, where 8 requests are in flight. Benchmark self time is
//! therefore taken per pass as wall-clock minus the top-level layer spans,
//! not per root.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub const ROOT: &str = "bench.op";
pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Position of the request in its pass (`u32::MAX` outside passes).
    pub req: u32,
}

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that is closed later with [`Tracer::close`] (request
    /// roots, which stay open while other requests are submitted).
    pub fn open(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        if id != NO_PARENT {
            self.spans[id as usize].end_ns = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let req = if s.req == u32::MAX {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            writeln!(
                w,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, parent, req
            )?;
        }
        w.flush()
    }

    /// Per span name: `(self-time ns, durations ns)`. Self time is the span
    /// minus the spans that name it as parent.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, Vec<f64>)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, Vec<f64>)> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += dur.saturating_sub(children);
            e.1.push(dur as f64);
        }
        out
    }

    /// Nanoseconds inside `[from, to)` covered by layer spans whose parent
    /// is a request root or nothing — the time the client thread spent
    /// inside the program.
    pub fn layer_ns(&self, from: usize, to: usize) -> u64 {
        self.spans[from..to]
            .iter()
            .filter(|s| s.name != ROOT)
            .filter(|s| s.parent == NO_PARENT || self.spans[s.parent as usize].name == ROOT)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_still_runs_the_call() {
        let mut t = Tracer::new();
        assert_eq!(t.span("x", NO_PARENT, 0, || 41 + 1), 42);
        let id = t.open(ROOT, NO_PARENT, 0);
        t.close(id);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn self_time_subtracts_children_and_layer_time_skips_roots() {
        let mut t = Tracer::new();
        t.on = true;
        let root = t.open(ROOT, NO_PARENT, 3);
        let outer = t.open("outer", root, 3);
        t.span("inner", outer, 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        t.close(root);
        let by = t.by_name();
        let (self_ns, durs) = &by["outer"];
        assert_eq!(durs.len(), 1);
        assert!(
            *self_ns < 1_500_000,
            "outer self time excludes the 2 ms child: {self_ns}"
        );
        assert!(by["inner"].0 >= 2_000_000);
        // Only `outer` is a top-level layer span; `inner` is nested in it.
        assert_eq!(t.layer_ns(0, t.spans.len()), durs[0] as u64);
        assert_eq!(t.spans[2].parent, outer);
        assert_eq!(t.spans[2].req, 3);
    }
}
