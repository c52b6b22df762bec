//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span carries its name, its length and how many operations it
//! covered — batched spans time many cheap calls at once, so the clock's
//! own cost stays out of per-operation figures.

use std::time::Instant;

struct Span {
    name: &'static str,
    ns: u64,
    ops: u64,
}

pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { spans: Vec::new() }
    }

    /// Runs `f` inside a span of `ops` operations.
    pub fn span<T>(&mut self, name: &'static str, ops: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, ops);
        out
    }

    /// Records a span that began at `start` and ends now (when the
    /// operation count is only known after the call).
    pub fn record(&mut self, name: &'static str, start: Instant, ops: u64) {
        let ns = start.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, ns, ops });
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.ns as f64).collect()
    }

    /// Total nanoseconds over total operations of the spans called `name`.
    pub fn ns_per_op(&self, name: &str) -> f64 {
        let (ns, ops) = self
            .named(name)
            .fold((0u64, 0u64), |(ns, ops), s| (ns + s.ns, ops + s.ops));
        ns as f64 / ops.max(1) as f64
    }

    /// Total nanoseconds of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.ns as f64).sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}
