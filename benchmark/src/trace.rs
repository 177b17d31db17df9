//! Spans, kept in memory and written out when the benchmark ends.
//!
//! Three kinds of span share one record shape `{name, op, parent,
//! start_ns, end_ns}`:
//!
//! * the **root** span `op` covers one operation, first call to output
//!   held;
//! * **pipeline** spans wrap the production calls the op makes and lie
//!   inside the root span;
//! * **probe** spans re-run a deeper layer's public function on the op's
//!   own inputs after the op's clock has stopped. Their timestamps lie
//!   after the root span; `parent` names the span whose time they
//!   explain. A probe with no parent is a unit cost (one exponentiation,
//!   one commitment) and stays out of the self-time accounting.
//!
//! A span's self time is its duration less its children's. With the
//! tracer off `begin` returns `None` and nothing is recorded, so the
//! untraced pass pays one branch per span.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::time::{Duration, Instant};

/// Name of the root span.
pub const ROOT: &str = "op";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name: `<layer>.<what>`, or [`ROOT`].
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u32,
    /// The span this one is a (logical) child of.
    pub parent: Option<&'static str>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
}

/// What the spans of the probed ops add up to.
pub struct Breakdown {
    /// Median over probed ops of Σ self times (root excluded) ÷ op time:
    /// below 1 when the op has time no span covers, above 1 when probes
    /// cost more than the span they explain.
    pub closure: f64,
    /// Layer → share of the self time of all probed ops.
    pub shares: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op subsequent spans belong to.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Starts a pipeline span; `None` when tracing is off.
    pub fn begin(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Ends a span started with [`Self::begin`].
    pub fn end(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        start: Option<Instant>,
    ) {
        if let Some(start) = start {
            self.push(name, parent, start, start.elapsed());
        }
    }

    /// Records the root span of the current op from the op's own clock.
    pub fn root(&mut self, start: Instant, elapsed: Duration) {
        if self.enabled {
            self.push(ROOT, None, start, elapsed);
        }
    }

    /// Runs and records a probe.
    pub fn probe<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.push(name, parent, start, start.elapsed());
        out
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        elapsed: Duration,
    ) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns + elapsed.as_nanos() as u64,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span name → op → the summed duration (ms) of the spans of that name
    /// in that op.
    pub fn per_op_ms(&self) -> BTreeMap<&'static str, BTreeMap<u32, f64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default().entry(s.op).or_default() += s.ms();
        }
        out
    }

    /// Self times of the ops in `probed`, summed per layer and compared
    /// with the op's own duration.
    pub fn breakdown(&self, probed: &BTreeSet<u32>) -> Breakdown {
        let mut by_op: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| probed.contains(&s.op)) {
            by_op.entry(s.op).or_default().push(s);
        }
        let mut ratios = Vec::new();
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for spans in by_op.values() {
            let mut total: BTreeMap<&str, f64> = BTreeMap::new();
            let mut children: BTreeMap<&str, f64> = BTreeMap::new();
            // Names reachable from the root through parent links.
            let mut in_tree: BTreeSet<&str> = BTreeSet::from([ROOT]);
            loop {
                let before = in_tree.len();
                for s in spans {
                    if s.parent.is_some_and(|p| in_tree.contains(p)) {
                        in_tree.insert(s.name);
                    }
                }
                if in_tree.len() == before {
                    break;
                }
            }
            for s in spans.iter().filter(|s| in_tree.contains(s.name)) {
                *total.entry(s.name).or_default() += s.ms();
                if let Some(p) = s.parent {
                    *children.entry(p).or_default() += s.ms();
                }
            }
            let Some(&op_ms) = total.get(ROOT) else {
                continue;
            };
            let mut covered = 0.0;
            for (name, ms) in &total {
                if *name == ROOT {
                    continue;
                }
                let own = (ms - children.get(name).copied().unwrap_or(0.0)).max(0.0);
                covered += own;
                *layers.entry(layer_of(name)).or_default() += own;
            }
            ratios.push(covered / op_ms);
        }
        let all: f64 = layers.values().sum();
        Breakdown {
            closure: crate::stats::median(&mut ratios),
            shares: layers
                .into_iter()
                .map(|(l, ms)| (l, if all > 0.0 { ms / all } else { 0.0 }))
                .collect(),
        }
    }

    /// Appends the spans to `path` as JSON lines.
    pub fn append_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => format!("\"{p}\""),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The layer a span name belongs to: its first dotted component, which is
/// the name of the crate the span measures (`pbcd_<layer>`).
pub fn layer_of(name: &str) -> &'static str {
    const LAYERS: [&str; 10] = [
        "core", "ocbe", "group", "commit", "gkm", "math", "policy", "docs", "crypto", "net",
    ];
    let head = name.split('.').next().unwrap_or("");
    LAYERS
        .into_iter()
        .find(|l| *l == head)
        .unwrap_or_else(|| panic!("span {name} names no layer"))
}
