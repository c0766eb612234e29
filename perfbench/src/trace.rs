//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the measured crates is
//! instrumented. A disabled [`Tracer`] runs the closure and records
//! nothing, which is how the untraced ops run. Spans are written out
//! once, at the end, as Chrome trace-event JSON (loads in Perfetto)
//! and as a per-layer busy/self table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `simt.launch`.
    pub name: &'static str,
    /// Qualifier such as the kernel name; empty when none.
    pub arg: &'static str,
    /// The op (or set-up) this span belongs to.
    pub group: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on the calling thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    group: u32,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            group: 0,
        }
    }

    /// A tracer that only runs the closures.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the group later spans belong to.
    pub fn set_group(&mut self, group: u32) {
        self.group = group;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_arg(name, "", f)
    }

    /// Runs `f` inside a span called `name` qualified by `arg`.
    pub fn span_arg<T>(
        &mut self,
        name: &'static str,
        arg: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            arg,
            group: self.group,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Forgets the spans a panic left open, so later spans do not nest
    /// under them. Their records stay, ending where they started.
    pub fn abandon_open_spans(&mut self) {
        self.stack.clear();
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct
    /// children's. Spans run on one thread, so children never overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Milliseconds spent in spans named `name` (and qualified by
    /// `arg`, when given), summed per group.
    pub fn busy_ms(&self, name: &str, arg: Option<&str>) -> BTreeMap<u32, f64> {
        let mut per_group = BTreeMap::new();
        for s in &self.spans {
            if s.name == name && arg.is_none_or(|a| s.arg == a) {
                *per_group.entry(s.group).or_insert(0.0) += s.dur_ns() as f64 / 1e6;
            }
        }
        per_group
    }

    /// Chrome trace-event JSON of every span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"layer\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"arg\": \"{}\", \"group\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.arg,
                s.group
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }

    /// Per-layer totals over every span: `name[/arg]` → (calls, busy
    /// ms, self ms), as a JSON object.
    pub fn layer_table_json(&self) -> String {
        let mut table: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let key = if s.arg.is_empty() {
                s.name.to_string()
            } else {
                format!("{}/{}", s.name, s.arg)
            };
            let e = table.entry(key).or_default();
            e.0 += 1;
            e.1 += s.dur_ns() as f64 / 1e6;
            e.2 += own as f64 / 1e6;
        }
        let rows: Vec<String> = table
            .iter()
            .map(|(k, (calls, busy, own))| {
                format!("\"{k}\": {{\"calls\": {calls}, \"busy_ms\": {busy}, \"self_ms\": {own}}}")
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_busy_and_self_time() {
        let mut tr = Tracer::on();
        tr.set_group(3);
        tr.span("outer", |tr| {
            tr.span_arg("inner", "a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span_arg("inner", "b", |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.group == 3));
        let outer = spans[0].dur_ns();
        let inner = spans[1].dur_ns() + spans[2].dur_ns();
        assert_eq!(tr.self_ns()[0], outer - inner);
        let a = tr.busy_ms("inner", Some("a"))[&3];
        assert!(a >= 2.0);
        assert!(tr.busy_ms("inner", None)[&3] >= a);
        assert!(tr.busy_ms("missing", None).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn a_panic_inside_a_span_does_not_capture_later_spans() {
        let mut tr = Tracer::on();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.span("outer", |tr| tr.span("inner", |_| panic!("injected")))
        }));
        assert!(caught.is_err());
        tr.abandon_open_spans();
        tr.span("next", |_| ());
        assert_eq!(tr.spans()[2].name, "next");
        assert_eq!(tr.spans()[2].parent, None);
    }
}
