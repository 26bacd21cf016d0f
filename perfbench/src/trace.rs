//! Spans recorded around the benchmark's calls into the program.
//!
//! A span has a name, a start, an end and the span that was open when it
//! started. Spans stay in memory while a traced operation runs and are
//! written out when the benchmark ends; per-layer times are derived from
//! them afterwards (a span's self time is its duration minus the time its
//! children cover).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. Interior mutability lets the benchmark's
/// hook and observer wrappers record into the same tracer the driving code
/// holds while the runner owns `&mut` access to them.
pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&self, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        let id = st.spans.len() as u32;
        let parent = st.open.last().copied();
        st.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        st.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&self, id: u32) {
        let end_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        assert_eq!(st.open.pop(), Some(id), "spans must nest");
        st.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Number of spans recorded.
    pub fn spans_len(&self) -> usize {
        self.state.borrow().spans.len()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        let st = self.state.borrow();
        st.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let st = self.state.borrow();
        let ns: u64 = st
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Summed self time of the spans named `name` (duration minus the
    /// duration of their direct children), in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let st = self.state.borrow();
        let mut ns: i128 = 0;
        for (id, s) in st.spans.iter().enumerate() {
            if s.name == name {
                ns += i128::from(s.duration_ns());
            }
            if let Some(p) = s.parent {
                if st.spans[p as usize].name == name {
                    ns -= i128::from(st.spans[id].duration_ns());
                }
            }
        }
        ns.max(0) as f64 * 1e-9
    }

    /// Every span as one JSON array.
    pub fn spans_json(&self) -> String {
        let st = self.state.borrow();
        let mut out = String::with_capacity(st.spans.len() * 64 + 2);
        out.push('[');
        for (i, s) in st.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }

    /// Distinct span names, in first-seen order.
    pub fn names(&self) -> Vec<&'static str> {
        let st = self.state.borrow();
        let mut names: Vec<&'static str> = Vec::new();
        for s in &st.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
    }
}
