//! In-memory span recorder for the traced run.
//!
//! Spans are kept in memory — name, start, end and parent — and written out
//! once at exit.  Spans are opened only around calls from this crate into a
//! layer's public functions; intervals a layer reports itself (the solver's
//! per-step phase timers, the engine's request segments) are recorded as
//! already-closed spans under the span that was open around the call.  A
//! disabled tracer records nothing and costs one branch per call.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `euler.jacobian`.
    pub name: String,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start time.
    pub start_s: f64,
    /// End time.
    pub end_s: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Single-threaded span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// `t` in seconds since the tracer was created.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Open a span under the innermost open one.
    pub fn enter(&self, name: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_s = self.at(Instant::now());
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_string(),
            parent,
            start_s,
            end_s: start_s,
        });
        let id = spans.len() - 1;
        self.open.borrow_mut().push(id);
        Some(id)
    }

    /// Close a span opened by [`Tracer::enter`] (and any left open inside
    /// it).
    pub fn exit(&self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end_s = self.at(Instant::now());
        let mut open = self.open.borrow_mut();
        if let Some(pos) = open.iter().rposition(|&o| o == id) {
            let mut spans = self.spans.borrow_mut();
            for &o in &open[pos..] {
                spans[o].end_s = end_s;
            }
            open.truncate(pos);
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record an already-closed interval under `parent`.
    pub fn record_under(
        &self,
        parent: Option<usize>,
        name: &str,
        start_s: f64,
        end_s: f64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_string(),
            parent,
            start_s,
            end_s: end_s.max(start_s),
        });
        Some(spans.len() - 1)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut kids: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start_s.max(ps.start_s), s.end_s.min(ps.end_s));
            if b > a {
                kids[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, iv)| {
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(a, b) in iv.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            (s.dur() - covered).max(0.0)
        })
        .collect()
}

/// Spans aggregated by their path of names from the root.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRow {
    /// Names from the root, joined by `/`.
    pub path: String,
    /// Nesting depth (0 = root).
    pub depth: usize,
    /// Spans on this path.
    pub calls: usize,
    /// Summed duration.
    pub total_s: f64,
    /// Summed self time.
    pub self_s: f64,
    /// Whether any span on this path has children.
    pub has_children: bool,
}

/// Aggregate `spans` into one row per path, parents before children, in
/// first-seen order.
pub fn tree(spans: &[Span]) -> Vec<TreeRow> {
    let selfs = self_times(spans);
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    let mut parent_has_kids = vec![false; spans.len()];
    for s in spans {
        let path = match s.parent {
            Some(p) => {
                parent_has_kids[p] = true;
                format!("{}/{}", paths[p], s.name)
            }
            None => s.name.clone(),
        };
        paths.push(path);
    }
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut rows: Vec<TreeRow> = Vec::new();
    let mut children: Vec<Vec<usize>> = Vec::new();
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let row = match index.get(paths[i].as_str()) {
            Some(&r) => r,
            None => {
                let r = rows.len();
                rows.push(TreeRow {
                    path: paths[i].clone(),
                    depth: paths[i].matches('/').count(),
                    calls: 0,
                    total_s: 0.0,
                    self_s: 0.0,
                    has_children: false,
                });
                children.push(Vec::new());
                match s.parent {
                    Some(p) => {
                        let pr = index[paths[p].as_str()];
                        children[pr].push(r);
                    }
                    None => roots.push(r),
                }
                index.insert(paths[i].as_str(), r);
                r
            }
        };
        let r = &mut rows[row];
        r.calls += 1;
        r.total_s += s.dur();
        r.self_s += selfs[i];
        r.has_children |= parent_has_kids[i];
    }
    fn walk(r: usize, rows: &[TreeRow], children: &[Vec<usize>], out: &mut Vec<TreeRow>) {
        out.push(rows[r].clone());
        for &c in &children[r] {
            walk(c, rows, children, out);
        }
    }
    let mut out = Vec::with_capacity(rows.len());
    for r in roots {
        walk(r, &rows, &children, &mut out);
    }
    out
}

/// Time inside spans that have children but is covered by none of them.
pub fn unattributed_s(spans: &[Span]) -> f64 {
    tree(spans)
        .iter()
        .filter(|r| r.has_children)
        .map(|r| r.self_s)
        .sum()
}

/// The span tree as a table: one row per path with calls, total and self
/// seconds, and after the children of every inner path an explicit
/// `(unattributed)` row holding that path's self time, so each parent's
/// total is the sum of the rows directly beneath it.
pub fn render(spans: &[Span]) -> String {
    let rows = tree(spans);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52} {:>8} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    );
    let pending_close = |out: &mut String, row: &TreeRow| {
        let _ = writeln!(
            out,
            "{:<52} {:>8} {:>12.6} {:>12.6}",
            format!("{}(unattributed)", "  ".repeat(row.depth + 1)),
            "",
            row.self_s,
            row.self_s
        );
    };
    let mut stack: Vec<&TreeRow> = Vec::new();
    for row in &rows {
        while let Some(top) = stack.last() {
            if top.depth >= row.depth {
                pending_close(&mut out, top);
                stack.pop();
            } else {
                break;
            }
        }
        let name = row.path.rsplit('/').next().unwrap_or(&row.path);
        let _ = writeln!(
            out,
            "{:<52} {:>8} {:>12.6} {:>12.6}",
            format!("{}{}", "  ".repeat(row.depth), name),
            row.calls,
            row.total_s,
            row.self_s
        );
        if row.has_children {
            stack.push(row);
        }
    }
    while let Some(top) = stack.pop() {
        pending_close(&mut out, top);
    }
    out
}

/// The spans as JSON: `{"workload":..,"seed":..,"spans":[{"id","name",
/// "parent","start_s","end_s"},..]}`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
            s.name, s.start_s, s.end_s
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, a: f64, b: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            start_s: a,
            end_s: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 3.0, 6.0),  // overlaps a by 1
            span("c", Some(0), 9.0, 12.0), // clipped to the parent
        ];
        let s = self_times(&spans);
        assert!((s[0] - (10.0 - 5.0 - 1.0)).abs() < 1e-12);
        assert_eq!(s[1], 3.0);
        assert!((unattributed_s(&spans) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tree_rows_add_up() {
        let spans = vec![
            span("w", None, 0.0, 10.0),
            span("solve", Some(0), 0.0, 8.0),
            span("euler.residual", Some(1), 0.0, 1.0),
            span("euler.residual", Some(1), 2.0, 3.0),
            span("solver.krylov", Some(1), 3.0, 7.0),
        ];
        let rows = tree(&spans);
        let paths: Vec<&str> = rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "w",
                "w/solve",
                "w/solve/euler.residual",
                "w/solve/solver.krylov"
            ]
        );
        let solve = &rows[1];
        let kids: f64 = rows[2..].iter().map(|r| r.total_s).sum();
        assert!((kids + solve.self_s - solve.total_s).abs() < 1e-12);
        assert_eq!(rows[2].calls, 2);
        let text = render(&spans);
        assert_eq!(text.matches("(unattributed)").count(), 2);
    }

    #[test]
    fn tracer_nests_and_records_nothing_when_off() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || ());
        });
        t.record_under(Some(0), "given", 0.0, 0.0);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(to_json("w", 1, &s).contains("\"name\":\"inner\",\"parent\":0"));
        let off = Tracer::new(false);
        off.span("x", || ());
        assert!(off.spans().is_empty());
    }
}
