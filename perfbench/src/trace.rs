//! The traced run's span recorder and its replay of the `apply` pipeline.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions, kept in memory, and written out once at the end.
//! The program's own `eve-telemetry` pipeline stays uninstalled.

use eve_core::{
    is_affected, is_evaluable, synchronize_view, CvsOptions, DeltaSummary, IndexCore, MkbDelta,
    MkbIndex, ViewOutcome,
};
use eve_esql::ViewDefinition;
use eve_misd::{evolve, CapabilityChange, MetaKnowledgeBase, MisdError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One timed call: name, interval (ns since the tracer's origin), the
/// span that caused it, and the operation it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Append the spans of a [`Tracer::fork`].
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished call.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, op, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id]
            .end_ns
            .saturating_sub(self.spans[id].start_ns)
    }

    /// Each span's self time: its duration minus the part of its
    /// interval that its children cover (children running in parallel
    /// are counted once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Sum of self time and number of spans, per span name.
    pub fn self_totals(&self) -> BTreeMap<&'static str, (u64, usize)> {
        let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += self_ns;
            e.1 += 1;
        }
        out
    }

    /// Write every span as one tab-separated line
    /// (`id name op parent start_ns end_ns`).
    pub fn write_out(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("id\tname\top\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// The synchronizer state a change is replayed against.
pub struct State<'a> {
    pub mkb: &'a MetaKnowledgeBase,
    pub core: &'a IndexCore,
    pub views: &'a [(String, Arc<ViewDefinition>)],
    pub disabled: &'a [(String, ViewDefinition)],
}

/// What the replayed pipeline produced for one change.
pub struct Replayed {
    /// Per-view outcomes in the shape of `ChangeOutcome::views`.
    pub views: Vec<(String, ViewOutcome)>,
    /// The delta-maintained core of the evolved MKB.
    pub next_core: IndexCore,
    pub summary: DeltaSummary,
    pub affected: usize,
    /// Summed wall time of the timed layer calls.
    pub layers_ns: u64,
    /// Views whose task panicked inside the fan-out.
    pub panicked: usize,
}

/// Replay `Synchronizer::apply`'s layer calls for `change` on `state`, in
/// the order `apply` makes them, recording one span per call under
/// `parent`: `evolve` → `MkbDelta::compute` → `IndexCore::apply_delta`
/// → `MkbIndex::from_cores` → `is_affected` → `synchronize_view` under
/// `parpool::map_in_order`. No memo carry is passed (it is crate-private
/// to the synchronizer), so index and engine times are cold-memo times.
pub fn replay(
    tr: &mut Tracer,
    op: u64,
    parent: usize,
    state: &State<'_>,
    change: &CapabilityChange,
    opts: &CvsOptions,
) -> Result<Replayed, MisdError> {
    let mut layers_ns = 0u64;
    let mut timed = |tr: &mut Tracer, name, start: Instant| {
        let id = tr.record(name, Some(parent), op, start, Instant::now());
        layers_ns += tr.duration_ns(id);
    };

    let t = Instant::now();
    let mkb_prime = evolve(state.mkb, change)?;
    timed(tr, "misd.evolve", t);

    let t = Instant::now();
    let delta = MkbDelta::compute(state.mkb, &mkb_prime, change);
    timed(tr, "core.delta.compute", t);

    let t = Instant::now();
    let next_core = state.core.apply_delta(&delta);
    timed(tr, "core.delta.apply", t);

    let t = Instant::now();
    let index = MkbIndex::from_cores(state.mkb, &mkb_prime, state.core, &next_core, opts, None);
    timed(tr, "core.index.from_cores", t);

    let t = Instant::now();
    let affected: Vec<Arc<ViewDefinition>> = state
        .views
        .iter()
        .filter(|(_, v)| is_affected(v, change))
        .map(|(_, v)| Arc::clone(v))
        .collect();
    timed(tr, "core.affected", t);
    let n_affected = affected.len();

    let fanout = tr.open("parpool.fanout", Some(parent), op);
    let index_ref = &index;
    let results = parpool::map_in_order(opts.effective_parallelism(), affected, |_, view| {
        let start = Instant::now();
        let outcome = synchronize_view(&view, change, index_ref, opts, false, None);
        (outcome, start, Instant::now())
    });
    tr.close(fanout);
    layers_ns += tr.duration_ns(fanout);

    let mut results = results.into_iter();
    let mut views = Vec::with_capacity(state.views.len() + state.disabled.len());
    let mut panicked = 0;
    for (name, view) in state.views {
        if !is_affected(view, change) {
            views.push((name.clone(), ViewOutcome::Unchanged));
            continue;
        }
        match results
            .next()
            .expect("one fan-out result per affected view")
        {
            Ok((outcome, start, end)) => {
                tr.record("core.engine", Some(fanout), op, start, end);
                views.push((name.clone(), outcome));
            }
            Err(_) => panicked += 1,
        }
    }
    for (name, view) in state.disabled {
        if is_evaluable(view, &mkb_prime) {
            views.push((name.clone(), ViewOutcome::Revived));
        }
    }
    Ok(Replayed {
        views,
        next_core,
        summary: delta.summary,
        affected: n_affected,
        layers_ns,
        panicked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut tr = Tracer::new();
        let o = tr.origin;
        let at = |ns: u64| o + std::time::Duration::from_nanos(ns);
        let root = tr.record("root", None, 0, at(0), at(100));
        tr.record("a", Some(root), 0, at(10), at(50));
        tr.record("b", Some(root), 0, at(30), at(70));
        tr.record("c", Some(root), 0, at(90), at(120));
        let st = tr.self_times();
        assert_eq!(st[root], 100 - 60 - 10);
        assert_eq!(st[1], 40);
    }
}
