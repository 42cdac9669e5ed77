//! The timed operations the workloads are made of: a change or preview,
//! untraced or traced, and a read of the history.
//!
//! Traced, a call of the workload's primary kind is preceded by a replay
//! of its layer calls on the pre-change state
//! ([`crate::trace::replay`]); the replayed outcomes must equal the real
//! ones, and the real call's wall time minus the replayed layers is the
//! part no public layer call accounts for. Calls of the other kind are
//! timed but not replayed, so per-layer figures describe one kind only.

use crate::meter::{over, LayerCounts, Meter};
use crate::report::moved;
use crate::stats::Samples;
use crate::trace::{replay, State, Tracer};
use eve_core::{ChangeOutcome, CvsOptions, IndexCore, Synchronizer};
use eve_esql::ViewDefinition;
use eve_misd::{CapabilityChange, MetaKnowledgeBase, MisdError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The traced run's state: spans, counters, and the benchmark's own
/// delta-maintained `IndexCore`, advanced in step with the program's.
pub struct Traced {
    pub tr: Tracer,
    pub counts: LayerCounts,
    pub core: IndexCore,
    /// The workload's primary call, and the wall times of its real
    /// calls made while tracing.
    pub primary: Call,
    pub real: Samples,
    next_op: u64,
}

impl Traced {
    pub fn new(tr: Tracer, core: IndexCore, workers: usize, primary: Call) -> Self {
        Traced {
            tr,
            counts: LayerCounts {
                workers,
                ..LayerCounts::default()
            },
            core,
            primary,
            real: Samples::default(),
            next_op: 1,
        }
    }

    pub fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }
}

/// A synchronizer's state before a call, as the replay needs it.
pub struct Pre {
    pub mkb: Arc<MetaKnowledgeBase>,
    pub views: Vec<(String, Arc<ViewDefinition>)>,
    pub disabled: Vec<(String, ViewDefinition)>,
}

impl Pre {
    pub fn of(s: &Synchronizer) -> Pre {
        Pre {
            mkb: s.mkb_snapshot(),
            views: s.view_snapshots(),
            disabled: s
                .disabled_views()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
        }
    }
}

/// Whether a call commits the change (the benchmark's core advances) or
/// only previews it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Apply,
    Preview,
}

impl Call {
    fn span(self) -> &'static str {
        match self {
            Call::Apply => "core.synchronizer.apply",
            Call::Preview => "core.synchronizer.preview",
        }
    }
}

/// Whether a call of `kind` is replayed: traced, and the primary kind.
pub fn replays(traced: Option<&Traced>, kind: Call) -> bool {
    traced.is_some_and(|t| t.primary == kind)
}

/// Time `call` (which must apply or preview `change`). Returns its
/// result, its wall time, and — replayed — whether the replay matched.
/// `pre` is the state before the call; it is needed only when
/// [`replays`] says so.
pub fn timed_change(
    traced: Option<&mut Traced>,
    kind: Call,
    pre: Option<Pre>,
    change: &CapabilityChange,
    opts: &CvsOptions,
    call: impl FnOnce() -> Result<ChangeOutcome, MisdError>,
) -> (Result<ChangeOutcome, String>, Duration, Result<(), String>) {
    let t = match traced {
        Some(t) if t.primary == kind => t,
        traced => {
            let start = Instant::now();
            let result = call();
            let end = Instant::now();
            if let Some(t) = traced {
                let op = t.op_id();
                t.tr.record(kind.span(), None, op, start, end);
            }
            return (
                result.map_err(|e| format!("{change}: {e}")),
                end - start,
                Ok(()),
            );
        }
    };
    let op = t.op_id();
    let pre = pre.expect("a traced call needs its pre-call state");
    let root = t.tr.open("op", None, op);
    let state = State {
        mkb: &pre.mkb,
        core: &t.core,
        views: &pre.views,
        disabled: &pre.disabled,
    };
    let replayed = replay(&mut t.tr, op, root, &state, change, opts);
    let start = Instant::now();
    let result = call();
    let end = Instant::now();
    t.tr.record(kind.span(), Some(root), op, start, end);
    t.tr.close(root);
    let took = end - start;
    t.real.push(took);

    let check = match (&replayed, &result) {
        (Ok(r), Ok(real)) if r.panicked == 0 && r.views == real.views => Ok(()),
        (Err(_), Err(_)) => Ok(()),
        _ => Err(format!(
            "{change}: traced replay differs from the real call"
        )),
    };
    if let (Ok(r), Ok(real)) = (replayed, &result) {
        let c = &mut t.counts;
        c.replays += 1;
        c.real_ns += took.as_nanos() as u64;
        c.replay_layers_ns += r.layers_ns;
        c.views_scanned += pre.views.len() as u64;
        c.views_affected += r.affected as u64;
        c.delta(&r.summary);
        c.real_outcome(real);
        if kind == Call::Apply {
            t.core = r.next_core;
        }
    }
    (result.map_err(|e| format!("{change}: {e}")), took, check)
}

/// What one closed-loop [`step`] measured.
pub struct StepOut {
    pub preview: Option<ChangeOutcome>,
    pub preview_took: Duration,
    pub apply_took: Duration,
}

/// One step of a closed loop: `preview(change)`, then `apply(change)`,
/// both timed into `meter`. Checks: the preview leaves `version()` where
/// it was, the applied outcome equals the preview's, and every rewriting
/// evaluates over MKB′ (Def. 1 P2).
pub fn step(
    sync: &mut Synchronizer,
    change: &CapabilityChange,
    mut traced: Option<&mut Traced>,
    opts: &CvsOptions,
    meter: &mut Meter,
) -> StepOut {
    let before = sync.version();
    let pre = replays(traced.as_deref(), Call::Preview).then(|| Pre::of(sync));
    let (preview, preview_took, replay) = timed_change(
        traced.as_deref_mut(),
        Call::Preview,
        pre,
        change,
        opts,
        || sync.preview(change),
    );
    meter.previews.push(preview_took);
    meter.measured += preview_took;
    let check = preview
        .as_ref()
        .map(|_| ())
        .map_err(Clone::clone)
        .and(replay)
        .and(moved(before, sync.version()));
    meter.op(check);

    let pre = replays(traced.as_deref(), Call::Apply).then(|| Pre::of(sync));
    let (applied, apply_took, replay) =
        timed_change(traced, Call::Apply, pre, change, opts, || {
            sync.apply(change)
        });
    meter.changes.push(apply_took);
    meter.apply_time += apply_took;
    meter.measured += apply_took;
    let check = applied
        .and_then(|o| {
            meter.outcome(&o, over(sync.mkb()))?;
            match &preview {
                Ok(p) if p.views == o.views => Ok(()),
                _ => Err(format!("{change}: apply differs from its preview")),
            }
        })
        .and(replay);
    meter.op(check);

    StepOut {
        preview: preview.ok(),
        preview_took,
        apply_took,
    }
}

/// One read of the history: view `name` as it is now, then
/// `at_version(version)` and the same view on that fork (the fork is
/// dropped inside the timed interval). Returns the read's wall time, the
/// time `at_version` took, and whether every answer was the view and
/// version asked for. A view may be absent: changes disable views.
pub fn read(
    sync: &Synchronizer,
    name: &str,
    version: usize,
) -> (Duration, Duration, Result<(), String>) {
    let start = Instant::now();
    let now = sync.view(name).is_none_or(|v| v.name == name);
    let fork_start = Instant::now();
    let fork = sync.at_version(version);
    let forked = fork_start.elapsed();
    let then = fork
        .as_ref()
        .is_some_and(|f| f.version() == version && f.view(name).is_none_or(|v| v.name == name));
    drop(fork);
    let took = start.elapsed();
    let check = if now && then {
        Ok(())
    } else {
        Err(format!(
            "read of {name} at version {version} answered another"
        ))
    };
    (took, forked, check)
}
