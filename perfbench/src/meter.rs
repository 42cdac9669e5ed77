//! Per-run bookkeeping shared by the workloads: latency samples, the
//! operation and failure counts, output checks, and the counters the
//! traced run turns into per-layer metrics.

use crate::stats::Samples;
use eve_core::{is_evaluable, CacheStats, ChangeOutcome, DeltaSummary, SearchStats, ViewOutcome};
use eve_esql::ViewDefinition;
use eve_misd::{CapabilityChange, MetaKnowledgeBase};
use std::time::Duration;

/// At most this many failure messages are printed.
const MAX_REPORTED: usize = 8;

#[derive(Debug, Default)]
pub struct Meter {
    pub changes: Samples,
    pub previews: Samples,
    pub reads: Samples,
    /// The `at_version` call inside each read.
    pub at_version: Samples,
    /// Summed wall time inside `apply` calls: changes completed over it
    /// is the rate one caller doing nothing else would see.
    pub apply_time: Duration,
    /// Time spent inside timed calls (the benchmark's own checks and
    /// bookkeeping excluded): what a closed loop runs for.
    pub measured: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// View synchronizations a change or preview affected, and how many
    /// of them ended `Rewritten`.
    pub affected_syncs: u64,
    pub rewritten_syncs: u64,
}

impl Meter {
    /// Count one attempted operation; `Err` counts it failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.failures.len() < MAX_REPORTED {
                self.failures.push(msg);
            }
        }
    }

    /// Account a change or preview outcome: count affected and rewritten
    /// view synchronizations, and check that every rewriting evaluates
    /// over the evolved MKB (Def. 1 P2) and that no view failed.
    pub fn outcome(
        &mut self,
        outcome: &ChangeOutcome,
        evaluable: impl Fn(&ViewDefinition) -> bool,
    ) -> Result<(), String> {
        let mut problem = Ok(());
        for (name, o) in &outcome.views {
            match o {
                ViewOutcome::Unchanged | ViewOutcome::Revived => continue,
                ViewOutcome::Rewritten { chosen, .. } => {
                    self.rewritten_syncs += 1;
                    if !evaluable(&chosen.view) {
                        problem = Err(format!(
                            "{}: rewriting of {name} does not evaluate over MKB'",
                            outcome.change
                        ));
                    }
                }
                ViewOutcome::Disabled { .. } => {}
                ViewOutcome::Failed { error, .. } => {
                    problem = Err(format!("{}: view {name} failed: {error}", outcome.change));
                }
            }
            self.affected_syncs += 1;
        }
        problem
    }

    /// Drop the samples taken so far (a warm-up), keeping the operation
    /// and failure counts.
    pub fn reset_samples(&mut self) {
        self.changes = Samples::default();
        self.previews = Samples::default();
        self.reads = Samples::default();
        self.at_version = Samples::default();
        self.apply_time = Duration::ZERO;
        self.measured = Duration::ZERO;
    }

    /// Fold another thread's meter into this one.
    pub fn merge(&mut self, other: Meter) {
        self.changes.extend(&other.changes);
        self.previews.extend(&other.previews);
        self.reads.extend(&other.reads);
        self.at_version.extend(&other.at_version);
        self.apply_time += other.apply_time;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < MAX_REPORTED {
                self.failures.push(f);
            }
        }
        self.affected_syncs += other.affected_syncs;
        self.rewritten_syncs += other.rewritten_syncs;
    }

    pub fn views_preserved_ratio(&self) -> f64 {
        ratio(self.rewritten_syncs as f64, self.affected_syncs as f64)
    }
}

/// Evaluability over `mkb` itself (after a committed change).
pub fn over(mkb: &MetaKnowledgeBase) -> impl Fn(&ViewDefinition) -> bool + '_ {
    move |v| is_evaluable(v, mkb)
}

/// Evaluability over `evolve(mkb, probe)` for a `delete-relation R`
/// probe, without building it: the deletion removes `R` and the
/// constraints on it, and nothing else a view can reference.
pub fn over_without<'a>(
    mkb: &'a MetaKnowledgeBase,
    probe: &'a CapabilityChange,
) -> impl Fn(&ViewDefinition) -> bool + 'a {
    let CapabilityChange::DeleteRelation(gone) = probe else {
        unreachable!("probes are delete-relation changes")
    };
    move |v| !v.uses_relation(gone) && is_evaluable(v, mkb)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counters of the traced run that do not come from spans.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// Calls of the workload's primary kind whose `apply` pipeline was
    /// replayed; calls of the other kind are timed but not replayed.
    pub replays: u64,
    /// Summed wall time of the real calls the replays mirror, and of the
    /// replayed layer calls.
    pub real_ns: u64,
    pub replay_layers_ns: u64,
    pub views_scanned: u64,
    pub views_affected: u64,
    pub covers_shared: u64,
    pub pcs_shared: u64,
    pub deltas: u64,
    pub search: SearchStats,
    pub budget_exhausted: u64,
    /// From the real `ChangeOutcome::cache`.
    pub cache: CacheStats,
    pub workers: usize,
}

impl LayerCounts {
    pub fn delta(&mut self, s: &DeltaSummary) {
        self.deltas += 1;
        self.covers_shared += s.covers_shared as u64;
        self.pcs_shared += s.pcs_shared as u64;
    }

    /// Fold the search statistics of every rewritten view and the real
    /// outcome's cache counters.
    pub fn real_outcome(&mut self, outcome: &ChangeOutcome) {
        self.cache.hits += outcome.cache.hits;
        self.cache.misses += outcome.cache.misses;
        for (_, o) in &outcome.views {
            if let ViewOutcome::Rewritten { stats, .. } = o {
                self.search.generated += stats.generated;
                self.search.pruned += stats.pruned;
                self.search.kept += stats.kept;
                self.search.trees_enumerated += stats.trees_enumerated;
                self.search.disconnected_combos += stats.disconnected_combos;
                self.budget_exhausted += stats.budget_exhausted as u64;
            }
        }
    }
}
