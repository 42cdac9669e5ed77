//! Timed micro-experiments behind `experiments bench-cvs`: medians of
//! the end-to-end synchronization latency across view count × thread
//! count, plus the enumeration-cache ablation, emitted both as a table
//! and as machine-readable `BENCH_cvs.json`.
//!
//! These are coarse wall-clock medians for trend lines and CI smoke —
//! the criterion benches under `benches/` remain the rigorous
//! measurements.

use crate::table::Table;
use eve_core::{
    cvs_delete_relation_indexed, cvs_delete_relation_searched, CvsOptions, IndexCore,
    IndexMaintenance, MkbDelta, MkbIndex, SearchBudget, SearchStats, SynchronizerBuilder,
};
use eve_misd::evolve;
use eve_workload::{
    change_stream, random_views, views_touching, SynthConfig, SynthWorkload, Topology,
};
use std::time::Instant;

/// One measured scenario.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Scenario label (stable across runs, used as the JSON key).
    pub scenario: String,
    /// Number of affected views synchronized per run.
    pub views: usize,
    /// Worker threads used (1 = sequential).
    pub threads: usize,
    /// Median wall-clock nanoseconds per run.
    pub median_ns: u128,
    /// Search counters from one representative run, for scenarios that
    /// exercise the budgeted rewriting search (`None` otherwise).
    pub search: Option<SearchStats>,
}

/// Aggregate phase timing for one span name (`span.<phase>` histogram),
/// as embedded under `"telemetry"` in `BENCH_cvs.json`.
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    /// Span name: `apply`, `view-sync`, `index-from-cores`,
    /// `tree-enumeration`, `ranking`.
    pub phase: String,
    /// Spans recorded.
    pub count: u64,
    /// Total nanoseconds across all spans of this phase.
    pub sum_ns: u64,
    /// Median upper bound (log-scale bucket).
    pub p50_ns: u64,
    /// 95th-percentile upper bound (log-scale bucket).
    pub p95_ns: u64,
    /// Largest single span.
    pub max_ns: u64,
}

/// Phase timings plus cache/search counters captured from one traced
/// pass over the bench workload.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// All registry counters (`index.cache.*`, `search.*`, `sync.*`, …),
    /// sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-phase span timings, sorted by phase name.
    pub phases: Vec<PhaseTiming>,
}

/// Run one traced synchronization pass over the bench workload (8
/// affected views, 4 workers) and read the phase timings and
/// cache/search counters back out of the metrics registry. Installs and
/// uninstalls the process-wide pipeline, so it serializes against other
/// telemetry users and runs *outside* the timed scenarios — the timed
/// rows in [`bench_cvs`] stay on the disabled fast path. `None` when
/// another pipeline is already installed.
pub fn trace_summary() -> Option<TraceSummary> {
    let _serial = eve_telemetry::serial_guard();
    eve_telemetry::install(vec![]).ok()?;
    let w = workload();
    let change = w.delete_change();
    let mut builder = SynchronizerBuilder::new(w.mkb.clone()).with_options(CvsOptions {
        parallelism: Some(4),
        ..CvsOptions::default()
    });
    for v in views_touching(&w.mkb, &w.target, 8, 3, 11) {
        builder = builder.with_view(v).expect("synthetic view is valid");
    }
    let sync = builder.build();
    let result = sync.preview(&change);
    let snapshot = eve_telemetry::uninstall()?;
    result.expect("change applies");
    let phases = snapshot
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            name.strip_prefix("span.").map(|phase| PhaseTiming {
                phase: phase.to_string(),
                count: h.count,
                sum_ns: h.sum_ns,
                p50_ns: h.p50_ns,
                p95_ns: h.p95_ns,
                max_ns: h.max_ns,
            })
        })
        .collect();
    Some(TraceSummary {
        counters: snapshot.counters,
        phases,
    })
}

fn median_ns(iters: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..iters.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn workload() -> SynthWorkload {
    let cfg = SynthConfig {
        n_relations: 64,
        topology: Topology::Random { extra: 16 },
        cover_count: 3,
        view_relations: 3,
        ..SynthConfig::default()
    };
    SynthWorkload::random(&cfg, 7)
}

/// Number of capability changes in the incremental-maintenance stream
/// scenario (`change_stream/*` rows, and the `perf_check --stream` CI
/// guard).
pub const STREAM_CHANGES: usize = 64;

/// The federated stream workload shared by [`stream_ab`] and
/// [`maintain_ab`]: 256 relations in 32 autonomous clusters of 8 (no
/// cross-cluster joins — the paper's large-scale multi-IS setting),
/// a tenth of the relations carrying redundant function-of covers.
fn stream_workload() -> SynthWorkload {
    SynthWorkload::random(
        &SynthConfig {
            n_relations: 256,
            topology: Topology::Clusters { size: 8, extra: 2 },
            cover_count: 3,
            view_relations: 3,
            global_cover_prob: 0.1,
            ..SynthConfig::default()
        },
        13,
    )
}

/// Measure the [`STREAM_CHANGES`]-change capability stream end to end
/// under per-change index rebuilds vs incremental delta maintenance:
/// one synchronizer per mode over the same 128-relation MKB, the same
/// two registered views and the same change sequence. Returns the
/// `(rebuild_ns, incremental_ns)` medians over `iters` runs — the ratio
/// is the speedup of `IndexMaintenance::Incremental`, and because both
/// sides run in-process back to back it is robust to host speed.
///
/// This is the *throughput* number (changes/sec = 64e9 / median). The
/// speedup it shows is deliberately Amdahl-limited: both modes pay the
/// identical `evolve` cost per change (MKB validation + evolution is
/// index-independent), so the end-to-end ratio understates the index
/// win. [`maintain_ab`] isolates the maintenance work itself.
pub fn stream_ab(iters: usize) -> (u128, u128) {
    let sw = stream_workload();
    let stream = change_stream(&sw.mkb, STREAM_CHANGES, 13);
    let views = random_views(&sw.mkb, 2, 3, 13);
    let mut medians = [0u128; 2];
    for (slot, mode) in [
        (0, IndexMaintenance::Rebuild),
        (1, IndexMaintenance::Incremental),
    ] {
        let mut builder = SynchronizerBuilder::new(sw.mkb.clone()).with_options(CvsOptions {
            index_maintenance: mode,
            ..CvsOptions::default()
        });
        for v in &views {
            builder = builder
                .with_view(v.clone())
                .expect("synthetic view is valid");
        }
        let proto = builder.build();
        medians[slot] = median_ns(iters, || {
            // Cloning the prototype is O(views) Arc bumps — the measured
            // work is the 64 applies, not the setup.
            let mut s = proto.clone();
            for c in &stream {
                s.apply(c).expect("stream change applies");
            }
        });
    }
    (medians[0], medians[1])
}

/// Measure index maintenance alone over the same [`STREAM_CHANGES`]
/// stream: per change, a from-scratch [`MkbIndex::new`] vs the delta
/// path ([`MkbDelta::compute`] → [`IndexCore::apply_delta`] →
/// [`MkbIndex::from_cores`]). The evolved MKB chain is precomputed
/// outside the timed region, so the returned `(rebuild_ns, delta_ns)`
/// medians compare exactly the work `IndexMaintenance` switches — this
/// is the ratio the `perf_check --stream` CI guard holds at ≥ 5x.
pub fn maintain_ab(iters: usize) -> (u128, u128) {
    let sw = stream_workload();
    let stream = change_stream(&sw.mkb, STREAM_CHANGES, 13);
    let opts = CvsOptions::default();
    let mut states = Vec::with_capacity(stream.len() + 1);
    states.push(sw.mkb.clone());
    for c in &stream {
        let next = evolve(states.last().expect("nonempty"), c).expect("stream change applies");
        states.push(next);
    }
    let rebuild = median_ns(iters, || {
        for (i, _c) in stream.iter().enumerate() {
            std::hint::black_box(MkbIndex::new(&states[i], &states[i + 1], &opts));
        }
    });
    let core0 = IndexCore::build(&states[0]);
    let delta = median_ns(iters, || {
        let mut core = core0.clone();
        for (i, c) in stream.iter().enumerate() {
            let d = MkbDelta::compute(&states[i], &states[i + 1], c);
            let next = core.apply_delta(&d);
            std::hint::black_box(MkbIndex::from_cores(
                &states[i],
                &states[i + 1],
                &core,
                &next,
                &opts,
                None,
            ));
            core = next;
        }
    });
    (rebuild, delta)
}

/// Run the scenarios: the parallel fan-out at 64 affected views across
/// 1/2/4/8 worker threads, and the sequential cache ablation (8 views
/// against one shared index, memo tables on vs off).
///
/// Thread-count rows only show speedups when the host actually has
/// spare cores — on a single-CPU container the sweep degenerates to
/// measuring pool overhead (a few percent).
pub fn bench_cvs(quick: bool) -> Vec<PerfRow> {
    let iters = if quick { 5 } else { 15 };
    let w = workload();
    let change = w.delete_change();
    let mut rows = Vec::new();

    const VIEWS: usize = 64;
    let views = views_touching(&w.mkb, &w.target, VIEWS, 3, 11);
    for threads in [1usize, 2, 4, 8] {
        let mut builder = SynchronizerBuilder::new(w.mkb.clone()).with_options(CvsOptions {
            parallelism: Some(threads),
            ..CvsOptions::default()
        });
        for v in &views {
            builder = builder
                .with_view(v.clone())
                .expect("synthetic view is valid");
        }
        let sync = builder.build();
        let ns = median_ns(iters, || {
            sync.preview(&change).expect("change applies");
        });
        rows.push(PerfRow {
            scenario: format!("parallel_sync/t{threads}"),
            views: VIEWS,
            threads,
            median_ns: ns,
            search: None,
        });
    }

    let mkb2 = evolve(&w.mkb, &change).expect("target described");
    let opts = CvsOptions::default();
    for (label, cached) in [("cache_off", false), ("cache_on", true)] {
        let ns = median_ns(iters, || {
            let index = MkbIndex::new(&w.mkb, &mkb2, &opts);
            let index = if cached { index } else { index.without_cache() };
            for _ in 0..8 {
                cvs_delete_relation_indexed(&w.view, &w.target, &index, &opts)
                    .expect("workload is synchronizable");
            }
        });
        rows.push(PerfRow {
            scenario: format!("sequential_8_views/{label}"),
            views: 8,
            threads: 1,
            median_ns: ns,
            search: None,
        });
    }

    // Budgeted-search ablation on the wide-MKB/high-fanout workload: many
    // deep cover combinations, of which the shallow one is structurally
    // dominant. Exhaustive search enumerates every combination's trees;
    // `top_k = 1` lets the admissible bound cut the deep combinations
    // before their trees are ever enumerated.
    let wide = SynthWorkload::wide_mkb(4, 3);
    let wide_change = wide.delete_change();
    let wide_mkb2 = evolve(&wide.mkb, &wide_change).expect("target described");
    for (label, budget) in [
        ("exhaustive", SearchBudget::unlimited()),
        ("budgeted_top1", SearchBudget::top_k(1)),
    ] {
        let wopts = CvsOptions {
            budget,
            ..CvsOptions::default()
        };
        let run = || {
            let index = MkbIndex::new(&wide.mkb, &wide_mkb2, &wopts);
            cvs_delete_relation_searched(&wide.view, &wide.target, &index, &wopts, false, None)
                .expect("wide workload is synchronizable")
        };
        let stats = run().stats;
        let ns = median_ns(iters, || {
            run();
        });
        rows.push(PerfRow {
            scenario: format!("wide_mkb/{label}"),
            views: 1,
            threads: 1,
            median_ns: ns,
            search: Some(stats),
        });
    }

    // Incremental index maintenance vs per-change rebuild on the same
    // 64-change capability stream (the tentpole A/B; `median_ns` is for
    // the whole stream, so changes/sec = 64e9 / median_ns).
    let (rebuild_ns, incremental_ns) = stream_ab(iters);
    for (label, ns) in [("rebuild", rebuild_ns), ("incremental", incremental_ns)] {
        rows.push(PerfRow {
            scenario: format!("change_stream/{label}"),
            views: 2,
            threads: 1,
            median_ns: ns,
            search: None,
        });
    }
    rows
}

/// Render the rows as a table, with the t1→tN speedups called out.
pub fn render(rows: &[PerfRow]) -> String {
    let mut t = Table::new(&["scenario", "views", "threads", "median ns", "vs baseline"]);
    let base_parallel = rows
        .iter()
        .find(|r| r.scenario == "parallel_sync/t1")
        .map(|r| r.median_ns);
    let base_cache = rows
        .iter()
        .find(|r| r.scenario == "sequential_8_views/cache_off")
        .map(|r| r.median_ns);
    let base_wide = rows
        .iter()
        .find(|r| r.scenario == "wide_mkb/exhaustive")
        .map(|r| r.median_ns);
    let base_stream = rows
        .iter()
        .find(|r| r.scenario == "change_stream/rebuild")
        .map(|r| r.median_ns);
    for r in rows {
        let base = if r.scenario.starts_with("parallel_sync") {
            base_parallel
        } else if r.scenario.starts_with("wide_mkb") {
            base_wide
        } else if r.scenario.starts_with("change_stream") {
            base_stream
        } else {
            base_cache
        };
        let speedup = match base {
            Some(b) if r.median_ns > 0 => format!("{:.2}x", b as f64 / r.median_ns as f64),
            _ => "-".to_string(),
        };
        t.push(&[
            r.scenario.clone(),
            r.views.to_string(),
            r.threads.to_string(),
            r.median_ns.to_string(),
            speedup,
        ]);
    }
    format!(
        "bench-cvs — parallel per-view synchronization & enumeration cache\n\n{}",
        t.render()
    )
}

/// Hand-rolled JSON (the environment has no serde): one object per row,
/// plus an optional `"telemetry"` section embedding the traced pass's
/// phase timings and cache/search counters. Scenario labels and metric
/// names contain no characters needing escapes.
pub fn to_json(rows: &[PerfRow], trace: Option<&TraceSummary>) -> String {
    let mut out = String::from("{\n  \"bench\": \"cvs\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let search = match &r.search {
            Some(s) => format!(
                ", \"search\": {{\"generated\": {}, \"pruned\": {}, \"kept\": {}, \"trees_enumerated\": {}, \"budget_exhausted\": {}}}",
                s.generated, s.pruned, s.kept, s.trees_enumerated, s.budget_exhausted
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"views\": {}, \"threads\": {}, \"median_ns\": {}{}}}{}\n",
            r.scenario,
            r.views,
            r.threads,
            r.median_ns,
            search,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    match trace {
        None => out.push_str("  ]\n}\n"),
        Some(t) => {
            out.push_str("  ],\n  \"telemetry\": {\n    \"counters\": {");
            for (i, (name, value)) in t.counters.iter().enumerate() {
                let sep = if i + 1 < t.counters.len() { ", " } else { "" };
                out.push_str(&format!("\"{name}\": {value}{sep}"));
            }
            out.push_str("},\n    \"phases\": {\n");
            for (i, p) in t.phases.iter().enumerate() {
                out.push_str(&format!(
                    "      \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"max_ns\": {}}}{}\n",
                    p.phase,
                    p.count,
                    p.sum_ns,
                    p.p50_ns,
                    p.p95_ns,
                    p.max_ns,
                    if i + 1 < t.phases.len() { "," } else { "" }
                ));
            }
            out.push_str("    }\n  }\n}\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_well_formed() {
        let rows = vec![
            PerfRow {
                scenario: "parallel_sync/t1".into(),
                views: 64,
                threads: 1,
                median_ns: 1000,
                search: None,
            },
            PerfRow {
                scenario: "parallel_sync/t4".into(),
                views: 64,
                threads: 4,
                median_ns: 400,
                search: None,
            },
        ];
        let j = to_json(&rows, None);
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        assert_eq!(j.matches("\"scenario\"").count(), 2);
        assert_eq!(j.matches(',').count(), 8, "{j}");
        let rendered = render(&rows);
        assert!(rendered.contains("2.50x"), "{rendered}");
    }

    #[test]
    fn json_embeds_trace_summary_when_present() {
        let rows = vec![PerfRow {
            scenario: "parallel_sync/t1".into(),
            views: 64,
            threads: 1,
            median_ns: 1000,
            search: None,
        }];
        let trace = TraceSummary {
            counters: vec![
                ("index.cache.hits".into(), 9),
                ("search.trees_enumerated".into(), 4),
            ],
            phases: vec![PhaseTiming {
                phase: "apply".into(),
                count: 1,
                sum_ns: 1_000_000,
                p50_ns: 1_048_576,
                p95_ns: 1_048_576,
                max_ns: 1_000_000,
            }],
        };
        let j = to_json(&rows, Some(&trace));
        assert!(
            j.contains("\"counters\": {\"index.cache.hits\": 9, \"search.trees_enumerated\": 4}"),
            "{j}"
        );
        assert!(
            j.contains(
                "\"apply\": {\"count\": 1, \"sum_ns\": 1000000, \
                 \"p50_ns\": 1048576, \"p95_ns\": 1048576, \"max_ns\": 1000000}"
            ),
            "{j}"
        );
        assert!(j.trim_end().ends_with('}'), "{j}");
    }

    /// The traced pass must surface every phase of the pipeline and
    /// nonzero cache/search counters.
    #[test]
    fn trace_summary_covers_all_phases() {
        let t = trace_summary().expect("telemetry pipeline available");
        let phases: Vec<&str> = t.phases.iter().map(|p| p.phase.as_str()).collect();
        for phase in ["apply", "view-sync", "index-from-cores", "ranking"] {
            assert!(phases.contains(&phase), "missing {phase}: {phases:?}");
        }
        assert!(t.phases.iter().all(|p| p.count > 0 && p.sum_ns > 0));
        let counter = |n: &str| {
            t.counters
                .iter()
                .find(|(name, _)| name == n)
                .map(|&(_, v)| v)
        };
        assert_eq!(counter("index.delta_builds"), Some(1));
        assert_eq!(counter("index.delta_applies"), Some(1));
        assert_eq!(counter("sync.changes"), Some(1));
        assert!(counter("search.candidates_generated").unwrap_or(0) > 0);
        assert!(
            counter("index.cache.hits").unwrap_or(0) + counter("index.cache.misses").unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn json_embeds_search_stats_when_present() {
        let rows = vec![PerfRow {
            scenario: "wide_mkb/budgeted_top1".into(),
            views: 1,
            threads: 1,
            median_ns: 500,
            search: Some(SearchStats {
                generated: 3,
                pruned: 4,
                kept: 1,
                trees_enumerated: 2,
                disconnected_combos: 0,
                budget_exhausted: false,
            }),
        }];
        let j = to_json(&rows, None);
        assert!(
            j.contains(
                "\"search\": {\"generated\": 3, \"pruned\": 4, \"kept\": 1, \
                 \"trees_enumerated\": 2, \"budget_exhausted\": false}"
            ),
            "{j}"
        );
    }

    #[test]
    fn quick_bench_produces_all_scenarios() {
        let rows = bench_cvs(true);
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r.median_ns > 0));
        let wide: Vec<_> = rows
            .iter()
            .filter(|r| r.scenario.starts_with("wide_mkb/"))
            .collect();
        assert_eq!(wide.len(), 2);
        assert!(wide.iter().all(|r| r.search.is_some()));
        let stream: Vec<_> = rows
            .iter()
            .filter(|r| r.scenario.starts_with("change_stream/"))
            .collect();
        assert_eq!(stream.len(), 2);
    }

    /// The tentpole acceptance criterion: on a 64-change stream, delta
    /// apply (compute → `apply_delta` → `from_cores`) beats per-change
    /// from-scratch index rebuilds by at least 5x. Ratio of two
    /// in-process medians, so host speed cancels.
    #[test]
    fn incremental_maintenance_beats_rebuild_at_least_5x() {
        let (rebuild, delta) = maintain_ab(3);
        let ratio = rebuild as f64 / delta as f64;
        assert!(
            ratio >= 5.0,
            "delta apply {delta}ns vs rebuild {rebuild}ns: only {ratio:.2}x"
        );
    }

    /// End to end — `evolve` and view sync included, identical in both
    /// modes — the incremental synchronizer must still win clearly
    /// (Amdahl caps this well below the index-only ratio).
    #[test]
    fn incremental_stream_is_faster_end_to_end() {
        let (rebuild, incremental) = stream_ab(3);
        let ratio = rebuild as f64 / incremental as f64;
        assert!(
            ratio >= 2.0,
            "incremental {incremental}ns vs rebuild {rebuild}ns: only {ratio:.2}x end to end"
        );
    }

    /// The acceptance criterion for the budgeted search on the wide-MKB
    /// workload: `top_k = 1` visits at least 5x fewer candidates than the
    /// exhaustive run while still returning the same best rewriting.
    #[test]
    fn budgeted_search_prunes_wide_mkb_at_least_5x() {
        let wide = SynthWorkload::wide_mkb(4, 3);
        let mkb2 = evolve(&wide.mkb, &wide.delete_change()).expect("target described");
        let run = |budget: SearchBudget| {
            let opts = CvsOptions {
                budget,
                ..CvsOptions::default()
            };
            let index = MkbIndex::new(&wide.mkb, &mkb2, &opts);
            cvs_delete_relation_searched(&wide.view, &wide.target, &index, &opts, false, None)
                .expect("wide workload is synchronizable")
        };
        let exhaustive = run(SearchBudget::unlimited());
        let budgeted = run(SearchBudget::top_k(1));
        assert!(!exhaustive.stats.budget_exhausted);
        assert_eq!(budgeted.rewritings.len(), 1);
        assert_eq!(budgeted.rewritings[0], exhaustive.rewritings[0]);
        assert!(
            budgeted.stats.generated * 5 <= exhaustive.stats.generated,
            "budgeted generated {} vs exhaustive {}",
            budgeted.stats.generated,
            exhaustive.stats.generated
        );
        assert!(budgeted.stats.pruned > 0);
    }
}
