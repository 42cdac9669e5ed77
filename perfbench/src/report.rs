//! Turning a run into named metrics, and printing them.

use crate::gen::SetupTimes;
use crate::meter::{ratio, Meter};
use crate::pipeline::Traced;
use crate::stats::{median, proc_status_mib, Samples};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and tail for timings, printed beside the value.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: String::new(),
    }
}

/// A quantile of `s` scaled to `scale` units per second, with its sample
/// count and the number of samples beyond it.
fn quantile(name: &'static str, s: &Samples, p: f64, scale: f64, unit: &'static str) -> Metric {
    let mut m = metric(name, s.quantile(p).unwrap_or(0.0) * scale, unit);
    m.note = format!(
        "n={} p{}; {} samples beyond",
        s.len(),
        p * 100.0,
        s.beyond(p)
    );
    m
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Figures printed beside the metrics but left out of the result
    /// line (see [`unbounded`]).
    pub info: Vec<Metric>,
    /// Lines printed before the result: failures, flags, predictions.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(
        meter: &Meter,
        metrics: Vec<Metric>,
        info: Vec<Metric>,
        mut notes: Vec<String>,
    ) -> Report {
        notes.extend(meter.failures.iter().map(|f| format!("FAILED: {f}")));
        Report {
            correct: meter.failed == 0,
            attempted: meter.attempted.max(1),
            failed: meter.failed,
            metrics,
            info,
            notes,
        }
    }

    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for m in self.metrics.iter().chain(&self.info) {
            println!("{:<44} {:>14.6} {:<10} {}", m.name, m.value, m.unit, m.note);
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(meter: &Meter, setups: &[SetupTimes]) -> Vec<Metric> {
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    let mut setup = metric("setup_s", median(&totals), "s");
    setup.note = format!("median of {} set-ups", totals.len());
    let busy = meter.apply_time.as_secs_f64();
    let mut rate = metric(
        "changes_per_s",
        ratio(meter.changes.len() as f64, busy),
        "1/s",
    );
    rate.note = format!(
        "{} changes in {busy:.3} s inside apply",
        meter.changes.len()
    );
    vec![
        setup,
        quantile("change_p50_ms", &meter.changes, 0.5, 1e3, "ms"),
        quantile("change_p90_ms", &meter.changes, 0.9, 1e3, "ms"),
        rate,
        quantile("preview_p50_ms", &meter.previews, 0.5, 1e3, "ms"),
        quantile("preview_p90_ms", &meter.previews, 0.9, 1e3, "ms"),
    ]
}

/// Figures every run prints that are not bounded end-to-end metrics,
/// because across runs they are zero or vary by more than any bound:
/// read latencies (history_readwrite only; a read takes tens of
/// microseconds, most of it cache traffic with the writer's core, and
/// its tail lies among reads that waited for a change),
/// peak RSS (whatif_fanout's transient allocations), the share of
/// affected views preserved (0 on many federation_stream seeds) and the
/// failed-operation ratio (0 when the program is correct; it is the
/// result line's `failed / attempted`).
pub fn unbounded(meter: &Meter) -> Vec<Metric> {
    let mut preserved = metric(
        "views_preserved_ratio",
        meter.views_preserved_ratio(),
        "ratio",
    );
    preserved.note = format!(
        "{} of {} affected view-syncs rewritten",
        meter.rewritten_syncs, meter.affected_syncs
    );
    let mut peak = metric("peak_rss_mib", proc_status_mib("VmHWM"), "MiB");
    peak.note = "VmHWM of the process".into();
    vec![
        quantile("read_p50_us", &meter.reads, 0.5, 1e6, "us"),
        quantile("read_p90_us", &meter.reads, 0.9, 1e6, "us"),
        quantile("read_p99_us", &meter.reads, 0.99, 1e6, "us"),
        peak,
        preserved,
        metric(
            "failed_op_ratio",
            ratio(meter.failed as f64, meter.attempted as f64),
            "ratio",
        ),
    ]
}

/// Per-layer figures gathered outside the span tree.
#[derive(Debug, Default)]
pub struct Extras {
    pub rss_growth_mib_per_change: f64,
    pub preview_at: Samples,
    pub reads_blocked: u64,
    pub reads_total: u64,
    pub read_blocked: Samples,
    pub read_free: Samples,
    pub writes_blocked: u64,
    pub writes_total: u64,
    pub svs_views_preserved_ratio: f64,
    pub gen_lateness_p99_ms: f64,
    /// p50 of the primary call untraced, in the same process, before
    /// tracing starts.
    pub untraced_p50_s: f64,
}

/// The per-layer metrics of a traced run. Layer times are mean self
/// times per replayed operation (a change or preview whose `apply`
/// pipeline was replayed); counts are per replayed operation.
pub fn per_layer(t: &Traced, setups: &[SetupTimes], x: &Extras, meter: &Meter) -> Vec<Metric> {
    let c = &t.counts;
    let ops = c.replays.max(1) as f64;
    let totals = t.tr.self_totals();
    let self_ns = |name: &str| totals.get(name).map_or(0, |&(ns, _)| ns) as f64;
    let calls = |name: &str| totals.get(name).map_or(0, |&(_, n)| n) as f64;
    let per_op_ms = |name: &str| self_ns(name) / ops / 1e6;
    let setup_ms =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3;

    let mut engine = Samples::default();
    let mut fanout_ns = 0u64;
    for (i, s) in t.tr.spans.iter().enumerate() {
        match s.name {
            "core.engine" => engine.push(std::time::Duration::from_nanos(t.tr.duration_ns(i))),
            "parpool.fanout" => fanout_ns += t.tr.duration_ns(i),
            _ => {}
        }
    }
    let engine_ns = engine.sum() * 1e9;
    let evolve_delta_ns =
        self_ns("misd.evolve") + self_ns("core.delta.compute") + self_ns("core.delta.apply");
    let real_ns = c.real_ns as f64;
    let s = &c.search;
    let lookups = (c.cache.hits + c.cache.misses) as f64;

    vec![
        metric("esql.parse_ms", setup_ms(|s| s.esql_parse), "ms"),
        metric("misd.parse_ms", setup_ms(|s| s.misd_parse), "ms"),
        metric("misd.script_parse_ms", setup_ms(|s| s.script_parse), "ms"),
        metric("core.synchronizer.build_ms", setup_ms(|s| s.build), "ms"),
        metric("misd.evolve_ms", per_op_ms("misd.evolve"), "ms"),
        metric("misd.evolve_calls", calls("misd.evolve"), "count"),
        metric(
            "core.delta.compute_ms",
            per_op_ms("core.delta.compute"),
            "ms",
        ),
        metric("core.delta.apply_ms", per_op_ms("core.delta.apply"), "ms"),
        metric(
            "core.delta.covers_shared_ratio",
            ratio(c.covers_shared as f64, c.deltas as f64),
            "ratio",
        ),
        metric(
            "core.delta.pcs_shared_ratio",
            ratio(c.pcs_shared as f64, c.deltas as f64),
            "ratio",
        ),
        metric(
            "core.index.from_cores_ms",
            per_op_ms("core.index.from_cores"),
            "ms",
        ),
        metric(
            "core.index.cache_hits",
            c.cache.hits as f64 / ops,
            "count/op",
        ),
        metric(
            "core.index.cache_misses",
            c.cache.misses as f64 / ops,
            "count/op",
        ),
        metric(
            "core.index.cache_hit_ratio",
            ratio(c.cache.hits as f64, lookups),
            "ratio",
        ),
        metric("core.affected_ms", per_op_ms("core.affected"), "ms"),
        metric(
            "core.affected.views_scanned",
            c.views_scanned as f64 / ops,
            "count/op",
        ),
        metric(
            "core.affected.hit_ratio",
            ratio(c.views_affected as f64, c.views_scanned as f64),
            "ratio",
        ),
        metric("core.engine_ms", engine_ns / ops / 1e6, "ms"),
        quantile("core.engine.view_p50_ms", &engine, 0.5, 1e3, "ms"),
        quantile("core.engine.view_p90_ms", &engine, 0.9, 1e3, "ms"),
        metric("search.generated", s.generated as f64 / ops, "count/op"),
        metric("search.pruned", s.pruned as f64 / ops, "count/op"),
        metric("search.kept", s.kept as f64 / ops, "count/op"),
        metric(
            "search.trees_enumerated",
            s.trees_enumerated as f64 / ops,
            "count/op",
        ),
        metric(
            "search.disconnected_combos",
            s.disconnected_combos as f64 / ops,
            "count/op",
        ),
        metric(
            "search.budget_exhausted",
            c.budget_exhausted as f64 / ops,
            "count/op",
        ),
        metric(
            "search.kept_ratio",
            ratio(s.kept as f64, s.generated as f64),
            "ratio",
        ),
        metric("parpool.fanout_ms", fanout_ns as f64 / ops / 1e6, "ms"),
        metric(
            "parpool.efficiency",
            ratio(engine_ns, c.workers as f64 * fanout_ns as f64),
            "ratio",
        ),
        metric("core.synchronizer.apply_ms", real_ns / ops / 1e6, "ms"),
        metric(
            "core.synchronizer.unattributed_ms",
            (real_ns - c.replay_layers_ns as f64) / ops / 1e6,
            "ms",
        ),
        metric(
            "core.synchronizer.rss_growth_mib_per_change",
            x.rss_growth_mib_per_change,
            "MiB",
        ),
        quantile(
            "core.synchronizer.at_version_us",
            &meter.at_version,
            0.5,
            1e6,
            "us",
        ),
        quantile(
            "core.synchronizer.preview_at_ms",
            &x.preview_at,
            0.5,
            1e3,
            "ms",
        ),
        metric(
            "core.service.reads_blocked_ratio",
            ratio(x.reads_blocked as f64, x.reads_total as f64),
            "ratio",
        ),
        quantile(
            "core.service.read_blocked_p50_us",
            &x.read_blocked,
            0.5,
            1e6,
            "us",
        ),
        quantile(
            "core.service.read_free_p50_us",
            &x.read_free,
            0.5,
            1e6,
            "us",
        ),
        metric(
            "core.service.writes_blocked_ratio",
            ratio(x.writes_blocked as f64, x.writes_total as f64),
            "ratio",
        ),
        metric("core.engine.share", ratio(engine_ns, real_ns), "ratio"),
        metric(
            "misd.evolve_delta.share",
            ratio(evolve_delta_ns, real_ns),
            "ratio",
        ),
        metric(
            "svs.views_preserved_ratio",
            x.svs_views_preserved_ratio,
            "ratio",
        ),
        metric("gen_lateness_p99_ms", x.gen_lateness_p99_ms, "ms"),
        metric(
            "trace.overhead_ratio",
            ratio(t.real.quantile(0.5).unwrap_or(0.0), x.untraced_p50_s),
            "ratio",
        ),
    ]
    .into_iter()
    .chain(unbounded(meter))
    .collect()
}

/// Whether a share predicted to be small (below `small_below`) is.
pub fn prediction(metrics: &[Metric], name: &str, small_below: f64) -> String {
    let value = metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value);
    let verdict = if value < small_below {
        "holds"
    } else {
        "WRONG"
    };
    format!("prediction: {name} = {value:.3} is small (< {small_below}): {verdict}")
}

/// `Err` when a preview moved the version.
pub fn moved(before: usize, after: usize) -> Result<(), String> {
    if before == after {
        Ok(())
    } else {
        Err(format!(
            "a preview moved version() from {before} to {after}"
        ))
    }
}

/// Assemble the report: end-to-end metrics untraced, per-layer metrics
/// (and the share predictions) traced.
#[allow(clippy::too_many_arguments)]
pub fn finish(
    meter: Meter,
    traced: Option<Traced>,
    setups: &[SetupTimes],
    mut extras: Extras,
    untraced: Samples,
    mut notes: Vec<String>,
    workload: &str,
    seed: u64,
) -> Result<Report, String> {
    let Some(t) = traced else {
        let metrics = end_to_end(&meter, setups);
        return Ok(Report::new(&meter, metrics, unbounded(&meter), notes));
    };
    extras.untraced_p50_s = untraced.quantile(0.5).unwrap_or(0.0);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.tsv"));
    t.tr.write_out(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        t.tr.spans.len(),
        path.display()
    ));
    let metrics = per_layer(&t, setups, &extras, &meter);
    // The shares the workloads were chosen to show: the search is a
    // small part of a change in the federation stream, evolution and
    // delta maintenance a small part of a what-if preview.
    match workload {
        "federation_stream" => notes.push(prediction(&metrics, "core.engine.share", 0.1)),
        "whatif_fanout" => notes.push(prediction(&metrics, "misd.evolve_delta.share", 0.1)),
        _ => {}
    }
    Ok(Report::new(&meter, metrics, Vec::new(), notes))
}
