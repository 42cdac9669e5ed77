//! `whatif_fanout`: one caller asks what-if questions — previews of
//! `delete-relation R` over a seeded round-robin of every relation —
//! against [`MKBS`] independent 256-relation MKBs, each with 128 views of
//! which 64 touch one designated target, with two workers.
//!
//! Each preview affects many views, so the time goes to `core::engine`
//! (R-mapping, R-replacement, tree enumeration, ranking, extent) and the
//! `parpool` fan-out. Each step previews a question, commits it with
//! `apply` ([`crate::pipeline::step`]), so the change metrics have
//! samples here too, and undoes the commit with `rollback_to(0)`
//! (untimed), so the state is the same for every question.
//!
//! Every round asks each question once, so a run times each question
//! several times. The end-to-end figures are over the questions, each at
//! the median of its timings.

use crate::gen::{self, Generated};
use crate::meter::{ratio, Meter};
use crate::pipeline::{step, Call, Traced};
use crate::report::{finish, Extras, Report};
use crate::stats::Samples;
use crate::trace::Tracer;
use eve_core::{ChangeOutcome, CvsOptions, IndexCore, Synchronizer, ViewOutcome};
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Independent MKBs a run asks its questions of. The slowest tenth of
/// one MKB's 256 questions depends on how that MKB's views happen to
/// overlap; pooling several keeps the p90 from following the seed.
const MKBS: usize = 4;

/// A hash of an outcome's per-view results, streamed from their `Debug`
/// text without building it.
fn digest(outcome: &ChangeOutcome) -> u64 {
    struct HashWriter(DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut w = HashWriter(DefaultHasher::new());
    write!(w, "{:?}", outcome.views).expect("hashing cannot fail");
    w.0.finish()
}

/// One sample per question: the median of its timings.
fn medians<'a>(per_question: impl Iterator<Item = &'a Samples>) -> Samples {
    let mut out = Samples::default();
    for m in per_question.filter_map(|s| s.quantile(0.5)) {
        out.push(Duration::from_secs_f64(m));
    }
    out
}

fn with_workers(opts: CvsOptions, workers: usize) -> CvsOptions {
    CvsOptions {
        parallelism: Some(workers),
        ..opts
    }
}

/// SVS reference: count the views SVS rewrites, and fail on any view SVS
/// rewrites that CVS disables (CVS must succeed wherever SVS does).
fn svs_compare(
    svs: &Synchronizer,
    cvs: &ChangeOutcome,
    counts: &mut (u64, u64),
) -> Result<(), String> {
    let reference = svs
        .preview(&cvs.change)
        .map_err(|e| format!("SVS {}: {e}", cvs.change))?;
    for ((name, s), (_, c)) in reference.views.iter().zip(&cvs.views) {
        if matches!(s, ViewOutcome::Unchanged | ViewOutcome::Revived) {
            continue;
        }
        counts.1 += 1;
        if matches!(s, ViewOutcome::Rewritten { .. }) {
            counts.0 += 1;
            if !matches!(c, ViewOutcome::Rewritten { .. }) {
                return Err(format!("{}: SVS rewrites {name}, CVS does not", cvs.change));
            }
        }
    }
    Ok(())
}

/// One MKB of the run, with its synchronizers and per-question records.
struct Instance {
    gen: Generated,
    sync: Synchronizer,
    /// The benchmark's own index of the MKB (traced runs).
    core: Option<IndexCore>,
    /// The same MKB and views under `CvsOptions::svs_baseline()` (traced
    /// runs).
    svs: Option<Synchronizer>,
    digests: Vec<Option<u64>>,
    /// Each question's untraced timings after the warm-up: (preview,
    /// apply).
    timings: Vec<(Samples, Samples)>,
}

impl Instance {
    fn new(gen: Generated, sync: Synchronizer, trace: bool) -> Result<Self, String> {
        let n = gen.probes.len();
        let svs = if trace {
            let svs_opts = with_workers(CvsOptions::svs_baseline(), WORKERS);
            Some(gen::setup(&gen.texts, svs_opts, None)?.0.sync)
        } else {
            None
        };
        Ok(Instance {
            core: trace.then(|| IndexCore::build(sync.mkb())),
            svs,
            sync,
            gen,
            digests: vec![None; n],
            timings: vec![Default::default(); n],
        })
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let opts = with_workers(CvsOptions::default(), WORKERS);
    let mut tracer = trace.then(Tracer::new);
    // Set-up time is measured on the first MKB; every MKB is built from
    // its text the same way. Untraced, set-ups are spread over the run
    // (see `gen::Setups`).
    let share = if trace { 1.0 } else { 0.0 };
    let mut setups = gen::Setups::default();
    let mut instances = Vec::with_capacity(MKBS);
    for k in 0..MKBS as u64 {
        let gen = gen::whatif_fanout(seed.wrapping_mul(MKBS as u64).wrapping_add(k));
        let parsed = if k == 0 {
            let (parsed, times) = gen::setup_repeated(&gen, opts, tracer.as_mut(), share)?;
            setups = times;
            parsed
        } else {
            gen::setup_checked(&gen, opts)?
        };
        instances.push(Instance::new(gen, parsed.sync, trace)?);
    }
    let n_views = instances[0].sync.views().count();
    // Each round asks every question of every MKB once, MKB by MKB.
    let order: Vec<(usize, usize)> = instances
        .iter()
        .enumerate()
        .flat_map(|(k, x)| (0..x.gen.probes.len()).map(move |p| (k, p)))
        .collect();
    let round = order.len();

    let mut meter = Meter::default();
    let mut traced: Option<Traced> = None;
    let mut traced_mkb = usize::MAX;
    let mut untraced = Samples::default();
    let mut svs_counts = (0u64, 0u64);
    let deadline = Duration::from_secs_f64(seconds);
    let mut loop_start = Instant::now();
    // Untraced, the run measures time inside the timed calls; traced, the
    // loop's wall time, so replays do not stretch the run.
    let clock = |meter: &Meter, start: Instant| {
        if trace {
            start.elapsed()
        } else {
            meter.measured
        }
    };
    for i in 0.. {
        // The first round of questions is a warm-up and is not measured.
        if i == round {
            meter.reset_samples();
            loop_start = Instant::now();
        }
        if i >= round && clock(&meter, loop_start) >= deadline {
            break;
        }
        if i >= round && !trace {
            let progress = meter.measured.as_secs_f64() / seconds;
            setups.top_up(&instances[0].gen, opts, progress)?;
        }
        let (k, p) = order[i % round];
        let x = &mut instances[k];
        if let Some(core) = &x.core {
            match traced.as_mut() {
                Some(t) if traced_mkb != k => t.core = core.clone(),
                Some(_) => {}
                None if i >= round && clock(&meter, loop_start) >= deadline / 3 => {
                    let tr = tracer.take().expect("tracer set up");
                    traced = Some(Traced::new(tr, core.clone(), WORKERS, Call::Preview));
                }
                None => {}
            }
            traced_mkb = k;
        }
        let probe = &x.gen.probes[p];
        let out = step(&mut x.sync, probe, traced.as_mut(), &opts, &mut meter);
        if i >= round && traced.is_none() {
            untraced.push(out.preview_took);
            x.timings[p].0.push(out.preview_took);
            x.timings[p].1.push(out.apply_took);
        }
        if let Some(o) = out.preview {
            x.digests[p].get_or_insert_with(|| digest(&o));
            if let (Some(svs), true) = (&x.svs, traced.is_some()) {
                let check = svs_compare(svs, &o, &mut svs_counts);
                meter.op(check);
            }
        }
        x.sync.rollback_to(0);
    }

    setups.top_up(&instances[0].gen, opts, 1.0)?;

    // The outcomes must not depend on the worker count.
    for x in &instances {
        let sequential = gen::setup(&x.gen.texts, with_workers(CvsOptions::default(), 1), None)?
            .0
            .sync;
        for (probe, d) in x.gen.probes.iter().zip(&x.digests) {
            let Some(d) = d else { continue };
            let same = sequential.preview(probe).map(|o| digest(&o) == *d);
            meter.op(match same {
                Ok(true) => Ok(()),
                _ => Err(format!(
                    "{probe}: outcome differs between 1 and {WORKERS} workers"
                )),
            });
        }
    }
    // The end-to-end figures are over the questions, each at its median
    // timing: a question the host stalled now and then keeps its usual
    // time, and the p90 is that of the slowest tenth of the questions.
    let timings: Vec<&(Samples, Samples)> = instances.iter().flat_map(|x| &x.timings).collect();
    let repeats = timings.iter().map(|t| t.0.len()).min().unwrap_or(0);
    if !trace {
        meter.previews = medians(timings.iter().map(|t| &t.0));
        meter.changes = medians(timings.iter().map(|t| &t.1));
        meter.apply_time = Duration::from_secs_f64(meter.changes.sum());
    }
    let extras = Extras {
        svs_views_preserved_ratio: ratio(svs_counts.0 as f64, svs_counts.1 as f64),
        ..Extras::default()
    };
    let mut notes = vec![format!(
        "whatif_fanout: {MKBS} MKBs of 256 relations and {n_views} views, {WORKERS} workers, \
         {round} questions a round",
    )];
    if !trace {
        notes.push(format!(
            "timings are each question's median of its {repeats} or more timed rounds"
        ));
    }
    finish(
        meter,
        traced,
        &setups.times,
        extras,
        untraced,
        notes,
        "whatif_fanout",
        seed,
    )
}
