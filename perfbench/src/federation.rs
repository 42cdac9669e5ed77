//! `federation_stream`: one caller applies a stream of capability
//! changes to a 4096-relation federation in a closed loop.
//!
//! Changes rarely touch one of the 16 views, so a change's time goes to
//! `misd::evolve`, `core::delta`, `core::index` and the version-chain
//! commit, not to the rewriting search. Each step previews the next
//! change and then applies it ([`crate::pipeline::step`]), so the
//! preview metrics have samples here too.
//!
//! Each retained version keeps its own MKB copy, so memory grows with
//! every change: the caller applies [`SEGMENTS`] independent streams of
//! [`SEGMENT`] changes in turn, rolling back to version 0 after each
//! (untimed).

use crate::gen::{self, Parsed};
use crate::meter::Meter;
use crate::pipeline::{step, Call, Traced};
use crate::report::{finish, Extras, Report};
use crate::stats::{proc_status_mib, Samples};
use crate::trace::Tracer;
use eve_core::{CvsOptions, IndexCore};
use eve_misd::render_misd;
use std::time::{Duration, Instant};

const SEGMENTS: usize = 16;
const SEGMENT: usize = 96;

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let started = Instant::now();
    let gen = gen::federation_stream(seed, SEGMENTS, SEGMENT);
    let generated_s = started.elapsed().as_secs_f64();
    let opts = CvsOptions {
        parallelism: Some(1),
        ..CvsOptions::default()
    };
    let mut tracer = trace.then(Tracer::new);
    // Untraced, set-ups are spread over the run (see `gen::Setups`).
    let share = if trace { 1.0 } else { 0.0 };
    let (parsed, mut setups) = gen::setup_repeated(&gen, opts, tracer.as_mut(), share)?;
    let Parsed {
        mut sync, stream, ..
    } = parsed;
    let n_views = sync.views().count();
    let core0 = trace.then(|| IndexCore::build(sync.mkb()));

    let mut meter = Meter::default();
    let mut extras = Extras::default();
    let mut traced: Option<Traced> = None;
    let mut untraced = Samples::default();
    let deadline = Duration::from_secs_f64(seconds);
    let mut segments = 0usize;
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
    'run: loop {
        // The first segment warms the allocator up and is not measured.
        if segments == 1 {
            meter.reset_samples();
            loop_start = Instant::now();
        }
        // A traced run measures its first third untraced, for the
        // tracing overhead, and switches at a segment boundary.
        if let Some(core0) = &core0 {
            if segments > 0 && clock(&meter, loop_start) >= deadline / 3 {
                match traced.as_mut() {
                    Some(t) => t.core = core0.clone(),
                    None => {
                        let tr = tracer.take().expect("tracer set up");
                        traced = Some(Traced::new(tr, core0.clone(), 1, Call::Apply));
                    }
                }
            }
        }
        let rss_before = proc_status_mib("VmRSS");
        let k = segments % SEGMENTS;
        for change in &stream[gen.segment(k)] {
            if segments > 0 && clock(&meter, loop_start) >= deadline {
                break 'run;
            }
            if segments > 0 && !trace {
                setups.top_up(&gen, opts, meter.measured.as_secs_f64() / seconds)?;
            }
            let out = step(&mut sync, change, traced.as_mut(), &opts, &mut meter);
            if segments > 0 && traced.is_none() {
                untraced.push(out.apply_took);
            }
        }
        // Each distinct segment's final MKB is checked the first time it
        // completes; repeats replay the same changes from version 0.
        if segments < SEGMENTS {
            let same = render_misd(sync.mkb()) == gen.finals[k];
            meter.op(same
                .then_some(())
                .ok_or_else(|| "final MKB differs from the generator's".to_string()));
        }
        if segments == 0 {
            extras.rss_growth_mib_per_change =
                (proc_status_mib("VmRSS") - rss_before) / SEGMENT as f64;
        }
        segments += 1;
        sync.rollback_to(0);
    }
    setups.top_up(&gen, opts, 1.0)?;
    let notes = vec![format!(
        "federation_stream: 4096 relations, {} views, {} segments of {SEGMENT} changes \
         ({SEGMENTS} distinct); inputs generated in {generated_s:.2} s, run took {:.2} s",
        n_views,
        segments,
        started.elapsed().as_secs_f64()
    )];
    finish(
        meter,
        traced,
        &setups.times,
        extras,
        untraced,
        notes,
        "federation_stream",
        seed,
    )
}
