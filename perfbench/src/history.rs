//! `history_readwrite`: a reader beside a writer on one
//! `SharedSynchronizer` over a 1024-relation federation, in an open
//! loop.
//!
//! A writer applies a change stream and asks historical what-ifs
//! (`preview_at(n, delete-relation R)`), each on a fixed schedule of its
//! own. A reader reads the history on a seeded Poisson schedule: one view
//! now, and at version `n` through `at_version(n)` (see
//! [`crate::pipeline::read`]). `apply` holds the write lock for the
//! whole change, so this is where readers pay for writes, and it is the
//! only workload on the version-chain read path with a writer beside it.
//! Reads are timed from their due time. The writer's changes and
//! questions are timed from the call: a host that stalls the writer
//! backs its schedule up, and latency from the due time then measures
//! the stall (in runs on a host with 1 to 15% steal, the p90 from the
//! due time went from 2 ms to 17 to 50 ms); how late the writer started
//! them is reported as generator lateness.
//!
//! The first [`PREFIX`] changes are applied before the run and are the
//! history the what-ifs and reads travel through; the writer then
//! applies the next [`SEGMENT`] changes over and over, because memory
//! grows with every retained version. After each segment the writer's
//! schedule has one slot in which it rolls back to version `PREFIX`.

use crate::gen::{self, Generated, Parsed};
use crate::meter::{over, over_without, Meter};
use crate::pipeline::{read, timed_change, Call, Pre, Traced};
use crate::report::{finish, moved, Extras, Report};
use crate::stats::{proc_status_mib, Rng, Samples};
use crate::trace::Tracer;
use eve_core::{CvsOptions, IndexCore, SharedSynchronizer};
use eve_misd::{render_misd, CapabilityChange, MetaKnowledgeBase};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const PREFIX: usize = 32;
const SEGMENTS: usize = 8;
const SEGMENT: usize = 128;
/// The writer's period. A change takes about 1.1 ms at 1024 relations
/// on a 2-vCPU host, so the write lock is held about a fifth of the time.
/// Halfway through each period the writer asks one historical what-if
/// (about 1.7 ms): a change and a question wait for each other only when
/// one overruns half a period, so their latencies measure the calls, not
/// how the two interleave.
const WRITE_PERIOD: Duration = Duration::from_micros(5500);
/// The reader's mean period. A read takes tens of microseconds, so the
/// rate is set by the samples the printed `read_p99_us` rests on: about
/// 10 000 in a 20 s run, 100 of them beyond the p99. Arrivals are a
/// seeded Poisson process, so reads find the write lock held in
/// proportion to the time it is held, and never in step with the
/// writer's period.
const READ_PERIOD: Duration = Duration::from_micros(2000);
/// Sleep until this close to a due time, then spin, so that timer slack
/// does not show up as operation latency.
const SPIN: Duration = Duration::from_micros(200);

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > SPIN {
            thread::sleep(due - now - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What both generators share.
struct Ctx<'a> {
    shared: &'a SharedSynchronizer,
    gen: &'a Generated,
    opts: CvsOptions,
    t0: Instant,
    schedule: Duration,
    /// Tracing starts at this point of the schedule.
    trace_from: Duration,
    in_apply: AtomicBool,
    in_read: AtomicBool,
}

#[derive(Default)]
struct WriterOut {
    meter: Meter,
    traced: Option<Traced>,
    untraced: Samples,
    lateness: Samples,
    writes_total: u64,
    writes_blocked: u64,
    preview_at: Samples,
    /// The MKB at the end of each distinct segment, checked after the run.
    finals: Vec<Arc<MetaKnowledgeBase>>,
}

fn writer(
    ctx: &Ctx<'_>,
    stream: &[CapabilityChange],
    probes: &[CapabilityChange],
    seed: u64,
    mut tracer: Option<Tracer>,
    core_prefix: Option<IndexCore>,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut rng = Rng::new(seed ^ 0xa5c);
    let mut j = 0usize;
    let mut retired = Vec::new();
    for slot in 0u32.. {
        let due = ctx.t0 + WRITE_PERIOD * slot;
        if due - ctx.t0 >= ctx.schedule {
            break;
        }
        wait_until(due);
        out.lateness.push(Instant::now() - due);
        // The slot after each segment rolls the history back to the
        // prefix. The versions it discards are freed outside the lock, one
        // after each of the next changes: freeing them at once would take
        // several slots.
        if slot as usize % (SEGMENT + 1) == SEGMENT {
            if out.finals.len() < SEGMENTS {
                out.finals.push(ctx.shared.mkb());
            }
            retired = ctx.shared.read(|s| s.chain()[PREFIX + 1..].to_vec());
            ctx.shared.rollback_to(PREFIX);
            if let (Some(t), Some(core)) = (out.traced.as_mut(), &core_prefix) {
                t.core = core.clone();
            }
        } else {
            let change = &stream[ctx.gen.segment(j / SEGMENT % SEGMENTS)][j % SEGMENT];
            j += 1;
            if tracer.is_some() && due - ctx.t0 >= ctx.trace_from {
                let core = IndexCore::build(&ctx.shared.mkb());
                let tr = tracer.take().expect("checked");
                out.traced = Some(Traced::new(tr, core, 1, Call::Apply));
            }
            write(ctx, change, &mut out);
            drop(retired.pop());
        }
        let due = due + WRITE_PERIOD / 2;
        wait_until(due);
        out.lateness.push(Instant::now() - due);
        ask(ctx, probes, &mut rng, &mut out);
    }
    out
}

/// One change.
fn write(ctx: &Ctx<'_>, change: &CapabilityChange, out: &mut WriterOut) {
    out.writes_total += 1;
    out.writes_blocked += u64::from(ctx.in_read.load(Ordering::SeqCst));
    let pre = out.traced.is_some().then(|| ctx.shared.read(Pre::of));
    let (result, took, replay) = timed_change(
        out.traced.as_mut(),
        Call::Apply,
        pre,
        change,
        &ctx.opts,
        || {
            ctx.in_apply.store(true, Ordering::SeqCst);
            let r = ctx.shared.apply(change);
            ctx.in_apply.store(false, Ordering::SeqCst);
            r
        },
    );
    out.meter.changes.push(took);
    out.meter.apply_time += took;
    if out.traced.is_none() {
        out.untraced.push(took);
    }
    let check = result
        .and_then(|o| out.meter.outcome(&o, over(&ctx.shared.mkb())))
        .and(replay);
    out.meter.op(check);
}

/// One historical what-if: `preview_at(n, delete-relation R)` at a
/// random prefix version.
fn ask(ctx: &Ctx<'_>, probes: &[CapabilityChange], rng: &mut Rng, out: &mut WriterOut) {
    let version = rng.below(PREFIX + 1);
    let probe = &probes[rng.below(probes.len())];
    let start = Instant::now();
    let result = ctx.shared.preview_at(version, probe);
    let end = Instant::now();
    if let Some(t) = out.traced.as_mut() {
        let op = t.op_id();
        t.tr.record("core.synchronizer.preview_at", None, op, start, end);
    }
    out.meter.previews.push(end - start);
    out.preview_at.push(end - start);
    let check = match result {
        Some(Ok(o)) => out
            .meter
            .outcome(&o, over_without(&ctx.gen.history[version], probe)),
        Some(Err(e)) => Err(format!("preview_at({version}, {probe}): {e}")),
        None => Err(format!("preview_at({version}) found no such version")),
    };
    out.meter.op(check);
}

#[derive(Default)]
struct ReaderOut {
    meter: Meter,
    lateness: Samples,
    blocked: Samples,
    free: Samples,
    tracer: Option<Tracer>,
}

fn reader(ctx: &Ctx<'_>, names: &[String], seed: u64, mut tracer: Option<Tracer>) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut rng = Rng::new(seed ^ 0x7ead);
    let mut op = 0u64;
    let mut due = ctx.t0;
    loop {
        due += READ_PERIOD.mul_f64(rng.exponential());
        if due - ctx.t0 >= ctx.schedule {
            break;
        }
        wait_until(due);
        out.lateness.push(Instant::now() - due);
        let blocked = ctx.in_apply.load(Ordering::SeqCst);
        let version = rng.below(PREFIX + 1);
        let name = &names[rng.below(names.len())];
        ctx.in_read.store(true, Ordering::SeqCst);
        let start = Instant::now();
        let (_, forked, check) = ctx.shared.read(|s| read(s, name, version));
        let end = Instant::now();
        ctx.in_read.store(false, Ordering::SeqCst);
        if let (true, Some(tr)) = (due - ctx.t0 >= ctx.trace_from, tracer.as_mut()) {
            op += 1;
            tr.record("core.synchronizer.read", None, op, start, end);
        }
        let latency = end - due;
        out.meter.reads.push(latency);
        out.meter.at_version.push(forked);
        if blocked {
            out.blocked.push(latency);
        } else {
            out.free.push(latency);
        }
        out.meter.op(check);
    }
    out.tracer = tracer;
    out
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let gen = gen::history_readwrite(seed, PREFIX, SEGMENTS, SEGMENT);
    let opts = CvsOptions {
        parallelism: Some(1),
        ..CvsOptions::default()
    };
    let mut tracer = trace.then(Tracer::new);
    // Untraced, half the set-ups are timed before the schedule and half
    // after it (see `gen::Setups`); the schedule's threads have the host
    // to themselves.
    let share = if trace { 1.0 } else { 0.5 };
    let (parsed, mut setups) = gen::setup_repeated(&gen, opts, tracer.as_mut(), share)?;
    let Parsed {
        mut sync,
        stream,
        probes,
    } = parsed;
    if probes.is_empty() {
        return Err("no view relation survives the prefix, nothing to preview".into());
    }
    let names: Vec<String> = sync.views().map(|v| v.name.clone()).collect();
    let mut meter = Meter::default();
    for change in &stream[..PREFIX] {
        let result = sync.apply(change).map_err(|e| format!("{change}: {e}"));
        let check = result.and_then(|o| meter.outcome(&o, over(sync.mkb())));
        meter.op(check);
    }
    // Warm the allocator up: one segment, applied and rolled back.
    let rss_before = proc_status_mib("VmRSS");
    for change in &stream[gen.segment(0)] {
        let result = sync.apply(change).map_err(|e| format!("{change}: {e}"));
        let check = result.and_then(|o| meter.outcome(&o, over(sync.mkb())));
        meter.op(check);
    }
    let rss_growth = (proc_status_mib("VmRSS") - rss_before) / SEGMENT as f64;
    sync.rollback_to(PREFIX);
    let core_prefix = trace.then(|| IndexCore::build(sync.mkb()));
    let shared = SharedSynchronizer::new(sync);
    let schedule = Duration::from_secs_f64(seconds);
    let ctx = Ctx {
        shared: &shared,
        gen: &gen,
        opts,
        t0: Instant::now() + Duration::from_millis(2),
        schedule,
        trace_from: schedule / 3,
        in_apply: AtomicBool::new(false),
        in_read: AtomicBool::new(false),
    };
    let reader_tracer = tracer.as_ref().map(Tracer::fork);
    let (w, r) = thread::scope(|s| {
        let w = s.spawn(|| writer(&ctx, &stream, &probes, seed, tracer, core_prefix));
        let r = s.spawn(|| reader(&ctx, &names, seed, reader_tracer));
        (w.join(), r.join())
    });
    let (w, r) = match (w, r) {
        (Ok(w), Ok(r)) => (w, r),
        _ => return Err("a generator thread panicked".into()),
    };

    // Previews never move the version. The probes exist at every version
    // up to the prefix, so the check runs there.
    shared.rollback_to(PREFIX);
    for probe in probes.iter().take(4) {
        let before = shared.version();
        let check = shared
            .preview(probe)
            .map_err(|e| e.to_string())
            .and_then(|_| match shared.preview_at(0, probe) {
                Some(Ok(_)) => Ok(()),
                Some(Err(e)) => Err(e.to_string()),
                None => Err("preview_at found no version 0".to_string()),
            })
            .and(moved(before, shared.version()));
        meter.op(check);
    }

    // Each distinct segment's final MKB equals the generator's.
    for (mkb, want) in w.finals.iter().zip(&gen.finals) {
        let same = render_misd(mkb) == *want;
        meter.op(same
            .then_some(())
            .ok_or_else(|| "final MKB differs from the generator's".to_string()));
    }

    setups.top_up(&gen, opts, 1.0)?;

    let mut lateness = w.lateness.clone();
    lateness.extend(&r.lateness);
    let late_p99 = lateness.quantile(0.99).unwrap_or(0.0);
    // A thread that keeps up starts most operations on time; one that fell
    // behind starts a tenth of them a period or more late.
    let late =
        |l: &Samples, period: Duration| l.quantile(0.9).unwrap_or(0.0) > period.as_secs_f64();
    let behind = late(&w.lateness, WRITE_PERIOD) || late(&r.lateness, READ_PERIOD);
    let notes = vec![
        format!(
            "history_readwrite: 1024 relations, {} views, writer: a change every \
             {WRITE_PERIOD:?} and a question half a period after each, reader: a read \
             every {READ_PERIOD:?} on average; write lock busy {:.1}% of the schedule",
            names.len(),
            100.0 * w.meter.apply_time.as_secs_f64() / seconds
        ),
        format!(
            "gen_lateness_p99_ms {:.4} ({} due operations){}",
            late_p99 * 1e3,
            lateness.len(),
            if behind {
                ": GENERATOR FELL BEHIND its schedule"
            } else {
                ""
            }
        ),
    ];
    meter.merge(w.meter);
    meter.merge(r.meter);

    let extras = Extras {
        rss_growth_mib_per_change: rss_growth,
        preview_at: w.preview_at,
        reads_blocked: r.blocked.len() as u64,
        reads_total: (r.blocked.len() + r.free.len()) as u64,
        read_blocked: r.blocked,
        read_free: r.free,
        writes_blocked: w.writes_blocked,
        writes_total: w.writes_total,
        gen_lateness_p99_ms: late_p99 * 1e3,
        ..Extras::default()
    };
    let mut traced = w.traced;
    if let (Some(t), Some(rt)) = (traced.as_mut(), r.tracer) {
        t.tr.absorb(rt);
    }
    finish(
        meter,
        traced,
        &setups.times,
        extras,
        w.untraced,
        notes,
        "history_readwrite",
        seed,
    )
}
