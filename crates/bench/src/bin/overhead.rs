//! Flight-recorder overhead probe for the CI guard.
//!
//! Mirrors the `cvs_index_reuse_8_views/cached/64` criterion scenario —
//! one per-change [`MkbIndex`] build plus eight indexed view
//! synchronizations per iteration — without criterion, so it runs in a
//! couple of seconds. It compares a *live* telemetry pipeline against a
//! live pipeline with the flight recorder armed, both in one process.
//!
//! Output: two lines on stdout —
//! `enabled_median_ns_per_iter=<n>` (telemetry installed, no sinks) and
//! `recorder_median_ns_per_iter=<n>` (plus `flight_install`). CI asserts
//! the recorder stays within 5% of the enabled pipeline — the per-event
//! cost is one uncontended mutex push into a bounded ring. An optional
//! numeric argument sets the sample count (default 60).

use eve_core::{cvs_delete_relation_indexed, CvsOptions, MkbIndex};
use eve_misd::evolve;
use eve_workload::{SynthConfig, SynthWorkload, Topology};
use std::time::Instant;

const VIEWS: usize = 8;

fn median_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let iters: usize = std::env::args()
        .skip(1)
        .find_map(|a| a.parse().ok())
        .unwrap_or(60);

    let cfg = SynthConfig {
        n_relations: 64,
        topology: Topology::Random { extra: 16 },
        cover_count: 3,
        view_relations: 3,
        ..SynthConfig::default()
    };
    let w = SynthWorkload::random(&cfg, 7);
    let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
    let opts = CvsOptions::default();

    let one_iter = || {
        let index = MkbIndex::new(&w.mkb, &mkb2, &opts);
        for _ in 0..VIEWS {
            cvs_delete_relation_indexed(&w.view, &w.target, &index, &opts)
                .expect("workload is synchronizable");
        }
    };

    let _serial = eve_telemetry::serial_guard();
    for _ in 0..5 {
        one_iter(); // warm-up outside the pipeline
    }

    eve_telemetry::install(vec![]).expect("no other pipeline installed");
    let enabled = median_ns(iters, one_iter);
    println!("enabled_median_ns_per_iter={enabled}");

    eve_telemetry::flight_install(4096, None).expect("no other recorder installed");
    let recorder = median_ns(iters, one_iter);
    println!("recorder_median_ns_per_iter={recorder}");
    let stats = eve_telemetry::flight_uninstall().expect("recorder was installed");
    assert!(
        stats.buffered > 0,
        "recorder observed nothing — probe is vacuous"
    );
    eve_telemetry::uninstall();
}
