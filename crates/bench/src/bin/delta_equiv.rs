//! Nightly randomized delta≡rebuild equivalence check.
//!
//! Draws a fresh seed per run (or takes one as `argv[1]` to replay a
//! failure), generates a batch of random federated MKBs and capability
//! change streams from it, and replays every stream through two
//! synchronizers side by side — `IndexMaintenance::Rebuild` (the
//! from-scratch oracle) and `Incremental` (delta-maintained cores +
//! memo carry). After every prefix both must produce byte-identical [`ChangeOutcome`]s and
//! observable state (evolved MKB, view texts, disabled sets).
//!
//! The seed is printed first, so a red nightly run is replayable
//! verbatim: `delta_equiv <seed>`. Exits non-zero on the first
//! divergence with the round, prefix and change that broke.
//!
//! Usage: `delta_equiv [seed] [rounds]` (defaults: time-derived seed,
//! 32 rounds).

use eve_core::{ChangeOutcome, CvsOptions, IndexMaintenance, Synchronizer, SynchronizerBuilder};
use eve_misd::MetaKnowledgeBase;
use eve_workload::{change_stream, random_views, SynthConfig, SynthWorkload, Topology};

/// Deterministic xorshift64* over the run seed — keeps the round
/// parameters reproducible from the one logged number without pulling
/// `rand` into the bin.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

fn build(mkb: &MetaKnowledgeBase, mode: IndexMaintenance, seed: u64) -> Synchronizer {
    let mut b = SynchronizerBuilder::new(mkb.clone()).with_options(CvsOptions {
        index_maintenance: mode,
        ..CvsOptions::default()
    });
    for v in random_views(mkb, 3, 3, seed) {
        b = b.with_view(v).expect("synthetic view is valid");
    }
    b.build()
}

fn observe(s: &Synchronizer) -> (MetaKnowledgeBase, Vec<String>, Vec<String>) {
    (
        s.mkb().clone(),
        s.views().map(|v| v.to_string()).collect(),
        s.disabled_views().map(|(n, _)| n.to_string()).collect(),
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be a u64"))
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .as_nanos() as u64
        });
    let rounds: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    // The one line that matters when this goes red at 3am.
    println!("delta_equiv seed={seed} rounds={rounds} (replay: delta_equiv {seed})");

    let mut rng = Rng(seed | 1);
    let mut checked = 0usize;
    for round in 0..rounds {
        let n_relations = rng.range(6, 24);
        let topology = match rng.range(0, 4) {
            0 => Topology::Chain,
            1 => Topology::Ring,
            2 => Topology::Random {
                extra: rng.range(0, 10),
            },
            _ => Topology::Clusters {
                size: rng.range(3, 7),
                extra: rng.range(0, 3),
            },
        };
        let cfg = SynthConfig {
            n_relations,
            topology,
            cover_count: rng.range(1, 4),
            view_relations: 3,
            global_cover_prob: [0.0, 0.25, 0.5][rng.range(0, 3)],
            ..SynthConfig::default()
        };
        let w_seed = rng.next();
        let len = rng.range(4, 20);
        let w = SynthWorkload::random(&cfg, w_seed);
        let stream = change_stream(&w.mkb, len, w_seed);
        let mut rebuild = build(&w.mkb, IndexMaintenance::Rebuild, w_seed);
        let mut inc = build(&w.mkb, IndexMaintenance::Incremental, w_seed);
        for (i, c) in stream.iter().enumerate() {
            let a: ChangeOutcome = rebuild.apply(c).expect("stream change applies");
            let b = inc.apply(c).expect("stream change applies");
            let fail = |mode: &str| {
                eprintln!(
                    "DIVERGED round={round} prefix={i} change=\"{c}\" mode={mode} \
                     (replay: delta_equiv {seed})"
                );
                std::process::exit(1);
            };
            if a != b {
                fail("incremental");
            }
            if observe(&rebuild) != observe(&inc) {
                fail("incremental-state");
            }
            checked += 1;
        }
    }
    println!("delta_equiv OK: {rounds} rounds, {checked} prefixes, all modes byte-identical");
}
