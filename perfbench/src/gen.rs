//! Seeded workload generation and the text the program is handed.
//!
//! Every input is rendered as MISD, E-SQL or change-script text; the
//! synchronizer is built only from that text ([`setup`]). What the
//! generator knows beyond the text (the scratch-evolved MKB, the states
//! of a stream prefix) stays here and is used only to check outputs.

use crate::stats::Rng;
use crate::trace::Tracer;
use eve_core::{CvsOptions, Synchronizer, SynchronizerBuilder};
use eve_esql::{parse_views, ViewDefinition};
use eve_misd::{evolve, parse_misd, render_misd, CapabilityChange, MetaKnowledgeBase};
use eve_relational::RelName;
use eve_sim::render_change;
use eve_workload::{
    random_views, views_touching, ChangeSource, SynthConfig, SynthWorkload, Topology,
};
use std::collections::BTreeSet;
use std::time::Instant;

/// The text a workload hands the program.
pub struct Texts {
    pub misd: String,
    pub views: String,
    /// Changes the workload applies, in order, one per line.
    pub stream: String,
    /// Changes the workload previews, one per line.
    pub probes: String,
}

/// The generator's own record of a workload, used for output checks.
pub struct Generated {
    pub texts: Texts,
    /// The changes as generated: a prefix, then each segment in turn.
    /// Every segment starts from the state the prefix leaves.
    pub stream: Vec<CapabilityChange>,
    pub prefix: usize,
    pub segment: usize,
    /// `render_misd` of the generator's MKB at the end of each segment.
    pub finals: Vec<String>,
    /// The generator's MKB after each prefix change (`0..=prefix`).
    pub history: Vec<MetaKnowledgeBase>,
    pub probes: Vec<CapabilityChange>,
}

impl Generated {
    /// The changes of segment `k`.
    pub fn segment(&self, k: usize) -> std::ops::Range<usize> {
        let start = self.prefix + k * self.segment;
        start..start + self.segment
    }
}

fn script(changes: &[CapabilityChange]) -> String {
    changes.iter().map(|c| render_change(c) + "\n").collect()
}

fn views_text(views: &[ViewDefinition]) -> String {
    views.iter().map(|v| format!("{v};\n")).collect()
}

/// Federated MKB: autonomous clusters of 8 relations with no joins
/// between clusters, a tenth of the relations carrying function-of
/// covers.
fn federation(n_relations: usize, seed: u64) -> MetaKnowledgeBase {
    let cfg = SynthConfig {
        n_relations,
        topology: Topology::Clusters { size: 8, extra: 2 },
        cover_count: 3,
        view_relations: 3,
        global_cover_prob: 0.1,
        ..SynthConfig::default()
    };
    SynthWorkload::random(&cfg, seed).mkb
}

/// Draw changes of the standard operator mix, each valid against the
/// state its predecessors leave: `prefix` changes from `mkb`, then
/// `segments` independent runs of `segment` changes, each from the
/// state after the prefix.
fn streams(
    mkb: &MetaKnowledgeBase,
    prefix: usize,
    segments: usize,
    segment: usize,
    seed: u64,
) -> (Vec<CapabilityChange>, Vec<String>, Vec<MetaKnowledgeBase>) {
    fn draw(
        source: &mut ChangeSource,
        scratch: &mut MetaKnowledgeBase,
        out: &mut Vec<CapabilityChange>,
    ) {
        let change = source
            .next(scratch)
            .expect("a federated MKB always admits another change");
        *scratch = evolve(scratch, &change).expect("ChangeSource gates through evolve");
        out.push(change);
    }
    let mut changes = Vec::with_capacity(prefix + segments * segment);
    let mut scratch = mkb.clone();
    let mut history = vec![scratch.clone()];
    let mut source = ChangeSource::new(seed);
    for _ in 0..prefix {
        draw(&mut source, &mut scratch, &mut changes);
        history.push(scratch.clone());
    }
    let mut finals = Vec::with_capacity(segments);
    for k in 0..segments as u64 {
        let mut source = ChangeSource::new(seed ^ ((k + 1) << 32));
        let mut state = scratch.clone();
        for _ in 0..segment {
            draw(&mut source, &mut state, &mut changes);
        }
        finals.push(render_misd(&state));
    }
    (changes, finals, history)
}

/// Relations that no change in `changes` deletes or renames: they exist
/// in every state the changes pass through.
fn stable_relations<'a>(
    candidates: impl IntoIterator<Item = &'a RelName>,
    changes: &[CapabilityChange],
) -> Vec<RelName> {
    let gone: BTreeSet<&RelName> = changes
        .iter()
        .filter_map(|c| match c {
            CapabilityChange::DeleteRelation(r) => Some(r),
            CapabilityChange::RenameRelation { from, .. } => Some(from),
            _ => None,
        })
        .collect();
    let set: BTreeSet<&RelName> = candidates.into_iter().collect();
    set.into_iter()
        .filter(|r| !gone.contains(r))
        .cloned()
        .collect()
}

fn view_relations(views: &[ViewDefinition]) -> Vec<RelName> {
    views.iter().flat_map(|v| v.relations()).collect()
}

fn delete_each(rels: Vec<RelName>) -> Vec<CapabilityChange> {
    rels.into_iter()
        .map(CapabilityChange::DeleteRelation)
        .collect()
}

fn generated(
    mkb: &MetaKnowledgeBase,
    views: &[ViewDefinition],
    (stream, finals, history): (Vec<CapabilityChange>, Vec<String>, Vec<MetaKnowledgeBase>),
    prefix: usize,
    segment: usize,
    probes: Vec<CapabilityChange>,
) -> Generated {
    Generated {
        texts: Texts {
            misd: render_misd(mkb),
            views: views_text(views),
            stream: script(&stream),
            probes: script(&probes),
        },
        stream,
        prefix,
        segment,
        finals,
        history,
        probes,
    }
}

/// `federation_stream`: a 4096-relation federation, 16 random views,
/// `segments` streams of `segment` changes. No probes: each change is
/// previewed before it is applied.
pub fn federation_stream(seed: u64, segments: usize, segment: usize) -> Generated {
    let mkb = federation(4096, seed);
    let views = random_views(&mkb, 16, 3, seed);
    let streams = streams(&mkb, 0, segments, segment, seed);
    generated(&mkb, &views, streams, 0, segment, Vec::new())
}

/// `whatif_fanout`: a 256-relation random MKB, 64 views touching the
/// designated target plus 64 random views; probes delete every relation
/// once, in a seeded order. No stream.
pub fn whatif_fanout(seed: u64) -> Generated {
    let cfg = SynthConfig {
        n_relations: 256,
        topology: Topology::Random { extra: 64 },
        cover_count: 3,
        view_relations: 3,
        global_cover_prob: 0.3,
        ..SynthConfig::default()
    };
    let w = SynthWorkload::random(&cfg, seed);
    let mut views = views_touching(&w.mkb, &w.target, 64, 3, seed);
    views.extend(random_views(&w.mkb, 64, 3, seed));
    let mut rels: Vec<RelName> = w.mkb.relation_names().cloned().collect();
    Rng::new(seed).shuffle(&mut rels);
    let streams = (Vec::new(), Vec::new(), vec![w.mkb.clone()]);
    generated(&w.mkb, &views, streams, 0, 0, delete_each(rels))
}

/// `history_readwrite`: a 1024-relation federation, 16 random views, a
/// `prefix`-change history and `segments` streams of `segment` changes
/// after it. Probes delete view relations the prefix never removes, so
/// they apply at every version up to `prefix`.
pub fn history_readwrite(seed: u64, prefix: usize, segments: usize, segment: usize) -> Generated {
    let mkb = federation(1024, seed);
    let views = random_views(&mkb, 16, 3, seed);
    let streams = streams(&mkb, prefix, segments, segment, seed);
    let probes = delete_each(stable_relations(
        &view_relations(&views),
        &streams.0[..prefix],
    ));
    generated(&mkb, &views, streams, prefix, segment, probes)
}

/// The program's inputs, parsed from text.
pub struct Parsed {
    pub sync: Synchronizer,
    pub stream: Vec<CapabilityChange>,
    pub probes: Vec<CapabilityChange>,
}

/// Seconds spent in each set-up step of one [`setup`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub misd_parse: f64,
    pub esql_parse: f64,
    pub script_parse: f64,
    pub build: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.misd_parse + self.esql_parse + self.script_parse + self.build
    }
}

fn parse_script(text: &str) -> Result<Vec<CapabilityChange>, String> {
    text.lines()
        .map(|l| CapabilityChange::parse(l).map_err(|e| format!("change `{l}`: {e}")))
        .collect()
}

/// Generated text to a ready synchronizer: `parse_misd`, `parse_views`,
/// `CapabilityChange::parse` per script line, `SynchronizerBuilder::build`.
/// With a tracer, each step is recorded as a span under `parent`.
pub fn setup(
    texts: &Texts,
    opts: CvsOptions,
    mut trace: Option<(&mut Tracer, usize)>,
) -> Result<(Parsed, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut step = |name: &'static str, start: Instant| {
        let end = Instant::now();
        if let Some((tr, parent)) = trace.as_mut() {
            tr.record(name, Some(*parent), 0, start, end);
        }
        (end - start).as_secs_f64()
    };

    let t = Instant::now();
    let mkb = parse_misd(&texts.misd).map_err(|e| format!("MISD text: {e}"))?;
    times.misd_parse = step("misd.parse", t);

    let t = Instant::now();
    let views = parse_views(&texts.views).map_err(|e| format!("E-SQL text: {e}"))?;
    times.esql_parse = step("esql.parse", t);

    let t = Instant::now();
    let stream = parse_script(&texts.stream)?;
    let probes = parse_script(&texts.probes)?;
    times.script_parse = step("misd.script_parse", t);

    let t = Instant::now();
    let mut builder = SynchronizerBuilder::new(mkb).with_options(opts);
    for v in views {
        builder = builder.with_view(v)?;
    }
    let sync = builder.build();
    times.build = step("core.synchronizer.build", t);

    Ok((
        Parsed {
            sync,
            stream,
            probes,
        },
        times,
    ))
}

/// Set-ups are timed at least [`SETUP_MIN_REPS`] times, and until they
/// have taken [`SETUP_BUDGET_S`] in all, up to [`SETUP_MAX_REPS`] times.
/// The host's speed can change by a fifth every few seconds, so the
/// untraced workloads spread their set-ups over the run
/// ([`Setups::top_up`]) and the median covers the run, not one moment.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 1024;
const SETUP_BUDGET_S: f64 = 2.0;

/// The times of every timed set-up of a run, for a median.
#[derive(Debug, Default)]
pub struct Setups {
    pub times: Vec<SetupTimes>,
    spent: f64,
}

impl Setups {
    fn push(&mut self, times: SetupTimes) {
        self.spent += times.total();
        self.times.push(times);
    }

    /// Time further set-ups of `gen` until set-ups have taken `share` of
    /// [`SETUP_BUDGET_S`]; the synchronizers they build are dropped.
    pub fn top_up(&mut self, gen: &Generated, opts: CvsOptions, share: f64) -> Result<(), String> {
        while self.times.len() < SETUP_MAX_REPS && self.spent < share.min(1.0) * SETUP_BUDGET_S {
            let (parsed, times) = setup(&gen.texts, opts, None)?;
            parses_back(gen, &parsed)?;
            self.push(times);
        }
        Ok(())
    }
}

/// Run [`setup`] [`SETUP_MIN_REPS`] times, then untraced until set-ups
/// have taken `share` of [`SETUP_BUDGET_S`], and keep the last
/// synchronizer.
pub fn setup_repeated(
    gen: &Generated,
    opts: CvsOptions,
    mut tracer: Option<&mut Tracer>,
    share: f64,
) -> Result<(Parsed, Setups), String> {
    let mut setups = Setups::default();
    let mut last = None;
    while setups.times.len() < SETUP_MIN_REPS {
        drop(last.take());
        let root = tracer.as_mut().map(|tr| tr.open("setup", None, 0));
        let trace = tracer.as_deref_mut().zip(root);
        let (parsed, times) = setup(&gen.texts, opts, trace)?;
        if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
            tr.close(root);
        }
        setups.push(times);
        last = Some(parsed);
    }
    let parsed = last.expect("at least one set-up");
    parses_back(gen, &parsed)?;
    setups.top_up(gen, opts, share)?;
    Ok((parsed, setups))
}

/// One untimed [`setup`], checked like [`setup_repeated`]'s.
pub fn setup_checked(gen: &Generated, opts: CvsOptions) -> Result<Parsed, String> {
    let (parsed, _) = setup(&gen.texts, opts, None)?;
    parses_back(gen, &parsed)?;
    Ok(parsed)
}

fn parses_back(gen: &Generated, parsed: &Parsed) -> Result<(), String> {
    if parsed.stream != gen.stream || parsed.probes != gen.probes {
        return Err("change script does not parse back to the generated changes".into());
    }
    Ok(())
}
