//! Per-layer probes: direct calls into each crate's public functions on
//! the workload's programs, dumps and stored artifacts. They run after
//! the timed window closes and stay outside the traced/untraced
//! comparison.

use crate::harness::{annotate_session, options_with, Case};
use mcr_analysis::{ProgramAnalysis, RaceAnalysis};
use mcr_core::{
    AlignmentArtifact, ArtifactStore, DumpDeltaArtifact, FailureIndexArtifact, MemoryStore, Phase,
    RankedAccessesArtifact, ReproOptions, ReproSession, SearchArtifact, PHASES,
};
use mcr_e2ebench::stats::{mean, median};
use mcr_search::worklist_size;
use mcr_vm::{DeterministicScheduler, NullObserver, Vm};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median over `reps` calls of `f`'s own measurement.
fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&xs)
}

/// Microseconds `f` takes.
fn time_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// Mean over cases of a per-case figure.
fn per_case(cases: &[Case], f: impl FnMut(&Case) -> f64) -> f64 {
    mean(&cases.iter().map(f).collect::<Vec<_>>())
}

/// Probes that need only the programs, inputs and dumps.
pub fn program_probes(cases: &[Case], out: &mut BTreeMap<&'static str, f64>) {
    out.insert(
        "lang.compile_us",
        per_case(cases, |c| {
            median_of(20, || {
                time_us(|| {
                    black_box(mcr_lang::compile(black_box(c.bug.source)).expect("compiles"));
                })
            })
        }),
    );
    out.insert(
        "lang.fingerprint_us",
        per_case(cases, |c| {
            median_of(50, || {
                time_us(|| {
                    black_box(mcr_lang::program_fingerprint(black_box(&c.program)));
                })
            })
        }),
    );
    out.insert(
        "vm.step_ns",
        per_case(cases, |c| {
            median_of(3, || {
                let mut vm = Vm::new(&c.program, &c.input);
                let t = Instant::now();
                black_box(mcr_vm::run(
                    &mut vm,
                    &mut DeterministicScheduler::new(),
                    &mut NullObserver,
                    c.bug.max_steps,
                ));
                t.elapsed().as_secs_f64() * 1e9 / vm.steps().max(1) as f64
            })
        }),
    );
    out.insert(
        "vm.clone_ns",
        per_case(cases, |c| {
            let vm = Vm::new(&c.program, &c.input);
            median_of(5, || {
                const CLONES: u32 = 1000;
                time_us(|| {
                    for _ in 0..CLONES {
                        black_box(black_box(&vm).clone());
                    }
                }) * 1e3
                    / f64::from(CLONES)
            })
        }),
    );
    out.insert(
        "analysis.cd_us",
        per_case(cases, |c| {
            median_of(10, || {
                time_us(|| {
                    black_box(ProgramAnalysis::analyze(black_box(&c.program)));
                })
            })
        }),
    );
    out.insert(
        "analysis.race_us",
        per_case(cases, |c| {
            median_of(10, || {
                time_us(|| {
                    black_box(RaceAnalysis::analyze(black_box(&c.program)));
                })
            })
        }),
    );
    out.insert(
        "dump.codec_ns_per_byte",
        per_case(cases, |c| {
            median_of(20, || {
                let t = Instant::now();
                let bytes = mcr_dump::encode(black_box(&c.dump));
                black_box(mcr_dump::decode(black_box(&bytes)).expect("round-trips"));
                t.elapsed().as_secs_f64() * 1e9 / bytes.len().max(1) as f64
            })
        }),
    );
    out.insert(
        "search.setup_ms",
        per_case(cases, |c| {
            median_of(3, || {
                let mut options = ReproOptions::default();
                options.search.max_tries = 0;
                let mut s = ReproSession::new(&c.program, c.dump.clone(), &c.input, options)
                    .expect("a failure dump");
                s.run_rank().expect("phases before the search run");
                time_us(|| {
                    s.run_search().expect("setup-only search");
                }) / 1e3
            })
        }),
    );
}

/// Decodes `bytes` as `phase`'s artifact.
fn decode(phase: Phase, bytes: &[u8]) {
    let ok = match phase {
        Phase::Index => FailureIndexArtifact::from_bytes(bytes).map(drop),
        Phase::Align => AlignmentArtifact::from_bytes(bytes).map(drop),
        Phase::Diff => DumpDeltaArtifact::from_bytes(bytes).map(drop),
        Phase::Rank => RankedAccessesArtifact::from_bytes(bytes).map(drop),
        Phase::Search => SearchArtifact::from_bytes(bytes).map(drop),
        Phase::Compile | Phase::StaticRace => unreachable!("not a pipeline phase"),
    };
    ok.expect("stored artifact decodes");
}

/// A session on `c` attached to `store`.
fn open<'p>(c: &'p Case, store: &Arc<MemoryStore>) -> ReproSession<'p> {
    let attached: Arc<dyn ArtifactStore> = store.clone();
    ReproSession::new(&c.program, c.dump.clone(), &c.input, options_with(attached))
        .expect("a failure dump")
}

/// Probes over a store that holds every case's artifacts: the search
/// setup split, phase keys, and artifact decoding.
pub fn store_probes(
    cases: &[Case],
    store: &Arc<MemoryStore>,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let mut annotate_us = Vec::new();
    let mut candidates = Vec::new();
    let mut combos = Vec::new();
    for c in cases {
        let mut s = open(c, store);
        s.run_to_end().expect("rehydrates");
        annotate_us.push(median_of(5, || {
            time_us(|| {
                black_box(annotate_session(&s));
            })
        }));
        let n = annotate_session(&s).expect("artifacts present").0.len();
        let search = &s.options().search;
        candidates.push(n as f64);
        combos.push(worklist_size(n, search.preemption_bound, search.pair_pool) as f64);
    }
    out.insert("search.annotate_us", mean(&annotate_us));
    out.insert("search.candidates", mean(&candidates));
    out.insert("search.worklist_combos", mean(&combos));

    let mut key_us = Vec::new();
    let mut decode_us = Vec::new();
    for c in cases {
        let mut keys = Vec::new();
        let mut decodes = Vec::new();
        for _ in 0..5 {
            let mut s = open(c, store);
            let (mut k, mut d) = (0.0, 0.0);
            for phase in PHASES {
                let t = Instant::now();
                let key = s.phase_key(phase).expect("upstream artifacts present");
                k += t.elapsed().as_secs_f64() * 1e6;
                let bytes = store.get(&key).expect("warm store holds the artifact");
                d += time_us(|| decode(phase, &bytes));
                s.run_phase(phase).expect("rehydrates");
            }
            keys.push(k);
            decodes.push(d);
        }
        key_us.push(median(&keys));
        decode_us.push(median(&decodes));
    }
    out.insert("core.phase_key_us", mean(&key_us));
    out.insert("core.artifact_decode_us", mean(&decode_us));
}
