//! The jobs the workloads run: cold dump-to-report reproductions on a
//! caller-driven session, and triage jobs on a `TriageService`, each
//! checked after its timed window closes.

use crate::store::{StoreCounts, TimedStore};
use mcr_batch::{AdmissionPolicy, FleetConfig, FleetJob, JobOutcome, TriageService};
use mcr_core::{
    find_failure, ArtifactStore, MemoryStore, Phase, PhaseEvent, PhaseObserver, ReproError,
    ReproOptions, ReproReport, ReproSession,
};
use mcr_dump::CoreDump;
use mcr_e2ebench::stats::{median, BLOCK};
use mcr_e2ebench::trace::Tracer;
use mcr_lang::Program;
use mcr_search::{
    annotate_with_race, Algorithm, AnnotatedCandidate, Budget, FutureCsvMap, Guidance, TestRun,
};
use mcr_vm::{MemLoc, SplitMix64, Vm};
use mcr_workloads::BugSpec;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Stress seeds scanned for a failure dump (the range the repository's
/// examples use).
const STRESS_SEEDS: std::ops::Range<u64> = 0..500_000;

/// One bug with its program, seeded input and failure dump.
pub struct Case {
    pub bug: BugSpec,
    pub program: Program,
    pub input: Vec<i64>,
    pub dump: CoreDump,
}

/// Compiles each bug's program and stresses it for a failure dump on
/// the input the seed lengthens.
pub fn prepare(bugs: &[BugSpec], seed: u64, tracer: &Tracer) -> Result<Vec<Case>, String> {
    bugs.iter()
        .map(|bug| {
            let program = {
                let _span = tracer.enter("lang.compile", None);
                mcr_lang::compile(bug.source).map_err(|e| format!("{}: {e}", bug.name))?
            };
            let input = bug.lengthened_input(bug.default_warmup, seed);
            let failure = {
                let _span = tracer.enter("core.stress", None);
                find_failure(&program, &input, STRESS_SEEDS, bug.max_steps)
            }
            .ok_or_else(|| format!("{}: stress found no failure", bug.name))?;
            Ok(Case {
                bug: bug.clone(),
                program,
                input,
                dump: failure.dump,
            })
        })
        .collect()
}

/// A fresh in-memory store, behind the timing decorator when traced:
/// `(inner store, store to attach, decorator)`.
pub fn fresh_store(
    traced: bool,
    tracer: &Arc<Tracer>,
) -> (
    Arc<MemoryStore>,
    Arc<dyn ArtifactStore>,
    Option<Arc<TimedStore>>,
) {
    let inner = Arc::new(MemoryStore::unbounded());
    if traced {
        let timed = Arc::new(TimedStore::new(Arc::clone(&inner), Arc::clone(tracer)));
        let store: Arc<dyn ArtifactStore> = timed.clone();
        (inner, store, Some(timed))
    } else {
        let store: Arc<dyn ArtifactStore> = inner.clone();
        (inner, store, None)
    }
}

/// Options for a cold job: the defaults plus an attached store.
pub fn options_with(store: Arc<dyn ArtifactStore>) -> ReproOptions {
    ReproOptions {
        store: Some(store),
        ..ReproOptions::default()
    }
}

/// One dump-to-report reproduction, driven phase by phase with a span
/// around each phase call.
pub fn cold_job<'p>(
    case: &'p Case,
    dump: CoreDump,
    options: ReproOptions,
    tracer: &Tracer,
    job: u64,
) -> Result<(ReproSession<'p>, ReproReport), ReproError> {
    let _job = tracer.enter("job", Some(job));
    let mut s = ReproSession::new(&case.program, dump, &case.input, options)?;
    {
        let _span = tracer.enter("index", None);
        s.run_index()?;
    }
    {
        let _span = tracer.enter("align", None);
        s.run_align()?;
    }
    {
        let _span = tracer.enter("diff", None);
        s.run_diff()?;
    }
    {
        let _span = tracer.enter("rank", None);
        s.run_rank()?;
    }
    {
        let _span = tracer.enter("search", None);
        s.run_search()?;
    }
    let report = s.report().expect("every phase ran");
    Ok((s, report))
}

/// The annotated candidates and future-CSV map the search phase
/// derives, rebuilt from the session's public artifacts.
pub fn annotate_session(s: &ReproSession<'_>) -> Option<(Vec<AnnotatedCandidate>, FutureCsvMap)> {
    let align = s.alignment_artifact()?;
    let delta = s.delta_artifact()?;
    let ranked = s.ranked_artifact()?;
    let csv: HashSet<MemLoc> = delta.csv_locs.iter().copied().collect();
    let mut priorities: HashMap<(u64, MemLoc, bool), u32> = HashMap::new();
    for r in &ranked.ranked {
        let p = priorities
            .entry((r.step, r.loc, r.is_write))
            .or_insert(r.priority);
        *p = (*p).min(r.priority);
    }
    Some(annotate_with_race(
        &align.passing_run,
        &csv,
        &priorities,
        None,
    ))
}

/// Replays the report's winning preemption set once on a fresh VM; it
/// must reproduce the dump's failure.
pub fn verify_cold(case: &Case, s: &ReproSession<'_>, report: &ReproReport) -> Result<(), String> {
    if !report.search.reproduced {
        return Err(format!("{}: search did not reproduce", case.bug.name));
    }
    let winning = report
        .search
        .winning
        .as_ref()
        .ok_or_else(|| format!("{}: reproduced without a winning set", case.bug.name))?;
    let (_, future) =
        annotate_session(s).ok_or_else(|| format!("{}: session lacks artifacts", case.bug.name))?;
    let vm = Vm::new(&case.program, &case.input);
    let run = TestRun {
        fresh_vm: &vm,
        preemptions: winning,
        target: s.failure(),
        guidance: match s.options().algorithm {
            Algorithm::Chess => Guidance::All,
            Algorithm::ChessX => Guidance::CsvOverlap,
        },
        future: &future,
    };
    let search = &s.options().search;
    let mut budget = Budget::with_tries(search.max_tries, search.max_steps);
    if run.execute(&mut budget) {
        Ok(())
    } else {
        Err(format!(
            "{}: winning set does not replay the failure",
            case.bug.name
        ))
    }
}

/// What a timed loop measured.
#[derive(Debug, Default)]
pub struct LoopOut {
    pub attempted: u64,
    pub failed: u64,
    /// Jobs whose report passed its check.
    pub verified: u64,
    /// Latency of every attempted job, in completion order, and the
    /// index of the job's case.
    pub latencies_ms: Vec<f64>,
    pub latency_case: Vec<u8>,
    /// Sums over verified reports of `SearchResult::tries` and
    /// `SearchResult::combinations_tested`.
    pub tries: f64,
    pub combos_tested: f64,
    /// Loop wall time minus the time spent checking outputs.
    pub wall: Duration,
    /// Verified jobs per second of each full block of [`BLOCK`]
    /// consecutive jobs, checking time excluded.
    pub block_rates: Vec<f64>,
    block: BlockClock,
    /// Store traffic, when the loop ran traced.
    pub store: StoreCounts,
    /// Sums over service jobs (triage loops only) of `JobOutcome::busy`,
    /// latency minus busy, and the unit counters.
    pub busy_us: f64,
    pub wait_us: f64,
    pub cache_hits: f64,
    pub computed: f64,
    pub deduped: f64,
    pub waves: u64,
    /// The last pass's store and reports (cold loops that keep them).
    pub last_pass: Option<(Arc<MemoryStore>, Vec<ReproReport>)>,
    pub errors: Vec<String>,
}

/// Where the current block of jobs started.
#[derive(Debug, Default)]
struct BlockClock {
    start: Option<Instant>,
    checking: Duration,
    verified: u64,
    jobs: usize,
}

impl LoopOut {
    fn start(&mut self, now: Instant) {
        self.block.start = Some(now);
    }

    /// Counts one finished job; `checking` is the loop's checking time
    /// so far.
    fn tick(&mut self, now: Instant, checking: Duration) {
        self.block.jobs += 1;
        if self.block.jobs < BLOCK {
            return;
        }
        let start = self.block.start.expect("loop started");
        let busy = (now - start).saturating_sub(checking - self.block.checking);
        self.block_rates
            .push((self.verified - self.block.verified) as f64 / busy.as_secs_f64().max(1e-9));
        self.block = BlockClock {
            start: Some(now),
            checking,
            verified: self.verified,
            jobs: 0,
        };
    }

    fn push_latency(&mut self, latency: Duration, case: usize) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        self.latency_case
            .push(u8::try_from(case).expect("fewer than 256 cases"));
    }

    /// Verified jobs per second: the median over full blocks once the
    /// run holds two, so a few host stalls cannot set it; otherwise over
    /// the whole loop.
    pub fn jobs_per_s(&self) -> f64 {
        if self.block_rates.len() >= 2 {
            median(&self.block_rates)
        } else {
            self.verified as f64 / self.wall.as_secs_f64().max(1e-9)
        }
    }

    /// Mean of a per-job sum over the attempted jobs.
    pub fn per_job(&self, sum: f64) -> f64 {
        sum / self.attempted.max(1) as f64
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// The cold closed loop: passes over `cases` with a fresh store each,
/// one job at a time, until the pass that ends past `deadline`.
pub fn cold_loop(
    cases: &[Case],
    deadline: Instant,
    tracer: &Arc<Tracer>,
    next_job: &mut u64,
) -> LoopOut {
    let traced = tracer.enabled();
    let mut out = LoopOut::default();
    let mut checking = Duration::ZERO;
    let start = Instant::now();
    out.start(start);
    loop {
        let (inner, store, timed) = fresh_store(traced, tracer);
        let mut reports = Vec::with_capacity(cases.len());
        for (ci, case) in cases.iter().enumerate() {
            let dump = case.dump.clone();
            let options = options_with(Arc::clone(&store));
            *next_job += 1;
            let t0 = Instant::now();
            let result = cold_job(case, dump, options, tracer, *next_job);
            let t1 = Instant::now();
            out.attempted += 1;
            out.push_latency(t1 - t0, ci);
            match result {
                Ok((session, report)) => match verify_cold(case, &session, &report) {
                    Ok(()) => {
                        out.verified += 1;
                        out.tries += report.search.tries as f64;
                        out.combos_tested += report.search.combinations_tested as f64;
                        reports.push(report);
                    }
                    Err(e) => out.fail(e),
                },
                Err(e) => out.fail(format!("{}: {e}", case.bug.name)),
            }
            checking += t1.elapsed();
            out.tick(Instant::now(), checking);
        }
        if let Some(timed) = timed {
            out.store.absorb(timed.counts());
        }
        if traced && reports.len() == cases.len() {
            out.last_pass = Some((inner, reports));
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    out.wall = start.elapsed().saturating_sub(checking);
    out
}

/// When a triage loop stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    Jobs(u64),
}

/// Seeded submission order: rounds of a shuffled permutation, so every
/// `n` consecutive jobs hold each case once.
pub struct Shuffled {
    rng: SplitMix64,
    round: Vec<usize>,
    pos: usize,
}

impl Shuffled {
    pub fn new(n: usize, seed: u64) -> Shuffled {
        Shuffled {
            rng: SplitMix64::new(seed),
            round: (0..n).collect(),
            pos: n,
        }
    }

    pub fn next_case(&mut self) -> usize {
        if self.pos == self.round.len() {
            for i in (1..self.round.len()).rev() {
                let j = self.rng.next_below(i as u64 + 1) as usize;
                self.round.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.round[self.pos - 1]
    }
}

/// Records every phase event of one job with the time it arrived.
#[derive(Debug, Default)]
pub struct Stamped(Vec<(PhaseEvent, Instant)>);

impl PhaseObserver for Stamped {
    fn on_event(&mut self, event: &PhaseEvent) {
        self.0.push((*event, Instant::now()));
    }
}

/// The triage closed loop: one client submits a job to a
/// [`TriageService`] (default configuration, so `workers` is the core
/// count) over `store`, waits for its outcome, and submits the next,
/// drawing cases in `order`. Each report must equal `reference[case]`,
/// and the job's Search unit must be a store hit.
///
/// One job outstanding, not one per worker: with two outstanding on a
/// 2-vCPU host every scheduling wave has two leader units and the
/// service pool spawns a thread per such wave. That bought nothing on
/// a quiet host (2,982 vs 2,806 jobs/s) and made every figure hostage
/// to any other runnable thread: beside one busy-looping process it ran
/// 1,047 jobs/s with an 8.5 ms p99, against 2,615 jobs/s and 0.52 ms
/// with one job outstanding.
#[allow(clippy::too_many_arguments)]
pub fn triage_loop(
    cases: &[Case],
    reference: &[ReproReport],
    store: Arc<dyn ArtifactStore>,
    // The decorator behind `store`, when traced; fresh for this loop.
    timed: Option<&TimedStore>,
    stop: Stop,
    order: &mut Shuffled,
    tracer: &Tracer,
    next_job: &mut u64,
) -> LoopOut {
    let traced = tracer.enabled();
    let service = TriageService::new(FleetConfig {
        store,
        admission: AdmissionPolicy::Block { max_pending: 1 },
        ..FleetConfig::default()
    });
    let mut out = LoopOut::default();
    let mut checking = Duration::ZERO;
    let start = Instant::now();
    out.start(start);
    while match stop {
        Stop::At(t) => Instant::now() < t,
        Stop::Jobs(n) => out.attempted < n,
    } {
        let ci = order.next_case();
        let case = &cases[ci];
        let mut job = FleetJob::new(case.bug.name, &case.program, case.dump.clone(), &case.input);
        let log = traced.then(|| Arc::new(Mutex::new(Stamped::default())));
        if let Some(log) = &log {
            job = job.with_observer(Box::new(Arc::clone(log)));
        }
        *next_job += 1;
        let submitted = Instant::now();
        let outcome = match service.submit(job) {
            Ok(ticket) => ticket.wait(),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("{}: {}", case.bug.name, e.reason));
                continue;
            }
        };
        let done = Instant::now();
        finish(&mut out, cases, reference, ci, &outcome, submitted, done);
        checking += done.elapsed();
        out.tick(Instant::now(), checking);
        record_job(tracer, *next_job, submitted, done, log.as_deref());
    }
    out.wall = start.elapsed().saturating_sub(checking);
    out.waves = service.shutdown().waves;
    if let Some(timed) = timed {
        out.store = timed.counts();
    }
    out
}

fn finish(
    out: &mut LoopOut,
    cases: &[Case],
    reference: &[ReproReport],
    case: usize,
    outcome: &JobOutcome,
    submitted: Instant,
    done: Instant,
) {
    let name = cases[case].bug.name;
    let latency = done - submitted;
    out.attempted += 1;
    out.push_latency(latency, case);
    out.busy_us += outcome.busy.as_secs_f64() * 1e6;
    out.wait_us += latency.saturating_sub(outcome.busy).as_secs_f64() * 1e6;
    out.cache_hits += f64::from(outcome.cache_hits);
    out.computed += f64::from(outcome.computed);
    out.deduped += f64::from(outcome.deduped);
    let search_hit = outcome.events.contains(&PhaseEvent::CacheHit {
        phase: Phase::Search,
    });
    match &outcome.result {
        Ok(report) if report != &reference[case] => {
            out.fail(format!("{name}: report differs from its cold report"));
        }
        Ok(_) if !search_hit => out.fail(format!("{name}: search unit was not a store hit")),
        Ok(report) => {
            out.verified += 1;
            out.tries += report.search.tries as f64;
            out.combos_tested += report.search.combinations_tested as f64;
        }
        Err(e) => out.fail(format!("{name}: {e}")),
    }
}

/// Records a service job's span and, from its observer's events, one
/// span per phase unit: from the previous phase boundary (submission
/// for the first) to the event that ended the unit.
fn record_job(
    tracer: &Tracer,
    job: u64,
    submitted: Instant,
    done: Instant,
    log: Option<&Mutex<Stamped>>,
) {
    let Some(log) = log else {
        return;
    };
    let parent = tracer.record("job", Some(job), None, submitted, done);
    let mut boundary = submitted;
    for (event, at) in &log.lock().expect("event log poisoned").0 {
        let (name, start) = match *event {
            PhaseEvent::CacheHit { phase } => (phase.name(), boundary),
            PhaseEvent::Finished { phase, elapsed } => (phase.name(), *at - elapsed),
            PhaseEvent::Started { .. }
            | PhaseEvent::Stage { .. }
            | PhaseEvent::Interrupted { .. } => continue,
        };
        tracer.record(name, Some(job), Some(parent), start, *at);
        boundary = *at;
    }
}

/// Warms a store by reproducing every case cold once; returns the
/// store and each case's report.
pub fn warm_store(
    cases: &[Case],
    traced: bool,
    tracer: &Arc<Tracer>,
    next_job: &mut u64,
) -> Result<(Arc<MemoryStore>, Vec<ReproReport>), String> {
    let (inner, store, _) = fresh_store(traced, tracer);
    let mut reports = Vec::with_capacity(cases.len());
    for case in cases {
        *next_job += 1;
        let (session, report) = cold_job(
            case,
            case.dump.clone(),
            options_with(Arc::clone(&store)),
            tracer,
            *next_job,
        )
        .map_err(|e| format!("{}: {e}", case.bug.name))?;
        verify_cold(case, &session, &report)?;
        reports.push(report);
    }
    Ok((inner, reports))
}
