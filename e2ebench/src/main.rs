//! The end-to-end dump-to-schedule benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload cold-shallow --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run sets up (compiles the workload's programs, stresses each for
//! a failure dump, and warms the store where the workload needs it),
//! then runs jobs — one dump in, one checked report out — in a closed
//! loop for `--seconds`. The last line of standard output is a JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`); the lines before it are for people.
//!
//! A traced run spends the first half of `--seconds` untraced and the
//! second half traced, so it reports its own tracing overhead, then
//! runs the per-layer probes and writes its spans under `.bench_out/`.

mod harness;
mod probes;
mod store;

use harness::{cold_loop, prepare, triage_loop, warm_store, Case, LoopOut, Shuffled, Stop};
use mcr_core::{ArtifactStore, MemoryStore, ReproReport};
use mcr_e2ebench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use mcr_e2ebench::procfs;
use mcr_e2ebench::stats::{blocked_tail, mean, mean_of_medians, median, BLOCK};
use mcr_e2ebench::trace::{self, Span, Tracer};
use mcr_workloads::BugSpec;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::TimedStore;

/// The workloads and the bugs each runs. Why each was chosen is
/// recorded beside it in `BENCHMARK.json`.
const WORKLOADS: &[(&str, &[&str])] = &[
    // Search setup (annotation + worklist) is nearly all of each job.
    (
        "cold-shallow",
        &["apache-2", "mysql-1", "mysql-2", "mysql-3", "mysql-4"],
    ),
    // Thousands of tries: VM stepping and checkpoints dominate.
    ("cold-deep", &["apache-1"]),
    // Every phase rehydrates from a warm store; no search runs.
    (
        "warm-triage",
        &[
            "apache-1", "apache-2", "mysql-1", "mysql-2", "mysql-3", "mysql-4", "mysql-5",
        ],
    ),
];

/// Set-up repetitions per run; `setup_s` is their median. Warming the
/// triage store runs every bug's full search, so it repeats less.
const SETUP_REPS_COLD: usize = 25;
const SETUP_REPS_WARM: usize = 3;

/// Jobs per case the service probe submits on cold workloads.
const SERVICE_PROBE_ROUNDS: u64 = 8;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|&(name, _)| name)
                        .find(|&name| name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The revision of the checkout the benchmark runs in, read from
/// `.git` without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    if let Ok(rev) = std::fs::read_to_string(std::path::Path::new(".git").join(name)) {
        return rev.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, r) = line.split_once(' ')?;
                (r == name).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host and build facts a result is only comparable under.
fn stamp(args: &Args) -> String {
    let options = mcr_core::ReproOptions::default();
    let fleet = mcr_batch::FleetConfig::default();
    format!(
        r#"{{"workload":"{}","seed":{},"seconds":{},"trace":{},"nproc":{},"parallelism":{},"workers":{},"profile":"{}","git_rev":"{}"}}"#,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        options.parallelism,
        fleet.workers,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_revision(),
    )
}

/// The set-up state the timed phase starts from.
struct Prepared {
    cases: Vec<Case>,
    /// Warm-triage only: the warmed store and each case's cold report.
    warm: Option<(Arc<MemoryStore>, Vec<ReproReport>)>,
}

/// Runs the timed closed loop until `dur` has passed.
fn run_window(
    p: &Prepared,
    dur: Duration,
    tracer: &Arc<Tracer>,
    order: &mut Shuffled,
    next_job: &mut u64,
) -> LoopOut {
    let deadline = Instant::now() + dur;
    let Some((inner, reports)) = &p.warm else {
        return cold_loop(&p.cases, deadline, tracer, next_job);
    };
    let timed = tracer
        .enabled()
        .then(|| Arc::new(TimedStore::new(Arc::clone(inner), Arc::clone(tracer))));
    let store: Arc<dyn ArtifactStore> = match &timed {
        Some(timed) => timed.clone(),
        None => inner.clone(),
    };
    triage_loop(
        &p.cases,
        reports,
        store,
        timed.as_deref(),
        Stop::At(deadline),
        order,
        tracer,
        next_job,
    )
}

/// Span durations and self times by name.
struct SpanView<'a> {
    spans: &'a [Span],
    selfs: HashMap<u64, u64>,
}

impl<'a> SpanView<'a> {
    fn new(spans: &'a [Span]) -> SpanView<'a> {
        SpanView {
            spans,
            selfs: trace::self_times(spans),
        }
    }

    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Mean self time of the spans called `name`, in microseconds.
    fn self_us(&self, name: &str) -> f64 {
        let xs: Vec<f64> = self
            .named(name)
            .map(|s| self.selfs[&s.id] as f64 / 1e3)
            .collect();
        mean(&xs)
    }

    /// Mean duration of the spans called `name`, in microseconds.
    fn dur_us(&self, name: &str) -> f64 {
        let xs: Vec<f64> = self.named(name).map(|s| s.dur_ns() as f64 / 1e3).collect();
        mean(&xs)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result object. Every value keeps all its digits; a metric that
/// is missing or not a number is a bug in the benchmark, reported as an
/// error rather than printed.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, d) in defs.iter().enumerate() {
        let v = values
            .get(d.name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        let _ = write!(
            metrics,
            r#"{}"{}": {{"value": {v}, "unit": "{}"}}"#,
            if i == 0 { "" } else { ", " },
            d.name,
            d.unit
        );
    }
    Ok(format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{metrics}}}}}"#
    ))
}

fn print_table(defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) {
    for d in defs {
        let v = values.get(d.name).copied().unwrap_or(f64::NAN);
        if d.moves.is_empty() {
            println!("  {:<30} {:>14.4} {}", d.name, v, d.unit);
        } else {
            println!("  {:<30} {:>14.4} {:<6} -> {}", d.name, v, d.unit, d.moves);
        }
    }
}

fn report_errors(out: &LoopOut) {
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let stamp = stamp(args);
    println!("stamp: {stamp}");
    let names = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .expect("parsed workload")
        .1;
    let bugs: Vec<BugSpec> = names
        .iter()
        .map(|n| mcr_workloads::bug_by_name(n).ok_or_else(|| format!("no bug {n}")))
        .collect::<Result<_, _>>()?;
    let warm = args.workload == "warm-triage";
    let tracer = Arc::new(Tracer::new());
    let mut next_job = 0u64;

    // Set up several times; the last set-up is the one the timed phase uses.
    tracer.set_enabled(args.trace);
    let reps = if warm {
        SETUP_REPS_WARM
    } else {
        SETUP_REPS_COLD
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut prepared = None;
    for _ in 0..reps {
        let t = Instant::now();
        let cases = prepare(&bugs, args.seed, &tracer)?;
        let primed = if warm {
            Some(warm_store(&cases, args.trace, &tracer, &mut next_job)?)
        } else {
            None
        };
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some(Prepared {
            cases,
            warm: primed,
        });
    }
    tracer.set_enabled(false);
    let p = prepared.expect("at least one set-up");
    let run = Run {
        args,
        stamp,
        p,
        setup_s,
        setup_spans: tracer.take(),
        tracer,
        next_job,
    };
    if args.trace {
        run.traced()
    } else {
        run.end_to_end()
    }
}

/// Everything set-up produced, ready for the timed phase.
struct Run<'a> {
    args: &'a Args,
    stamp: String,
    p: Prepared,
    setup_s: Vec<f64>,
    setup_spans: Vec<Span>,
    tracer: Arc<Tracer>,
    next_job: u64,
}

impl Run<'_> {
    /// The untraced run: every end-to-end metric.
    fn end_to_end(mut self) -> Result<(), String> {
        let (args, p, tracer) = (self.args, &self.p, &self.tracer);
        let mut order = Shuffled::new(p.cases.len(), args.seed);
        let dur = Duration::from_secs_f64(args.seconds);
        let cpu0 = procfs::cpu_seconds();
        let out = run_window(p, dur, tracer, &mut order, &mut self.next_job);
        let cpu = procfs::cpu_seconds() - cpu0;
        let tail = blocked_tail(&out.latencies_ms, BLOCK).ok_or("no job completed")?;
        let mut v = BTreeMap::new();
        v.insert("setup_s", median(&self.setup_s));
        v.insert("jobs_per_s", out.jobs_per_s());
        v.insert(
            "job_ms_p50",
            mean_of_medians(&out.latencies_ms, &out.latency_case),
        );
        v.insert("job_ms_tail", tail.tail.value);
        v.insert("cpu_ms_per_job", cpu * 1e3 / out.attempted.max(1) as f64);
        v.insert("tries_per_job", out.tries / out.verified.max(1) as f64);
        v.insert("peak_rss_mb", procfs::peak_rss_mb());
        println!(
            "{}: {} jobs attempted, {} failed, {:.2} s timed; setup {} reps",
            args.workload,
            out.attempted,
            out.failed,
            out.wall.as_secs_f64(),
            self.setup_s.len()
        );
        println!(
            "  job_ms_p50 is the mean over the workload's {} bugs of each bug's median job latency",
            p.cases.len()
        );
        if tail.blocks > 1 {
            println!(
                "  job_ms_tail is p{:.1} of each block of {} consecutive jobs ({} beyond it), median over {} blocks; jobs_per_s is the median over those blocks",
                tail.tail.percentile, tail.tail.samples, tail.tail.beyond, tail.blocks
            );
        } else {
            println!(
                "  job_ms_tail is p{:.1} over {} samples ({} beyond it)",
                tail.tail.percentile, tail.tail.samples, tail.tail.beyond
            );
        }
        report_errors(&out);
        print_table(END_TO_END, &v);
        println!(
            "{}",
            result_line(out.failed == 0, out.attempted, out.failed, END_TO_END, &v)?
        );
        Ok(())
    }

    /// The traced run: an untraced half, a traced half, then the probes;
    /// every per-layer metric.
    fn traced(mut self) -> Result<(), String> {
        let (args, p, tracer) = (self.args, &self.p, &self.tracer);
        let warm = p.warm.is_some();
        let mut order = Shuffled::new(p.cases.len(), args.seed);
        let half = Duration::from_secs_f64(args.seconds) / 2;
        let untraced = run_window(p, half, tracer, &mut order, &mut self.next_job);
        tracer.set_enabled(true);
        let traced = run_window(p, half, tracer, &mut order, &mut self.next_job);
        tracer.set_enabled(false);
        let window_spans = tracer.take();
        let window = SpanView::new(&window_spans);
        let setup = SpanView::new(&self.setup_spans);

        let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
        // Phase layers: measured on the timed jobs, except on warm-triage,
        // whose timed jobs run no phase; there they come from the cold jobs
        // that warmed the store during set-up.
        let phases = if warm { &setup } else { &window };
        v.insert("index.reverse_us", phases.self_us("index"));
        v.insert("index.align_us", phases.self_us("align"));
        v.insert("dump.diff_us", phases.self_us("diff"));
        v.insert("slice.rank_us", phases.self_us("rank"));
        v.insert("search.ms", phases.self_us("search") / 1e3);
        let (tries, combos_tested) = match &p.warm {
            Some((_, reports)) => (
                mean(
                    &reports
                        .iter()
                        .map(|r| r.search.tries as f64)
                        .collect::<Vec<_>>(),
                ),
                mean(
                    &reports
                        .iter()
                        .map(|r| r.search.combinations_tested as f64)
                        .collect::<Vec<_>>(),
                ),
            ),
            None => (
                traced.tries / traced.verified.max(1) as f64,
                traced.combos_tested / traced.verified.max(1) as f64,
            ),
        };
        v.insert("search.tries", tries);
        v.insert("search.combos_tested", combos_tested);
        v.insert("core.other_us", window.self_us("job"));
        v.insert("core.store_get_us", window.dur_us("store.get"));
        let puts = if warm { &setup } else { &window };
        v.insert("core.store_put_us", puts.dur_us("store.put"));
        v.insert(
            "core.store_hit_ratio",
            ratio(traced.store.hits as f64, traced.store.gets as f64),
        );
        v.insert(
            "core.store_put_bytes_per_job",
            ratio(traced.store.put_bytes as f64, traced.attempted as f64),
        );
        v.insert("core.stress_ms", setup.dur_us("core.stress") / 1e3);
        v.insert("trace.untraced_jobs_per_s", untraced.jobs_per_s());
        v.insert("trace.traced_jobs_per_s", traced.jobs_per_s());
        v.insert(
            "trace.overhead_ratio",
            ratio(untraced.jobs_per_s(), traced.jobs_per_s()),
        );

        // Probes, outside every timed window.
        probes::program_probes(&p.cases, &mut v);
        let (store, reference) = match (&p.warm, &traced.last_pass) {
            (Some((s, r)), _) | (None, Some((s, r))) => (s, r),
            (None, None) => return Err("no cold pass completed without failures".into()),
        };
        probes::store_probes(&p.cases, store, &mut v);
        // Service layer: the traced timed jobs on warm-triage; on the cold
        // workloads, a service replay of the last pass's jobs over its store.
        let service = if warm {
            None
        } else {
            let attached: Arc<dyn ArtifactStore> = store.clone();
            let mut probe_order = Shuffled::new(p.cases.len(), args.seed);
            Some(triage_loop(
                &p.cases,
                reference,
                attached,
                None,
                Stop::Jobs(SERVICE_PROBE_ROUNDS * p.cases.len() as u64),
                &mut probe_order,
                tracer,
                &mut self.next_job,
            ))
        };
        let batch = service.as_ref().unwrap_or(&traced);
        v.insert("batch.busy_us", batch.per_job(batch.busy_us));
        v.insert("batch.wait_us", batch.per_job(batch.wait_us));
        v.insert("batch.cache_hits_per_job", batch.per_job(batch.cache_hits));
        v.insert("batch.computed_per_job", batch.per_job(batch.computed));
        v.insert("batch.deduped_per_job", batch.per_job(batch.deduped));
        v.insert(
            "batch.waves_per_job",
            ratio(batch.waves as f64, batch.attempted as f64),
        );

        let setup_ms = v["search.setup_ms"];
        let search_ms = v["search.ms"];
        v.insert(
            "search.try_us",
            (search_ms - setup_ms) * 1e3 / tries.max(1.0),
        );
        v.insert(
            "search.worklist_used_ratio",
            ratio(combos_tested, v["search.worklist_combos"]),
        );

        let attempted =
            untraced.attempted + traced.attempted + service.as_ref().map_or(0, |s| s.attempted);
        let failed = untraced.failed + traced.failed + service.as_ref().map_or(0, |s| s.failed);
        println!(
            "{}: {} jobs attempted, {} failed (untraced half, traced half{})",
            args.workload,
            attempted,
            failed,
            if warm { "" } else { ", service probe" }
        );
        for out in [&untraced, &traced].into_iter().chain(service.as_ref()) {
            report_errors(out);
        }
        match args.workload {
        "cold-shallow" => println!(
            "  split: search.setup_ms / search.ms = {:.3} (chosen for >= 0.8): {}",
            ratio(setup_ms, search_ms),
            if setup_ms >= 0.8 * search_ms { "holds" } else { "DOES NOT HOLD" }
        ),
        "cold-deep" => println!(
            "  split: search.setup_ms / search.ms = {:.3} (chosen for <= 0.1): {}",
            ratio(setup_ms, search_ms),
            if setup_ms <= 0.1 * search_ms { "holds" } else { "DOES NOT HOLD" }
        ),
        _ => println!(
            "  split: core.store_hit_ratio = {} while timed, every Search unit a store hit (chosen for 1): {}",
            v["core.store_hit_ratio"],
            if v["core.store_hit_ratio"] == 1.0 && failed == 0 { "holds" } else { "DOES NOT HOLD" }
        ),
    }
        print_table(PER_LAYER, &v);

        let mut dump = format!("{}\n{{\"section\":\"setup\"}}\n", self.stamp);
        dump.push_str(&trace::to_json_lines(&self.setup_spans));
        dump.push_str("{\"section\":\"timed\"}\n");
        dump.push_str(&trace::to_json_lines(&window_spans));
        let path = format!(".bench_out/trace-{}-seed{}.jsonl", args.workload, args.seed);
        std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, dump))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("  spans written to {path}");
        println!(
            "{}",
            result_line(failed == 0, attempted, failed, PER_LAYER, &v)?
        );
        Ok(())
    }
}
