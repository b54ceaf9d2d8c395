//! Every metric the benchmark reports, with its unit and, for the
//! per-layer metrics, the end-to-end metric and workload it should
//! move. `BENCHMARK.json` at the repository root lists the same names.

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed in the result object.
    pub name: &'static str,
    /// Unit, as printed in the result object.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For a per-layer metric: the end-to-end metric and workload it
    /// should move, and where its value comes from. Empty for
    /// end-to-end metrics.
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves: "",
    }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, printed by an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("jobs_per_s", "1/s", Higher),
    m("job_ms_p50", "ms", Lower),
    m("job_ms_tail", "ms", Lower),
    m("cpu_ms_per_job", "ms", Lower),
    m("tries_per_job", "count", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// The per-layer metrics, printed by a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    l("lang.compile_us", "us", Lower,
      "setup_s on all workloads; probe: mcr_lang::compile per program"),
    l("lang.fingerprint_us", "us", Lower,
      "job_ms_p50 on warm-triage; probe: mcr_lang::program_fingerprint"),
    l("vm.step_ns", "ns", Lower,
      "job_ms_p50 and cpu_ms_per_job on cold-deep; probe: mcr_vm::run with DeterministicScheduler / Vm::steps"),
    l("vm.clone_ns", "ns", Lower,
      "job_ms_p50 and cpu_ms_per_job on cold-deep; probe: Vm::clone of Vm::new"),
    l("analysis.cd_us", "us", Lower,
      "job_ms_p50 on cold-shallow (expected effect under 0.1%); probe: ProgramAnalysis::analyze"),
    l("analysis.race_us", "us", Lower,
      "job_ms_p50 on cold-shallow (expected effect under 0.1%); probe: RaceAnalysis::analyze"),
    l("index.reverse_us", "us", Lower,
      "job_ms_p50 on cold-shallow; self time of the run_index span"),
    l("index.align_us", "us", Lower,
      "job_ms_p50 on cold-shallow; self time of the run_align span"),
    l("dump.diff_us", "us", Lower,
      "job_ms_p50 on cold-shallow; self time of the run_diff span"),
    l("slice.rank_us", "us", Lower,
      "job_ms_p50 on cold-shallow; self time of the run_rank span"),
    l("dump.codec_ns_per_byte", "ns/B", Lower,
      "job_ms_p50 on cold-shallow; probe: mcr_dump::encode + decode per encoded byte"),
    l("search.ms", "ms", Lower,
      "job_ms_p50 on cold-shallow and cold-deep; self time of the run_search span"),
    l("search.setup_ms", "ms", Lower,
      "job_ms_p50 and peak_rss_mb on cold-shallow; probe: run_search with search.max_tries = 0"),
    l("search.annotate_us", "us", Lower,
      "job_ms_p50 and peak_rss_mb on cold-shallow; probe: annotate_with_race on the session's artifacts"),
    l("search.candidates", "count", Lower,
      "job_ms_p50 on cold-shallow; annotated preemption candidates per job"),
    l("search.worklist_combos", "count", Lower,
      "job_ms_p50 and peak_rss_mb on cold-shallow; worklist_size per job"),
    l("search.combos_tested", "count", Lower,
      "job_ms_p50 on cold-deep; SearchResult::combinations_tested per job"),
    l("search.tries", "count", Lower,
      "tries_per_job on every workload; SearchResult::tries per job"),
    l("search.worklist_used_ratio", "ratio", Higher,
      "job_ms_p50 and peak_rss_mb on cold-shallow; combos_tested / worklist_combos"),
    l("search.try_us", "us", Lower,
      "job_ms_p50 and cpu_ms_per_job on cold-deep; (search.ms - search.setup_ms) / tries"),
    l("core.store_get_us", "us", Lower,
      "jobs_per_s on warm-triage; ArtifactStore::get via the benchmark's timing decorator"),
    l("core.store_put_us", "us", Lower,
      "job_ms_p50 on cold-shallow; ArtifactStore::put via the benchmark's timing decorator"),
    l("core.store_hit_ratio", "ratio", Higher,
      "jobs_per_s on warm-triage (1 there); store gets that hit while timed"),
    l("core.store_put_bytes_per_job", "B", Lower,
      "job_ms_p50 on cold-shallow; artifact bytes put per job while timed"),
    l("core.phase_key_us", "us", Lower,
      "jobs_per_s on warm-triage; probe: ReproSession::phase_key for the five phases of a fresh session"),
    l("core.artifact_decode_us", "us", Lower,
      "jobs_per_s on warm-triage; probe: from_bytes of the five stored artifacts of a job"),
    l("core.other_us", "us", Lower,
      "job_ms_p50 on every workload; job span minus its phase spans"),
    l("core.stress_ms", "ms", Lower,
      "setup_s on every workload; find_failure per program"),
    l("batch.busy_us", "us", Lower,
      "jobs_per_s and job_ms_tail on warm-triage; JobOutcome::busy"),
    l("batch.wait_us", "us", Lower,
      "jobs_per_s and job_ms_tail on warm-triage; job latency minus JobOutcome::busy"),
    l("batch.cache_hits_per_job", "count", Higher,
      "jobs_per_s and job_ms_tail on warm-triage; JobOutcome::cache_hits"),
    l("batch.computed_per_job", "count", Lower,
      "jobs_per_s and job_ms_tail on warm-triage; JobOutcome::computed"),
    l("batch.deduped_per_job", "count", Higher,
      "jobs_per_s and job_ms_tail on warm-triage; JobOutcome::deduped"),
    l("batch.waves_per_job", "count", Lower,
      "jobs_per_s and job_ms_tail on warm-triage; scheduler waves per completed job"),
    l("trace.untraced_jobs_per_s", "1/s", Higher,
      "tracing overhead: jobs_per_s over the untraced half of a traced run"),
    l("trace.traced_jobs_per_s", "1/s", Higher,
      "tracing overhead: jobs_per_s over the traced half of a traced run"),
    l("trace.overhead_ratio", "ratio", Lower,
      "tracing overhead: untraced / traced jobs_per_s"),
];
