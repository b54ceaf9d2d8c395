//! Schedule search: plain CHESS and the paper's enhanced algorithm.
//!
//! Plain CHESS enumerates preemption combinations up to the bound `k` in
//! execution order and tries every thread selection at each injected
//! preemption. The enhanced algorithm (paper Algorithm 2):
//!
//! 1. weights every combination by the sum of the best CSV-access
//!    priorities of its members,
//! 2. sorts the worklist ascending and tests combinations in that order,
//! 3. restricts `preempt()`'s thread selection to threads whose future
//!    CSV set overlaps the perturbed block's accesses.
//!
//! The paper fixes `k = 2` ("most failures only need two preemptions").

use crate::candidates::{AnnotatedCandidate, FutureCsvMap};
use crate::runner::{Budget, CancelToken, Guidance, TestRun};
use mcr_vm::{Failure, Vm};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The original CHESS enumeration (execution order, unguided).
    Chess,
    /// Enhanced CHESS with priority weights and guided thread selection.
    ChessX,
}

/// Configuration of one search: the values that decide its result.
/// How the search runs — the executor it fans out over and the token
/// that cancels it — are arguments of [`find_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchConfig {
    /// Preemption bound `k` (the paper uses 2).
    pub preemption_bound: usize,
    /// Cap on completed test executions (the paper's 18-hour cutoff
    /// equivalent).
    pub max_tries: u64,
    /// Optional wall-clock budget.
    pub time_budget: Option<Duration>,
    /// Per-run step cap.
    pub max_steps: u64,
    /// When the candidate list is enormous, pairs are only formed among
    /// the `pair_pool` best candidates (by priority for ChessX, by
    /// execution order for CHESS) to bound worklist construction.
    pub pair_pool: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            preemption_bound: 2,
            max_tries: 20_000,
            time_budget: None,
            max_steps: 10_000_000,
            pair_pool: 512,
        }
    }
}

/// Result of a schedule search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Whether the failure was reproduced.
    pub reproduced: bool,
    /// Completed test executions (the "tries" of Table 4).
    pub tries: u64,
    /// Combinations taken from the worklist.
    pub combinations_tested: u64,
    /// The winning preemption set, if any.
    pub winning: Option<Vec<AnnotatedCandidate>>,
    /// Wall-clock time spent searching.
    pub wall_time: Duration,
    /// True when the search stopped on budget rather than success or
    /// worklist exhaustion.
    pub cut_off: bool,
    /// True when the stop was a [`CancelToken`] firing (a partial result:
    /// combinations not yet tested may still reproduce).
    pub cancelled: bool,
}

/// Searches for a failure-inducing schedule.
///
/// `fresh_vm` must be a VM at the initial state for the failing input;
/// each test clones it. `(candidates, future)` is the pair
/// [`annotate`](crate::annotate) (or
/// [`annotate_with_race`](crate::annotate_with_race)) derives from the
/// passing run.
///
/// `executor` sets the fan-out. A one-worker pool, or any pool once
/// clamped to the machine's physical core count (extra workers on an
/// oversubscribed host only add contention), runs the exact serial
/// loop. A larger pool fans the worklist over workers that claim
/// combinations in worklist order; the *lowest worklist index* that
/// reproduces wins, and the reported `reproduced` / `winning` /
/// `combinations_tested` / `tries` are identical to the serial result
/// whenever the search finishes without hitting the try cap or
/// deadline (speculative tries beyond the winner are spent but not
/// reported). When the budget *does* bind mid-search, speculative work
/// competes with low-index combinations for the remaining tries, so a
/// cut-off parallel run may reproduce a different (or no) combination
/// than a cut-off serial run — size `max_tries` for the serial search
/// and treat it as a work bound, not an exact schedule. A fleet passes
/// every search a clone of one handle carrying a shared
/// [`minipool::Limit`], so concurrent searches draw from a single
/// thread budget.
///
/// When `cancel` fires mid-search, every worker unwinds at its next
/// budget poll and the search returns a partial [`SearchResult`] with
/// `cancelled` (and `cut_off`) set.
pub fn find_schedule(
    fresh_vm: &Vm<'_>,
    (candidates, future): (&[AnnotatedCandidate], &FutureCsvMap),
    target: Failure,
    algorithm: Algorithm,
    config: &SearchConfig,
    executor: &minipool::Pool,
    cancel: &CancelToken,
) -> SearchResult {
    let start = Instant::now();
    let deadline = config.time_budget.map(|d| start + d);

    let worklist = build_worklist(candidates, algorithm, config);
    let guidance = match algorithm {
        Algorithm::Chess => Guidance::All,
        Algorithm::ChessX => Guidance::CsvOverlap,
    };

    // Clamp the fan-out to the machine: workers beyond the physical
    // core count only add claim contention and speculative tries, and
    // on a single-core host the "parallel" path is pure overhead (the
    // 0.93x regression this clamp fixed) — such hosts take the exact
    // serial loop below.
    let workers = executor.threads().min(minipool::available_parallelism());
    if workers > 1 && worklist.len() > 1 {
        return find_schedule_parallel(
            fresh_vm, candidates, future, target, guidance, config, executor, cancel, workers,
            &worklist, deadline, start,
        );
    }

    let mut budget =
        Budget::with_tries(config.max_tries, config.max_steps).with_cancel(cancel.clone());
    budget.deadline = deadline;

    let mut combinations_tested = 0u64;
    let mut winning = None;
    let mut reproduced = false;
    // Stop reason recorded at stop time, not read from the live token /
    // clock afterwards: a search that already ran its worklist dry must
    // not be relabeled partial by a token firing after the fact.
    let mut cut_off = false;
    let mut cancelled = false;
    for combo in worklist {
        if budget.exhausted() {
            cut_off = true;
            cancelled = budget.cancelled();
            break;
        }
        combinations_tested += 1;
        let set: Vec<AnnotatedCandidate> = combo.iter().map(|&i| candidates[i].clone()).collect();
        let run = TestRun {
            fresh_vm,
            preemptions: &set,
            target,
            guidance,
            future,
        };
        if run.execute(&mut budget) {
            winning = Some(set);
            reproduced = true;
            break;
        }
        // Re-check at loop bottom so exhaustion inside the *last*
        // combination's execute is still attributed to the budget.
        if budget.exhausted() {
            cut_off = true;
            cancelled = budget.cancelled();
            break;
        }
    }

    SearchResult {
        reproduced,
        tries: budget.tries,
        combinations_tested,
        winning,
        wall_time: start.elapsed(),
        cut_off: !reproduced && cut_off,
        cancelled: !reproduced && cancelled,
    }
}

/// The parallel worklist driver: `workers` pool tasks claim worklist
/// indices *in order* from one shared counter; every worker draws from
/// one shared try pool, and the *lowest worklist index* that reproduces
/// is the winner, so the result matches the serial search whenever the
/// budget does not cut the search off (see [`find_schedule`] for the
/// cutoff caveat).
///
/// In-order claiming (rather than chunked index splitting) keeps the
/// fan-out front-loaded on the combinations the guided ordering ranked
/// best: no worker burns tries deep in the tail while the likely winner
/// near the head is still unclaimed. Once a winner is posted, workers
/// mid-combination at higher indices abort at their next budget poll
/// (the obsolete-watch); since the winner index only decreases,
/// combinations at or below the final winner always run to completion
/// and their try counts stay serial-identical.
///
/// Checkpoint sharing makes this cheap: all workers clone the same
/// `fresh_vm`, and with copy-on-write VM state those clones are
/// reference-count bumps into shared initial state.
#[allow(clippy::too_many_arguments)]
fn find_schedule_parallel(
    fresh_vm: &Vm<'_>,
    candidates: &[AnnotatedCandidate],
    future: &FutureCsvMap,
    target: Failure,
    guidance: Guidance,
    config: &SearchConfig,
    executor: &minipool::Pool,
    cancel: &CancelToken,
    workers: usize,
    worklist: &[Vec<usize>],
    deadline: Option<Instant>,
    start: Instant,
) -> SearchResult {
    let n = worklist.len();
    // Lowest reproducing worklist index (usize::MAX = none yet).
    let winner = Arc::new(AtomicUsize::new(usize::MAX));
    // The claim counter: each worker takes the next untested index.
    let next = AtomicUsize::new(0);
    // One global try pool, debited as each try completes — the cap
    // bounds *total* work to within one in-flight try per worker, unlike
    // per-worker budget snapshots which could multiply it.
    let pool = crate::runner::SharedTries::new(config.max_tries);
    // Per-combination tries for deterministic reporting.
    let per_combo_tries: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let executed: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    // Did cancellation actually stop work? Recorded by the workers that
    // observed it, so a token firing after the search is over cannot
    // relabel a complete result as partial.
    let cancel_stopped = std::sync::atomic::AtomicBool::new(false);

    executor.for_each_index(workers, |_| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        // Claims are monotonic and the winner index only decreases, so
        // once this claim is past the winner (or the list), every later
        // claim would be too: this worker is done.
        if i >= n || i > winner.load(Ordering::Acquire) {
            break;
        }
        if cancel.is_cancelled() {
            cancel_stopped.store(true, Ordering::Relaxed);
            break;
        }
        if pool.exhausted_now() {
            break;
        }
        let mut budget = Budget::with_tries(u64::MAX, config.max_steps)
            .with_shared(pool.clone())
            .with_cancel(cancel.clone())
            .with_obsolete(Arc::clone(&winner), i);
        budget.deadline = deadline;
        let set: Vec<AnnotatedCandidate> =
            worklist[i].iter().map(|&k| candidates[k].clone()).collect();
        let run = TestRun {
            fresh_vm,
            preemptions: &set,
            target,
            guidance,
            future,
        };
        executed[i].store(1, Ordering::Relaxed);
        let ok = run.execute(&mut budget);
        per_combo_tries[i].store(budget.tries, Ordering::Relaxed);
        if ok {
            winner.fetch_min(i, Ordering::AcqRel);
        } else if budget.cancelled() {
            cancel_stopped.store(true, Ordering::Relaxed);
        }
    });

    let w = winner.load(Ordering::Acquire);
    if w != usize::MAX {
        // Serial-identical accounting: the tries and combination count
        // the serial loop would have reported — everything up to and
        // including the winner; speculative work beyond it is discarded.
        let tries: u64 = per_combo_tries[..=w]
            .iter()
            .map(|t| t.load(Ordering::Relaxed))
            .sum();
        let winning: Vec<AnnotatedCandidate> =
            worklist[w].iter().map(|&k| candidates[k].clone()).collect();
        SearchResult {
            reproduced: true,
            tries,
            combinations_tested: (w + 1) as u64,
            winning: Some(winning),
            wall_time: start.elapsed(),
            cut_off: false,
            cancelled: false,
        }
    } else {
        let tries = pool.used();
        let combinations_tested = executed
            .iter()
            .filter(|e| e.load(Ordering::Relaxed) == 1)
            .count() as u64;
        let cancelled = cancel_stopped.load(Ordering::Relaxed);
        let cut_off =
            cancelled || tries >= config.max_tries || deadline.is_some_and(|d| Instant::now() >= d);
        SearchResult {
            reproduced: false,
            tries,
            combinations_tested,
            winning: None,
            wall_time: start.elapsed(),
            cut_off,
            cancelled,
        }
    }
}

/// Builds the ordered worklist of candidate-index combinations.
fn build_worklist(
    candidates: &[AnnotatedCandidate],
    algorithm: Algorithm,
    config: &SearchConfig,
) -> Vec<Vec<usize>> {
    let n = candidates.len();
    let mut singles: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

    // Pair pool: cap quadratic blowup on very long runs.
    let mut pool: Vec<usize> = (0..n).collect();
    if n > config.pair_pool {
        if algorithm == Algorithm::ChessX {
            pool.sort_by_key(|&i| candidates[i].best_priority);
        }
        pool.truncate(config.pair_pool);
        pool.sort_unstable();
    }
    let mut pairs: Vec<Vec<usize>> = Vec::new();
    if config.preemption_bound >= 2 {
        for (a, &i) in pool.iter().enumerate() {
            for &j in pool.iter().skip(a + 1) {
                pairs.push(vec![i, j]);
            }
        }
    }

    match algorithm {
        Algorithm::Chess => {
            // Linear search: single preemptions in execution order, then
            // pairs in lexicographic execution order.
            let mut out = singles;
            out.extend(pairs);
            out
        }
        Algorithm::ChessX => {
            // Algorithm 2: weight = sum of members' best priorities; sort
            // the whole worklist ascending.
            let weight = |combo: &Vec<usize>| -> u64 {
                combo
                    .iter()
                    .map(|&i| candidates[i].best_priority as u64)
                    .sum()
            };
            let mut out: Vec<Vec<usize>> = Vec::with_capacity(singles.len() + pairs.len());
            out.append(&mut singles);
            out.append(&mut pairs);
            out.sort_by_key(|c| (weight(c), c.len(), c.clone()));
            out
        }
    }
}

/// Convenience: the number of combinations the worklist would hold.
pub fn worklist_size(n_candidates: usize, bound: usize, pair_pool: usize) -> usize {
    let n = n_candidates;
    let pool = n.min(pair_pool);
    let pairs = if bound >= 2 { pool * (pool - 1) / 2 } else { 0 };
    n + pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{annotate, SyncLogger};
    use mcr_slice::PRIORITY_BOTTOM as BOT;
    use mcr_vm::{run, DeterministicScheduler, MemLoc, NullObserver, StressScheduler, ThreadId};
    use std::collections::{HashMap, HashSet};

    const FIG1: &str = r#"
        global x: int;
        global input: [int; 2];
        lock l;
        fn F(p) { p[0] = 1; }
        fn T1() {
            var i; var p;
            for (i = 0; i < 2; i = i + 1) {
                x = 0;
                p = alloc(2);
                acquire l;
                if (input[i] > 0) {
                    x = 1;
                    p = null;
                }
                release l;
                if (!x) { F(p); }
            }
        }
        fn T2() { x = 0; }
        fn main() {
            spawn T1();
            spawn T2();
        }
    "#;

    struct Setup {
        program: mcr_lang::Program,
        failure: Failure,
        candidates: Vec<AnnotatedCandidate>,
        future: FutureCsvMap,
    }

    fn setup() -> Setup {
        let program = mcr_lang::compile(FIG1).unwrap();
        let input = [0i64, 1];
        let mut failure = None;
        for seed in 0..50_000 {
            let mut vm = Vm::new(&program, &input);
            let mut s = StressScheduler::new(seed);
            run(&mut vm, &mut s, &mut NullObserver, 1_000_000);
            if let Some(f) = vm.failure() {
                failure = Some(f);
                break;
            }
        }
        let failure = failure.expect("race must be exposed");
        let mut vm = Vm::new(&program, &input);
        let mut s = DeterministicScheduler::new();
        let mut log = SyncLogger::new();
        run(&mut vm, &mut s, &mut log, 1_000_000);
        let info = log.finish();
        let x = program.global_by_name("x").unwrap();
        let mut csvs = HashSet::new();
        csvs.insert(MemLoc::Global(x));
        // Give the second-iteration accesses the top priorities the way
        // the temporal heuristic would.
        let mut prio = HashMap::new();
        for (i, a) in info
            .shared_accesses
            .iter()
            .rev()
            .filter(|a| a.tid == ThreadId(1) && csvs.contains(&a.loc))
            .enumerate()
        {
            prio.insert((a.step, a.loc, a.is_write), i as u32 + 1);
        }
        let (candidates, future) = annotate(&info, &csvs, &prio);
        Setup {
            program,
            failure,
            candidates,
            future,
        }
    }

    /// Runs one search over the fixture's candidates on `executor`.
    fn search(
        s: &Setup,
        target: Failure,
        algorithm: Algorithm,
        config: &SearchConfig,
        executor: &minipool::Pool,
        cancel: &CancelToken,
    ) -> SearchResult {
        let fresh = Vm::new(&s.program, &[0, 1]);
        find_schedule(
            &fresh,
            (&s.candidates, &s.future),
            target,
            algorithm,
            config,
            executor,
            cancel,
        )
    }

    /// A serial search with a token that never fires.
    fn serial(
        s: &Setup,
        target: Failure,
        algorithm: Algorithm,
        config: &SearchConfig,
    ) -> SearchResult {
        search(
            s,
            target,
            algorithm,
            config,
            &minipool::Pool::new(1),
            &CancelToken::new(),
        )
    }

    #[test]
    fn chessx_beats_chess_on_fig1() {
        let s = setup();
        let cfg = SearchConfig::default();

        let x = serial(&s, s.failure, Algorithm::ChessX, &cfg);
        assert!(x.reproduced, "chessx must reproduce: {x:?}");

        let c = serial(&s, s.failure, Algorithm::Chess, &cfg);
        assert!(c.reproduced, "plain chess eventually reproduces");
        assert!(
            x.tries <= c.tries,
            "guided {} vs plain {}",
            x.tries,
            c.tries
        );
        // The winning schedule is a single preemption.
        assert_eq!(x.winning.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn worklist_order_respects_weights() {
        let s = setup();
        let cfg = SearchConfig::default();
        let wl = build_worklist(&s.candidates, Algorithm::ChessX, &cfg);
        // The first combination's weight is minimal.
        let weight = |combo: &Vec<usize>| -> u64 {
            combo
                .iter()
                .map(|&i| s.candidates[i].best_priority as u64)
                .sum()
        };
        let w0 = weight(&wl[0]);
        assert!(wl.iter().all(|c| weight(c) >= w0));
        // Its sole member's block touches the CSV.
        assert!(s.candidates[wl[0][0]].best_priority < BOT);
    }

    #[test]
    fn chess_worklist_is_execution_ordered() {
        let s = setup();
        let cfg = SearchConfig::default();
        let wl = build_worklist(&s.candidates, Algorithm::Chess, &cfg);
        // Singles first, in candidate order.
        for (i, combo) in wl.iter().take(s.candidates.len()).enumerate() {
            assert_eq!(combo, &vec![i]);
        }
        assert_eq!(
            wl.len(),
            worklist_size(s.candidates.len(), 2, cfg.pair_pool)
        );
    }

    #[test]
    fn budget_cutoff_reported() {
        let s = setup();
        // Impossible target: same kind, nonexistent pc.
        let impossible = Failure {
            pc: mcr_lang::Pc::new(mcr_lang::FuncId(0), mcr_lang::StmtId(0)),
            ..s.failure
        };
        let cfg = SearchConfig {
            max_tries: 5,
            ..Default::default()
        };
        let r = serial(&s, impossible, Algorithm::Chess, &cfg);
        assert!(!r.reproduced);
        assert!(r.cut_off);
        assert!(r.tries <= 5);
    }

    #[test]
    fn parallel_search_matches_serial() {
        let s = setup();
        let cfg = SearchConfig::default();
        let points = |r: &SearchResult| {
            r.winning
                .as_ref()
                .map(|w| w.iter().map(|c| c.point).collect::<Vec<_>>())
        };
        for alg in [Algorithm::ChessX, Algorithm::Chess] {
            let a = serial(&s, s.failure, alg, &cfg);
            let b = search(
                &s,
                s.failure,
                alg,
                &cfg,
                &minipool::Pool::new(4),
                &CancelToken::new(),
            );
            assert_eq!(a.reproduced, b.reproduced, "{alg:?}");
            assert_eq!(a.tries, b.tries, "{alg:?}");
            assert_eq!(a.combinations_tested, b.combinations_tested, "{alg:?}");
            assert_eq!(points(&a), points(&b), "{alg:?}");
        }
    }

    #[test]
    fn parallel_driver_matches_serial_even_when_cores_are_scarce() {
        // `find_schedule` clamps its fan-out to the physical core
        // count, so on a small host the test above may exercise the
        // serial loop twice. Drive the parallel claim loop directly to
        // pin its accounting against the serial path regardless of the
        // machine.
        let s = setup();
        let fresh = Vm::new(&s.program, &[0, 1]);
        let cfg = SearchConfig::default();
        for (alg, guidance) in [
            (Algorithm::ChessX, Guidance::CsvOverlap),
            (Algorithm::Chess, Guidance::All),
        ] {
            let serial = serial(&s, s.failure, alg, &cfg);
            let worklist = build_worklist(&s.candidates, alg, &cfg);
            let executor = minipool::Pool::new(4);
            let start = Instant::now();
            let par = find_schedule_parallel(
                &fresh,
                &s.candidates,
                &s.future,
                s.failure,
                guidance,
                &cfg,
                &executor,
                &CancelToken::new(),
                4,
                &worklist,
                None,
                start,
            );
            assert_eq!(serial.reproduced, par.reproduced, "{alg:?}");
            assert_eq!(serial.tries, par.tries, "{alg:?}");
            assert_eq!(
                serial.combinations_tested, par.combinations_tested,
                "{alg:?}"
            );
            assert_eq!(serial.winning, par.winning, "{alg:?}");
        }
    }

    #[test]
    fn injected_shared_pool_matches_serial() {
        let s = setup();
        let cfg = SearchConfig::default();
        let serial = serial(&s, s.failure, Algorithm::ChessX, &cfg);
        // A handle with a shared worker budget, as a fleet would pass.
        let limit = minipool::Limit::new(2);
        let injected = search(
            &s,
            s.failure,
            Algorithm::ChessX,
            &cfg,
            &minipool::Pool::with_limit(4, limit.clone()),
            &CancelToken::new(),
        );
        assert_eq!(serial.reproduced, injected.reproduced);
        assert_eq!(serial.tries, injected.tries);
        assert_eq!(serial.combinations_tested, injected.combinations_tested);
        assert_eq!(serial.winning, injected.winning);
        // Every claimed permit was returned.
        assert_eq!(limit.available(), limit.capacity());
    }

    #[test]
    fn cancellation_returns_partial_result() {
        let s = setup();
        // Impossible target so the search would otherwise grind through
        // the entire worklist.
        let impossible = Failure {
            pc: mcr_lang::Pc::new(mcr_lang::FuncId(0), mcr_lang::StmtId(0)),
            ..s.failure
        };
        for workers in [1, 4] {
            let cancel = CancelToken::new();
            cancel.cancel(); // fire before the search even starts
            let r = search(
                &s,
                impossible,
                Algorithm::Chess,
                &SearchConfig::default(),
                &minipool::Pool::new(workers),
                &cancel,
            );
            assert!(!r.reproduced);
            assert!(r.cancelled, "{workers} workers");
            assert!(r.cut_off);
            assert_eq!(r.tries, 0);
        }
    }

    #[test]
    fn pair_pool_caps_worklist() {
        let s = setup();
        let cfg = SearchConfig {
            pair_pool: 3,
            ..Default::default()
        };
        let wl = build_worklist(&s.candidates, Algorithm::ChessX, &cfg);
        assert_eq!(wl.len(), s.candidates.len() + 3);
    }
}
