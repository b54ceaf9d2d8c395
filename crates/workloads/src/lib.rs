//! # mcr-workloads — benchmark programs for the evaluation
//!
//! * [`bugs`] — the seven concurrency bugs of the paper's Table 2
//!   (apache-1/2, mysql-1..5), including the §6 mod_mem_cache case study,
//! * [`faults`] — environment-gated seeded bugs: TSO store-buffering
//!   bugs unreachable under SC, plus fault-injection bugs (allocation
//!   failure, lock timeout) dead without their fault plan,
//! * [`splash`] — loop-intensive kernels standing in for splash-2 in the
//!   Fig. 10 overhead measurement,
//! * [`corpora`] — synthesized program corpora with apache/mysql/postgres
//!   control-flow statistics for the Table 1 census,
//! * [`fleet`] — duplicate-heavy job mixes over the bug suite for the
//!   `mcr-batch` fleet scheduler and its benchmarks.

#![warn(missing_docs)]

pub mod bugs;
pub mod corpora;
pub mod faults;
pub mod fleet;
pub mod splash;

pub use bugs::{all_bugs, bug_by_name, BugClass, BugSpec};
pub use corpora::{generate, paper_profiles, small_profiles, CorpusProfile};
pub use faults::{fault_bug_by_name, fault_bugs, EnvRequirement, FaultBugSpec};
pub use fleet::{fleet_corpus, fleet_mix, fleet_stream, FleetSpec, FleetStream};
pub use splash::{measure_overhead, overhead_workloads, OverheadResult, OverheadWorkload};
