//! Support code for the end-to-end dump-to-schedule benchmark (the
//! `mcr-e2ebench` binary): order statistics, the span recorder, the
//! `/proc/self` parsers, and the table of metrics the benchmark reports.

pub mod metrics;
pub mod procfs;
pub mod stats;
pub mod trace;
