//! # mcr-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! over the `mcr-workloads` suite; see [`experiments`] for one function
//! per table and the `tables` binary for the command-line driver:
//!
//! ```text
//! cargo run --release -p mcr-bench --bin tables -- all
//! ```
//!
//! Criterion micro-benchmarks of the hot analysis kernels live under
//! `benches/` (`cargo bench -p mcr-bench`), and [`hotpath`] measures the
//! search engine's cost model (checkpoint cost, steps/sec, tries/sec,
//! guided vs plain, parallel speedup), writing `BENCH_search.json` via:
//!
//! ```text
//! cargo run --release -p mcr-bench --bin tables -- bench-json
//! ```
//!
//! [`batch`] measures the `mcr-batch` fleet engine — throughput and
//! cache-hit rate on a duplicate-heavy job mix — writing
//! `BENCH_batch.json` via:
//!
//! ```text
//! cargo run --release -p mcr-bench --bin tables -- batch-json
//! ```
//!
//! [`lint`] is the dump-less surface: the static race/lockset lint over
//! the whole workload corpus, via:
//!
//! ```text
//! cargo run --release -p mcr-bench --bin tables -- race-lint
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod experiments;
pub mod hotpath;
pub mod lint;

/// Every object key in a JSON document, flattened into one set (key
/// order and nesting ignored): what a committed `BENCH_*.json` file and
/// its writer's current output must agree on.
#[cfg(test)]
fn json_keys(json: &str) -> std::collections::BTreeSet<String> {
    let mut keys = std::collections::BTreeSet::new();
    let mut chars = json.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if c != '"' {
            continue;
        }
        let mut end = start + 1;
        while let Some((i, c)) = chars.next() {
            if c == '\\' {
                chars.next();
            } else if c == '"' {
                end = i;
                break;
            }
        }
        while chars.next_if(|&(_, c)| c.is_whitespace()).is_some() {}
        if chars.next_if(|&(_, c)| c == ':').is_some() {
            keys.insert(json[start + 1..end].to_string());
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::json_keys;

    #[test]
    fn json_keys_finds_nested_keys_not_string_values() {
        let keys = json_keys(r#"{"a": "b:", "c": {"d\"e": 1, "f" : [2]}}"#);
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        assert_eq!(keys, ["a", "c", "d\\\"e", "f"]);
    }
}
