//! # hpcc-bench
//!
//! The benchmark and figure-regeneration harness of the HPCC reproduction.
//!
//! * [`figures`] — one runner per table/figure of the paper's evaluation
//!   (§2.3, §3.4, §5.2–§5.4). Each runner builds the corresponding scenario
//!   from `hpcc-core` presets, runs it and renders the same rows/series the
//!   paper plots. The `figures` binary (`figures <name|all> [args…]`)
//!   prints one runner's report, or all of them.
//! * The `campaign` binary is the manifest runner, micro-benchmark suite
//!   and elastic-fabric coordinator/worker; the `trace` binary exports
//!   workloads to flow-trace files, freezes manifests into trace-replay
//!   artifacts and inspects/verifies traces (see `hpcc_workload::trace`).
//!
//! Scale: by default every runner uses a laptop-sized configuration (small
//! fabric, tens of milliseconds). Pass larger durations / the paper fabric
//! via each runner's arguments (the `figures` binary exposes them as CLI
//! arguments) to approach the paper's scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

/// Parse an optional CLI argument (`args[i]`) into `T`, falling back to a
/// default.
pub fn arg_or<T: std::str::FromStr>(args: &[String], i: usize, default: T) -> T {
    args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing_falls_back_to_default() {
        let args: Vec<String> = vec!["prog".into(), "7".into(), "oops".into()];
        assert_eq!(arg_or(&args, 1, 3u64), 7);
        assert_eq!(arg_or(&args, 2, 3u64), 3);
        assert_eq!(arg_or(&args, 9, 1.5f64), 1.5);
    }
}
