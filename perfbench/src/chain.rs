//! The public-API chain a user runs, timed from outside: spec or manifest
//! JSON → `ScenarioSpec::from_json_str` / `Campaign::from_json_str` →
//! `try_build` → `Experiment::run` → stats + `digest_output` →
//! `wire::encode_result_line` → `wire::merge_shard_streams`, one scenario
//! after another on the calling thread.
//!
//! The untraced functions time whole stages; the traced one wraps every
//! call into a layer in a span and splits `Experiment::run` into its
//! `Simulator::new` + `add_flows` and `Simulator::run` halves (or the
//! fluid backend's run).

use crate::trace::Tracer;
use hpcc_core::campaign::digest_output;
use hpcc_core::wire::{encode_result_line, merge_shard_streams};
use hpcc_core::{
    Campaign, CampaignReport, CdfSpec, ExperimentResults, FaultSummary, ScenarioResult,
    ScenarioSpec, WorkloadSpec,
};
use hpcc_sim::{Backend, BackendKind, CompiledScenario, FluidBackend, SimOutput, Simulator};
use hpcc_stats::fct::{fb_hadoop_buckets, websearch_buckets};
use hpcc_stats::FctAnalyzer;
use std::time::{Duration, Instant};

/// The documents a pass starts from.
pub enum Input {
    /// One campaign manifest (a JSON array of scenarios).
    Manifest(String),
    /// One scenario spec document per scenario.
    Specs(Vec<String>),
}

impl Input {
    /// Parse the documents into scenario specs.
    pub fn parse(&self) -> Result<Vec<ScenarioSpec>, String> {
        match self {
            Input::Manifest(doc) => Campaign::from_json_str(doc)
                .map(|c| c.scenarios().to_vec())
                .map_err(|e| err("manifest", e)),
            Input::Specs(docs) => docs
                .iter()
                .map(|doc| ScenarioSpec::from_json_str(doc).map_err(|e| err("spec", e)))
                .collect(),
        }
    }
}

/// Stage times of one untraced pass over a workload, in seconds.
pub struct Rep {
    /// Sum of the `Experiment::run` times.
    pub run_s: f64,
    /// JSON in to merged wire report out.
    pub total_s: f64,
    /// Events the backends processed (fluid epochs on the fluid backend).
    pub events: u64,
    /// The report merged back from the wire lines.
    pub merged: CampaignReport,
    /// The in-process report the wire lines were encoded from.
    pub in_process: CampaignReport,
}

/// The raw outputs of one traced pass, for the per-layer counters.
pub struct TracedRep {
    /// Index of the span covering the whole chain.
    pub root: usize,
    /// The report merged back from the wire lines.
    pub merged: CampaignReport,
    /// Every scenario's simulator output, in order.
    pub outputs: Vec<SimOutput>,
    /// Bytes of wire lines encoded.
    pub wire_bytes: usize,
}

fn err(stage: &str, e: impl std::fmt::Display) -> String {
    format!("{stage}: {e}")
}

/// Parse and build every scenario on one thread, timed; the built
/// experiments are dropped after the clock stops.
pub fn setup(input: &Input) -> Result<f64, String> {
    let start = Instant::now();
    let built = input
        .parse()?
        .iter()
        .map(|s| s.try_build().map_err(|e| err("try_build", e)))
        .collect::<Result<Vec<_>, String>>()?;
    let elapsed = start.elapsed().as_secs_f64();
    drop(built);
    Ok(elapsed)
}

/// One untraced pass over every scenario of `input`.
pub fn rep(input: &Input) -> Result<Rep, String> {
    let t0 = Instant::now();
    let specs = input.parse()?;
    let (mut run, mut events) = (Duration::ZERO, 0);
    let mut lines = String::new();
    let mut results = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let started = Instant::now();
        let exp = spec.try_build().map_err(|e| err("try_build", e))?;
        let t1 = Instant::now();
        let out = exp.run();
        let t2 = Instant::now();
        run += t2 - t1;
        let mut result = analyze(spec, out, t2 - started);
        let out = &result
            .results
            .as_ref()
            .expect("analyze keeps the results")
            .out;
        result.digest = digest_output(out);
        events += out.events_processed;
        lines.push_str(&encode_result_line(i, &result));
        lines.push('\n');
        results.push(result);
    }
    let merged =
        merge_shard_streams([lines.as_str()], Some(specs.len())).map_err(|e| err("merge", e))?;
    let total = t0.elapsed();
    Ok(Rep {
        run_s: run.as_secs_f64(),
        total_s: total.as_secs_f64(),
        events,
        merged,
        in_process: CampaignReport {
            results,
            wall: total,
            threads: 1,
        },
    })
}

/// One traced pass: every scenario of `input` in turn on the calling
/// thread, each call into a layer wrapped in its own span.
pub fn traced_rep(tr: &mut Tracer, input: &Input) -> Result<TracedRep, String> {
    let (result, root) = tr.span("trace.total", |tr| -> Result<_, String> {
        let specs = tr.span("core.scenario.from_json_s", |_| input.parse()).0?;
        let mut lines = String::new();
        let mut outputs = Vec::new();
        let mut keep = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let (topo, _) = tr.span("topology.build_s", |_| {
                spec.topology.try_build().map(|t| t.hosts().len())
            });
            topo.map_err(|e| err("topology", e))?;
            let (exp, _) = tr.span("core.scenario.try_build_s", |_| spec.try_build());
            let exp = exp.map_err(|e| err("try_build", e))?;
            let started = Instant::now();
            let out = if exp.backend() == BackendKind::Fluid {
                tr.span("sim.fluid.run_s", |_| {
                    FluidBackend.run(CompiledScenario {
                        topo: exp.topology().clone(),
                        cfg: exp.config().clone(),
                        flows: exp.flows().to_vec(),
                    })
                })
                .0
            } else {
                let (sim, _) = tr.span("sim.simulator.new_s", |_| {
                    let mut sim = Simulator::new(exp.topology().clone(), exp.config().clone());
                    sim.add_flows(exp.flows().to_vec());
                    sim
                });
                tr.span("sim.simulator.run_s", |_| sim.run()).0
            };
            let wall = started.elapsed();
            let (mut result, _) = tr.span("stats.analyze_s", |_| {
                let results = ExperimentResults {
                    label: exp.label().to_string(),
                    analyzer: FctAnalyzer::new(
                        exp.host_bw(),
                        exp.config().base_rtt,
                        exp.config().int_enabled,
                    ),
                    out,
                    flow_count: exp.flows().len(),
                    host_count: exp.topology().hosts().len(),
                };
                analyze(spec, results, wall)
            });
            let out = result
                .results
                .take()
                .expect("analyze keeps the results")
                .out;
            result.digest = tr.span("core.campaign.digest_s", |_| digest_output(&out)).0;
            tr.span("core.wire.encode_s", |_| {
                lines.push_str(&encode_result_line(i, &result));
                lines.push('\n');
            });
            outputs.push(out);
            keep.push(exp);
        }
        let (merged, _) = tr.span("core.wire.merge_s", |_| {
            merge_shard_streams([lines.as_str()], Some(specs.len()))
        });
        let merged = merged.map_err(|e| err("merge", e))?;
        Ok((merged, outputs, lines.len(), keep))
    });
    let (merged, outputs, wire_bytes, built) = result?;
    drop(built);
    Ok(TracedRep {
        root,
        merged,
        outputs,
        wire_bytes,
    })
}

/// The `ScenarioResult` field set `Campaign` reports for one run
/// (slowdowns, size buckets, queue percentiles, PFC summary, faults). The
/// digest is left 0 for the caller to fill in; `results` keeps the run.
pub fn analyze(spec: &ScenarioSpec, results: ExperimentResults, wall: Duration) -> ScenarioResult {
    let fb_hadoop = spec.workloads.iter().any(|w| {
        matches!(
            w,
            WorkloadSpec::Poisson {
                cdf: CdfSpec::FbHadoop,
                ..
            }
        )
    });
    let buckets = if fb_hadoop {
        fb_hadoop_buckets()
    } else {
        websearch_buckets()
    };
    let prio_slowdown = if results.out.flows.iter().any(|f| f.prio != 0) {
        results.slowdown_by_priority()
    } else {
        Vec::new()
    };
    let class_queue_p99 = (0..results.out.class_queue_histograms.len())
        .map(|c| results.class_queue_percentile(c, 99.0))
        .collect();
    let faults = (results.out.fault_events > 0).then(|| FaultSummary {
        events: results.out.fault_events,
        link_downtime_ps: results
            .out
            .link_downtime
            .iter()
            .map(|&(_, d)| d.as_ps())
            .sum(),
        dropped_bytes: results.out.fault_dropped_bytes,
        dropped_packets: results.out.fault_dropped_packets,
        goodput_during_faults: results.out.goodput_during_faults,
        utilization_while_up: results.utilization_while_up(spec.topology.host_bw()),
    });
    ScenarioResult {
        name: spec.name.clone(),
        scheme: spec.scheme_label(),
        slowdown: results.slowdown_overall(),
        short_flow_slowdown: results.slowdown_for_sizes_up_to(30_000),
        slowdown_buckets: results.slowdown_buckets(&buckets),
        queue_p50: results.queue_percentile(50.0),
        queue_p95: results.queue_percentile(95.0),
        queue_p99: results.queue_percentile(99.0),
        max_queue_bytes: results.out.max_queue_bytes(),
        pfc: results.pfc_summary(),
        drops: results.out.total_drops(),
        completion: results.completion_fraction(),
        flows_completed: results.out.flows.len(),
        prio_slowdown,
        class_queue_p99,
        faults,
        backend: spec.backend,
        digest: 0,
        wall,
        results: Some(results),
    }
}
