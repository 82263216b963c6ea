//! The benchmark's workloads, generated from a seed.
//!
//! Each workload is a list of scenario specs built from the library's own
//! presets and handed to the program as JSON text, so the timed chain starts
//! where a user's does: at a spec or manifest document.

use crate::chain::Input;
use hpcc_core::presets::{fattree_fb_hadoop, first_fabric_link, SCHEME_SET_FLUID};
use hpcc_core::{BackendSpec, Campaign, FaultSpec, QueueingSpec, ScenarioSpec, TopologyChoice};
use hpcc_sim::{FlowControlMode, LinkDownMode, LinkFault};
use hpcc_topology::FatTreeParams;
use hpcc_types::rng::derive_seed;
use hpcc_types::Duration;

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_hpcc", "medium_dcqcn_pias_flap", "fluid_sweep"];

/// One generated workload.
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// The scenarios, in order.
    pub specs: Vec<ScenarioSpec>,
    /// True for the fluid sweep: fed as one campaign manifest, and also run
    /// as an nproc-thread campaign in the traced run. The packet workloads
    /// feed one spec document per scenario.
    pub sweep: bool,
}

impl Workload {
    /// The documents the timed chain parses.
    pub fn input(&self) -> Input {
        if self.sweep {
            Input::Manifest(Campaign::from_scenarios(self.specs.clone()).to_json_string())
        } else {
            Input::Specs(self.specs.iter().map(|s| s.to_json_string()).collect())
        }
    }
}

/// The 54-host "medium" fat-tree of the scaling suite (3 pods of 3 ToR +
/// 3 Agg, 6 cores, 6 hosts per ToR, 25/100 Gbps).
pub fn medium_fat_tree() -> FatTreeParams {
    FatTreeParams {
        pods: 3,
        tors_per_pod: 3,
        aggs_per_pod: 3,
        cores: 6,
        hosts_per_tor: 6,
        ..FatTreeParams::small()
    }
}

/// Generate workload `name` from `seed`; `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    let (name, specs, sweep) = match name {
        "paper_hpcc" => ("paper_hpcc", vec![paper_hpcc(seed)], false),
        "medium_dcqcn_pias_flap" => (
            "medium_dcqcn_pias_flap",
            medium_dcqcn_pias_flap(seed),
            false,
        ),
        "fluid_sweep" => ("fluid_sweep", fluid_sweep(seed), true),
        _ => return None,
    };
    Some(Workload { name, specs, sweep })
}

/// HPCC on the paper's 320-server fat-tree (§5.1) under FB_Hadoop at load
/// 0.5 plus incast, 400 µs of simulated time.
fn paper_hpcc(seed: u64) -> ScenarioSpec {
    fattree_fb_hadoop(
        "paper_hpcc",
        "HPCC",
        FatTreeParams::paper(),
        0.5,
        Duration::from_us(400),
        true,
        FlowControlMode::Lossless,
        seed,
    )
}

/// Three scenarios of DCQCN on the medium fat-tree under FB_Hadoop 0.5 plus
/// incast, with PIAS two-threshold queueing and a Pause-mode link that goes
/// down four times (one outage plus three flaps), 8 ms of simulated time
/// each. Each scenario draws its own seed from `seed`: one draw's event
/// count moves by about 9% (quartile spread) between seeds, because a few
/// FB_Hadoop elephants carry most bytes; three draws average that out.
fn medium_dcqcn_pias_flap(seed: u64) -> Vec<ScenarioSpec> {
    let params = medium_fat_tree();
    let end = Duration::from_ms(8);
    let link = first_fabric_link(&TopologyChoice::FatTree(params).build());
    (0..3)
        .map(|i| {
            fattree_fb_hadoop(
                format!("medium_dcqcn_pias_flap #{i}"),
                "DCQCN",
                params,
                0.5,
                end,
                true,
                FlowControlMode::Lossless,
                derive_seed(seed, i),
            )
            .with_queueing(QueueingSpec::pias(vec![100_000, 1_000_000]))
            .with_faults(FaultSpec::new().with_link_fault(LinkFault {
                link,
                at: end.mul_f64(0.2),
                down_for: end.mul_f64(0.04),
                flaps: 3,
                period: end.mul_f64(0.1),
                mode: LinkDownMode::Pause,
            }))
        })
        .collect()
}

/// Sixteen fluid-backend scenarios on the paper fabric: the four fluid
/// schemes × loads {0.3, 0.6} × two rounds, FB_Hadoop plus incast, 200 µs of
/// simulated time each. Every scenario draws its own seed from `seed`: the
/// fluid solver's cost varies by about 30% between traffic draws, and
/// sixteen independent draws average that out where two shared ones do not.
fn fluid_sweep(seed: u64) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for _round in 0..2 {
        for load in [0.3, 0.6] {
            for scheme in SCHEME_SET_FLUID {
                let scenario_seed = derive_seed(seed, specs.len() as u64);
                specs.push(
                    fattree_fb_hadoop(
                        format!("fluid #{} {scheme} load {load}", specs.len()),
                        scheme,
                        FatTreeParams::paper(),
                        load,
                        Duration::from_us(200),
                        true,
                        FlowControlMode::Lossless,
                        scenario_seed,
                    )
                    .with_backend(BackendSpec::Fluid),
                );
            }
        }
    }
    specs
}
