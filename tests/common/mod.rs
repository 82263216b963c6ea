//! Helpers shared by the integration tests.

use hpcc::core::presets::incast_on_star;
use hpcc::prelude::*;

/// Scenario diversity for campaign-merge checks: a mixed HPCC / DCQCN /
/// TIMELY campaign over different topologies and workloads.
pub fn mixed_campaign() -> Campaign {
    let star = |label: &str, seed: u64| {
        incast_on_star(
            label,
            CcSpec::by_label(label),
            6,
            150_000,
            Bandwidth::from_gbps(25),
            Duration::from_ms(1),
        )
        .with_seed(seed)
    };
    Campaign::from_scenarios(vec![
        star("HPCC", 1),
        star("DCQCN", 2),
        star("TIMELY", 3),
        ScenarioSpec::new(
            "HPCC dumbbell websearch",
            TopologyChoice::Dumbbell {
                left: 4,
                right: 4,
                host_bw: Bandwidth::from_gbps(25),
                core_bw: Bandwidth::from_gbps(50),
                link_delay: Duration::from_us(1),
            },
            CcSpec::by_label("HPCC"),
            Duration::from_ms(1),
        )
        .with_workload(WorkloadSpec::poisson(CdfSpec::WebSearch, 0.2))
        .with_queue_sampling(Duration::from_us(5))
        .with_seed(4),
        ScenarioSpec::new(
            "DCQCN star fb_hadoop",
            TopologyChoice::star(8, Bandwidth::from_gbps(25)),
            CcSpec::by_label("DCQCN"),
            Duration::from_ms(1),
        )
        .with_workload(WorkloadSpec::poisson(CdfSpec::FbHadoop, 0.3))
        .with_queue_sampling(Duration::from_us(5))
        .with_seed(5),
    ])
}
