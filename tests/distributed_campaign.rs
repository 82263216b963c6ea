//! Merging per-worker JSONL result streams: however a campaign's scenarios
//! are split across workers, the merged report must be bit-identical —
//! per-scenario FNV digests *and* canonical report JSON — to a serial run.
//! This is the path `campaign --merge` takes when it replays a fabric
//! checkpoint; live fabric runs are covered by `tests/fabric_chaos.rs`.

use hpcc::core::wire::{encode_result_line, merge_shard_streams};

mod common;
use common::mixed_campaign;

/// Property: for every stream count `k ∈ {1, 2, 3, 7}` (including `k`
/// larger than the campaign, leaving some streams empty), running the
/// indices `i % k == s` into stream `s` and merging the streams reproduces
/// `run_serial()` bit for bit — digests and canonical JSON.
#[test]
fn shard_and_merge_matches_serial_for_every_shard_count() {
    let campaign = mixed_campaign();
    let serial = campaign.run_serial();
    assert_eq!(serial.results.len(), 5);
    for k in [1usize, 2, 3, 7] {
        let streams: Vec<String> = (0..k)
            .map(|s| {
                (0..campaign.len())
                    .filter(|i| i % k == s)
                    .map(|i| encode_result_line(i, &campaign.run_index(i)) + "\n")
                    .collect()
            })
            .collect();
        let total_lines: usize = streams.iter().map(|s| s.lines().count()).sum();
        assert_eq!(total_lines, campaign.len(), "k={k}");
        let merged = merge_shard_streams(streams.iter().map(String::as_str), Some(campaign.len()))
            .unwrap_or_else(|e| panic!("k={k}: {e}"));
        assert_eq!(merged.digests(), serial.digests(), "k={k}");
        assert_eq!(merged.to_json_string(), serial.to_json_string(), "k={k}");
        assert_eq!(merged.threads, k, "k={k}");
    }
}
