//! The committed campaign manifests under `manifests/` are exactly the
//! canonical serialization of their generating presets: each decodes to the
//! generated campaign and re-encodes to the committed bytes (the fault
//! smoke's pin lives in `faults.rs`). Together they check that the manifest
//! codec decodes and encodes symmetrically.

use hpcc_core::presets::{
    fabric_smoke_campaign, fattree_pias_sweep, fluid_smoke_campaign, priority_mix,
};
use hpcc_core::{Campaign, CcSpec};
use hpcc_topology::FatTreeParams;
use hpcc_types::Duration;

/// Decode `committed`, compare it with `generated`, and compare the bytes.
fn assert_pinned(committed: &str, generated: &Campaign) {
    let decoded = Campaign::from_json_str(committed).expect("committed manifest decodes");
    assert_eq!(&decoded, generated);
    assert_eq!(committed.trim_end(), generated.to_json_string());
}

#[test]
fn committed_fabric_smoke_manifest_is_canonical() {
    // Regenerate with `campaign --dump-fabric-manifest`.
    assert_pinned(
        include_str!("../../../manifests/fabric_smoke.json"),
        &fabric_smoke_campaign(),
    );
}

#[test]
fn committed_fluid_smoke_manifest_is_canonical() {
    // Regenerate with `campaign --dump-fluid-manifest`.
    assert_pinned(
        include_str!("../../../manifests/fluid_smoke.json"),
        &fluid_smoke_campaign(),
    );
}

#[test]
fn committed_queueing_smoke_manifest_is_canonical() {
    // The PIAS sweep (legacy baseline + one threshold set) followed by the
    // SP/DWRR priority mix, on the small Clos fabric under HPCC.
    let params = FatTreeParams::small();
    let end = Duration::from_ms(2);
    let mut generated = fattree_pias_sweep(
        CcSpec::by_label("HPCC"),
        params,
        0.5,
        end,
        &[vec![100_000]],
        11,
    );
    for spec in priority_mix(CcSpec::by_label("HPCC"), params, 0.5, end, 30_000, 3, 11).specs() {
        generated.push(spec.clone());
    }
    assert_pinned(
        include_str!("../../../manifests/queueing_smoke.json"),
        &generated,
    );
}
