//! End-to-end tests of the elastic campaign fabric with real worker
//! *processes*: a fault-free run of the Figure 11 set, a run with
//! malformed peers connected alongside the workers, and a chaos run in
//! which two of three workers fail mid-campaign —
//!
//! * worker `wedge` executes two scenarios, then goes silent *without*
//!   sending the second result (heartbeats stop, connection stays open:
//!   what a wedged worker looks like). The parked process is SIGKILLed.
//! * worker `flake` disconnects — no bye — right after its first result.
//! * worker `steady` behaves.
//!
//! The fabric must ride out both failures: the merged report must be
//! bit-identical (per-scenario FNV digests *and* canonical report JSON)
//! to `run_serial()`, the checkpoint must replay to the same digests, and
//! a coordinator restarted over the complete checkpoint must finish
//! without re-running a single scenario.
//!
//! Worker processes are this very test binary re-spawned with
//! `std::env::current_exe()`: [`fabric_worker_entry`] doubles as the worker
//! `main` when `HPCC_FABRIC_JOIN` is set, and is a no-op pass otherwise.

use hpcc::core::fabric::{self, Coordinator, FabricConfig, WorkerConfig};
use hpcc::core::presets::{fabric_smoke_campaign, fig11_campaign};
use hpcc::core::wire::merge_shard_streams;
use hpcc::topology::FatTreeParams;
use std::env;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker entry point (and, without the environment variable, a no-op
/// test): join the coordinator named by `HPCC_FABRIC_JOIN` and execute
/// leases until dismissed. `HPCC_FABRIC_HANG_AFTER` / `HPCC_FABRIC_QUIT_AFTER`
/// arm the chaos hooks; `HPCC_FABRIC_NAME` names the worker.
#[test]
fn fabric_worker_entry() {
    let Ok(addr) = env::var("HPCC_FABRIC_JOIN") else {
        return;
    };
    let parse = |var: &str| env::var(var).ok().map(|v| v.parse().expect("bad count"));
    let cfg = WorkerConfig {
        name: env::var("HPCC_FABRIC_NAME").unwrap_or_else(|_| "worker".to_string()),
        heartbeat: Duration::from_millis(50),
        hang_after: parse("HPCC_FABRIC_HANG_AFTER"),
        quit_after: parse("HPCC_FABRIC_QUIT_AFTER"),
    };
    // The campaign arrives over the wire; nothing is rebuilt locally.
    let summary = fabric::join(&addr, &cfg).expect("worker join failed");
    assert!(summary.executed <= summary.campaign_len);
}

/// Spawn one worker subprocess pointed at `addr`.
fn spawn_worker(addr: &str, name: &str, hang: Option<usize>, quit: Option<usize>) -> Child {
    let exe = env::current_exe().expect("cannot locate test binary");
    let mut cmd = Command::new(&exe);
    cmd.args(["fabric_worker_entry", "--exact"])
        .env("HPCC_FABRIC_JOIN", addr)
        .env("HPCC_FABRIC_NAME", name)
        .stdout(Stdio::null());
    if let Some(n) = hang {
        cmd.env("HPCC_FABRIC_HANG_AFTER", n.to_string());
    }
    if let Some(n) = quit {
        cmd.env("HPCC_FABRIC_QUIT_AFTER", n.to_string());
    }
    cmd.spawn().expect("cannot spawn worker process")
}

/// Acceptance test: two real worker *processes* share the Figure 11
/// six-scheme set over the fabric, and the merged report is bit-identical
/// to `run_serial()`.
#[test]
fn two_worker_processes_reproduce_serial_bit_for_bit() {
    let campaign = fig11_campaign(
        FatTreeParams::small(),
        0.3,
        hpcc::types::Duration::from_ms(2),
        true,
        42,
    );
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("cannot bind");
    let addr = coordinator.local_addr().expect("bound address").to_string();
    let mut workers = [
        spawn_worker(&addr, "w0", None, None),
        spawn_worker(&addr, "w1", None, None),
    ];
    let fab = coordinator
        .serve(&campaign, &FabricConfig::default())
        .expect("fabric serve failed");
    for w in &mut workers {
        let status = w.wait().expect("worker did not exit");
        assert!(status.success(), "worker process failed: {status}");
    }
    assert_eq!(fab.executed, campaign.len() as u64);

    let merged = fab.report;
    let serial = campaign.run_serial();
    // Bit-identical: per-scenario FNV digests and the canonical report JSON.
    assert_eq!(merged.digests(), serial.digests());
    assert_eq!(merged.to_json_string(), serial.to_json_string());
    // Scenario order and summary metrics survived the round trip.
    assert_eq!(merged.results.len(), 6);
    for (m, s) in merged.results.iter().zip(&serial.results) {
        assert_eq!(m.name, s.name);
        assert_eq!(m.scheme, s.scheme);
        assert_eq!(m.slowdown, s.slowdown);
        assert_eq!(m.queue_p99, s.queue_p99);
        assert_eq!(m.pfc, s.pfc);
        assert_eq!(m.completion, s.completion);
        // Wire results carry the summary, not the raw simulator output.
        assert!(m.results.is_none());
        assert!(s.results.is_some());
        // The envelope restored a real worker-side wall measurement.
        assert!(m.wall > Duration::ZERO);
    }
    // The merged report renders like any locally-run one.
    let table = merged.table();
    assert!(table.contains("HPCC"), "{table}");
    assert!(table.contains("6 scenarios"), "{table}");
}

/// Peers that connect but never complete a hello — one silent, one
/// sending garbage, one sending an oversize frame header and then going
/// silent — neither disturb the run nor outlive it: each is dropped once
/// it has been silent for the lease timeout.
#[test]
fn malformed_peers_are_dropped_and_do_not_disturb_the_run() {
    let campaign = fabric_smoke_campaign();
    let serial = campaign.run_serial();
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("cannot bind");
    let addr = coordinator.local_addr().expect("bound address").to_string();
    let cfg = FabricConfig {
        lease_timeout: Duration::from_millis(400),
        ..FabricConfig::default()
    };
    let connect = || TcpStream::connect(&addr).expect("cannot connect");
    let mut silent = connect();
    let mut garbage = connect();
    garbage
        .write_all(b"not a frame at all\n\x00\xff{]\n")
        .expect("cannot send garbage");
    let mut oversize = connect();
    oversize
        .write_all(b"99999999999999\n")
        .expect("cannot send header");
    let mut workers = [
        spawn_worker(&addr, "w0", None, None),
        spawn_worker(&addr, "w1", None, None),
    ];

    let fab = coordinator
        .serve(&campaign, &cfg)
        .expect("fabric serve failed");
    for w in &mut workers {
        assert!(w.wait().expect("worker did not exit").success());
    }
    assert_eq!(fab.report.digests(), serial.digests());
    assert_eq!(fab.report.to_json_string(), serial.to_json_string());

    // Every malformed peer is disconnected within a bounded wait: its read
    // sees EOF (or, for the garbage peer, possibly a reset, should the
    // coordinator close over bytes it never read).
    for (name, peer, reset_ok) in [
        ("silent", &mut silent, false),
        ("garbage", &mut garbage, true),
        ("oversize", &mut oversize, false),
    ] {
        peer.set_read_timeout(Some(Duration::from_millis(100)))
            .expect("cannot set read timeout");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut buf = [0u8; 256];
        loop {
            match peer.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    assert!(
                        Instant::now() < deadline,
                        "{name} peer still connected 10 s after serve() returned"
                    );
                }
                Err(e) => {
                    assert!(reset_ok, "{name} peer: {e}");
                    break;
                }
            }
        }
    }
}

/// A slowloris peer sends a hello frame one byte per 100 ms — every read
/// succeeds well inside the 400 ms lease timeout, so only a deadline on the
/// whole frame can end it. The coordinator must close it within a small
/// multiple of the lease timeout while a real worker completes the
/// campaign bit-identically to `run_serial()`.
#[test]
fn a_peer_trickling_its_hello_is_closed_at_the_lease_timeout() {
    let campaign = fabric_smoke_campaign();
    let serial = campaign.run_serial();
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("cannot bind");
    let addr = coordinator.local_addr().expect("bound address").to_string();
    let lease_timeout = Duration::from_millis(400);
    let cfg = FabricConfig {
        lease_timeout,
        ..FabricConfig::default()
    };
    let mut peer = TcpStream::connect(&addr).expect("cannot connect");
    let trickler = std::thread::spawn(move || {
        let started = Instant::now();
        peer.set_read_timeout(Some(Duration::from_millis(100)))
            .expect("cannot set read timeout");
        // A valid length header, then a payload that never completes.
        let frame = b"4096\n{\"type\":\"hello\",\"worker\":\"slowloris";
        let mut buf = [0u8; 64];
        for &byte in frame.iter().cycle() {
            if peer.write_all(&[byte]).is_err() {
                return started.elapsed();
            }
            match peer.read(&mut buf) {
                Ok(0) => return started.elapsed(),
                Err(e)
                    if !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return started.elapsed();
                }
                _ => {}
            }
            if started.elapsed() > Duration::from_secs(10) {
                return started.elapsed();
            }
        }
        unreachable!("the frame cycles forever")
    });
    let mut worker = spawn_worker(&addr, "w0", None, None);
    let fab = coordinator
        .serve(&campaign, &cfg)
        .expect("fabric serve failed");
    assert!(worker.wait().expect("worker did not exit").success());
    assert_eq!(fab.report.digests(), serial.digests());
    assert_eq!(fab.report.to_json_string(), serial.to_json_string());

    let held = trickler.join().expect("trickling peer panicked");
    assert!(
        held < 4 * lease_timeout,
        "a trickling peer held its connection for {held:?} (lease timeout {lease_timeout:?})"
    );
}

#[test]
fn fabric_survives_worker_death_and_restart_resumes_from_checkpoint() {
    let campaign = fabric_smoke_campaign();
    let serial = campaign.run_serial();
    let dir = env::temp_dir().join(format!("hpcc-fabric-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cannot create temp dir");
    let checkpoint = dir.join("checkpoint.jsonl");

    let coordinator = Coordinator::bind("127.0.0.1:0").expect("cannot bind");
    let addr = coordinator.local_addr().expect("bound address").to_string();
    let cfg = FabricConfig {
        // Short lease timeout so the wedged worker is detected in test
        // time; worker heartbeats run at 50 ms, well under it.
        lease_timeout: Duration::from_millis(400),
        checkpoint: Some(checkpoint.clone()),
        ..FabricConfig::default()
    };

    // Workers connect while serve() is still warming up: the listener is
    // already bound, so their connections queue in the listen backlog.
    let mut wedge = spawn_worker(&addr, "wedge", Some(2), None);
    let mut flake = spawn_worker(&addr, "flake", None, Some(1));
    let mut steady = spawn_worker(&addr, "steady", None, None);

    let fab = coordinator
        .serve(&campaign, &cfg)
        .expect("fabric serve failed");

    // The wedged worker is parked forever; SIGKILL it mid-stream (its
    // unsent result is the "stream cut mid-write" the fabric absorbed).
    wedge.kill().expect("cannot kill wedged worker");
    wedge.wait().expect("wedged worker did not die");
    // The other two exited on their own (flake by crashing early, steady
    // after the coordinator's bye).
    assert!(flake.wait().expect("flake did not exit").success());
    assert!(steady.wait().expect("steady did not exit").success());

    // Bit-identical to serial, despite one wedge, one crash, duplicate
    // re-executions and arbitrary completion order.
    assert_eq!(fab.report.digests(), serial.digests());
    assert_eq!(fab.report.to_json_string(), serial.to_json_string());
    assert_eq!(fab.executed, campaign.len() as u64);
    assert_eq!(fab.resumed, 0);
    // The wedge held at least its unsent scenario; that lease came back.
    assert!(fab.reassigned >= 1, "reassigned {}", fab.reassigned);

    // The checkpoint replays — through the ordinary shard-merge path — to
    // the same digests the live run produced.
    let text = std::fs::read_to_string(&checkpoint).expect("checkpoint missing");
    let replayed = merge_shard_streams([text.as_str()], Some(campaign.len()))
        .expect("checkpoint must replay cleanly");
    assert_eq!(replayed.digests(), serial.digests());
    assert_eq!(replayed.to_json_string(), serial.to_json_string());

    // A restarted coordinator over the complete checkpoint finishes
    // immediately: no workers, no listener traffic, zero re-runs.
    let restarted = Coordinator::bind("127.0.0.1:0").expect("cannot rebind");
    let fab2 = restarted
        .serve(&campaign, &cfg)
        .expect("restart over checkpoint failed");
    assert_eq!(fab2.executed, 0, "restart re-ran scenarios");
    assert_eq!(fab2.resumed, campaign.len());
    assert_eq!(fab2.workers_seen, 0);
    assert_eq!(fab2.report.digests(), serial.digests());
    assert_eq!(fab2.report.to_json_string(), serial.to_json_string());

    std::fs::remove_dir_all(&dir).ok();
}
