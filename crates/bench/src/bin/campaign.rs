//! Campaign wall-clock benchmark, manifest runner and elastic-fabric
//! coordinator/worker.
//!
//! With no arguments, builds the Figure 11 scheme set (six scenarios on the
//! scaled-down Clos fabric), runs it serially and then in parallel, verifies
//! the per-scenario digests are bit-identical, and reports the speedup.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p hpcc-bench --bin campaign [duration_ms] [load]
//! cargo run --release -p hpcc-bench --bin campaign -- --manifest file.json
//! cargo run --release -p hpcc-bench --bin campaign -- --dump-manifest [duration_ms] [load]
//! cargo run --release -p hpcc-bench --bin campaign -- --events-per-sec [out.json] \
//!     [--baseline BENCH_hotpath.json] [--max-regress 0.15]
//! cargo run --release -p hpcc-bench --bin campaign -- --bench
//! cargo run --release -p hpcc-bench --bin campaign -- --cross-validate \
//!     [--manifest f] [--tolerance 0.75] [--report out.json] [duration_ms]
//! cargo run --release -p hpcc-bench --bin campaign -- --fluid-bench [out.json] \
//!     [--min-fluid-speedup 100]
//! cargo run --release -p hpcc-bench --bin campaign -- --merge a.jsonl b.jsonl ... \
//!     [--expect N | --manifest f] [--report out.json]
//! cargo run --release -p hpcc-bench --bin campaign -- --serve ADDR \
//!     [--spawn-workers N] [--chaos-kill-at F] [--checkpoint file.jsonl] \
//!     [--lease-timeout-ms N] [--verify-serial] [--report out.json] \
//!     [--manifest f] [duration_ms] [load]
//! cargo run --release -p hpcc-bench --bin campaign -- --join ADDR \
//!     [--name W] [--heartbeat-ms N] [--hang-after N] [--quit-after N]
//! cargo run --release -p hpcc-bench --bin campaign -- --dump-fabric-manifest
//! ```
//!
//! `--manifest` runs a JSON campaign manifest (an array of ScenarioSpec
//! objects, see `hpcc_core::scenario`) instead of the built-in scheme set;
//! `--dump-manifest` prints the built-in campaign as such a manifest (a
//! starting point for hand-edited grids); `--events-per-sec` runs the fixed
//! hot-path smoke scenario and writes engine-throughput numbers to
//! `BENCH_hotpath.json` (or the given path) so CI can track the perf
//! trajectory — with `--baseline FILE` it additionally compares against a
//! committed reference and exits non-zero when the measured events/sec
//! regresses by more than `--max-regress` (default 0.15, i.e. 15%);
//! `--bench` runs the dependency-free micro-benchmark suite (the port of
//! the legacy Criterion benches: per-ACK congestion-control cost, raw
//! engine throughput, miniature figure scenarios) and prints one line per
//! benchmark.
//!
//! Backend cross-validation (see `hpcc_core::validate`):
//!
//! * `--cross-validate` — run the validation grid (or a `--manifest`) on
//!   both the packet engine and the fluid backend, print the per-scenario
//!   divergence table, and exit with status 3 when the worst FCT-slowdown
//!   (relative) or utilization (absolute) divergence exceeds `--tolerance`
//!   (default 0.75). `--report` writes the canonical (digest-stable)
//!   divergence JSON.
//! * `--fluid-bench` — run the same grid and write fluid-backend throughput
//!   numbers (wall-clock speedup over the packet engine, events/sec
//!   equivalent) to `BENCH_fluid.json` (or the given path); with
//!   `--min-fluid-speedup X` it exits non-zero when the fluid backend is
//!   less than `X` times faster than the packet engine.
//!
//! Distributed modes (see `hpcc_core::fabric` and `docs/WIRE.md` for the
//! framed TCP protocol and the JSONL result lines):
//!
//! * `--serve ADDR` — fabric coordinator: bind ADDR (use port 0 for an
//!   ephemeral port; the bound address is printed), serve the campaign's
//!   scenario indices as a dynamic work queue to any workers that join, and
//!   merge streamed results into one report in scenario order. Workers may
//!   join late, die mid-lease (their work is reassigned) and deliver
//!   duplicates (deduplicated by digest). `--spawn-workers N` launches N
//!   local `--join` subprocesses; `--chaos-kill-at F` SIGKILLs the first
//!   spawned worker once the fraction F of scenarios has completed (a
//!   self-test of fault tolerance); `--checkpoint FILE` appends each
//!   accepted result to a JSONL file and replays it on restart so finished
//!   scenarios are never re-run; `--lease-timeout-ms` tunes failure
//!   detection. `--verify-serial` additionally runs the campaign serially
//!   in-process and exits non-zero unless digests and canonical report JSON
//!   are bit-identical; `--report` writes the merged canonical JSON to a
//!   file.
//! * `--join ADDR` — fabric worker: connect to a coordinator, receive the
//!   campaign manifest over the wire (no local campaign arguments needed),
//!   lease scenario batches and stream results until told to stop.
//!   `--hang-after N` / `--quit-after N` inject worker failures for chaos
//!   tests.
//! * `--merge` — fold JSONL result files (a fabric checkpoint, say) into one
//!   report. Pass `--expect N` (or `--manifest`, whose scenario count is
//!   used) so a file truncated at its tail cannot slip through as a
//!   shorter-but-valid report.
//! * `--dump-fabric-manifest` / `--dump-fluid-manifest` — print the
//!   committed fabric / fluid smoke campaign (`manifests/fabric_smoke.json`,
//!   `manifests/fluid_smoke.json`; `presets::fabric_smoke_campaign` and
//!   `presets::fluid_smoke_campaign`).

use hpcc_core::campaign::digest_output;
use hpcc_core::fabric;
use hpcc_core::presets::{
    fabric_smoke_campaign, fattree_fb_hadoop, fig11_campaign, fluid_smoke_campaign, validation_grid,
};
use hpcc_core::{wire, Campaign, CcSpec, ScenarioSpec, ValidationReport};
use hpcc_sim::FlowControlMode;
use hpcc_topology::FatTreeParams;
use hpcc_types::Duration;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Events/sec of the `BinaryHeap` event queue on the smoke scenario, measured
/// on the CI reference machine before the indexed-wheel engine landed. Kept
/// so every BENCH_hotpath.json records the speedup against the same baseline.
const BASELINE_BINARYHEAP_EVENTS_PER_SEC: f64 = 3_350_000.0;

/// Run the fixed hot-path smoke scenario and write throughput numbers as
/// JSON: events/sec, wall-clock, peak event-queue length. Returns the
/// measured events/sec (for the `--baseline` regression guard).
///
/// The scenario is deliberately frozen (HPCC on the scaled-down Clos fabric,
/// 0.5 load plus incast, 5 ms, seed 42): the numbers are only comparable over
/// time if the workload never moves.
fn run_hotpath_smoke(out_path: &str) -> f64 {
    let spec = fattree_fb_hadoop(
        "hotpath-smoke",
        CcSpec::by_label("HPCC"),
        FatTreeParams::small(),
        0.5,
        Duration::from_ms(5),
        true,
        FlowControlMode::Lossless,
        42,
    );
    // Untimed warm-up run (page cache, branch predictors, allocator pools).
    let warmup = spec.build().run();
    let started = Instant::now();
    let results = spec.build().run();
    let wall = started.elapsed();
    let out = &results.out;
    assert_eq!(
        digest_output(&warmup.out),
        digest_output(out),
        "smoke scenario must be deterministic"
    );
    let events_per_sec = out.events_processed as f64 / wall.as_secs_f64().max(1e-9);
    let speedup = if BASELINE_BINARYHEAP_EVENTS_PER_SEC > 0.0 {
        events_per_sec / BASELINE_BINARYHEAP_EVENTS_PER_SEC
    } else {
        0.0
    };
    let json = format!(
        "{{\n  \"bench\": \"hotpath-smoke\",\n  \"scenario\": \"fig11 HPCC, small Clos, load 0.5 + incast, 5 ms, seed 42\",\n  \"events_processed\": {},\n  \"wall_seconds\": {:.6},\n  \"events_per_sec\": {:.0},\n  \"peak_event_queue_len\": {},\n  \"flows_completed\": {},\n  \"digest\": \"{:016x}\",\n  \"baseline_binaryheap_events_per_sec\": {:.0},\n  \"baseline_note\": \"heap engine on the machine that recorded the baseline; speedup is only meaningful on comparable hardware\",\n  \"speedup_vs_baseline\": {:.3}\n}}\n",
        out.events_processed,
        wall.as_secs_f64(),
        events_per_sec,
        out.peak_event_queue,
        out.flows.len(),
        digest_output(out),
        BASELINE_BINARYHEAP_EVENTS_PER_SEC,
        speedup,
    );
    std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("{json}");
    println!("wrote {out_path}");
    events_per_sec
}

/// Compare a fresh events/sec measurement against a committed baseline
/// JSON (the `BENCH_hotpath.json` written by a previous `--events-per-sec`
/// run) and die when it regressed by more than `max_regress` (a fraction;
/// 0.15 = 15%). Used by CI as the hot-path regression guard.
fn check_baseline(measured: f64, baseline_path: &str, max_regress: f64) {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| die(format!("cannot read baseline {baseline_path}: {e}")));
    let doc = hpcc_core::json::JsonValue::parse(&text)
        .unwrap_or_else(|e| die(format!("cannot parse baseline {baseline_path}: {e}")));
    let baseline = doc
        .require("events_per_sec")
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|e| die(format!("{baseline_path}: {e}")));
    if baseline.is_nan() || baseline <= 0.0 {
        die(format!(
            "{baseline_path}: events_per_sec {baseline} unusable"
        ));
    }
    let floor = baseline * (1.0 - max_regress);
    let change = measured / baseline - 1.0;
    println!(
        "hot-path regression guard: measured {measured:.0} events/sec vs baseline \
         {baseline:.0} ({:+.1}%), floor {floor:.0} (max regress {:.0}%)",
        change * 100.0,
        max_regress * 100.0
    );
    if measured < floor {
        die(format!(
            "hot-path throughput regressed {:.1}% (> {:.0}% allowed) vs {baseline_path}",
            -change * 100.0,
            max_regress * 100.0
        ));
    }
    println!("hot-path regression guard: OK");
}

/// One timed micro-benchmark line: run `iters` iterations of `body`, print
/// ns/iteration (plus a caller-chosen throughput figure).
fn bench_line(name: &str, iters: u64, mut body: impl FnMut() -> u64) {
    // One untimed warm-up iteration.
    let mut checksum = body();
    let started = Instant::now();
    for _ in 0..iters {
        checksum = checksum.wrapping_add(body());
    }
    let wall = started.elapsed();
    let ns_per_iter = wall.as_nanos() as f64 / iters as f64;
    println!(
        "bench {name:<28} {iters:>9} iters  {ns_per_iter:>12.1} ns/iter  (checksum {:x})",
        checksum & 0xffff
    );
}

/// The dependency-free micro-benchmark suite: ports of the legacy Criterion
/// benches (`cc_algorithms`, `engine`, `figures`) onto plain `Instant`
/// timing, so `campaign --bench` covers the same code paths without any
/// external crate.
fn run_bench() {
    use hpcc_cc::{
        build_cc, AckEvent, CcAlgorithm, DcqcnConfig, DctcpConfig, HpccConfig, TimelyConfig,
    };
    use hpcc_sim::{SimConfig, Simulator};
    use hpcc_topology::{star, testbed_pod};
    use hpcc_types::{Bandwidth, FlowId, FlowSpec, IntHeader, IntHopRecord, SimTime};

    println!("== cc/on_ack: per-acknowledgement cost of each scheme ==");
    let line = Bandwidth::from_gbps(100);
    let rtt = Duration::from_us(13);
    let schemes: Vec<(&str, CcAlgorithm)> = vec![
        ("HPCC", CcAlgorithm::Hpcc(HpccConfig::default())),
        (
            "DCQCN",
            CcAlgorithm::Dcqcn(DcqcnConfig::vendor_default(line)),
        ),
        (
            "TIMELY",
            CcAlgorithm::Timely(TimelyConfig::recommended(line, rtt)),
        ),
        ("DCTCP", CcAlgorithm::Dctcp(DctcpConfig::default())),
    ];
    for (name, alg) in &schemes {
        let mut cc = build_cc(alg, line, rtt, 1000);
        let mut int = IntHeader::new();
        int.push_hop(
            1,
            IntHopRecord {
                bandwidth: line,
                ts: SimTime::from_us(10),
                tx_bytes: 1_000_000,
                rx_bytes: 1_000_000,
                qlen: 10_000,
            },
        );
        let mut seq = 0u64;
        let mut ts = 10u64;
        bench_line(&format!("cc/on_ack/{name}"), 1_000_000, || {
            seq += 1000;
            ts += 1;
            let mut int2 = int;
            int2.hops[0].ts = SimTime::from_us(ts);
            int2.hops[0].tx_bytes += seq;
            let ack = AckEvent {
                now: SimTime::from_us(ts),
                ack_seq: seq,
                snd_nxt: seq + 100_000,
                newly_acked: 1000,
                ecn_echo: seq % 7 == 0,
                rtt: Duration::from_us(15),
                int: &int2,
            };
            cc.on_ack(black_box(&ack));
            black_box(cc.state()).window
        });
    }

    println!("== engine: raw simulated-event throughput ==");
    // One 2 MB flow between two hosts on a star: raw forwarding throughput.
    {
        let mut events = 0u64;
        let started = Instant::now();
        let iters = 5;
        for _ in 0..iters {
            let topo = star(2, line, Duration::from_us(1));
            let rtt = topo.suggested_base_rtt(1106);
            let mut cfg = SimConfig::for_cc(CcAlgorithm::hpcc_default(), line, rtt);
            cfg.end_time = SimTime::from_ms(10);
            let hosts = topo.hosts().to_vec();
            let mut sim = Simulator::new(topo, cfg);
            sim.add_flow(FlowSpec::new(
                FlowId(1),
                hosts[0],
                hosts[1],
                2_000_000,
                SimTime::ZERO,
            ));
            let out = sim.run();
            assert_eq!(out.flows.len(), 1);
            events += out.events_processed;
        }
        let rate = events as f64 / started.elapsed().as_secs_f64();
        println!("bench engine/single_flow        {iters:>9} runs   {rate:>12.0} events/sec");
    }
    // N-to-1 incast on the testbed PoD: queueing, PFC, multi-hop paths.
    for n in [4usize, 8] {
        let mut events = 0u64;
        let started = Instant::now();
        let iters = 3;
        for _ in 0..iters {
            let topo = testbed_pod(Duration::from_us(1));
            let bw = Bandwidth::from_gbps(25);
            let rtt = topo.suggested_base_rtt(1106);
            let mut cfg = SimConfig::for_cc(CcAlgorithm::hpcc_default(), bw, rtt);
            cfg.end_time = SimTime::from_ms(5);
            let hosts = topo.hosts().to_vec();
            let mut sim = Simulator::new(topo, cfg);
            for i in 0..n {
                sim.add_flow(FlowSpec::new(
                    FlowId(i as u64 + 1),
                    hosts[8 + i],
                    hosts[0],
                    200_000,
                    SimTime::ZERO,
                ));
            }
            let out = sim.run();
            assert_eq!(out.flows.len(), n);
            events += out.events_processed;
        }
        let rate = events as f64 / started.elapsed().as_secs_f64();
        println!("bench engine/incast_pod/{n:<8} {iters:>9} runs   {rate:>12.0} events/sec");
    }

    // The event wheel alone, at the paper fabric's measured density.
    event_queue_bench();

    println!("== figures: miniature figure scenarios (shape-asserted) ==");
    for (name, run) in [
        (
            "fig06_tx_vs_rx",
            Box::new(|| {
                let report = hpcc_bench::figures::fig06(1);
                assert!(report.contains("HPCC-rxRate"));
                report.len() as u64
            }) as Box<dyn Fn() -> u64>,
        ),
        (
            "fig13_reaction_modes",
            Box::new(|| {
                let report = hpcc_bench::figures::fig13(1);
                assert!(report.contains("per-RTT"));
                report.len() as u64
            }),
        ),
        (
            "tab_int_overhead",
            Box::new(|| hpcc_bench::figures::tab_int_overhead().len() as u64),
        ),
        (
            "fluid_convergence",
            Box::new(|| hpcc_bench::figures::fluid_convergence().len() as u64),
        ),
    ] {
        let started = Instant::now();
        let len = run();
        println!(
            "bench figures/{name:<22} {:>9.3} ms/run   ({len} report bytes)",
            started.elapsed().as_secs_f64() * 1e3
        );
    }
}

/// `engine/event_queue/paper_density`: one push + one pop per iteration on
/// an `EventQueue` held at the density the 320-host paper fabric runs at —
/// ~13 k events pending, ~1,200 per 131 ns bucket, 41% of pushes into the
/// bucket that is draining, 1% far-future timers — driven by a fixed-seed
/// script, so the checksum is stable and the line shows the wheel's
/// per-operation cost on its own.
fn event_queue_bench() {
    use hpcc_sim::engine::{Event, EventQueue};
    use hpcc_types::rng::SplitMix64;
    use hpcc_types::SimTime;

    const BUCKET_PS: u64 = 1 << 17;
    let mut rng = SplitMix64::new(0x5EED_3A7E);
    let mut push = |q: &mut EventQueue, now: u64| {
        let roll = rng.next_below(100);
        let t = if roll < 41 {
            let bucket_end = (now / BUCKET_PS + 1) * BUCKET_PS;
            now + rng.next_below(bucket_end - now)
        } else if roll < 99 {
            now + BUCKET_PS + rng.next_below(28 * BUCKET_PS)
        } else {
            now + 64 * BUCKET_PS + rng.next_below(1 << 26)
        };
        q.push(SimTime::from_ps(t), Event::Sample);
    };
    let mut q = EventQueue::new();
    for _ in 0..13_000 {
        push(&mut q, 0);
    }
    let mut now = 0u64;
    // Untimed warm-up to the steady-state density.
    for _ in 0..200_000 {
        now = q.pop().expect("queue never drains").0.as_ps();
        push(&mut q, now);
    }
    bench_line("engine/event_queue/paper_density", 2_000_000, || {
        now = q.pop().expect("queue never drains").0.as_ps();
        push(&mut q, now);
        now
    });
}

/// Exit with a usage/runtime error (status 2) on stderr.
fn die(msg: impl AsRef<str>) -> ! {
    eprintln!("campaign: {}", msg.as_ref());
    std::process::exit(2);
}

/// Parsed command line. Positional arguments keep the program name at
/// index 0 so `hpcc_bench::arg_or` indexing stays 1-based.
#[derive(Default)]
struct Cli {
    manifest: Option<String>,
    report: Option<String>,
    merge: Vec<String>,
    expect: Option<usize>,
    verify_serial: bool,
    dump_manifest: bool,
    events_per_sec: Option<Option<String>>,
    baseline: Option<String>,
    max_regress: f64,
    bench: bool,
    dump_fluid_manifest: bool,
    cross_validate: bool,
    tolerance: f64,
    fluid_bench: Option<Option<String>>,
    min_fluid_speedup: Option<f64>,
    serve: Option<String>,
    join: Option<String>,
    spawn_workers: usize,
    chaos_kill_at: Option<f64>,
    checkpoint: Option<String>,
    worker_name: Option<String>,
    lease_timeout_ms: Option<u64>,
    heartbeat_ms: Option<u64>,
    hang_after: Option<usize>,
    quit_after: Option<usize>,
    dump_fabric_manifest: bool,
    positional: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Cli {
        let mut cli = Cli {
            positional: vec![args[0].clone()],
            max_regress: 0.15,
            tolerance: 0.75,
            ..Cli::default()
        };
        let value = |i: usize, flag: &str| -> String {
            // A following flag is not a value: `--report --verify-serial`
            // must error, not write a file named "--verify-serial".
            match args.get(i + 1) {
                Some(next) if !next.starts_with("--") => next.clone(),
                _ => die(format!("{flag} needs a value")),
            }
        };
        let mut merging = false;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--manifest" => {
                    cli.manifest = Some(value(i, "--manifest"));
                    i += 2;
                }
                "--report" => {
                    cli.report = Some(value(i, "--report"));
                    i += 2;
                }
                "--verify-serial" => {
                    cli.verify_serial = true;
                    i += 1;
                }
                "--dump-manifest" => {
                    cli.dump_manifest = true;
                    i += 1;
                }
                "--merge" => {
                    merging = true;
                    i += 1;
                }
                "--bench" => {
                    cli.bench = true;
                    i += 1;
                }
                "--cross-validate" => {
                    cli.cross_validate = true;
                    i += 1;
                }
                "--dump-fluid-manifest" => {
                    cli.dump_fluid_manifest = true;
                    i += 1;
                }
                "--tolerance" => {
                    let f = value(i, "--tolerance");
                    cli.tolerance = f
                        .parse()
                        .ok()
                        .filter(|x: &f64| x.is_finite() && *x > 0.0)
                        .unwrap_or_else(|| die(format!("bad tolerance {f:?}")));
                    i += 2;
                }
                "--min-fluid-speedup" => {
                    let f = value(i, "--min-fluid-speedup");
                    cli.min_fluid_speedup = Some(
                        f.parse()
                            .ok()
                            .filter(|x: &f64| x.is_finite() && *x > 0.0)
                            .unwrap_or_else(|| die(format!("bad speedup floor {f:?}"))),
                    );
                    i += 2;
                }
                "--fluid-bench" => {
                    // Optional output path, like --events-per-sec.
                    match args.get(i + 1) {
                        Some(next) if !next.starts_with("--") => {
                            cli.fluid_bench = Some(Some(next.clone()));
                            i += 2;
                        }
                        _ => {
                            cli.fluid_bench = Some(None);
                            i += 1;
                        }
                    }
                }
                "--baseline" => {
                    cli.baseline = Some(value(i, "--baseline"));
                    i += 2;
                }
                "--max-regress" => {
                    let f = value(i, "--max-regress");
                    cli.max_regress = f
                        .parse()
                        .ok()
                        .filter(|x: &f64| x.is_finite() && *x > 0.0 && *x < 1.0)
                        .unwrap_or_else(|| die(format!("bad regression fraction {f:?}")));
                    i += 2;
                }
                "--expect" => {
                    let n = value(i, "--expect");
                    cli.expect = Some(
                        n.parse()
                            .unwrap_or_else(|_| die(format!("bad scenario count {n:?}"))),
                    );
                    i += 2;
                }
                "--serve" => {
                    cli.serve = Some(value(i, "--serve"));
                    i += 2;
                }
                "--join" => {
                    cli.join = Some(value(i, "--join"));
                    i += 2;
                }
                "--spawn-workers" => {
                    let n = value(i, "--spawn-workers");
                    cli.spawn_workers = n
                        .parse()
                        .unwrap_or_else(|_| die(format!("bad worker count {n:?}")));
                    i += 2;
                }
                "--chaos-kill-at" => {
                    let f = value(i, "--chaos-kill-at");
                    cli.chaos_kill_at = Some(
                        f.parse()
                            .ok()
                            .filter(|x: &f64| x.is_finite() && (0.0..=1.0).contains(x))
                            .unwrap_or_else(|| die(format!("bad kill fraction {f:?}"))),
                    );
                    i += 2;
                }
                "--checkpoint" => {
                    cli.checkpoint = Some(value(i, "--checkpoint"));
                    i += 2;
                }
                "--name" => {
                    cli.worker_name = Some(value(i, "--name"));
                    i += 2;
                }
                "--lease-timeout-ms" => {
                    let n = value(i, "--lease-timeout-ms");
                    cli.lease_timeout_ms = Some(
                        n.parse()
                            .ok()
                            .filter(|n| *n >= 1)
                            .unwrap_or_else(|| die(format!("bad lease timeout {n:?}"))),
                    );
                    i += 2;
                }
                "--heartbeat-ms" => {
                    let n = value(i, "--heartbeat-ms");
                    cli.heartbeat_ms = Some(
                        n.parse()
                            .ok()
                            .filter(|n| *n >= 1)
                            .unwrap_or_else(|| die(format!("bad heartbeat period {n:?}"))),
                    );
                    i += 2;
                }
                "--hang-after" => {
                    let n = value(i, "--hang-after");
                    cli.hang_after = Some(
                        n.parse()
                            .unwrap_or_else(|_| die(format!("bad hang count {n:?}"))),
                    );
                    i += 2;
                }
                "--quit-after" => {
                    let n = value(i, "--quit-after");
                    cli.quit_after = Some(
                        n.parse()
                            .unwrap_or_else(|_| die(format!("bad quit count {n:?}"))),
                    );
                    i += 2;
                }
                "--dump-fabric-manifest" => {
                    cli.dump_fabric_manifest = true;
                    i += 1;
                }
                "--events-per-sec" => {
                    // Optional output path: take the next arg unless it is
                    // another flag.
                    match args.get(i + 1) {
                        Some(next) if !next.starts_with("--") => {
                            cli.events_per_sec = Some(Some(next.clone()));
                            i += 2;
                        }
                        _ => {
                            cli.events_per_sec = Some(None);
                            i += 1;
                        }
                    }
                }
                flag if flag.starts_with("--") => die(format!("unknown flag {flag}")),
                other => {
                    if merging {
                        cli.merge.push(other.to_string());
                    } else {
                        cli.positional.push(other.to_string());
                    }
                    i += 1;
                }
            }
        }
        cli
    }

    /// The campaign this invocation describes (manifest file or the
    /// built-in Figure 11 scheme set at `[duration_ms] [load]`).
    fn build_campaign(&self) -> Campaign {
        if let Some(path) = &self.manifest {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
            Campaign::from_json_str(&text)
                .unwrap_or_else(|e| die(format!("cannot parse {path}: {e}")))
        } else {
            let ms = hpcc_bench::arg_or(&self.positional, 1, 10u64);
            let load = hpcc_bench::arg_or(&self.positional, 2, 0.3f64);
            fig11_campaign(
                FatTreeParams::small(),
                load,
                Duration::from_ms(ms),
                true,
                42,
            )
        }
    }

    /// The scenario grid for the cross-validation modes: a `--manifest`
    /// when given, otherwise the built-in validation grid at
    /// `[duration_ms]` (seed 42). The default duration differs by mode:
    /// 2 ms keeps `--cross-validate` a fast gate, while `--fluid-bench`
    /// uses 10 ms so the packet engine's cost dominates its fixed setup
    /// overhead and the measured speedup reflects steady state.
    fn grid_specs(&self, default_ms: u64) -> Vec<ScenarioSpec> {
        if self.manifest.is_some() {
            self.build_campaign().specs().to_vec()
        } else {
            let ms = hpcc_bench::arg_or(&self.positional, 1, default_ms);
            validation_grid(Duration::from_ms(ms), 42)
        }
    }
}

/// Cross-validation mode: run the grid on both backends, print the
/// divergence table, optionally write the canonical report, and gate on the
/// worst divergence (exit 3 — distinct from usage errors — when exceeded).
fn run_cross_validate(specs: &[ScenarioSpec], tolerance: f64, report_path: Option<&str>) {
    let report = ValidationReport::run(specs).unwrap_or_else(|e| die(format!("{e}")));
    println!(
        "== cross-validation: packet vs fluid, {} scenarios ==\n{}",
        report.rows.len(),
        report.table()
    );
    println!("canonical report digest: {:016x}", report.digest());
    if let Some(path) = report_path {
        std::fs::write(path, report.to_json_string() + "\n")
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
    let slow = report.max_slowdown_divergence();
    let util = report.max_utilization_divergence();
    if slow > tolerance || util > tolerance {
        eprintln!(
            "campaign: cross-validation divergence above tolerance {tolerance}: \
             slowdown {slow:.3} (relative), utilization {util:.4} (absolute)"
        );
        std::process::exit(3);
    }
    println!("cross-validation: OK (tolerance {tolerance})");
}

/// Fluid-bench mode: run the validation grid on both backends and record
/// the fluid backend's throughput — wall-clock speedup over the packet
/// engine and events/sec equivalent (packet events the grid would have
/// cost, per second of fluid wall time) — as JSON for CI trend tracking.
fn run_fluid_bench(specs: &[ScenarioSpec], out_path: &str, min_speedup: Option<f64>) {
    let report = ValidationReport::run(specs).unwrap_or_else(|e| die(format!("{e}")));
    let packet_wall: f64 = report
        .rows
        .iter()
        .map(|r| r.packet_wall.as_secs_f64())
        .sum();
    let fluid_wall: f64 = report.rows.iter().map(|r| r.fluid_wall.as_secs_f64()).sum();
    let packet_events: u64 = report.rows.iter().map(|r| r.packet_events).sum();
    let speedup = report.speedup();
    let json = format!(
        "{{\n  \"bench\": \"fluid-validation-grid\",\n  \"scenarios\": {},\n  \"packet_events\": {},\n  \"packet_wall_seconds\": {:.6},\n  \"fluid_wall_seconds\": {:.6},\n  \"speedup\": {:.1},\n  \"fluid_events_per_sec_equivalent\": {:.0},\n  \"max_slowdown_divergence\": {:.6},\n  \"max_utilization_divergence\": {:.6},\n  \"report_digest\": \"{:016x}\",\n  \"note\": \"wall times are host-dependent; the digest pins the deterministic part\"\n}}\n",
        report.rows.len(),
        packet_events,
        packet_wall,
        fluid_wall,
        speedup,
        report.fluid_events_per_sec_equivalent(),
        report.max_slowdown_divergence(),
        report.max_utilization_divergence(),
        report.digest(),
    );
    std::fs::write(out_path, &json)
        .unwrap_or_else(|e| die(format!("cannot write {out_path}: {e}")));
    println!("{json}");
    println!("wrote {out_path}");
    if let Some(floor) = min_speedup {
        if speedup < floor {
            die(format!(
                "fluid backend speedup {speedup:.1}x is below the required {floor}x"
            ));
        }
        println!("fluid speedup gate: OK ({speedup:.1}x >= {floor}x)");
    }
}

/// The tail of the fabric coordinator: optionally prove the merged report bit-identical to an in-process
/// `run_serial()` (digests and canonical JSON), then optionally write the
/// canonical report JSON.
fn verify_and_write(
    merged: &hpcc_core::CampaignReport,
    campaign: &Campaign,
    verify_serial: bool,
    report_path: Option<&str>,
) {
    if verify_serial {
        let serial = campaign.run_serial();
        let digests_match = merged.digests() == serial.digests();
        let json_match = merged.to_json_string() == serial.to_json_string();
        if !digests_match || !json_match {
            die(format!(
                "merged multi-process report differs from the serial reference \
                 (digests match: {digests_match}, canonical JSON matches: {json_match})"
            ));
        }
        println!(
            "verified: merged report is bit-identical to run_serial() \
             ({} scenarios: digests and canonical JSON)",
            serial.results.len()
        );
    }
    if let Some(path) = report_path {
        std::fs::write(path, merged.to_json_string() + "\n")
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
}

/// How long the fabric coordinator tolerates zero progress before giving
/// up (exit 4). Insurance against a wedged CI job: were every worker to
/// die with none rejoining, `serve` would otherwise block forever.
const FABRIC_STALL_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(120);

/// Fabric coordinator mode: serve the campaign's scenario indices over TCP
/// to elastic workers, optionally spawning local worker subprocesses (and
/// chaos-killing the first one mid-run), then verify/write the merged
/// report.
fn run_serve(campaign: &Campaign, addr: &str, cli: &Cli) {
    let started = Instant::now();
    let coordinator =
        fabric::Coordinator::bind(addr).unwrap_or_else(|e| die(format!("cannot bind {addr}: {e}")));
    let local = coordinator
        .local_addr()
        .unwrap_or_else(|e| die(format!("bound address: {e}")));
    let progress = Arc::new(AtomicUsize::new(0));
    let mut cfg = fabric::FabricConfig {
        checkpoint: cli.checkpoint.as_ref().map(std::path::PathBuf::from),
        progress: Some(Arc::clone(&progress)),
        ..fabric::FabricConfig::default()
    };
    if let Some(ms) = cli.lease_timeout_ms {
        cfg.lease_timeout = std::time::Duration::from_millis(ms);
    }
    println!(
        "fabric coordinator on {local}: {} scenarios, lease timeout {} ms",
        campaign.len(),
        cfg.lease_timeout.as_millis()
    );
    // Spawn local workers after bind: their connections queue in the listen
    // backlog until serve() starts accepting. Worker stdout is discarded —
    // results travel over the TCP connection; diagnostics go to stderr.
    let children = Arc::new(Mutex::new(Vec::new()));
    if cli.spawn_workers > 0 {
        let exe = std::env::current_exe()
            .unwrap_or_else(|e| die(format!("cannot locate own executable: {e}")));
        for w in 0..cli.spawn_workers {
            let mut cmd = Command::new(&exe);
            cmd.args(["--join", &local.to_string(), "--name", &format!("w{w}")]);
            if let Some(ms) = cli.heartbeat_ms {
                cmd.args(["--heartbeat-ms", &ms.to_string()]);
            }
            let child = cmd
                .stdout(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| die(format!("cannot spawn worker {w}: {e}")));
            children.lock().unwrap().push(child);
        }
    }
    // Chaos monitor: SIGKILL the first spawned worker once the requested
    // fraction of scenarios has results. The fabric must finish correctly
    // anyway — the kill is the point.
    if let (Some(frac), true) = (
        cli.chaos_kill_at,
        cli.spawn_workers > 0 && !campaign.is_empty(),
    ) {
        let threshold = ((frac * campaign.len() as f64).ceil() as usize).clamp(1, campaign.len());
        let progress = Arc::clone(&progress);
        let children = Arc::clone(&children);
        std::thread::spawn(move || loop {
            if progress.load(Ordering::SeqCst) >= threshold {
                if let Some(victim) = children.lock().unwrap().first_mut() {
                    eprintln!("campaign: chaos: SIGKILL worker 0 at {threshold} results");
                    let _ = victim.kill();
                }
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
    }
    // Stall watchdog: if the result count stops moving for FABRIC_STALL_TIMEOUT
    // while incomplete, exit 4 rather than hang a CI job forever.
    {
        let progress = Arc::clone(&progress);
        let len = campaign.len();
        std::thread::spawn(move || {
            let mut last = progress.load(Ordering::SeqCst);
            let mut last_change = Instant::now();
            loop {
                std::thread::sleep(std::time::Duration::from_millis(200));
                let now = progress.load(Ordering::SeqCst);
                if now >= len {
                    return;
                }
                if now != last {
                    last = now;
                    last_change = Instant::now();
                } else if last_change.elapsed() > FABRIC_STALL_TIMEOUT {
                    eprintln!(
                        "campaign: fabric stalled at {now}/{len} results for {} s; giving up",
                        FABRIC_STALL_TIMEOUT.as_secs()
                    );
                    std::process::exit(4);
                }
            }
        });
    }
    let fab = coordinator
        .serve(campaign, &cfg)
        .unwrap_or_else(|e| die(format!("fabric serve failed: {e}")));
    // Reap the spawned workers. A chaos-killed (or otherwise dead) worker
    // is expected and must not fail the run — the merged report already
    // proved the fabric rode out the loss.
    for (w, child) in children.lock().unwrap().iter_mut().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!("campaign: worker {w} exited with {status} (tolerated)"),
            Err(e) => eprintln!("campaign: waiting for worker {w}: {e}"),
        }
    }
    let mut merged = fab.report;
    merged.wall = started.elapsed();
    println!(
        "== fabric: {} scenarios via {} worker(s) ==\n{}",
        merged.results.len(),
        fab.workers_seen,
        merged.table()
    );
    println!(
        "fabric stats: executed {} (resumed {} from checkpoint), deduped {}, \
         reassigned {} lease(s)",
        fab.executed, fab.resumed, fab.deduped, fab.reassigned
    );
    verify_and_write(&merged, campaign, cli.verify_serial, cli.report.as_deref());
}

/// Fabric worker mode: join a coordinator, receive the campaign over the
/// wire and execute leased scenarios until dismissed. All diagnostics go
/// to stderr; results travel over the TCP connection, not stdout.
fn run_join(addr: &str, cli: &Cli) {
    let mut cfg = fabric::WorkerConfig::default();
    if let Some(name) = &cli.worker_name {
        cfg.name = name.clone();
    }
    if let Some(ms) = cli.heartbeat_ms {
        cfg.heartbeat = std::time::Duration::from_millis(ms);
    }
    cfg.hang_after = cli.hang_after;
    cfg.quit_after = cli.quit_after;
    let started = Instant::now();
    let summary =
        fabric::join(addr, &cfg).unwrap_or_else(|e| die(format!("worker {}: {e}", cfg.name)));
    eprintln!(
        "fabric worker {}: executed {} of {} scenarios in {:.2} s",
        cfg.name,
        summary.executed,
        summary.campaign_len,
        started.elapsed().as_secs_f64()
    );
}

/// Merge mode: fold JSONL result files (a fabric checkpoint, or lines
/// collected from workers on other hosts) into one report. `expected_len` (from `--expect N`, or the
/// manifest's scenario count when `--manifest` is given) guards against a
/// truncated or lost file: without it, contiguous-from-0 validation
/// cannot notice missing *trailing* scenarios, so the merge warns.
fn run_merge(files: &[String], expected_len: Option<usize>, report_path: Option<&str>) {
    let texts: Vec<String> = files
        .iter()
        .map(|p| {
            std::fs::read_to_string(p).unwrap_or_else(|e| die(format!("cannot read {p}: {e}")))
        })
        .collect();
    let report = wire::merge_shard_streams(texts.iter().map(String::as_str), expected_len)
        .unwrap_or_else(|e| die(format!("merge failed: {e}")));
    println!(
        "merged {} results from {} file(s)\n{}",
        report.results.len(),
        files.len(),
        report.table()
    );
    if expected_len.is_none() {
        eprintln!(
            "campaign: warning: no --expect N (or --manifest) given; a result \
             file that lost only trailing scenarios cannot be detected"
        );
    }
    if let Some(path) = report_path {
        std::fs::write(path, report.to_json_string() + "\n")
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cli = Cli::parse(&args);
    if cli.bench {
        run_bench();
        return;
    }
    if cli.dump_fluid_manifest {
        println!("{}", fluid_smoke_campaign().to_json_string());
        return;
    }
    if cli.dump_fabric_manifest {
        println!("{}", fabric_smoke_campaign().to_json_string());
        return;
    }
    if let Some(addr) = &cli.join {
        // Workers need no campaign arguments: the manifest arrives over
        // the wire from the coordinator.
        run_join(addr, &cli);
        return;
    }
    if cli.cross_validate {
        run_cross_validate(&cli.grid_specs(2), cli.tolerance, cli.report.as_deref());
        return;
    }
    if let Some(out) = &cli.fluid_bench {
        run_fluid_bench(
            &cli.grid_specs(10),
            out.as_deref().unwrap_or("BENCH_fluid.json"),
            cli.min_fluid_speedup,
        );
        return;
    }
    if let Some(out) = &cli.events_per_sec {
        let measured = run_hotpath_smoke(out.as_deref().unwrap_or("BENCH_hotpath.json"));
        if let Some(baseline) = &cli.baseline {
            check_baseline(measured, baseline, cli.max_regress);
        }
        return;
    }
    if !cli.merge.is_empty() {
        // Validate completeness against --expect N, or against the
        // manifest's scenario count when one is given.
        let expected = cli
            .expect
            .or_else(|| cli.manifest.as_ref().map(|_| cli.build_campaign().len()));
        run_merge(&cli.merge, expected, cli.report.as_deref());
        return;
    }
    let campaign = cli.build_campaign();
    if cli.dump_manifest {
        println!("{}", campaign.to_json_string());
        return;
    }
    if let Some(addr) = &cli.serve {
        run_serve(&campaign, addr, &cli);
        return;
    }

    println!(
        "campaign: {} scenarios ({} available cores)",
        campaign.len(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let serial = campaign.run_serial();
    println!("\n== serial ==\n{}", serial.table());

    // One OS thread per scenario (not capped at the core count): on a
    // multi-core host this is the full fan-out; on a loaded or small host
    // the digests still prove determinism.
    let parallel = campaign.run_with_threads(campaign.len());
    println!("== parallel ==\n{}", parallel.table());

    assert_eq!(
        serial.digests(),
        parallel.digests(),
        "parallel execution must be bit-identical to serial"
    );
    let speedup = serial.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);
    println!(
        "digests identical across {} scenarios; speedup {:.2}x ({:.2} s serial -> {:.2} s on {} threads)",
        serial.results.len(),
        speedup,
        serial.wall.as_secs_f64(),
        parallel.wall.as_secs_f64(),
        parallel.threads
    );
    if parallel.threads > 1 && speedup <= 1.0 {
        println!("warning: no speedup observed (heavily loaded or single-core host?)");
    }
}
