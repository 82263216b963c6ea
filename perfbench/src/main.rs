//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_hpcc --seed 42 --seconds 30 --trace 0
//! ```
//!
//! Generates the named workload from `--seed`, then repeats the public-API
//! chain (see [`chain`]) for `--seconds` seconds of host time. With
//! `--trace 0` it checks every repeat against the library's own answer
//! (`Campaign::run_serial`) and prints the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced passes, checks them against
//! each other and prints the per-layer metrics, writing the spans to
//! `.bench_build/perfbench-spans/`. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The process
//! exits non-zero when any repeat fails or disagrees.
//!
//! Workloads, metric predictions and the backends left out are described in
//! `perfbench/predictions.json`.

mod chain;
mod trace;
mod workloads;

use chain::Input;
use hpcc_cc::build_cc;
use hpcc_core::presets::SCHEME_SET_FLUID;
use hpcc_core::{Campaign, CampaignReport, CcSpec, ScenarioSpec};
use hpcc_sim::SimOutput;
use hpcc_types::{Duration, IntHeader, IntHopRecord, SimTime};
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;
use workloads::Workload;

/// Set-up passes per run: at least `SETUP_MIN_REPS`, then more until
/// `SETUP_SECONDS` have passed or `SETUP_MAX_REPS` ran; `setup_s` is their
/// median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 200;
const SETUP_SECONDS: f64 = 1.0;

/// Acknowledgements per timed round of the `on_ack` micro-loop, and rounds.
const ON_ACK_ITERS: u64 = 1_000_000;
const ON_ACK_ROUNDS: usize = 7;

/// Switch hops on the longest fat-tree path (ToR, Agg, Core, Agg, ToR).
const FAT_TREE_HOPS: u16 = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 20.0;
    let mut trace = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
            workloads::NAMES.join("|")
        );
        std::process::exit(2);
    });
    let wl = workloads::generate(&args.workload, args.seed).unwrap_or_else(|| {
        eprintln!(
            "perfbench: unknown workload {:?} (known: {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = host_context(threads);
    println!("{host}");
    println!(
        "workload {} seed {} scenarios {} threads 1 trace {}",
        wl.name,
        args.seed,
        wl.specs.len(),
        args.trace as u8
    );

    let input = wl.input();
    let mut gate = Gate::default();
    let metrics = if args.trace {
        measure_layers(&wl, &input, args.seconds, threads, &host, &mut gate)
    } else {
        measure_end_to_end(&wl, &input, args.seconds, &mut gate)
    };
    gate.print_reference();
    let correct = gate.failed == 0 && gate.attempted > 0 && metrics.is_some();
    let metrics = metrics.unwrap_or_default();
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        gate.attempted.max(1),
        gate.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Runs `f` and turns a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        Err(format!("panic: {msg}"))
    })
}

/// The correctness gate: every report a pass produces must equal the
/// reference in canonical JSON, scenario by scenario (the canonical object
/// carries the digest).
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    reference: Option<(Vec<String>, CampaignReport)>,
}

impl Gate {
    /// Record `n` scenarios that failed outright.
    fn fail(&mut self, n: usize, what: &str, e: &str) {
        eprintln!("perfbench: FAILED {what}: {e}");
        self.attempted += n as u64;
        self.failed += n as u64;
    }

    /// Compare a pass's report with the reference (the first report seen
    /// becomes the reference).
    fn check(&mut self, what: &str, report: CampaignReport) {
        let canon: Vec<String> = report
            .results
            .iter()
            .map(|r| r.to_json().render())
            .collect();
        self.attempted += canon.len() as u64;
        match &self.reference {
            None => self.reference = Some((canon, report)),
            Some((reference, _)) => {
                let bad = if reference.len() != canon.len() {
                    canon.len().max(1)
                } else {
                    reference.iter().zip(&canon).filter(|(a, b)| a != b).count()
                };
                if bad > 0 {
                    eprintln!(
                        "perfbench: FAILED {what}: {bad} scenario(s) disagree with the reference"
                    );
                    self.failed += bad as u64;
                }
            }
        }
    }

    /// Check that two reports of one pass agree (wire-merged vs in-process).
    fn check_pair(&mut self, what: &str, merged: &CampaignReport, in_process: &CampaignReport) {
        if merged.to_json_string() != in_process.to_json_string()
            || merged.digests() != in_process.digests()
        {
            eprintln!(
                "perfbench: FAILED {what}: wire-merged report differs from the in-process one"
            );
            self.failed += merged.results.len().max(1) as u64;
        }
    }

    /// Print the simulated statistics a perf change must leave unchanged.
    fn print_reference(&self) {
        let Some((_, report)) = &self.reference else {
            return;
        };
        for r in &report.results {
            let p99 = r.slowdown.as_ref().map_or(f64::NAN, |p| p.p99);
            println!(
                "result {:<36} digest {:016x} flows_completed {} slowdown_p99 {p99}",
                r.name, r.digest, r.flows_completed
            );
        }
    }
}

/// Sorted copy of `v` and its median.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Print a timing as its median plus the highest percentile that has at
/// least ten samples beyond it, with the sample count.
fn print_timing(name: &str, unit: &str, v: &[f64]) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let tail = if n >= 11 {
        let rank = 100.0 * (n - 10) as f64 / n as f64;
        format!("p{rank:.0} {} {unit}", s[n - 11])
    } else {
        "no percentile has 10 samples beyond it".into()
    };
    let all: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
    println!(
        "metric {name} median {} {unit}; {tail}; samples {n}: {}",
        median(v),
        all.join(" ")
    );
}

fn host_context(threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host nproc {threads} cpu \"{cpu}\" rustc \"{rustc}\" commit {}",
        git_commit().unwrap_or_else(|| "unknown".into())
    )
}

/// The checked-out commit, read from `.git` in the working directory (no
/// `git` process, so nothing outside the checkout is consulted).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Host memory high-water mark of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Take the library's own answer as the gate's reference: `Campaign` runs
/// each scenario through its private per-scenario path, which the
/// benchmark's chain must reproduce exactly. Untimed; it also warms the
/// caches and the allocator.
fn library_reference(wl: &Workload, input: &Input, gate: &mut Gate) {
    let n = wl.specs.len();
    match guarded(|| Ok(Campaign::from_scenarios(input.parse()?).run_serial())) {
        Ok(report) => gate.check("library reference", report),
        Err(e) => gate.fail(n, "library reference", &e),
    }
}

fn measure_end_to_end(
    wl: &Workload,
    input: &Input,
    seconds: f64,
    gate: &mut Gate,
) -> Option<Metrics> {
    let n = wl.specs.len();
    let mut setup = Vec::new();
    let started = Instant::now();
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_MIN_REPS && started.elapsed().as_secs_f64() >= SETUP_SECONDS {
            break;
        }
        match guarded(|| chain::setup(input)) {
            Ok(s) => setup.push(s),
            Err(e) => gate.fail(n, "setup", &e),
        }
    }
    library_reference(wl, input, gate);
    let (mut run, mut total, mut eps, mut sps) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while run.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let rep = match guarded(|| chain::rep(input)) {
            Ok(rep) => rep,
            Err(e) => {
                gate.fail(n, "pass", &e);
                if started.elapsed().as_secs_f64() >= seconds {
                    break;
                }
                continue;
            }
        };
        gate.check_pair("pass", &rep.merged, &rep.in_process);
        gate.check("pass", rep.merged);
        run.push(rep.run_s);
        total.push(rep.total_s);
        eps.push(rep.events as f64 / rep.run_s);
        sps.push(n as f64 / rep.total_s);
    }
    if run.is_empty() || setup.is_empty() {
        return None;
    }
    print_timing("setup_s", "s", &setup);
    print_timing("run_s", "s", &run);
    print_timing("total_s", "s", &total);
    let events_unit = if wl.sweep {
        "fluid epochs/s"
    } else {
        "events/s"
    };
    print_timing("events_per_s", events_unit, &eps);
    print_timing("scenarios_per_s", "1/s", &sps);
    let rss = peak_rss_mb();
    println!("metric peak_rss_mb {rss} MB (VmHWM)");
    println!(
        "metric failed_ratio {} ({} failed of {} attempted)",
        gate.failed as f64 / gate.attempted.max(1) as f64,
        gate.failed,
        gate.attempted
    );
    Some(vec![
        ("setup_s", median(&setup), "s"),
        ("run_s", median(&run), "s"),
        ("total_s", median(&total), "s"),
        ("events_per_s", median(&eps), "1/s"),
        ("scenarios_per_s", median(&sps), "1/s"),
        ("peak_rss_mb", rss, "MB"),
    ])
}

/// Median cost of one `on_ack` call of scheme `label`, configured for the
/// workload's fabric, fed ACKs whose INT stacks carry a full fat-tree path.
fn on_ack_ns(label: &str, spec: &ScenarioSpec) -> Result<f64, String> {
    let exp = spec.try_build().map_err(|e| e.to_string())?;
    let cfg = exp.config();
    let line = exp.host_bw();
    let alg = CcSpec::by_label(label).resolve(line, cfg.base_rtt);
    let mut cc = build_cc(&alg, line, cfg.base_rtt, cfg.mtu_payload);
    let mut int = IntHeader::new();
    for hop in 0..FAT_TREE_HOPS {
        int.push_hop(
            hop + 1,
            IntHopRecord {
                bandwidth: line,
                ts: SimTime::ZERO,
                tx_bytes: 0,
                rx_bytes: 0,
                qlen: 0,
            },
        );
    }
    let mtu = cfg.mtu_payload;
    let mut seq = 0u64;
    let mut rounds = Vec::new();
    for _ in 0..ON_ACK_ROUNDS {
        let started = Instant::now();
        for _ in 0..ON_ACK_ITERS {
            seq += mtu;
            let now = SimTime::from_ns(seq / 10);
            for (h, rec) in int.hops.iter_mut().take(FAT_TREE_HOPS as usize).enumerate() {
                rec.ts = now;
                rec.tx_bytes = seq;
                rec.rx_bytes = seq;
                rec.qlen = (seq >> (h + 8)) % 20_000;
            }
            let ack = hpcc_cc::AckEvent {
                now,
                ack_seq: seq,
                snd_nxt: seq + 100 * mtu,
                newly_acked: mtu,
                ecn_echo: seq.is_multiple_of(7 * mtu),
                rtt: Duration::from_us(15),
                int: &int,
            };
            cc.on_ack(black_box(&ack));
            black_box(cc.state().window);
        }
        rounds.push(started.elapsed().as_nanos() as f64 / ON_ACK_ITERS as f64);
    }
    Ok(median(&rounds))
}

/// Simulated-work counters summed over a traced pass's outputs.
#[derive(Default)]
struct Counts {
    events: u64,
    fluid_epochs: u64,
    peak_event_queue: u64,
    sent: u64,
    delivered: u64,
    pause_events: u64,
    ecn_marked: u64,
    drops: u64,
    fault_events: u64,
}

fn counts(wl: &Workload, outputs: &[SimOutput]) -> Counts {
    let mut c = Counts::default();
    for out in outputs {
        if wl.sweep {
            c.fluid_epochs += out.events_processed;
        } else {
            c.events += out.events_processed;
            c.peak_event_queue = c.peak_event_queue.max(out.peak_event_queue);
        }
        c.sent += out.packets_sent;
        c.delivered += out.packets_delivered;
        c.pause_events += out.ports.values().map(|p| p.pause_events).sum::<u64>();
        c.ecn_marked += out.ports.values().map(|p| p.ecn_marked).sum::<u64>();
        c.drops += out.total_drops();
        c.fault_events += out.fault_events;
    }
    c
}

/// Median of `v`, or 0 when the layer did not run on this workload.
fn or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn measure_layers(
    wl: &Workload,
    input: &Input,
    seconds: f64,
    threads: usize,
    host: &str,
    gate: &mut Gate,
) -> Option<Metrics> {
    let n = wl.specs.len();
    let mut on_ack = Vec::new();
    for label in SCHEME_SET_FLUID {
        match guarded(|| on_ack_ns(label, &wl.specs[0])) {
            Ok(ns) => on_ack.push((label, ns)),
            Err(e) => gate.fail(1, "on_ack micro-loop", &e),
        }
    }
    // No library reference here: every traced pass is checked against the
    // untraced chain, which the `--trace 0` runs check against the library.

    const SPANS: [&str; 10] = [
        "core.scenario.from_json_s",
        "core.scenario.try_build_s",
        "topology.build_s",
        "sim.simulator.new_s",
        "sim.simulator.run_s",
        "sim.fluid.run_s",
        "stats.analyze_s",
        "core.campaign.digest_s",
        "core.wire.encode_s",
        "core.wire.merge_s",
    ];
    let mut tr = Tracer::new();
    let mut span_secs: Vec<Vec<f64>> = vec![Vec::new(); SPANS.len()];
    let (mut traced, mut untraced, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
    let (mut threaded_secs, mut busy) = (Vec::new(), Vec::new());
    let mut first: Option<(Counts, usize)> = None;
    let started = Instant::now();
    while traced.is_empty() || started.elapsed().as_secs_f64() < seconds {
        // Untraced baseline of the same single-threaded chain.
        match guarded(|| chain::rep(input)) {
            Ok(rep) => {
                untraced.push(rep.total_s);
                gate.check_pair("untraced pass", &rep.merged, &rep.in_process);
                gate.check("untraced pass", rep.merged);
            }
            Err(e) => gate.fail(n, "untraced pass", &e),
        }
        let rep = match guarded(|| chain::traced_rep(&mut tr, input)) {
            Ok(rep) => rep,
            Err(e) => {
                gate.fail(n, "traced pass", &e);
                if started.elapsed().as_secs_f64() >= seconds {
                    break;
                }
                continue;
            }
        };
        if wl.sweep {
            // The nproc-thread campaign, as one span. It is not the timed
            // chain: on a 2-vCPU host shared with other tenants its wall
            // time spread 12-23% (quartile distance over median, across
            // seeds) against about 5% for the one-thread chain.
            let threaded = guarded(|| {
                let campaign = Campaign::from_scenarios(input.parse()?);
                let (report, id) = tr.span("core.campaign.run_with_threads_s", |_| {
                    campaign.run_with_threads(threads)
                });
                Ok((report, tr.secs(id)))
            });
            match threaded {
                Ok((report, secs)) => {
                    let walls: f64 = report.results.iter().map(|r| r.wall.as_secs_f64()).sum();
                    busy.push(ratio(walls, report.threads as f64 * secs));
                    threaded_secs.push(secs);
                    gate.check("threaded campaign", report);
                }
                Err(e) => gate.fail(n, "threaded campaign", &e),
            }
        }
        for (k, name) in SPANS.iter().enumerate() {
            span_secs[k].push(tr.total_secs(rep.root, name));
        }
        traced.push(tr.secs(rep.root));
        coverage.push(tr.coverage(rep.root));
        if first.is_none() {
            first = Some((counts(wl, &rep.outputs), rep.wire_bytes));
        }
        gate.check("traced pass", rep.merged);
    }
    write_spans(wl, host, &tr);
    let (c, wire_bytes) = first?;
    let span = |name: &str| -> f64 {
        let k = SPANS.iter().position(|s| *s == name).expect("known span");
        median(&span_secs[k])
    };
    let sim_run = span("sim.simulator.run_s");
    // The fluid sweep processes no packet ACKs, so its share is 0.
    let own_scheme = wl.specs[0].scheme_label().to_ascii_uppercase();
    let ack_ns = |label: &str| {
        on_ack
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0.0, |x| x.1)
    };
    for (name, s) in tr.self_secs_by_name() {
        println!("span {name} self {s} s (all passes)");
    }
    print_timing("trace.total traced", "s", &traced);
    print_timing("trace.total untraced", "s", &untraced);
    let mut metrics: Metrics = SPANS.iter().map(|&name| (name, span(name), "s")).collect();
    metrics.extend([
        ("sim.events", c.events as f64, "count"),
        (
            "sim.ns_per_event",
            ratio(sim_run * 1e9, c.events as f64),
            "ns",
        ),
        ("sim.peak_event_queue", c.peak_event_queue as f64, "count"),
        ("sim.packets_sent", c.sent as f64, "count"),
        ("sim.packets_delivered", c.delivered as f64, "count"),
        (
            "sim.events_per_delivered_packet",
            ratio(c.events as f64, c.delivered as f64),
            "ratio",
        ),
        (
            "sim.delivered_ratio",
            ratio(c.delivered as f64, c.sent as f64),
            "ratio",
        ),
        ("sim.pause_events", c.pause_events as f64, "count"),
        ("sim.ecn_marked", c.ecn_marked as f64, "count"),
        ("sim.drops", c.drops as f64, "count"),
        ("sim.fault_events", c.fault_events as f64, "count"),
        ("cc.on_ack_ns.hpcc", ack_ns("HPCC"), "ns"),
        ("cc.on_ack_ns.dcqcn", ack_ns("DCQCN"), "ns"),
        ("cc.on_ack_ns.timely", ack_ns("TIMELY"), "ns"),
        ("cc.on_ack_ns.dctcp", ack_ns("DCTCP"), "ns"),
        (
            "cc.on_ack_share",
            ratio(ack_ns(&own_scheme) * 1e-9 * c.delivered as f64, sim_run),
            "ratio",
        ),
        ("sim.fluid.epochs", c.fluid_epochs as f64, "count"),
        ("core.wire.bytes", wire_bytes as f64, "bytes"),
        (
            "core.campaign.run_with_threads_s",
            or_zero(&threaded_secs),
            "s",
        ),
        ("core.campaign.busy_ratio", or_zero(&busy), "ratio"),
        ("trace.total_s", median(&traced), "s"),
        ("trace.coverage_ratio", median(&coverage), "ratio"),
        (
            "trace.overhead_ratio",
            ratio(median(&traced), median(&untraced)),
            "ratio",
        ),
    ]);
    Some(metrics)
}

/// Write the host context and every recorded span as JSON lines under
/// `.bench_build/`.
fn write_spans(wl: &Workload, host: &str, tr: &Tracer) {
    let dir = std::path::Path::new(".bench_build").join("perfbench-spans");
    let path = dir.join(format!("{}.jsonl", wl.name));
    match std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, format!("{{\"host\":{host:?}}}\n{}", tr.to_jsonl())))
    {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}
