//! The repository benchmark: end-to-end verdict rate and latency of the
//! attestation gateway plus device cycles per verdict, on three seeded
//! workloads, and a traced run that splits verifier host time by layer.
//!
//! ```text
//! perfbench        --workload <name> --seed <n> --seconds <s> --trace 0
//! perfbench_traced --workload <name> --seed <n> --seconds <s> --trace 1
//! ```
//!
//! `run.sh` builds both and picks one by `--trace`. The last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`); a human-readable table with sample counts goes to standard
//! error. Any failed correctness check prints `"correct": false` and
//! exits 1. See `README.md` for the workloads and metrics.

pub mod fleet;
pub mod inproc;
pub mod responder;
pub mod trace;
pub mod wire;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proverguard_attest::gateway::GatewaySnapshot;
use proverguard_attest::imagecache::ImageCache;
use proverguard_attest::prover::CostBreakdown;

use crate::fleet::{Fleet, Inputs, Served, Workload};
use crate::inproc::{AllocCounter, InprocResult};
use crate::trace::{self_times, Span};
use crate::wire::LoopResult;

/// Set-up and measure rounds of an end-to-end run; every end-to-end
/// metric is the median over them.
pub const SETUPS: usize = 5;

/// Verdicts per window of the median latency and the rate: each is the
/// median over windows of this many consecutive verdicts.
pub const RATE_WINDOW: usize = 200;

/// Verdicts per window of the p99 shown on standard error: each window's
/// p99 leaves ten samples beyond it.
pub const P99_WINDOW: usize = 1_000;

/// Largest share of the in-process op span its layer spans may leave
/// uncovered (the layer-closure law of the traced run), in percent.
pub const CLOSURE_TOLERANCE_PCT: f64 = 5.0;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A usage message for a missing, unknown or malformed flag.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            flags.insert(flag, value);
        }
        let mut take = |flag: &str| flags.remove(flag).ok_or(format!("missing {flag}"));
        let name = take("--workload")?;
        let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
        let seed = take("--seed")?.parse().map_err(|_| "bad --seed")?;
        let seconds = take("--seconds")?.parse().map_err(|_| "bad --seconds")?;
        let trace = match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".to_string()),
        };
        if let Some(flag) = flags.keys().next() {
            return Err(format!("unknown flag {flag}"));
        }
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value, shown on standard error.
    samples: usize,
}

/// The outcome of one run.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    violations: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    fn check(&mut self, holds: bool, violation: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(violation());
        }
    }
}

/// Entry point of both binaries. `alloc_counter` is `Some` only in the
/// traced binary, whose global allocator counts.
#[must_use]
pub fn main_with(alloc_counter: Option<AllocCounter>) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <oneshot_whole|oneshot_segmented|session_history> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.trace, alloc_counter) {
        (false, None) => run_untraced(&args),
        (true, Some(counter)) => run_traced(&args, counter),
        (true, None) => {
            eprintln!("perfbench: --trace 1 runs in the perfbench_traced binary");
            return ExitCode::from(2);
        }
        (false, Some(_)) => {
            eprintln!("perfbench: --trace 0 runs in the perfbench binary");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => Outcome {
            attempted: 1,
            failed: 1,
            violations: vec![e],
            ..Outcome::default()
        },
    };
    print_human(&args, &outcome);
    println!("{}", json_line(&outcome));
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A fleet at steady state, its gateway running.
struct Ready {
    fleet: Fleet,
    served: Served,
    cache: Arc<ImageCache>,
}

/// Sets the workload up — provisioning, directory and cache interning,
/// gateway start, warm-up and session handshakes — and returns it with
/// the seconds that took.
fn set_up(inputs: &Inputs) -> Result<(Ready, f64), String> {
    let begun = Instant::now();
    let mut fleet = fleet::provision(inputs)?;
    let cache = Arc::clone(fleet.directory.cache());
    let served = fleet::serve(std::mem::take(&mut fleet.directory));
    fleet::warm_up(&mut fleet, &served, inputs.workload)?;
    let seconds = begun.elapsed().as_secs_f64();
    Ok((
        Ready {
            fleet,
            served,
            cache,
        },
        seconds,
    ))
}

/// Gateway-side checks after shutdown: the conservation laws, and that
/// the gateway concluded exactly the verified dials the clients saw.
fn check_gateway(out: &mut Outcome, stats: &GatewaySnapshot, workload: Workload, verified: u64) {
    out.check(stats.partition_holds(), || {
        format!("gateway partition law broke: {stats:?}")
    });
    if workload == Workload::SessionHistory {
        out.check(stats.session_partition_holds(), || {
            format!("session-table partition law broke: {stats:?}")
        });
    }
    let warmup = (workload.devices() * fleet::warmup_dials(workload)) as u64;
    out.check(
        stats.sessions_ok == warmup + verified
            && stats.sessions_failed == 0
            && stats.busy_rejected == 0
            && stats.handshake_failed == 0,
        || {
            format!(
                "gateway verdicts disagree with the clients' {verified} verified dials: {stats:?}"
            )
        },
    );
}

/// Client-side checks of one closed-loop phase, plus the device cycles
/// of every verdict. Returns the verified dials and the cost of each.
fn check_loop(
    out: &mut Outcome,
    result: &LoopResult,
    fleet: &Fleet,
    workload: Workload,
) -> (u64, Vec<CostBreakdown>) {
    let dialed = result.ops.len() as u64 + result.connect_failures;
    let verified = result.ops.iter().filter(|op| op.dial.verified).count() as u64;
    out.attempted += dialed;
    out.failed += dialed - verified;
    out.check(verified == dialed, || {
        format!(
            "{} of {dialed} honest dials were not verified",
            dialed - verified
        )
    });
    let costs: Vec<CostBreakdown> = match workload {
        Workload::OneshotSegmented => vec![fleet.reference_cost],
        Workload::OneshotWhole | Workload::SessionHistory => {
            result.ops.iter().filter_map(|op| op.dial.cost).collect()
        }
    };
    let expected = workload.expected_cycles();
    let off = costs.iter().filter(|c| c.total() != expected).count();
    out.check(off == 0 && !costs.is_empty(), || {
        format!(
            "{off} of {} verdicts did not cost the model's {expected} device cycles",
            costs.len()
        )
    });
    (verified, costs)
}

/// The end-to-end run: [`SETUPS`] rounds of set-up followed by a closed
/// loop of `seconds / SETUPS`, each on a fresh fleet and gateway. The
/// median latency is the median over windows of [`RATE_WINDOW`]
/// consecutive verdicts and set-up time the median over the rounds, so a
/// stalled stretch (the hypervisor descheduling a vCPU) moves neither.
fn run_untraced(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let inputs = Inputs::generate(workload, args.seed);
    let round = Duration::from_secs(args.seconds) / SETUPS as u32;
    let mut out = Outcome::default();
    let (mut setups, mut rates, mut completed, mut cycles) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let (mut ready, seconds) = set_up(&inputs)?;
        setups.push(seconds);
        let result = wire::closed_loop(
            &mut ready.fleet.devices,
            &inputs,
            &ready.served.connector,
            round,
            None,
        );
        let report = ready.served.handle.shutdown();
        let (verified, costs) = check_loop(&mut out, &result, &ready.fleet, workload);
        check_gateway(&mut out, &report.stats, workload, verified);
        let cache = ready.cache.stats();
        out.check(cache.conservation_holds(), || {
            format!("image-cache conservation law broke: {cache:?}")
        });
        rates.extend(window_rates(&result.completions(), RATE_WINDOW));
        completed.extend(result.completions().into_iter().map(|c| c.1));
        cycles.extend(costs.iter().map(|c| c.total() as f64));
    }
    let p50s: Vec<f64> = completed
        .chunks_exact(RATE_WINDOW)
        .map(|w| percentile(w, 0.5))
        .collect();
    let p99s: Vec<f64> = completed
        .chunks_exact(P99_WINDOW)
        .map(|w| percentile(w, 0.99))
        .collect();
    let median = |v: &[f64]| percentile(v, 0.5);
    let quartiles = |v: &[f64]| format!("{:.1}..{:.1}", percentile(v, 0.25), percentile(v, 0.75));
    eprintln!(
        "  windows of {RATE_WINDOW} verdicts: {}; verdict_p50_us quartiles {}",
        rates.len(),
        quartiles(&p50s)
    );
    // Rate and tail are shown, not gated: on a shared 2-vCPU host they
    // follow the hypervisor's steal time more than the program (README).
    eprintln!(
        "  attest_per_s {:.1} 1/s, median over the same windows, quartiles {}",
        median(&rates),
        quartiles(&rates)
    );
    eprintln!(
        "  verdict_p99_us {:.1} us, median over {} windows of {P99_WINDOW} verdicts, quartiles {}",
        median(&p99s),
        p99s.len(),
        quartiles(&p99s)
    );
    eprintln!("  set-up seconds per round: {setups:.3?}");
    out.metric("verdict_p50_us", median(&p50s), "us", completed.len());
    out.metric(
        "device_cycles_per_attest",
        median(&cycles),
        "cycles",
        cycles.len(),
    );
    out.metric("setup_s", median(&setups), "s", setups.len());
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    Ok(out)
}

fn run_traced(args: &Args, allocs: AllocCounter) -> Result<Outcome, String> {
    let workload = args.workload;
    let inputs = Inputs::generate(workload, args.seed);
    let (mut ready, _) = set_up(&inputs)?;
    let quarter = Duration::from_secs(args.seconds) / 4;
    let cache_before = ready.cache.stats();

    // (a0) untraced, then (a) traced, over the wire on one gateway.
    let plain = wire::closed_loop(
        &mut ready.fleet.devices,
        &inputs,
        &ready.served.connector,
        quarter,
        None,
    );
    let epoch = Instant::now();
    let traced = wire::closed_loop(
        &mut ready.fleet.devices,
        &inputs,
        &ready.served.connector,
        quarter,
        Some(epoch),
    );
    let report = ready.served.handle.shutdown();
    let mut out = Outcome::default();
    let (plain_verified, _) = check_loop(&mut out, &plain, &ready.fleet, workload);
    let (traced_verified, costs) = check_loop(&mut out, &traced, &ready.fleet, workload);
    check_gateway(
        &mut out,
        &report.stats,
        workload,
        plain_verified + traced_verified,
    );
    let cache_after = ready.cache.stats();
    out.check(cache_after.conservation_holds(), || {
        format!("image-cache conservation law broke: {cache_after:?}")
    });
    let cache = cache_after - cache_before;
    drop(ready.fleet);

    // (b) the same op stream in process, on a fresh fleet.
    let mut fleet_b = fleet::provision(&inputs)?;
    let replayed = inproc::replay(
        &mut fleet_b,
        &inputs,
        args.seed,
        traced.ops.len(),
        quarter * 2,
        allocs,
    )?;
    out.attempted += replayed.ops.len() as u64;
    out.check(replayed.controls > 0, || {
        "negative control: no tampered response was checked".to_string()
    });

    layer_metrics(&mut out, &plain, &traced, &replayed, &costs, cache);
    write_spans(workload, &traced.spans, &replayed.spans);
    Ok(out)
}

/// Per-op sums of self time (µs) by span name, keyed by op.
struct OpTimes {
    by_op: BTreeMap<u32, BTreeMap<&'static str, f64>>,
}

impl OpTimes {
    fn new(spans: &[Span]) -> OpTimes {
        let own = self_times(spans);
        let mut by_op: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (span, own) in spans.iter().zip(own) {
            *by_op
                .entry(span.op)
                .or_default()
                .entry(span.name)
                .or_default() += own as f64 / 1e3;
        }
        OpTimes { by_op }
    }

    /// Median over ops of the per-op self time of `name` (0 for an op
    /// without such a span).
    fn median(&self, name: &str) -> f64 {
        let values: Vec<f64> = self
            .by_op
            .values()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        percentile(&values, 0.5)
    }
}

/// Per op of the in-process replay: (verifier-side µs, uncovered µs).
/// Verifier-side time is the `op` span minus the device's `client` turn;
/// uncovered time is the `op` span's own self time, the part no layer
/// span accounts for.
fn verifier_side(spans: &[Span]) -> BTreeMap<u32, (f64, f64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let entry = out.entry(span.op).or_default();
        match span.name {
            "op" => {
                entry.0 += span.duration() as f64 / 1e3;
                entry.1 += own[i] as f64 / 1e3;
            }
            "client" => entry.0 -= span.duration() as f64 / 1e3,
            _ => {}
        }
    }
    out
}

/// Per op of a traced wire run: µs the client spent blocked in `recv`,
/// i.e. waiting on the gateway.
fn gateway_wait(spans: &[Vec<Span>]) -> BTreeMap<u32, f64> {
    let mut out = BTreeMap::new();
    for span in spans.iter().flatten() {
        if span.name == "wire.recv" {
            *out.entry(span.op).or_default() += span.duration() as f64 / 1e3;
        }
    }
    out
}

/// Reads one pipeline stage out of a device cost breakdown.
type CostStage = fn(&CostBreakdown) -> u64;

fn layer_metrics(
    out: &mut Outcome,
    plain: &LoopResult,
    traced: &LoopResult,
    replayed: &InprocResult,
    costs: &[CostBreakdown],
    cache: proverguard_attest::ImageCacheSnapshot,
) {
    let times = OpTimes::new(&replayed.spans);
    let n_b = replayed.ops.len();
    for (metric, span) in [
        ("gateway.codec_us", "gateway.codec"),
        ("gateway.directory_us", "gateway.directory"),
        ("gateway.verify_us", "gateway.verify"),
        ("verifier.make_request_us", "verifier.make_request"),
        ("verifier.check_us", "verifier.check"),
        ("segcache.digest_us", "segcache.digest"),
        ("segcache.combine_us", "segcache.combine"),
        ("crypto.outer_mac_us", "crypto.outer_mac"),
        ("channel.seal_us", "channel.seal"),
        ("channel.open_us", "channel.open"),
        ("prover.host_us", "prover.host"),
    ] {
        out.metric(metric, times.median(span), "us", n_b);
    }
    let mac_bytes: Vec<f64> = replayed.ops.iter().map(|o| o.mac_bytes as f64).collect();
    out.metric(
        "crypto.mac_bytes_per_attest",
        percentile(&mac_bytes, 0.5),
        "count",
        n_b,
    );

    // Layer closure: the layer spans cover the verifier-side op span.
    let side = verifier_side(&replayed.spans);
    let in_ops: Vec<(u32, f64, f64)> = replayed
        .ops
        .iter()
        .filter_map(|o| side.get(&o.op).map(|&(v, gap)| (o.op, v, gap)))
        .collect();
    let total: f64 = in_ops.iter().map(|x| x.1).sum();
    let gap: f64 = in_ops.iter().map(|x| x.2).sum();
    let gap_pct = if total > 0.0 {
        gap / total * 100.0
    } else {
        100.0
    };
    out.check(gap_pct <= CLOSURE_TOLERANCE_PCT, || {
        format!("layer closure: spans leave {gap_pct:.2}% of the op uncovered (tolerance {CLOSURE_TOLERANCE_PCT}%)")
    });

    // The residual: the client's wait on the gateway over the wire minus
    // the verifier-side work of the same ops in process.
    let wait = gateway_wait(&traced.spans);
    let waits: Vec<f64> = wait.values().copied().collect();
    let sides: Vec<f64> = in_ops.iter().map(|x| x.1).collect();
    let (wait_us, side_us) = (percentile(&waits, 0.5), percentile(&sides, 0.5));
    out.metric(
        "gateway.io_us",
        wait_us - side_us,
        "us",
        waits.len().min(sides.len()),
    );
    out.metric("gateway.wait_us", wait_us, "us", waits.len());
    out.metric("gateway.verifier_side_us", side_us, "us", sides.len());

    let stages: [(&'static str, CostStage); 5] = [
        ("prover.cycles.parse", |c| c.parse_cycles),
        ("prover.cycles.admission", |c| c.admission_cycles),
        ("prover.cycles.auth", |c| c.auth_cycles),
        ("prover.cycles.freshness", |c| c.freshness_cycles),
        ("prover.cycles.response", |c| c.response_cycles),
    ];
    for (metric, stage) in stages {
        let values: Vec<f64> = costs.iter().map(|c| stage(c) as f64).collect();
        out.metric(metric, percentile(&values, 0.5), "cycles", values.len());
    }

    let lookups = cache.lookups as usize;
    out.metric("imagecache.hit_rate", cache.hit_rate(), "ratio", lookups);
    out.metric(
        "imagecache.digest_sweeps",
        cache.digest_sweeps as f64,
        "count",
        lookups,
    );
    out.metric(
        "imagecache.scratch_rebuilds",
        cache.scratch_rebuilds as f64,
        "count",
        lookups,
    );

    let frames: Vec<f64> = traced.ops.iter().map(|o| o.frames as f64).collect();
    let bytes: Vec<f64> = traced.ops.iter().map(|o| o.bytes as f64).collect();
    out.metric(
        "transport.frames_per_attest",
        percentile(&frames, 0.5),
        "count",
        frames.len(),
    );
    out.metric(
        "transport.bytes_per_attest",
        percentile(&bytes, 0.5),
        "count",
        bytes.len(),
    );

    let allocs: Vec<f64> = replayed.ops.iter().map(|o| o.allocs as f64).collect();
    let check_allocs: Vec<f64> = replayed.ops.iter().map(|o| o.check_allocs as f64).collect();
    out.metric("alloc.per_attest", percentile(&allocs, 0.5), "count", n_b);
    out.metric(
        "alloc.per_check",
        percentile(&check_allocs, 0.5),
        "count",
        n_b,
    );

    let p50 = |r: &LoopResult| {
        let v: Vec<f64> = r.ops.iter().map(|o| o.latency_ns as f64 / 1e3).collect();
        percentile(&v, 0.5)
    };
    out.metric(
        "trace.overhead_us",
        p50(traced) - p50(plain),
        "us",
        traced.ops.len().min(plain.ops.len()),
    );
    out.metric("trace.closure_gap_pct", gap_pct, "%", in_ops.len());
}

/// Writes the traced run's spans as JSON lines next to the benchmark
/// (`out/trace_<workload>.jsonl`, overwritten per run).
fn write_spans(workload: Workload, wire_spans: &[Vec<Span>], inproc_spans: &[Span]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let mut text = String::new();
    for (t, spans) in wire_spans.iter().enumerate() {
        trace::write_jsonl(&mut text, &format!("wire{t}"), spans);
    }
    trace::write_jsonl(&mut text, "inproc", inproc_spans);
    let path = format!("{dir}/trace_{}.jsonl", workload.name());
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

/// Verdicts per second within each window of `window` consecutive
/// completions (`(ns, _)` in completion order): `window - 1` gaps over
/// the time from the first to the last.
fn window_rates(completions: &[(u64, f64)], window: usize) -> Vec<f64> {
    completions
        .chunks_exact(window.max(2))
        .filter_map(|w| {
            let span = w[w.len() - 1].0.saturating_sub(w[0].0);
            (span > 0).then(|| (w.len() - 1) as f64 / (span as f64 / 1e9))
        })
        .collect()
}

/// Nearest-rank percentile (`q` in 0..=1); 0 for no samples.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where the
/// kernel does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn print_human(args: &Args, out: &Outcome) {
    let mut text = format!(
        "perfbench {} seed={} seconds={} trace={} attempted={} failed={}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    if !args.trace {
        let share = if out.attempted > 0 {
            out.failed as f64 / out.attempted as f64
        } else {
            1.0
        };
        let _ = writeln!(
            text,
            "  {:<30} {:>16.4} {:<7} (n={})",
            "failed_share", share, "ratio", out.attempted
        );
    }
    for m in &out.metrics {
        let _ = writeln!(
            text,
            "  {:<30} {:>16.4} {:<7} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for v in &out.violations {
        let _ = writeln!(text, "  VIOLATION: {v}");
    }
    eprint!("{text}");
}

fn json_line(out: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.violations.is_empty(),
        out.attempted.max(1),
        out.failed
    )
}
