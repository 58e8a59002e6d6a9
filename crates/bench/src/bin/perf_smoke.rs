//! Engine performance smoke test: fixed-seed U-Ring and M-Ring runs that
//! report *wall-clock* events/sec and delivered msgs/sec, so the simulator's
//! per-event cost is tracked from PR to PR.
//!
//! ```text
//! cargo run --release -p bench --bin perf_smoke                   # print + write BENCH_simcore.json
//! cargo run --release -p bench --bin perf_smoke -- --runs 5       # best of 5 instead of 3
//! cargo run --release -p bench --bin perf_smoke -- --no-write
//! cargo run --release -p bench --bin perf_smoke -- --sessions 1_000_000   # session-table scale
//! perf_smoke --paired /path/to/parent/perf_smoke target/release/perf_smoke   # interleaved A/B
//! ```
//!
//! `--paired A B` interleaves two *commands* (typically two builds of
//! this binary) for `--runs` pairs, parses each child's
//! `total_events_per_sec`, and reports the median paired delta and
//! ratio, the pairs B won (`b_wins`), and A's quartiles (`a_quartiles`,
//! the spread a median gap must beat). Interleaving means slow
//! build-box drift hits both sides of every pair equally — the ±7 %
//! swings that poisoned earlier PR-to-PR comparisons cancel instead of
//! accumulating. Even pairs run A then B, odd pairs B then A: the same
//! two builds once read 1.083× with A always first and 1.037× with the
//! operands swapped (one pinned core of a 2-vCPU Xeon), an order effect
//! as large as the changes the tool judges. The paired record is appended to `BENCH_simcore.json` as
//! its own JSON line.
//!
//! Virtual-time results (events, delivered counts) are deterministic for
//! the fixed seed; only the wall-clock rates vary with the host. The
//! JSON written to `BENCH_simcore.json` is the complete machine-readable
//! record of a measurement — best-of-N selection happens here, every
//! wall-clock sample is included, and nothing needs hand-editing when
//! the ROADMAP perf table is updated from it.

use std::time::Instant;

use abcast::metric;
use ringpaxos::cluster::{deploy_mring, deploy_uring, MRingOptions, URingOptions};
use simnet::prelude::*;

struct RunResult {
    name: &'static str,
    events: u64,
    wall_s: f64,
    /// Every wall-clock sample measured, in run order (`wall_s` is the
    /// minimum); recorded so the noise band is visible in the artifact.
    wall_samples: Vec<f64>,
    delivered: u64,
    virtual_ms: u64,
}

impl RunResult {
    fn json(&self) -> String {
        let samples =
            self.wall_samples.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(",");
        format!(
            "\"{}\":{{\"events\":{},\"wall_s\":{:.4},\"wall_s_samples\":[{}],\"events_per_sec\":{:.0},\"delivered_msgs\":{},\"delivered_per_wall_sec\":{:.0},\"virtual_ms\":{}}}",
            self.name,
            self.events,
            self.wall_s,
            samples,
            self.events as f64 / self.wall_s,
            self.delivered,
            self.delivered as f64 / self.wall_s,
            self.virtual_ms,
        )
    }
}

fn run_uring() -> RunResult {
    let virtual_ms = 4_000;
    let mut cfg = SimConfig::default();
    cfg.seed = 0xBEEF;
    let mut sim = Sim::new(cfg);
    let opts = URingOptions {
        ring_len: 5,
        n_acceptors: 3,
        proposer_rate_bps: 150_000_000,
        ..URingOptions::default()
    };
    deploy_uring(&mut sim, &opts, |_| {});
    let t = Instant::now();
    sim.run_until(Time::from_millis(virtual_ms));
    let wall_s = t.elapsed().as_secs_f64();
    RunResult {
        name: "uring",
        events: sim.events_processed(),
        wall_s,
        wall_samples: vec![wall_s],
        delivered: sim.metrics().sum(metric::DELIVERED_MSGS),
        virtual_ms,
    }
}

fn run_mring() -> RunResult {
    let virtual_ms = 1_500;
    let mut cfg = SimConfig::default();
    cfg.seed = 0xF00D;
    cfg.random_loss = 0.001; // exercise the loss/retransmission paths too
    let mut sim = Sim::new(cfg);
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: 300_000_000,
        ..MRingOptions::default()
    };
    deploy_mring(&mut sim, &opts, |_| {});
    let t = Instant::now();
    sim.run_until(Time::from_millis(virtual_ms));
    let wall_s = t.elapsed().as_secs_f64();
    RunResult {
        name: "mring",
        events: sim.events_processed(),
        wall_s,
        wall_samples: vec![wall_s],
        delivered: sim.metrics().sum(metric::DELIVERED_MSGS),
        virtual_ms,
    }
}

/// Best (fastest-wall) of `runs`: virtual-time results are identical
/// across repetitions, so this only de-noises the wall clock. Every
/// sample is kept in the result for the JSON artifact.
fn best_of(runs: usize, f: impl Fn() -> RunResult) -> RunResult {
    let mut best = f();
    let mut samples = best.wall_samples.clone();
    for _ in 1..runs {
        let r = f();
        samples.push(r.wall_s);
        if r.wall_s < best.wall_s {
            best = r;
        }
    }
    best.wall_samples = samples;
    best
}

/// Peak resident set (MB) of this process, from `VmHWM` in
/// `/proc/self/status`; `0` where procfs is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).map(String::from))
        })
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Session-table scale smoke: hosts `target` open-loop Zipfian sessions
/// over the partitioned B⁺-tree and runs until `target` requests have
/// completed, reporting wall-clock sessions/s, the latency tail, and
/// peak RSS as its own `BENCH_simcore.json` line.
fn run_sessions(target: u64, rate_per_table: f64, no_write: bool) {
    use hpsmr_core::deploy::{deploy_smr_sessions, PartitionOptions, SessionOptions};
    use workload::{SESSIONS_COMPLETED, SESSIONS_SHED, SESSION_LATENCY};

    let n_tables = 8u64;
    let mut cfg = SimConfig::default();
    cfg.seed = 0x5E55;
    let mut sim = Sim::new(cfg);
    let opts = SessionOptions {
        n_tables: n_tables as usize,
        sessions_per_table: target.div_ceil(n_tables),
        rate_per_table,
        // Spread execution over four partitions: mass-session traffic is
        // replica-execution-bound long before the batched ring saturates.
        partitions: Some(PartitionOptions { n: 4, replicas_per: 2, cross_pct: 0 }),
        ..SessionOptions::default()
    };
    let d = deploy_smr_sessions(&mut sim, &opts);
    let count = |sim: &Sim, name: &'static str| -> u64 {
        d.tables.iter().map(|&t| sim.metrics().counter(t, name)).sum()
    };
    let completed = |sim: &Sim| count(sim, SESSIONS_COMPLETED);
    let t = Instant::now();
    // Step in coarse chunks until the target count lands. The ceiling is
    // the open-loop drain time plus slack — reaching it means the system
    // cannot sustain the offered rate, and the assert below fires.
    let drain_s = target as f64 / (rate_per_table * n_tables as f64);
    let cap = Time::ZERO + Dur::millis((drain_s * 2_000.0) as u64 + 4_000);
    let mut now = Time::ZERO;
    while completed(&sim) < target && now < cap {
        now += Dur::millis(250);
        sim.run_until(now);
        if now.as_nanos().is_multiple_of(4_000_000_000) {
            eprintln!(
                "  t={:3.0}s submitted {} completed {} retries {} shed {}",
                now.as_secs_f64(),
                count(&sim, workload::SESSIONS_SUBMITTED),
                completed(&sim),
                count(&sim, workload::SESSIONS_RETRIES),
                count(&sim, SESSIONS_SHED),
            );
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let done = completed(&sim);
    let shed: u64 = d.tables.iter().map(|&t| sim.metrics().counter(t, SESSIONS_SHED)).sum();
    let pctl_us = |frac: f64| -> f64 {
        sim.metrics()
            .percentile(SESSION_LATENCY, frac)
            .map(|d| d.as_nanos() as f64 / 1e3)
            .unwrap_or(0.0)
    };
    let line = format!(
        "{{\"bench\":\"sessions\",\"target\":{target},\"hosted_sessions\":{},\"completed\":{done},\"shed\":{shed},\"virtual_ms\":{},\"wall_s\":{wall_s:.2},\"sessions_per_wall_sec\":{:.0},\"events\":{},\"events_per_sec\":{:.0},\"p50_us\":{:.0},\"p99_us\":{:.0},\"p999_us\":{:.0},\"peak_rss_mb\":{:.0}}}",
        n_tables * opts.sessions_per_table,
        now.as_nanos() / 1_000_000,
        done as f64 / wall_s,
        sim.events_processed(),
        sim.events_processed() as f64 / wall_s,
        pctl_us(0.50),
        pctl_us(0.99),
        pctl_us(0.999),
        peak_rss_mb(),
    );
    println!("{line}");
    assert!(done >= target, "sessions run fell short of the target: {done} < {target}");
    if !no_write {
        let path = artifact_path();
        let body = std::fs::read_to_string(&path).unwrap_or_default();
        // The sessions record is its own line; keep every other record.
        let mut kept: Vec<&str> =
            body.lines().filter(|l| !l.contains("\"bench\":\"sessions\"")).collect();
        kept.push(&line);
        if let Err(e) = std::fs::write(&path, format!("{}\n", kept.join("\n"))) {
            eprintln!("could not write {path}: {e}");
        }
    }
}

/// Workspace-root artifact path (cwd fallback outside cargo).
fn artifact_path() -> String {
    let dir = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| format!("{d}/../.."))
        .unwrap_or_else(|_| ".".to_string());
    format!("{dir}/BENCH_simcore.json")
}

/// Runs one child command (whitespace-split program + args, with
/// `--no-write --runs 1` appended) and parses its
/// `total_events_per_sec` from the JSON line on stdout.
fn paired_sample(cmd: &str) -> f64 {
    let mut parts = cmd.split_whitespace();
    let prog = parts.next().expect("--paired operand is empty");
    let out = std::process::Command::new(prog)
        .args(parts)
        .args(["--no-write", "--runs", "1"])
        .output()
        .unwrap_or_else(|e| panic!("could not run paired command `{cmd}`: {e}"));
    assert!(out.status.success(), "paired command `{cmd}` failed: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let key = "\"total_events_per_sec\":";
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.contains(key))
        .unwrap_or_else(|| panic!("no total_events_per_sec in `{cmd}` output"));
    let tail = &line[line.rfind(key).unwrap() + key.len()..];
    let num: String =
        tail.chars().take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
    num.parse().expect("malformed total_events_per_sec")
}

/// Quantile `q` of ascending-sorted `v`, interpolating linearly between
/// the two nearest samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Interleaved A/B: runs `pairs` pairs, A first on even pairs and B
/// first on odd ones, so slow wall-clock drift and any first-runner
/// advantage hit both sides equally. Reports the median paired delta
/// (B − A, events/s), the median ratio (B / A), the pairs B won, and
/// A's quartiles. The record is appended to `BENCH_simcore.json` as its
/// own JSON line.
fn run_paired(a: &str, b: &str, pairs: usize, no_write: bool) {
    // One throwaway pair warms caches/allocator for both sides.
    let _ = paired_sample(a);
    let _ = paired_sample(b);
    let mut a_eps = Vec::new();
    let mut b_eps = Vec::new();
    for i in 0..pairs {
        if i % 2 == 0 {
            a_eps.push(paired_sample(a));
            b_eps.push(paired_sample(b));
        } else {
            b_eps.push(paired_sample(b));
            a_eps.push(paired_sample(a));
        }
        eprintln!(
            "  pair {}/{pairs} ({} first): A {:.0} ev/s, B {:.0} ev/s, ratio {:.3}",
            i + 1,
            if i % 2 == 0 { "A" } else { "B" },
            a_eps[i],
            b_eps[i],
            b_eps[i] / a_eps[i]
        );
    }
    let b_wins = a_eps.iter().zip(&b_eps).filter(|(a, b)| b > a).count();
    let mut deltas: Vec<f64> = a_eps.iter().zip(&b_eps).map(|(a, b)| b - a).collect();
    let mut ratios: Vec<f64> = a_eps.iter().zip(&b_eps).map(|(a, b)| b / a).collect();
    let mut a_sorted = a_eps.clone();
    for v in [&mut deltas, &mut ratios, &mut a_sorted] {
        v.sort_by(|x, y| x.total_cmp(y));
    }
    let fmt = |v: &[f64]| v.iter().map(|s| format!("{s:.0}")).collect::<Vec<_>>().join(",");
    let line = format!(
        "{{\"bench\":\"simcore_paired\",\"a\":\"{a}\",\"b\":\"{b}\",\"pairs\":{pairs},\"a_events_per_sec\":[{}],\"b_events_per_sec\":[{}],\"median_delta\":{:.0},\"median_ratio\":{:.4},\"b_wins\":{b_wins},\"a_quartiles\":[{:.0},{:.0}]}}",
        fmt(&a_eps),
        fmt(&b_eps),
        quantile(&deltas, 0.5),
        quantile(&ratios, 0.5),
        quantile(&a_sorted, 0.25),
        quantile(&a_sorted, 0.75),
    );
    println!("{line}");
    if !no_write {
        let path = artifact_path();
        let body = std::fs::read_to_string(&path).unwrap_or_default();
        // Replace any previous paired record, keep the trajectory row.
        let mut kept: Vec<&str> =
            body.lines().filter(|l| !l.contains("\"simcore_paired\"")).collect();
        kept.push(&line);
        if let Err(e) = std::fs::write(&path, format!("{}\n", kept.join("\n"))) {
            eprintln!("could not write {path}: {e}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let no_write = args.iter().any(|a| a == "--no-write");
    let runs = args
        .iter()
        .position(|a| a == "--runs")
        .and_then(|i| args.get(i + 1))
        .and_then(|n| n.parse::<usize>().ok())
        .unwrap_or(3)
        .max(1);
    if let Some(i) = args.iter().position(|a| a == "--sessions") {
        let target = args
            .get(i + 1)
            .map(|n| n.replace('_', ""))
            .and_then(|n| n.parse::<u64>().ok())
            .expect("--sessions needs a count");
        let rate = args
            .iter()
            .position(|a| a == "--rate")
            .and_then(|i| args.get(i + 1))
            .and_then(|n| n.replace('_', "").parse::<f64>().ok())
            // Default sits below the measured completion knee (~6k/s per
            // table collapses into a retry storm; see ch. 10's figures).
            .unwrap_or(4_000.0);
        run_sessions(target.max(1), rate, no_write);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--paired") {
        let a = args.get(i + 1).expect("--paired needs two command operands").clone();
        let b = args.get(i + 2).expect("--paired needs two command operands").clone();
        run_paired(&a, &b, runs, no_write);
        return;
    }
    // Warm up caches/allocator so the measured passes are steady-state.
    let _ = run_uring();
    let uring = best_of(runs, run_uring);
    let mring = best_of(runs, run_mring);
    let total_events = uring.events + mring.events;
    let total_wall = uring.wall_s + mring.wall_s;
    let line = format!(
        "{{\"bench\":\"simcore\",\"best_of\":{runs},{},{},\"total_events_per_sec\":{:.0}}}",
        uring.json(),
        mring.json(),
        total_events as f64 / total_wall,
    );
    println!("{line}");
    if !no_write {
        let path = artifact_path();
        // Keep the paired record (its own line) across trajectory runs.
        let paired: Option<String> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|b| b.lines().find(|l| l.contains("\"simcore_paired\"")).map(String::from));
        let body = match paired {
            Some(p) => format!("{line}\n{p}\n"),
            None => format!("{line}\n"),
        };
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("could not write {path}: {e}");
        }
    }
}
