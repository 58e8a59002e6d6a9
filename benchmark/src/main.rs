//! The repo benchmark (ISSUE 11): four SMR / atomic-broadcast
//! workloads, two clocks, and a layer ledger measured from outside.
//!
//! ```text
//! benchmark [--seed N] [--quick] [--out DIR] [--commit ID]     every workload, full report
//! benchmark --workload W --seed N --seconds S --trace 0|1      one contract run (BENCHMARK.json)
//! benchmark compare A.json B.json                              label every metric x workload
//! benchmark --report W …                                       the full run's child for one workload
//! ```
//!
//! `README.md` beside this package is the glossary.

mod check;
mod drills;
mod json;
mod layers;
mod report;
mod rules;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hpsmr_core::deploy::deploy_cs;
use hpsmr_core::replica::{SMR_COMPLETED, SMR_LATENCY};
use simnet::prelude::*;

use drills::DrillShape;
use json::Json;
use layers::{chunk_median_us, layer_metrics, share_table, CsBaseline, LayerPass};
use report::{contract_line, Measured, E2E_METRICS};
use rules::Rung;
use spans::Spans;
use workloads::{run_rep, specs, time_setup, Rep, RepOptions, Spec, RUNG_WINDOW};

/// Seed of a plain `run.sh`.
const DEFAULT_SEED: u64 = 11;
/// Seed no number in the README was tuned on; claims must hold on it too.
const HELD_OUT_SEED: u64 = 2011;
/// Timed repetitions of a full run (after one untimed warm-up).
const FULL_REPS: usize = 7;
/// `setup_s` is the lower quartile of at least this many set-ups.
const MIN_SETUPS: usize = 9;

/// Window scale: 1 for real runs, 1/10 under `--quick`.
#[derive(Clone, Copy)]
struct Scale(u64);

impl Scale {
    fn of(self, d: Dur) -> Dur {
        Dur::nanos(d.as_nanos() / self.0)
    }
}

fn main_opts(spec: &Spec, seed: u64, scale: Scale) -> RepOptions {
    RepOptions {
        seed,
        rate: spec.main_rate,
        window: scale.of(Dur::secs(spec.window_s)),
        fault: true,
        traced: false,
        skip_drain_if_over_us: None,
        strict_accounting: true,
    }
}

fn rung_opts(spec: &Spec, rate: f64, seed: u64, scale: Scale) -> RepOptions {
    RepOptions {
        seed,
        rate,
        window: scale.of(RUNG_WINDOW),
        fault: false,
        traced: false,
        skip_drain_if_over_us: Some(spec.p99_limit_us),
        strict_accounting: false,
    }
}

/// Which rungs a ladder pass runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LadderMode {
    /// Every rung (full report: latency at each fixed rate).
    All,
    /// Walk up to the first failing rung, then only the top one — all
    /// `max_rate_ok_ops_s` and `overload_goodput_ops_s` need.
    Needed,
    /// `All` without the top (overload) rung (`--quick`).
    SkipTop,
}

/// Runs the ladder. The main run stands for the first rung where the
/// spec says so. Returns the evaluated rungs in ascending order.
fn run_ladder(
    spec: &Spec,
    seed: u64,
    scale: Scale,
    main: &Rep,
    mode: LadderMode,
    spans: &mut Spans,
) -> Vec<(Rung, Rep)> {
    let mut out: Vec<(Rung, Rep)> = Vec::new();
    let top = spec.ladder.len() - 1;
    let mut failed = false;
    for (i, &rate) in spec.ladder.iter().enumerate() {
        let skip = match mode {
            LadderMode::All => false,
            LadderMode::Needed => failed && i != top,
            LadderMode::SkipTop => i == top,
        };
        if skip {
            continue;
        }
        let rep = if i == 0 && spec.first_rung_is_main() {
            main.clone()
        } else {
            spans.scope(format!("rung:{rate:.0}"), |s| {
                run_rep(spec, &rung_opts(spec, rate, seed, scale), s)
            })
        };
        let rung = rep.rung(rate);
        failed |= !rung.passes(spec.p99_limit_us);
        out.push((rung, rep));
    }
    out
}

fn cs_baseline(spec: &Spec, seed: u64, scale: Scale) -> Option<CsBaseline> {
    let kind = spec.tree_kind()?;
    let window = scale.of(Dur::secs(2));
    let start = Time::from_secs(1);
    let mut sim = Sim::new(SimConfig { seed, ..SimConfig::default() });
    let d = deploy_cs(&mut sim, 20, kind, None);
    sim.run_until(start);
    let _ = sim.metrics_mut().take_latency(SMR_LATENCY);
    let done =
        |sim: &Sim| d.clients.iter().map(|&c| sim.metrics().counter(c, SMR_COMPLETED)).sum::<u64>();
    let before = done(&sim);
    sim.run_until(start + window);
    Some(CsBaseline {
        goodput: (done(&sim) - before) as f64 / window.as_secs_f64(),
        p50_us: sim
            .metrics()
            .percentile(SMR_LATENCY, 0.5)
            .map_or(0.0, |d| d.as_nanos() as f64 / 1e3),
    })
}

fn drill_shape(spec: &Spec, base: &Rep, seed: u64) -> DrillShape {
    DrillShape {
        msg_bytes: spec.msg_bytes,
        values_per_instance: (base.ops as f64 / base.count("instances").max(1) as f64).round()
            as u64,
        seed,
    }
}

/// The reps' violations, prefixed with where they happened.
fn violations<'a>(what: &str, reps: impl IntoIterator<Item = &'a Rep>) -> Vec<String> {
    reps.into_iter().flat_map(|r| &r.violations).map(|v| format!("{what}: {v}")).collect()
}

/// Same-seed runs must agree on every counter.
fn checksum_gate<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> Option<String> {
    let sums: Vec<u64> = reps.into_iter().map(|r| r.checksum).collect();
    (sums.windows(2).any(|w| w[0] != w[1])).then(|| {
        format!("determinism: same-seed repetitions disagree on the counter checksum {sums:x?}")
    })
}

/// The nine metrics of the contract's `end_to_end` list plus the three
/// scoped ones, from the timed main reps and the ladder.
fn e2e_measured(
    spec: &Spec,
    reps: &[Rep],
    setups: Vec<f64>,
    ladder: &[(Rung, Rep)],
    quick: bool,
) -> Vec<Measured> {
    let first = &reps[0];
    // Host times: lower quartile of the samples (rules::lower_quartile).
    let chunks: Vec<f64> = reps.iter().flat_map(|r| r.chunk_us_per_op.iter().copied()).collect();
    let per_rep: Vec<f64> =
        reps.iter().map(|r| rules::lower_quartile(&r.chunk_us_per_op)).collect();
    let rss = reps.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max);
    // Percentile support rule: report a percentile only with at least
    // ten samples beyond it; say so where a quick run falls short.
    let highest = rules::highest_supported(first.lat.count);
    let lat_note = |p: f64| {
        let short = if highest.is_some_and(|h| p <= h) {
            ""
        } else {
            ", UNSUPPORTED: fewer than 10 samples beyond"
        };
        format!("(n={}{short})", first.lat.count)
    };
    let rungs: Vec<Rung> = ladder.iter().map(|(r, _)| *r).collect();
    let mut out = vec![
        Measured::host("setup_s", rules::lower_quartile(&setups), setups, "(lower quartile)"),
        Measured::host(
            "host_us_per_op",
            rules::lower_quartile(&chunks),
            per_rep,
            format!("(lower quartile of {} 250 ms chunks; samples are per rep)", chunks.len()),
        ),
        Measured::exact("peak_rss_mb", rss, "(VmHWM)"),
        Measured::exact("goodput_ops_s", first.goodput, format!("(offered {:.1})", spec.main_rate)),
        Measured::exact("latency_p50_us", first.lat.p50_us, lat_note(0.50)),
        Measured::exact("latency_p99_us", first.lat.p99_us, lat_note(0.99)),
        Measured::exact("latency_p999_us", first.lat.p999_us, lat_note(0.999)),
        Measured::exact(
            "max_rate_ok_ops_s",
            rules::max_rate_ok(&rungs, spec.p99_limit_us).unwrap_or(0.0),
            format!("(p99 <= {:.0} us)", spec.p99_limit_us),
        ),
    ];
    if !quick {
        let (top, _) = ladder.last().expect("the ladder has rungs");
        out.push(Measured::exact(
            "overload_goodput_ops_s",
            top.goodput,
            format!("(offered {:.1})", top.rate),
        ));
    }
    out.push(Measured::exact(
        "failed_share",
        first.failed_share.unwrap_or(0.0),
        format!("({} of {} submitted)", first.lost.unwrap_or(0), first.submitted),
    ));
    if let (Some(outage), Some(recover)) = (first.outage_ms, first.recover_ms) {
        out.push(Measured::exact("outage_ms", outage, "(1 ms polls)"));
        out.push(Measured::exact("recover_ms", recover, "(rec.ttr max)"));
    }
    out
}

fn write_out(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, content)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

struct Args {
    workload: Option<String>,
    /// `--report W`: this process is the full run's child for `W`.
    report: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
    commit: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        report: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
        commit: "unknown".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(val()?.clone()),
            "--report" => a.report = Some(val()?.clone()),
            "--seed" => a.seed = val()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => a.seconds = val()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => a.trace = val()? == "1",
            "--quick" => a.quick = true,
            "--out" => a.out = PathBuf::from(val()?),
            "--commit" => a.commit = val()?.clone(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// One contract run with `--trace 0`: main reps for `--seconds` of
/// measure-window wall, then the rungs the two ladder metrics need.
fn contract_e2e(spec: &Spec, a: &Args, spans: &mut Spans) -> (bool, String) {
    let scale = Scale(1);
    let opts = main_opts(spec, a.seed, scale);
    // Untimed: a tenth-length repetition warms the allocator and caches.
    let _ = run_rep(spec, &main_opts(spec, a.seed, Scale(10)), spans);
    let mut reps = Vec::new();
    let mut measured = 0.0;
    while measured < a.seconds {
        let rep = run_rep(spec, &opts, spans);
        measured += rep.measure_wall_s;
        reps.push(rep);
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(time_setup(spec, &opts, spans));
    }
    let ladder = run_ladder(spec, a.seed, scale, &reps[0], LadderMode::Needed, spans);
    let mut bad = violations("main", &reps);
    bad.extend(violations("ladder", ladder.iter().map(|(_, r)| r)));
    bad.extend(checksum_gate(&reps));
    for b in &bad {
        eprintln!("GATE FAILED {b}");
    }
    let e2e = e2e_measured(spec, &reps, setups, &ladder, false);
    for m in e2e.iter().filter(|m| m.samples.len() > 1) {
        eprintln!("{}", m.line());
    }
    let metrics: Vec<(&str, &str, f64)> = E2E_METRICS
        .iter()
        .filter(|m| m.in_contract)
        .map(|m| (m.name, m.unit, e2e.iter().find(|x| x.name == m.name).map_or(0.0, |x| x.value)))
        .collect();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed.unwrap_or(0)).sum();
    (bad.is_empty(), contract_line(bad.is_empty(), attempted.max(1), failed, &metrics))
}

/// Untraced rep, traced rep of the same seed, top rung (smr), drills,
/// single-node baseline.
fn layer_pass(
    spec: &Spec,
    seed: u64,
    scale: Scale,
    base: Option<Rep>,
    top: Option<Rep>,
    spans: &mut Spans,
) -> (LayerPass, Vec<String>) {
    let opts = main_opts(spec, seed, scale);
    let base = base.unwrap_or_else(|| run_rep(spec, &opts, spans));
    let traced = spans.scope("traced", |s| run_rep(spec, &RepOptions { traced: true, ..opts }, s));
    let top = top.or_else(|| {
        let rate = *spec.ladder.last().expect("the ladder has rungs");
        (spec.is_smr() && scale.0 == 1)
            .then(|| run_rep(spec, &rung_opts(spec, rate, seed, scale), spans))
    });
    let drills = drills::run_all(drill_shape(spec, &base, seed), spans);
    let cs = cs_baseline(spec, seed, scale);
    let mut bad = violations("traced", [&traced]);
    bad.extend(checksum_gate([&base, &traced]));
    (LayerPass { base, traced, top, drills, cs }, bad)
}

fn write_traces(spec: &Spec, p: &LayerPass, spans: &Spans, out: &Path) {
    write_out(out, &format!("trace-{}-host.json", spec.name), &spans.chrome_trace().to_line());
    if let Some(t) = &p.traced.virtual_trace {
        write_out(out, &format!("trace-{}-virtual.json", spec.name), t);
    }
}

/// One contract run with `--trace 1`.
fn contract_layers(spec: &Spec, a: &Args, spans: &mut Spans) -> (bool, String) {
    let _ = run_rep(spec, &main_opts(spec, a.seed, Scale(10)), spans);
    let (p, layer_bad) = layer_pass(spec, a.seed, Scale(1), None, None, spans);
    let mut bad = violations("main", [&p.base]);
    bad.extend(layer_bad);
    for b in &bad {
        eprintln!("GATE FAILED {b}");
    }
    write_traces(spec, &p, spans, &a.out);
    let line = contract_line(
        bad.is_empty(),
        p.base.attempted.max(1),
        p.base.failed.unwrap_or(0),
        &layer_metrics(spec, &p),
    );
    (bad.is_empty(), line)
}

fn print_ladder(spec: &Spec, ladder: &[(Rung, Rep)]) {
    println!(
        "  ladder (p99 limit {:.0} us, 1 + {} virtual s per rung):",
        spec.p99_limit_us,
        RUNG_WINDOW.as_secs_f64()
    );
    println!(
        "    {:>10} {:>10} {:>10} {:>12} {:>12} {:>9} {:>9} {:>12}  verdict",
        "rate", "goodput", "p50_us", "p99_us", "p999_us", "infl_mid", "infl_end", "failed_share"
    );
    for (r, rep) in ladder {
        println!(
            "    {:>10.1} {:>10.1} {:>10.1} {:>12.1} {:>12.1} {:>9} {:>9} {:>12}  {}",
            r.rate,
            r.goodput,
            rep.lat.p50_us,
            r.p99_us,
            rep.lat.p999_us,
            r.in_flight_mid,
            r.in_flight_end,
            r.failed_share.map_or("(no drain)".into(), |f| format!("{f:.6}")),
            if r.passes(spec.p99_limit_us) { "ok" } else { "FAIL" },
        );
    }
}

/// Every workload, the full report, traces and the results document.
fn full_run(a: &Args) -> bool {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("benchmark: seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}), commit {}, nproc {nproc}{}", a.seed, a.commit, if a.quick { ", QUICK" } else { "" });
    let mut all_ok = seed_selftest();
    let mut doc_workloads = Vec::new();
    // One fresh child process per workload, one at a time: `peak_rss_mb`
    // is then that workload's own, and no workload inherits another's
    // heap.
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    for spec in specs() {
        let part = a.out.join(format!("part-{}.json", spec.name));
        let mut child = std::process::Command::new(&exe);
        child.args(["--report", spec.name, "--seed", &a.seed.to_string()]);
        child.arg("--out").arg(&a.out);
        if a.quick {
            child.arg("--quick");
        }
        // `status` waits for the child to end.
        all_ok &= child.status().is_ok_and(|s| s.success());
        match std::fs::read_to_string(&part)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        {
            Ok(doc) => doc_workloads.push((spec.name, doc)),
            Err(e) => {
                eprintln!("no results from {}: {e}", spec.name);
                all_ok = false;
            }
        }
        let _ = std::fs::remove_file(&part);
    }
    let doc = Json::obj([
        ("commit", Json::str(a.commit.clone())),
        ("seed", Json::Num(a.seed as f64)),
        ("default_seed", Json::Num(DEFAULT_SEED as f64)),
        ("held_out_seed", Json::Num(HELD_OUT_SEED as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("quick", Json::Bool(a.quick)),
        ("workloads", Json::obj(doc_workloads)),
    ]);
    let name = format!("results-seed{}{}.json", a.seed, if a.quick { "-quick" } else { "" });
    write_out(&a.out, &name, &doc.to_line());
    all_ok
}

/// The full report of one workload (`--report W`, a child of the full
/// run): timed reps, the whole ladder, the traced pass, the tables, the
/// traces, and this workload's part of the results document.
fn report_one(spec: &Spec, a: &Args) -> bool {
    let scale = Scale(if a.quick { 10 } else { 1 });
    let reps_n = if a.quick { 1 } else { FULL_REPS };
    let mut spans = Spans::default();
    spans.next_run();
    println!("\n== {} ==\n  {}", spec.name, spec.why);
    let opts = main_opts(spec, a.seed, scale);
    if !a.quick {
        spans.scope("warmup-rep", |s| run_rep(spec, &opts, s));
    }
    let reps: Vec<Rep> =
        (0..reps_n).map(|i| spans.scope(format!("rep:{i}"), |s| run_rep(spec, &opts, s))).collect();
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(time_setup(spec, &opts, &mut spans));
    }
    let mode = if a.quick { LadderMode::SkipTop } else { LadderMode::All };
    let ladder = run_ladder(spec, a.seed, scale, &reps[0], mode, &mut spans);
    let top = (!a.quick).then(|| ladder.last().expect("the ladder has rungs").1.clone());
    let (pass, layer_bad) = layer_pass(spec, a.seed, scale, Some(reps[0].clone()), top, &mut spans);

    let mut bad = violations("main", &reps);
    bad.extend(violations("ladder", ladder.iter().map(|(_, r)| r)));
    bad.extend(checksum_gate(&reps));
    bad.extend(layer_bad);
    let e2e = e2e_measured(spec, &reps, setups, &ladder, a.quick);
    println!("  end-to-end (virtual numbers repeat exactly for the seed; host numbers carry this box's noise):");
    for m in &e2e {
        println!("{}", m.line());
    }
    print_ladder(spec, &ladder);
    let layer_rows = layer_metrics(spec, &pass);
    println!("  per-layer:");
    for (name, unit, value) in &layer_rows {
        println!("    {name:<42} {value:>16.4} {unit}");
    }
    let shares = share_table(spec, &pass.base, &pass.drills);
    println!("  layer share of the measure window's wall ({:.3} s; drill unit cost x this workload's calls):", pass.base.measure_wall_s);
    for r in &shares {
        println!(
            "    {}{:<46} {:>10.1} ns x {:>10} = {:>6.2} %{}",
            if r.nested { "  " } else { "" },
            r.layer,
            r.unit_ns,
            r.calls,
            r.share_pct,
            if r.nested { " (inside the row above it)" } else { "" }
        );
    }
    println!(
        "  harness self time (host s, from its own spans): {}",
        spans
            .self_time_by_name()
            .iter()
            .map(|(n, t)| format!("{n} {t:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "  gates: {}",
        if bad.is_empty() { "all passed".to_string() } else { format!("{} FAILED", bad.len()) }
    );
    for b in &bad {
        println!("    GATE FAILED {b}");
    }
    write_traces(spec, &pass, &spans, &a.out);
    let part = Json::obj([
        ("why", Json::str(spec.why)),
        ("ladder_rates", Json::nums(&spec.ladder)),
        ("end_to_end", Json::obj(e2e.iter().map(|m| (m.name, m.to_json())))),
        ("rep_wall_s", Json::nums(&reps.iter().map(|r| r.measure_wall_s).collect::<Vec<_>>())),
        ("rep_host_us_per_op", Json::nums(&reps.iter().map(chunk_median_us).collect::<Vec<_>>())),
        (
            "ladder",
            Json::Arr(
                ladder
                    .iter()
                    .map(|(r, rep)| {
                        Json::obj([
                            ("rate", Json::Num(r.rate)),
                            ("goodput", Json::Num(r.goodput)),
                            ("p50_us", Json::Num(rep.lat.p50_us)),
                            ("p99_us", Json::Num(r.p99_us)),
                            ("p999_us", Json::Num(rep.lat.p999_us)),
                            ("failed_share", r.failed_share.map_or(Json::Null, Json::Num)),
                            ("ok", Json::Bool(r.passes(spec.p99_limit_us))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::obj(layer_rows.iter().map(|&(name, unit, value)| {
                (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
            })),
        ),
        ("layer_share_pct", Json::obj(shares.iter().map(|r| (r.layer, Json::Num(r.share_pct))))),
        ("gates_failed", Json::Arr(bad.iter().map(|b| Json::str(b.clone())).collect())),
    ]);
    write_out(&a.out, &format!("part-{}.json", spec.name), &part.to_line());
    bad.is_empty()
}

/// Seed wiring self-test: two seeds must differ in their arrival
/// sequence (`sessions.arrival_us`) while goodput at a sub-knee rate
/// agrees within 1 %.
fn seed_selftest() -> bool {
    let spec = workloads::spec_named("smr_update").expect("smr_update is a workload");
    let run = |seed| {
        let o = RepOptions { window: Dur::secs(4), ..main_opts(&spec, seed, Scale(1)) };
        run_rep(&spec, &o, &mut Spans::default())
    };
    let (a, b) = (run(DEFAULT_SEED), run(HELD_OUT_SEED));
    let differ = a.arrival_us_sum != b.arrival_us_sum && a.checksum != b.checksum;
    let agree = (a.goodput - b.goodput).abs() <= 0.01 * a.goodput;
    let ok = differ && agree && a.violations.is_empty() && b.violations.is_empty();
    println!(
        "seed self-test: arrival_us {} vs {}, goodput {:.1} vs {:.1} ops/s -> {}",
        a.arrival_us_sum,
        b.arrival_us_sum,
        a.goodput,
        b.goodput,
        if ok { "ok" } else { "FAILED" }
    );
    ok
}

fn compare_cmd(paths: &[String]) -> ExitCode {
    let [pa, pb] = paths else {
        eprintln!("usage: benchmark compare A.json B.json");
        return ExitCode::from(2);
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = match (load(pa), load(pb)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let commit = |d: &Json| d.get("commit").and_then(Json::as_str).unwrap_or("unknown").to_owned();
    println!("A: {pa} (commit {})\nB: {pb} (commit {})", commit(&a), commit(&b));
    let rows = report::compare(&a, &b);
    println!("{:<16} {:<24} {:>14} {:>14}  verdict", "workload", "metric", "A", "B");
    for r in &rows {
        println!(
            "{:<16} {:<24} {:>14.4} {:>14.4}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.verdict.label()
        );
    }
    let count = |v: rules::Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} improved, {} unchanged, {} regressed, {} unresolved",
        count(rules::Verdict::Improved),
        count(rules::Verdict::Unchanged),
        count(rules::Verdict::Regressed),
        count(rules::Verdict::Unresolved)
    );
    if count(rules::Verdict::Regressed) > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_cmd(&args[1..]);
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = a.workload.as_ref().or(a.report.as_ref()) else {
        return if full_run(&a) { ExitCode::SUCCESS } else { ExitCode::from(1) };
    };
    let Some(spec) = workloads::spec_named(name) else {
        eprintln!(
            "unknown workload `{name}`; known: {:?}",
            specs().iter().map(|s| s.name).collect::<Vec<_>>()
        );
        return ExitCode::from(2);
    };
    if a.report.is_some() {
        return if report_one(&spec, &a) { ExitCode::SUCCESS } else { ExitCode::from(1) };
    }
    let mut spans = Spans::default();
    spans.next_run();
    let (ok, line) = if a.trace {
        contract_layers(&spec, &a, &mut spans)
    } else {
        contract_e2e(&spec, &a, &mut spans)
    };
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn two_seeds_differ_in_arrivals_and_agree_on_goodput() {
        assert!(super::seed_selftest());
    }
}
