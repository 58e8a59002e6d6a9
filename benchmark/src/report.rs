//! Metric registry (names, units, clocks, bounds), the results
//! document, and `benchmark compare`.

use crate::json::Json;
use crate::rules::{classify, median, quartiles, spread, Better, Bound, Verdict};

/// Which clock a metric is read on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock of the simulator process; carries this box's noise.
    Host,
    /// The simulated cluster's clock; repeats exactly for a seed.
    Virtual,
}

impl Clock {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
        }
    }
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct E2eMetric {
    /// Name, fixed by ISSUE 11; later issues refer to it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Clock.
    pub clock: Clock,
    /// Direction.
    pub better: Better,
    /// Regression bound `benchmark compare` applies (ISSUE 11's table).
    /// `max_rate_ok_ops_s` is compared by ladder rung instead.
    pub bound: Bound,
    /// Listed under `end_to_end` in `BENCHMARK.json`: defined, non-zero
    /// and seed-sensitive on all four workloads. The others are scoped
    /// to some workloads (or are zero when healthy) and travel in the
    /// contract's `per_layer` list under the same name.
    pub in_contract: bool,
}

/// The twelve end-to-end metrics.
pub const E2E_METRICS: [E2eMetric; 12] = {
    use Better::*;
    use Clock::*;
    const fn m(
        name: &'static str,
        unit: &'static str,
        clock: Clock,
        better: Better,
        bound: Bound,
        in_contract: bool,
    ) -> E2eMetric {
        E2eMetric { name, unit, clock, better, bound, in_contract }
    }
    [
        m("setup_s", "s", Host, Lower, Bound::Rel(0.15), true),
        m("host_us_per_op", "us", Host, Lower, Bound::Rel(0.10), true),
        m("peak_rss_mb", "MB", Host, Lower, Bound::Rel(0.10), true),
        m("goodput_ops_s", "ops/s", Virtual, Higher, Bound::Rel(0.01), true),
        m("latency_p50_us", "us", Virtual, Lower, Bound::Rel(0.05), true),
        m("latency_p99_us", "us", Virtual, Lower, Bound::Rel(0.05), true),
        m("latency_p999_us", "us", Virtual, Lower, Bound::Rel(0.05), true),
        m("max_rate_ok_ops_s", "ops/s", Virtual, Higher, Bound::Rel(0.25), true),
        m("overload_goodput_ops_s", "ops/s", Virtual, Higher, Bound::Rel(0.25), true),
        m("failed_share", "share", Virtual, Lower, Bound::Abs(0.001), false),
        m("outage_ms", "ms", Virtual, Lower, Bound::Rel(0.10), false),
        m("recover_ms", "ms", Virtual, Lower, Bound::Rel(0.10), false),
    ]
};

/// Per-layer metrics: `(name, unit, better)`, in the order
/// `layers::layer_metrics` produces them.
pub const LAYER_METRICS: [(&str, &str, Better); 61] = {
    use Better::*;
    [
        ("simnet.events_per_op", "count", Lower),
        ("simnet.host_ns_per_event", "ns", Lower),
        ("simnet.net.pkts_per_op", "count", Lower),
        ("simnet.net.bytes_per_op", "B", Lower),
        ("simnet.net.drops_per_kop", "count", Lower),
        ("simnet.disk.bytes_per_op", "B", Lower),
        ("simnet.dispatch.mean_batch", "count", Higher),
        ("simnet.timer_host_ns", "ns", Lower),
        ("simnet.udp_host_ns", "ns", Lower),
        ("simnet.tcp_seg_host_ns", "ns", Lower),
        ("simnet.mcast_rx_host_ns", "ns", Lower),
        ("simnet.payload_host_ns", "ns", Lower),
        ("simnet.stats_record_host_ns", "ns", Lower),
        ("simnet.wheel_host_ns", "ns", Lower),
        ("simnet.probe.trace_overhead_pct", "%", Lower),
        ("paxos.instance_host_ns", "ns", Lower),
        ("ringpaxos.ops_per_instance", "count", Higher),
        ("ringpaxos.coord_cpu_pct", "%", Lower),
        ("ringpaxos.acceptor_cpu_pct", "%", Lower),
        ("ringpaxos.retrans_per_kop", "count", Lower),
        ("ringpaxos.buffered_per_kop", "count", Lower),
        ("ringpaxos.stage.propose_2a_p50_us", "us", Lower),
        ("ringpaxos.stage.propose_2a_p99_us", "us", Lower),
        ("ringpaxos.stage.2a_2b_p50_us", "us", Lower),
        ("ringpaxos.stage.2a_2b_p99_us", "us", Lower),
        ("ringpaxos.stage.2b_decide_p50_us", "us", Lower),
        ("ringpaxos.stage.2b_decide_p99_us", "us", Lower),
        ("ringpaxos.stage.decide_deliver_p50_us", "us", Lower),
        ("ringpaxos.stage.decide_deliver_p99_us", "us", Lower),
        ("ringpaxos.dedup_host_ns", "ns", Lower),
        ("ringpaxos.batch_pack_host_ns", "ns", Lower),
        ("ringpaxos.takeover_ms", "ms", Lower),
        ("ringpaxos.takeovers", "count", Lower),
        ("ringpaxos.ring_repairs", "count", Lower),
        ("ringpaxos.stale_2ab", "count", Lower),
        ("ringpaxos.epoch_reproposals", "count", Lower),
        ("recovery.catchup_instances", "count", Lower),
        ("recovery.checkpoints", "count", Lower),
        ("recovery.transfer_bytes", "B", Lower),
        ("recovery.state_transfers", "count", Lower),
        ("recovery.checkpoint_host_us", "us", Lower),
        ("recovery.catchup_replay_host_ns", "ns", Lower),
        ("core.replica_cpu_pct", "%", Lower),
        ("core.spec_rollbacks", "count", Lower),
        ("core.cs_goodput_ops_s", "ops/s", Higher),
        ("core.cs_latency_p50_us", "us", Lower),
        ("btree.update_host_ns", "ns", Lower),
        ("btree.range1000_host_ns", "ns", Lower),
        ("btree.get_host_ns", "ns", Lower),
        ("workload.retries_per_kop", "count", Lower),
        ("workload.shed", "count", Lower),
        ("workload.abandoned", "count", Lower),
        ("workload.offered_ratio", "ratio", Higher),
        ("workload.arrival_gap_mean_us", "us", Lower),
        ("workload.table_cpu_pct", "%", Lower),
        ("workload.zipf_host_ns", "ns", Lower),
        ("workload.command_host_ns", "ns", Lower),
        ("abcast.check_host_ns_per_delivery", "ns", Lower),
        ("failed_share", "share", Lower),
        ("outage_ms", "ms", Lower),
        ("recover_ms", "ms", Lower),
    ]
};

/// Looks an end-to-end metric up by name.
pub fn e2e_named(name: &str) -> Option<&'static E2eMetric> {
    E2E_METRICS.iter().find(|m| m.name == name)
}

/// A measured end-to-end metric: the reported value plus every raw
/// sample behind it (one for virtual metrics).
#[derive(Clone, Debug)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Reported value.
    pub value: f64,
    /// Raw samples: one for a virtual metric; for a host metric one per
    /// repetition (or set-up), which is what `compare` takes medians
    /// and quartiles of.
    pub samples: Vec<f64>,
    /// Free-form note printed beside the value (sample counts, support).
    pub note: String,
}

impl Measured {
    /// A virtual metric: one exact sample.
    pub fn exact(name: &'static str, value: f64, note: impl Into<String>) -> Measured {
        Measured { name, value, samples: vec![value], note: note.into() }
    }

    /// A host metric: `value` as estimated by the caller, plus the
    /// per-repetition samples.
    pub fn host(
        name: &'static str,
        value: f64,
        samples: Vec<f64>,
        note: impl Into<String>,
    ) -> Measured {
        Measured { name, value, samples, note: note.into() }
    }

    /// One line of the human-readable report.
    pub fn line(&self) -> String {
        let def = e2e_named(self.name).expect("measured metrics are registered");
        let mut s = format!(
            "  {:<24} {:>14.4} {:<6} {:<8}",
            self.name,
            self.value,
            def.unit,
            def.clock.label()
        );
        if self.samples.len() > 1 {
            let (q1, q3) = quartiles(&self.samples);
            s += &format!(
                " {} samples: median {:.4} [q1 {:.4}, q3 {:.4}, spread {:.1} %]",
                self.samples.len(),
                median(&self.samples),
                q1,
                q3,
                spread(&self.samples) * 100.0
            );
        }
        if !self.note.is_empty() {
            s += &format!(" {}", self.note);
        }
        s
    }

    /// The metric as a results-document entry.
    pub fn to_json(&self) -> Json {
        let def = e2e_named(self.name).expect("measured metrics are registered");
        Json::obj([
            ("unit", Json::str(def.unit)),
            ("clock", Json::str(def.clock.label())),
            ("better", Json::str(if def.better == Better::Lower { "lower" } else { "higher" })),
            ("value", Json::Num(self.value)),
            ("samples", Json::nums(&self.samples)),
            ("note", Json::str(self.note.clone())),
        ])
    }
}

/// The contract's last line:
/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, unit, value)| {
                (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
            })),
        ),
    ])
    .to_line()
}

fn samples_of(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    let v: Vec<f64> = m.get("samples")?.as_arr()?.iter().filter_map(Json::as_f64).collect();
    (!v.is_empty()).then_some(v)
}

fn ladder_of(doc: &Json, workload: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("ladder_rates"))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// One compared metric × workload.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline median.
    pub a: f64,
    /// Candidate median.
    pub b: f64,
    /// The label.
    pub verdict: Verdict,
}

/// `benchmark compare A.json B.json`: applies the registry's bounds to
/// every end-to-end metric × workload both documents hold.
pub fn compare(a: &Json, b: &Json) -> Vec<Comparison> {
    let mut out = Vec::new();
    let Some(workloads) = a.get("workloads").and_then(Json::as_obj) else { return out };
    for (wname, _) in workloads {
        for def in &E2E_METRICS {
            let (Some(sa), Some(sb)) =
                (samples_of(a, wname, def.name), samples_of(b, wname, def.name))
            else {
                continue;
            };
            let verdict = if def.name == "max_rate_ok_ops_s" {
                // Bound: one rung of the workload's ladder.
                let ladder = ladder_of(a, wname);
                let idx = |v: f64| ladder.iter().rposition(|&r| r <= v * (1.0 + 1e-9));
                match (idx(median(&sa)), idx(median(&sb))) {
                    (ia, ib) if ib > ia => Verdict::Improved,
                    (Some(ia), ib) if ib.is_none_or(|ib| ib + 1 < ia) => Verdict::Regressed,
                    _ => Verdict::Unchanged,
                }
            } else {
                classify(&sa, &sb, def.better, def.bound)
            };
            out.push(Comparison {
                workload: wname.clone(),
                metric: def.name,
                a: median(&sa),
                b: median(&sb),
                verdict,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(host: &[f64], goodput: f64, max_rate: f64) -> Json {
        let m = |v: &[f64]| Json::obj([("samples", Json::nums(v))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "smr_update",
                Json::obj([
                    ("ladder_rates", Json::nums(&[24e3, 32e3, 40e3, 48e3, 64e3])),
                    (
                        "end_to_end",
                        Json::obj([
                            ("host_us_per_op", m(host)),
                            ("goodput_ops_s", m(&[goodput])),
                            ("max_rate_ok_ops_s", m(&[max_rate])),
                        ]),
                    ),
                ]),
            )]),
        )])
    }

    fn verdict_of(cmp: &[Comparison], metric: &str) -> Verdict {
        cmp.iter().find(|c| c.metric == metric).unwrap().verdict
    }

    #[test]
    fn compare_labels_each_metric() {
        let a = doc(&[9.0, 9.1, 8.9, 9.0, 9.05], 24_000.0, 32e3);
        let same = compare(&a, &a);
        assert!(same.iter().all(|c| c.verdict == Verdict::Unchanged));
        let b = doc(&[10.5, 10.6, 10.4, 10.5, 10.55], 23_000.0, 40e3);
        let cmp = compare(&a, &b);
        assert_eq!(verdict_of(&cmp, "host_us_per_op"), Verdict::Regressed);
        assert_eq!(verdict_of(&cmp, "goodput_ops_s"), Verdict::Regressed);
        assert_eq!(verdict_of(&cmp, "max_rate_ok_ops_s"), Verdict::Improved);
        // One rung down is inside the bound; two are not.
        assert_eq!(
            verdict_of(&compare(&a, &doc(&[9.0], 24e3, 24e3)), "max_rate_ok_ops_s"),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict_of(
                &compare(&doc(&[9.0], 24e3, 40e3), &doc(&[9.0], 24e3, 24e3)),
                "max_rate_ok_ops_s"
            ),
            Verdict::Regressed
        );
        let noisy = doc(&[7.0, 11.0, 9.0, 8.0, 10.0], 24_000.0, 32e3);
        assert_eq!(verdict_of(&compare(&a, &noisy), "host_us_per_op"), Verdict::Unresolved);
    }

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            E2E_METRICS.iter().filter(|m| m.in_contract).map(|m| m.name).collect();
        names.extend(LAYER_METRICS.iter().map(|m| m.0));
        let ok = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| ok(n)));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a metric name is used twice");
        // Every end-to-end metric left out of the contract's list
        // travels in the per-layer list instead.
        for m in E2E_METRICS.iter().filter(|m| !m.in_contract) {
            assert!(LAYER_METRICS.iter().any(|l| l.0 == m.name), "{} is nowhere", m.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the registry is what
    /// the harness prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
        let list = |k: &str| doc.get(k).unwrap().as_arr().unwrap().to_vec();

        let specs = crate::workloads::specs();
        let workloads = list("workloads");
        assert_eq!(workloads.len(), specs.len());
        for (w, spec) in workloads.iter().zip(&specs) {
            assert_eq!(
                (field(w, "name"), field(w, "why")),
                (spec.name.to_owned(), spec.why.to_owned())
            );
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }

        let contract: Vec<&E2eMetric> = E2E_METRICS.iter().filter(|m| m.in_contract).collect();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), contract.len());
        for (j, def) in e2e.iter().zip(&contract) {
            let better = if def.better == Better::Lower { "lower" } else { "higher" };
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (def.name.into(), def.unit.into(), better.into())
            );
            let bound = j.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
        }
        assert!(e2e.iter().any(|j| field(j, "name") == "setup_s" && field(j, "unit") == "s"));

        let layers = list("per_layer");
        assert_eq!(layers.len(), LAYER_METRICS.len());
        for (j, def) in layers.iter().zip(&LAYER_METRICS) {
            let better = if def.2 == Better::Lower { "lower" } else { "higher" };
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (def.0.into(), def.1.into(), better.into())
            );
            assert_eq!(j.as_obj().unwrap().len(), 3, "per-layer metrics carry no bound");
        }
    }
}
