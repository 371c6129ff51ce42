//! The metric names this benchmark defines (mirrored by `BENCHMARK.json`;
//! `tests/manifest.rs` holds the two together) and the result of one
//! workload run.

use std::collections::BTreeMap;

use noc_experiments::jsonio::{escape, JsonObj};

use crate::stats::quartiles;
use crate::trace::Span;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    /// End-to-end metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the system sees, defined on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sim_mnode_cycles_per_s", "Mnode-cycles/s", Higher, 0.20),
    e2e("turnaround_p50_ms", "ms", Lower, 0.20),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// One layer each. Times come from fixed-size probes the traced run makes
/// around each crate's public calls, identical on every workload; counts
/// come from the workload's own warm-up pass.
pub const PER_LAYER: [MetricDef; 53] = [
    layer("noc-sim.xy.mnode_cycles_per_s", "Mnode-cycles/s", Higher),
    layer("noc-sim.wf.mnode_cycles_per_s", "Mnode-cycles/s", Higher),
    layer("noc-sim.escvc.mnode_cycles_per_s", "Mnode-cycles/s", Higher),
    layer("noc-sim.ns_per_flit_hop", "ns", Lower),
    layer("noc-sim.build_us", "us", Lower),
    layer("noc-sim.ejected_packets", "count", Higher),
    layer("noc-sim.link_flit_hops", "count", Higher),
    layer("noc-sim.sum_total_latency", "count", Lower),
    layer("noc-sim.skipped_cycles", "count", Higher),
    layer("seec.seec.mnode_cycles_per_s", "Mnode-cycles/s", Higher),
    layer("seec.mseec.mnode_cycles_per_s", "Mnode-cycles/s", Higher),
    layer("seec.ff_packets", "count", Higher),
    layer("seec.sideband_hops", "count", Lower),
    layer(
        "noc-baselines.spin.mnode_cycles_per_s",
        "Mnode-cycles/s",
        Higher,
    ),
    layer(
        "noc-baselines.drain.mnode_cycles_per_s",
        "Mnode-cycles/s",
        Higher,
    ),
    layer("noc-baselines.probe_hops", "count", Lower),
    layer("noc-baselines.forced_moves", "count", Lower),
    layer("noc-traffic.gen_ns_per_node_cycle", "ns", Lower),
    layer("noc-verify.certify_ms", "ms", Lower),
    layer("noc-verify.certify_degraded_ms", "ms", Lower),
    layer("sweep.points_per_s_t1_w1", "1/s", Higher),
    layer("sweep.points_per_s_t1_w4", "1/s", Higher),
    layer("sweep.batch_speedup", "ratio", Higher),
    layer("sweep.overhead_ms_per_point", "ms", Lower),
    layer("sweep.resume_ms", "ms", Lower),
    layer("rayon.parallel_efficiency", "ratio", Higher),
    layer("noc-store.seal_ns_per_row", "ns", Lower),
    layer("noc-store.open_line_ns_per_row", "ns", Lower),
    layer("noc-store.append_us_per_row", "us", Lower),
    layer("noc-store.ckpt_record_us_per_row", "us", Lower),
    layer("noc-store.ckpt_open_ms_per_krow", "ms", Lower),
    layer("noc-store.write_atomic_ms", "ms", Lower),
    layer("noc-store.faultvfs_silent_append_us_per_row", "us", Lower),
    layer("noc-net.passthrough_rtt_us", "us", Lower),
    layer("noc-net.faultnet_silent_rtt_us", "us", Lower),
    layer("noc-serve.boot_ms", "ms", Lower),
    layer("noc-serve.adopt_ms_per_100_jobs", "ms", Lower),
    layer("noc-serve.service_submit_ms", "ms", Lower),
    layer("noc-serve.service_status_us", "us", Lower),
    layer("noc-serve.http_healthz_p50_ms", "ms", Lower),
    layer("noc-serve.http_submit_p50_ms", "ms", Lower),
    layer("noc-serve.dedupe_p50_ms", "ms", Lower),
    layer("noc-serve.rows_p50_ms", "ms", Lower),
    layer("noc-serve.ack_to_done_p50_ms", "ms", Lower),
    layer("noc-serve.polls_per_job", "count", Lower),
    layer("noc-serve.connections_accepted", "count", Lower),
    layer("noc-serve.connections_shed", "count", Lower),
    layer("noc-serve.dedupe_hits", "count", Higher),
    layer("noc-client.overhead_us", "us", Lower),
    layer("noc-client.verify_rows_ns_per_row", "ns", Lower),
    layer("noc-client.retries", "count", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.sim_digest48", "count", Higher),
];

/// A measured value: the median of its samples, with the quartiles the
/// comparison tool reads the spread from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// `None`: not measurable on this host (a multi-thread ratio on one
    /// core), never a made-up 1.0.
    pub value: Option<f64>,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Value {
    pub fn one(v: f64) -> Value {
        Value {
            value: Some(v),
            n: 1,
            q1: v,
            q3: v,
        }
    }

    pub fn median_of(samples: &[f64]) -> Value {
        if samples.is_empty() {
            return Value::missing();
        }
        let (q1, q2, q3) = quartiles(samples);
        Value {
            value: Some(q2),
            n: samples.len(),
            q1,
            q3,
        }
    }

    pub fn missing() -> Value {
        Value {
            value: None,
            n: 0,
            q1: 0.0,
            q3: 0.0,
        }
    }

    fn num(v: Option<f64>) -> String {
        // `{}` prints the shortest text that reads back as the same f64:
        // every measured digit, no rounding.
        v.filter(|x| x.is_finite())
            .map_or("null".to_string(), |x| format!("{x}"))
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    failures: Vec<String>,
    pub sim_digest: u64,
    pub metrics: BTreeMap<&'static str, Value>,
    /// Workload-specific numbers for the human report: per-scheme speeds,
    /// tails, the names the issue used for this workload's own view.
    pub detail: BTreeMap<String, (Value, &'static str)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a failed operation or output check.
    pub fn fail(&mut self, why: String) {
        eprintln!("bench11: FAILED: {why}");
        self.failures.push(why);
    }

    /// `ok` or a failed check described by `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn set(&mut self, name: &'static str, v: Value) {
        self.metrics.insert(name, v);
    }

    pub fn note(&mut self, name: &str, v: Value, unit: &'static str) {
        self.detail.insert(name.to_string(), (v, unit));
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the metrics being every name of `defs`.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.metrics.get(d.name).and_then(|v| v.value);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    Value::num(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed(),
            metrics.join(", ")
        )
    }

    /// The per-workload file: the result line's content plus digests,
    /// sample counts, quartiles, the detail view and the failed checks.
    pub fn render_file(&self, head: JsonObj, defs: &[MetricDef]) -> String {
        let value = |v: &Value, unit: &str| {
            JsonObj::new()
                .raw_field("value", &Value::num(v.value))
                .str_field("unit", unit)
                .u64_field("n", v.n as u64)
                .raw_field("q1", &Value::num(Some(v.q1)))
                .raw_field("q3", &Value::num(Some(v.q3)))
                .finish()
        };
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self
                    .metrics
                    .get(d.name)
                    .copied()
                    .unwrap_or(Value::missing());
                format!("\"{}\": {}", d.name, value(&v, d.unit))
            })
            .collect();
        let detail: Vec<String> = self
            .detail
            .iter()
            .map(|(name, (v, unit))| format!("\"{}\": {}", escape(name), value(v, unit)))
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        let body = head
            .raw_field("correct", &self.correct().to_string())
            .u64_field("attempted", self.attempted)
            .u64_field("failed", self.failed())
            .str_field("sim_digest", &format!("{:016x}", self.sim_digest))
            .raw_field("metrics", &format!("{{\n  {}}}", metrics.join(",\n  ")))
            .raw_field("detail", &format!("{{\n  {}}}", detail.join(",\n  ")))
            .raw_field("failures", &format!("[{}]", failures.join(", ")))
            .finish();
        format!("{body}\n")
    }

    /// Every metric by name with its unit and sample count, for people.
    pub fn print(&self, workload: &str, defs: &[MetricDef]) {
        let line = |name: &str, v: &Value, unit: &str| {
            println!(
                "{workload:12} {name:44} {:>14} {unit:15} n={}",
                v.value.map_or("null".to_string(), |x| format!("{x:.4}")),
                v.n
            );
        };
        for d in defs {
            if let Some(v) = self.metrics.get(d.name) {
                line(d.name, v, d.unit);
            }
        }
        for (name, (v, unit)) in &self.detail {
            line(&format!("  {name}"), v, unit);
        }
        println!(
            "{workload:12} sim_digest {:016x}  attempted {}  failed {}",
            self.sim_digest,
            self.attempted,
            self.failed()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_all_digits() {
        let mut o = Outcome {
            attempted: 7,
            ..Outcome::default()
        };
        o.set("setup_s", Value::one(0.1 + 0.2));
        let line = o.result_line(&END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
        o.fail("boom".into());
        assert!(o
            .result_line(&END_TO_END[..1])
            .starts_with("{\"correct\": false, \"attempted\": 7, \"failed\": 1,"));
        let file = o.render_file(JsonObj::new().str_field("workload", "w"), &END_TO_END[..1]);
        let doc = noc_experiments::jsonio::parse_value(&file).expect("file parses");
        assert_eq!(
            doc.get("failed")
                .and_then(noc_experiments::jsonio::JsonValue::as_u64),
            Some(1)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.bound <= 0.25);
        }
    }
}
