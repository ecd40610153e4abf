//! Result assembly: the metric list, order statistics, the run stamp, and
//! the final JSON line.

use std::process::Command;

use crate::Args;

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (fleet decisions that fell due, or training
    /// interactions).
    pub attempted: u64,
    /// Operations that failed (a due decision not executed within its
    /// tick, or a training step with a non-finite reward or loss).
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Fingerprints and context, printed as `# …` lines before the result.
    pub notes: Vec<String>,
    /// Failed output checks; any entry makes the result incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a metric. A non-finite value cannot be written as a JSON
    /// number: it fails a check and is written as 0.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("metric {name} is {value}"));
        self.metrics
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check unless `ok` holds.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The run stamp: host, thread setting, source revision, and inputs.
pub fn stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only ask git inside a checkout's own repository, never a parent's.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"cpu\": \"{}\", \"canopy_threads\": \"{}\", \"commit\": \"{commit}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        cpu.replace(['"', '\\'], ""),
        std::env::var("CANOPY_THREADS").unwrap_or_default(),
    )
}

/// The per-layer ledger, in report order, with units. Every workload
/// reports every entry; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("netsim.replay_s", "s"),
    ("netsim.ns_per_packet", "ns"),
    ("netsim.packets_sent", "count"),
    ("netsim.retransmits", "count"),
    ("netsim.goodput_ratio", "ratio"),
    ("netsim.drop_ratio", "ratio"),
    ("netsim.cwnd_per_fair_share", "ratio"),
    ("pool.dispatches", "count"),
    ("pool.mean_batch", "count"),
    ("pool.dispatch_s", "s"),
    ("pool.dispatch_p50_us", "us"),
    ("pool.dispatch_p99_us", "us"),
    ("pool.prepare_s", "s"),
    ("pool.group_s", "s"),
    ("pool.apply_s", "s"),
    ("nn.forward_s", "s"),
    ("nn.forward_rows", "count"),
    ("verifier.certify_s", "s"),
    ("verifier.contexts", "count"),
    ("verifier.us_per_context", "us"),
    ("runtime.fallback_ratio", "ratio"),
    ("trainer.qc_grad_s", "s"),
    ("trainer.qc_grad_calls", "count"),
    ("trainer.final_qc_sat", "ratio"),
    ("trainer.final_reward", "ratio"),
    ("rl.update_s", "s"),
    ("rl.act_s", "s"),
    ("rl.updates", "count"),
    ("env.step_s", "s"),
    ("env.steps", "count"),
    ("telemetry.snapshots", "count"),
    ("telemetry.alerts", "count"),
    ("telemetry.records_dropped", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("serve.outside_dispatch_s", "s"),
    ("serve.tick_overrun_ratio", "ratio"),
    ("layers.coverage", "ratio"),
];

/// Emits the whole per-layer ledger: the `given` values, and 0 for every
/// layer the workload does not exercise.
///
/// # Panics
///
/// Panics if `given` names a metric that is not in [`PER_LAYER`].
pub fn per_layer(out: &mut Outcome, given: &[(&'static str, f64)]) {
    for (name, _) in given {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not in the ledger"
        );
    }
    for (name, unit) in PER_LAYER {
        let value = given
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        out.metric(name, value, unit);
    }
}
