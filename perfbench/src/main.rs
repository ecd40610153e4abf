//! The repository benchmark: Canopy's serving and training loops, end to
//! end and layer by layer.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-sync|fleet-certified|train-canopy> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop run flat out inside one process: all
//! traffic is simulated by `canopy_netsim`, and the next unit of work (a
//! 20 ms monitor-interval tick of a fleet, or one training interaction)
//! starts when the previous one returns. The seed generates the actor
//! weights and the training seed; the same seed gives the same inputs and
//! the same network behaviour, which the benchmark checks.
//!
//! `--trace 0` reports the end-to-end metrics from untraced runs.
//! `--trace 1` runs the traced variant of the workload plus the layer
//! probes and reports the per-layer ledger. Either way the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it carry the run stamp and
//! the output fingerprints. A failed output check still prints the
//! result (with `correct: false`) and exits with status 2.

mod fleet;
mod report;
mod train;

use std::process::ExitCode;

use report::Outcome;

/// Worker threads for certification: pinned so results do not depend on
/// the host's core count (`certify_all_many` otherwise spawns scoped
/// workers on every dispatch).
const THREADS: &str = "1";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FleetSync,
    FleetCertified,
    TrainCanopy,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FleetSync,
        Workload::FleetCertified,
        Workload::TrainCanopy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSync => "fleet-sync",
            Workload::FleetCertified => "fleet-certified",
            Workload::TrainCanopy => "train-canopy",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad duration `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    // Set before any verifier resolves its worker count.
    std::env::set_var("CANOPY_THREADS", THREADS);
    println!("# stamp {}", report::stamp(&args));

    let outcome: Result<Outcome, String> = match args.workload {
        Workload::FleetSync | Workload::FleetCertified => fleet::run(&args),
        Workload::TrainCanopy => train::run(&args),
    };
    match outcome {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("# {line}");
            }
            for problem in &outcome.problems {
                eprintln!("perfbench: check failed: {problem}");
            }
            println!("{}", outcome.to_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
