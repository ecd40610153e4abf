//! The `train-canopy` workload: `Trainer::train` on the `canopy-shallow`
//! recipe (λ = 0.25, N = 5, `qc_grad_weight` 1, 4 environments) for a
//! fixed interaction budget.
//!
//! What a training run costs depends on the policy it learns (how often
//! the certified-bound hinge is active, which windows the environments
//! see), so one pass trains [`RUNS_PER_PASS`] training seeds drawn from
//! the workload seed, and every pass trains the same ones.
//!
//! Untraced passes give the end-to-end metrics; a [`StepClock`] stamps
//! each interaction from the trainer's recorder hook, so tick latencies
//! need no span tracing. The traced run attaches a [`FlightRecorder`] for
//! the call counts, and the layer probe re-runs the same training through
//! the same public calls with a timer around each, which must reproduce
//! the trained actor bit for bit.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use canopy_core::env::CcEnv;
use canopy_core::models::{trainer_config, ModelKind, TrainBudget};
use canopy_core::obs::StateLayout;
use canopy_core::trainer::{accumulate_qc_gradient, Trainer, TrainerConfig, TrainingResult};
use canopy_core::verifier::Verifier;
use canopy_nn::Mlp;
use canopy_rl::{ReplayBuffer, Td3, Transition};
use canopy_telemetry::{FlightRecorder, Recorder, RecorderConfig, SharedRecorder, TrainerEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median, peak_rss_mb, per_layer, quantile, Outcome};
use crate::Args;

/// The fixed interaction budget of one training run.
const BUDGET: TrainBudget = TrainBudget {
    epochs: 4,
    steps_per_epoch: 150,
    n_envs: 4,
};

/// Training runs per pass, each with its own seed.
const RUNS_PER_PASS: u64 = 8;

/// Set-ups timed per invocation; `setup_s` is their median.
const SETUPS: usize = 100;

/// Traced runs and layer probes per traced invocation; their times are
/// reported as medians.
const REPEATS: usize = 3;

fn recipe(seed: u64) -> TrainerConfig {
    trainer_config(ModelKind::Shallow, seed, BUDGET)
}

/// The training seeds of one pass.
fn run_seeds(seed: u64) -> Vec<u64> {
    (0..RUNS_PER_PASS)
        .map(|j| seed.wrapping_mul(RUNS_PER_PASS).wrapping_add(j))
        .collect()
}

fn steps() -> u64 {
    (BUDGET.epochs * BUDGET.steps_per_epoch) as u64
}

/// Simulated seconds one training run advances its environments by: each
/// interaction steps one environment by its monitor interval.
fn sim_s(cfg: &TrainerConfig) -> f64 {
    (0..steps() as usize)
        .map(|i| cfg.envs[i % cfg.envs.len()].effective_mi().as_secs_f64())
        .sum()
}

/// Stamps the wall clock at the start of every interaction (each begins
/// with its certification probe) and counts non-finite TD losses.
#[derive(Debug, Default)]
struct StepClock {
    stamps: Vec<Instant>,
    bad_losses: u64,
}

impl Recorder for StepClock {
    fn record_trainer(&mut self, e: &TrainerEvent) {
        match e {
            TrainerEvent::CertProbe { .. } => self.stamps.push(Instant::now()),
            TrainerEvent::TdLoss { critic_loss, .. } if !critic_loss.is_finite() => {
                self.bad_losses += 1
            }
            _ => {}
        }
    }
}

/// FNV-1a over the actor's parameter bits.
fn digest(actor: &Mlp) -> u64 {
    actor
        .params_flat()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
            (h ^ p.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Checks a training history and returns how many interactions failed
/// (those of an epoch whose means are not finite).
fn check_result(out: &mut Outcome, result: &TrainingResult, label: &str) -> u64 {
    let mut failed = 0;
    for e in &result.history {
        let finite = e.raw_reward.is_finite()
            && e.total_reward.is_finite()
            && e.critic_loss.is_finite()
            && e.verifier_reward.is_finite();
        if !finite {
            failed += BUDGET.steps_per_epoch as u64;
        }
        out.check(finite, || {
            format!("{label}: epoch {} is not finite: {e:?}", e.epoch)
        });
        out.check((0.0..=1.0).contains(&e.verifier_reward), || {
            format!(
                "{label}: epoch {} QC_sat {} outside [0, 1]",
                e.epoch, e.verifier_reward
            )
        });
    }
    out.check(result.history.len() == BUDGET.epochs, || {
        format!("{label}: {} epochs in the history", result.history.len())
    });
    failed
}

/// One untraced `Trainer::train` run.
struct Run {
    wall_s: f64,
    /// Wall time of each TD3 policy cycle (`policy_delay` interactions,
    /// one of which updates the actor), ms.
    cycle_ms: Vec<f64>,
    result: TrainingResult,
}

fn train_once(seed: u64, out: &mut Outcome, label: &str) -> Run {
    let cfg = recipe(seed);
    let cycle = cfg.td3.policy_delay.max(1) as usize;
    let trainer = Trainer::new(cfg);
    let clock = Rc::new(RefCell::new(StepClock {
        stamps: Vec::with_capacity(steps() as usize),
        bad_losses: 0,
    }));
    let t0 = Instant::now();
    let result = trainer.train_with_recorder(Some(clock.clone() as SharedRecorder));
    let end = Instant::now();
    let clock = clock.borrow();
    let mut bounds: Vec<Instant> = clock.stamps.iter().step_by(cycle).copied().collect();
    bounds.push(end);
    let cycle_ms = bounds
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    out.check(clock.stamps.len() as u64 == steps(), || {
        format!(
            "{label}: {} interactions stamped, budget is {}",
            clock.stamps.len(),
            steps()
        )
    });
    out.attempted += steps();
    out.failed += check_result(out, &result, label) + clock.bad_losses;
    Run {
        wall_s: (end - t0).as_secs_f64(),
        cycle_ms,
        result,
    }
}

/// One warm-up pass, then timed untraced passes until `--seconds` are
/// spent (at least three); returns the timed ones. Each pass trains every
/// run seed once; a run seed must train the bitwise same actor on every
/// pass.
fn untraced_passes(args: &Args, out: &mut Outcome) -> Vec<Vec<Run>> {
    let mut warmup: Option<Vec<u64>> = None;
    let mut passes: Vec<Vec<Run>> = Vec::new();
    let mut start = Instant::now();
    while passes.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let pass = passes.len() + warmup.is_some() as usize;
        let runs: Vec<Run> = run_seeds(args.seed)
            .into_iter()
            .map(|s| train_once(s, out, &format!("pass {pass} seed {s}")))
            .collect();
        let digests: Vec<u64> = runs.iter().map(|r| digest(&r.result.model.actor)).collect();
        match &warmup {
            Some(first) => {
                out.check(&digests == first, || {
                    format!("pass {pass}: actor digests {digests:016x?} differ from {first:016x?}")
                });
                passes.push(runs);
            }
            None => {
                warmup = Some(digests);
                start = Instant::now();
            }
        }
    }
    passes
}

/// Times `SETUPS` builds of everything a training run starts from (the
/// recipe, the trainer, and the agent, replay buffer, verifier, and
/// environments `Trainer::train` builds before its first interaction) and
/// returns the median, in seconds.
fn setup_s(seed: u64) -> f64 {
    let times: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t0 = Instant::now();
            let cfg = recipe(seed);
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let layout = StateLayout::new(cfg.envs[0].k);
            let built = (
                Td3::new(&mut rng, layout.dim(), 1, cfg.td3.clone()),
                ReplayBuffer::new(cfg.replay_capacity),
                Verifier::new(cfg.n_components),
                cfg.envs.iter().cloned().map(CcEnv::new).collect::<Vec<_>>(),
                Trainer::new(cfg),
            );
            let dt = t0.elapsed().as_secs_f64();
            drop(std::hint::black_box(built));
            dt
        })
        .collect();
    median(&times)
}

fn note_fingerprint(out: &mut Outcome, args: &Args, passes: &[Vec<Run>]) {
    for run in &passes[0] {
        let last = run
            .result
            .history
            .last()
            .expect("history is checked non-empty");
        out.note(format!(
            "fingerprint train-canopy seed={} train_seed={} steps={} passes={} \
             actor_digest={:016x} final_qc_sat={:.6} final_reward={:.6} final_critic_loss={:.6}",
            args.seed,
            run.result.model.seed,
            steps(),
            passes.len(),
            digest(&run.result.model.actor),
            last.verifier_reward,
            last.raw_reward,
            last.critic_loss,
        ));
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &mut out);
        return Ok(out);
    }
    let setup = setup_s(args.seed);
    let passes = untraced_passes(args, &mut out);
    note_fingerprint(&mut out, args, &passes);
    // The recipe's environments do not depend on the training seed.
    let sim_s = RUNS_PER_PASS as f64 * sim_s(&recipe(args.seed));
    let interactions = (RUNS_PER_PASS * steps()) as f64;
    let mut rate = Vec::new();
    let mut realtime = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for runs in &passes {
        let wall_s: f64 = runs.iter().map(|r| r.wall_s).sum();
        let cycle_ms: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.cycle_ms.iter().copied())
            .collect();
        rate.push(interactions / wall_s);
        realtime.push(sim_s / wall_s);
        p50.push(quantile(&cycle_ms, 0.50));
        p99.push(quantile(&cycle_ms, 0.99));
    }
    let cycles: usize = passes[0].iter().map(|r| r.cycle_ms.len()).sum();
    out.note(format!(
        "ticks per pass={cycles} (p99 has {} beyond it), passes={}, tick_p99_ms per pass={:.3?}",
        cycles / 100,
        passes.len(),
        p99
    ));
    out.metric("setup_s", setup, "s");
    out.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    out.metric("decisions_per_s", median(&rate), "1/s");
    out.metric("realtime_factor", median(&realtime), "x");
    out.metric("tick_p50_ms", median(&p50), "ms");
    out.metric("tick_p99_ms", median(&p99), "ms");
    Ok(out)
}

/// Wall time and call count of each trainer layer over one whole run.
#[derive(Debug, Default)]
struct Probe {
    act: Duration,
    forward: Duration,
    certify: Duration,
    /// `CcEnv::step`, plus the resets at episode ends.
    env_step: Duration,
    steps: u64,
    /// `Td3::update_with_actor_reg`, excluding the certified-bound closure.
    update: Duration,
    updates: u64,
    qc_grad: Duration,
    actor_updates: u64,
    actor: Option<Mlp>,
}

/// Re-runs the training of `cfg` call for call as `Trainer::train` makes
/// it (same RNG stream, same order), timing each layer's public call. One
/// extra `Mlp::forward` per interaction times the bare actor pass; it
/// draws no randomness, so the trained actor is unchanged.
fn probe(cfg: &TrainerConfig) -> Probe {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let layout = StateLayout::new(cfg.envs[0].k);
    let mut agent = Td3::new(&mut rng, layout.dim(), 1, cfg.td3.clone());
    let mut replay = ReplayBuffer::new(cfg.replay_capacity);
    let verifier = Verifier::new(cfg.n_components);
    let mut envs: Vec<CcEnv> = cfg.envs.iter().cloned().map(CcEnv::new).collect();
    let mut p = Probe::default();
    for step in 0..cfg.epochs * cfg.steps_per_epoch {
        let env = &mut envs[step % cfg.envs.len()];
        let state = env.state();

        let t = Instant::now();
        let action = agent.act_explore(&state, cfg.explore_noise, &mut rng);
        p.act += t.elapsed();
        let t = Instant::now();
        std::hint::black_box(agent.actor().forward(std::hint::black_box(&state)));
        p.forward += t.elapsed();
        let t = Instant::now();
        let r_verifier = verifier
            .certify_all(agent.actor(), &cfg.properties, layout, &env.step_context())
            .1;
        p.certify += t.elapsed();
        let t = Instant::now();
        let result = env.step(action[0]);
        if result.done {
            env.reset();
        }
        p.env_step += t.elapsed();
        p.steps += 1;
        replay.push(Transition {
            state,
            action,
            reward: (1.0 - cfg.lambda) * result.reward + cfg.lambda * r_verifier,
            next_state: result.state,
            done: result.done,
        });

        let mut qc_grad = Duration::ZERO;
        let mut actor_updates = 0;
        let t = Instant::now();
        let stats = agent.update_with_actor_reg(&replay, &mut rng, |actor, batch| {
            let t = Instant::now();
            for tr in batch {
                for property in &cfg.properties {
                    accumulate_qc_gradient(actor, property, layout, &tr.state, cfg.qc_grad_weight);
                }
            }
            qc_grad += t.elapsed();
            actor_updates += 1;
        });
        let total = t.elapsed();
        if stats.is_some() {
            p.updates += 1;
            p.update += total - qc_grad;
            p.qc_grad += qc_grad;
            p.actor_updates += actor_updates;
        }
    }
    p.actor = Some(agent.actor().clone());
    p
}

/// Mean seconds per call of a probed layer, times the run's call count.
fn cost(probed_s: f64, probed_calls: u64, calls: u64) -> f64 {
    probed_s / probed_calls.max(1) as f64 * calls as f64
}

fn traced(args: &Args, out: &mut Outcome) {
    // Untraced passes first: they warm the process up and give the base
    // of the tracing overhead (the first run seed's median wall time).
    let untraced = untraced_passes(args, out);
    let untraced_s = median(
        &untraced
            .iter()
            .map(|runs| runs[0].wall_s)
            .collect::<Vec<_>>(),
    );
    let trained = digest(&untraced[0][0].result.model.actor);

    // Traced runs of the first run seed.
    let cfg = recipe(run_seeds(args.seed)[0]);
    let mut traced_walls = Vec::new();
    let mut traced = None;
    for i in 0..REPEATS {
        let recorder = Rc::new(RefCell::new(FlightRecorder::new(RecorderConfig {
            trainer_capacity: 4 * steps() as usize,
            ..RecorderConfig::default()
        })));
        let trainer = Trainer::new(cfg.clone());
        let t0 = Instant::now();
        let result = trainer.train_with_recorder(Some(recorder.clone() as SharedRecorder));
        traced_walls.push(t0.elapsed().as_secs_f64());
        let label = format!("traced run {i}");
        out.attempted += steps();
        out.failed += check_result(out, &result, &label);
        out.check(digest(&result.model.actor) == trained, || {
            format!("{label} trained a different actor than the untraced runs")
        });
        let rec = recorder.borrow();
        out.check(rec.trainer_dropped() == 0, || {
            format!(
                "{label}: recorder dropped {} trainer events",
                rec.trainer_dropped()
            )
        });
        traced = Some((result, rec.trainer_events()));
    }
    let traced_s = median(&traced_walls);
    let (result, events) = traced.expect("at least one traced run");
    let count = |pred: fn(&TrainerEvent) -> bool| events.iter().filter(|e| pred(e)).count() as u64;
    let interactions = count(|e| matches!(e, TrainerEvent::CertProbe { .. }));
    let updates = count(|e| matches!(e, TrainerEvent::TdLoss { .. }));
    let actor_updates = updates / cfg.td3.policy_delay.max(1);

    // The layer probes must re-run exactly the traced training.
    let probes: Vec<Probe> = (0..REPEATS).map(|_| probe(&cfg)).collect();
    for p in &probes {
        let probed = p.actor.as_ref().map(digest);
        out.check(probed == Some(trained), || {
            format!("layer probe trained {probed:x?}, the trainer {trained:x}")
        });
        out.check(
            (p.steps, p.updates, p.actor_updates) == (interactions, updates, actor_updates),
            || {
                format!(
                    "layer probe made {}/{}/{} interactions/updates/actor updates, the trainer \
                     {interactions}/{updates}/{actor_updates}",
                    p.steps, p.updates, p.actor_updates
                )
            },
        );
    }
    let probed_s = |layer: fn(&Probe) -> Duration| {
        median(
            &probes
                .iter()
                .map(|p| layer(p).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let p = &probes[0];
    let qc_grad_s = cost(probed_s(|p| p.qc_grad), p.actor_updates, actor_updates);
    let update_s = cost(probed_s(|p| p.update), p.updates, updates);
    let act_s = cost(probed_s(|p| p.act), p.steps, interactions);
    let certify_s = cost(probed_s(|p| p.certify), p.steps, interactions);
    let env_step_s = cost(probed_s(|p| p.env_step), p.steps, interactions);
    let forward_s = cost(probed_s(|p| p.forward), p.steps, interactions);
    let covered = qc_grad_s + update_s + act_s + certify_s + env_step_s;
    let last = *result.history.last().expect("history is checked non-empty");

    note_fingerprint(out, args, &untraced);
    out.note(format!(
        "layers qc_grad_s={qc_grad_s:.4} update_s={update_s:.4} certify_s={certify_s:.4} \
         env_step_s={env_step_s:.4} act_s={act_s:.4} traced_s={traced_s:.4} \
         untraced_s={untraced_s:.4}"
    ));
    let n = interactions as f64;
    per_layer(
        out,
        &[
            ("nn.forward_s", forward_s),
            ("nn.forward_rows", n),
            ("verifier.certify_s", certify_s),
            ("verifier.contexts", n),
            ("verifier.us_per_context", certify_s * 1e6 / n.max(1.0)),
            ("trainer.qc_grad_s", qc_grad_s),
            (
                "trainer.qc_grad_calls",
                (actor_updates * cfg.td3.batch_size as u64 * cfg.properties.len() as u64) as f64,
            ),
            ("trainer.final_qc_sat", last.verifier_reward),
            ("trainer.final_reward", last.raw_reward),
            ("rl.update_s", update_s),
            ("rl.act_s", act_s),
            ("rl.updates", updates as f64),
            ("env.step_s", env_step_s),
            ("env.steps", n),
            ("trace.overhead_ratio", traced_s / untraced_s),
            ("layers.coverage", covered / traced_s),
        ],
    );
}
