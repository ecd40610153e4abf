//! The fleet workloads: a [`Fleet`] ticked one 20 ms monitor interval at
//! a time (`Fleet::run(MI)`), flat out.
//!
//! Untraced passes give the end-to-end metrics and the network envelope.
//! The traced pass attaches a [`FlightRecorder`] with span timing, reads
//! the per-stage span table and per-dispatch spans, and then replays the
//! recorded decisions into a bare [`Simulator`] to time netsim alone.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use canopy_cc::Cubic;
use canopy_core::obs::StateLayout;
use canopy_core::property::{Property, PropertyParams};
use canopy_netsim::{
    BandwidthTrace, FlowConfig, FlowId, LinkConfig, Simulator, Time, Topology, MSS_BYTES,
};
use canopy_nn::{Activation, Mlp};
use canopy_serve::{Fleet, FleetConfig, FleetTopology, QcMonitorConfig};
use canopy_telemetry::{
    DecisionRecord, FlightRecorder, LiveConfig, RecorderConfig, SharedRecorder, SloKind, SloSpec,
    SpanStage,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median, peak_rss_mb, per_layer, quantile, Outcome};
use crate::{Args, Workload};

/// One tick: the 20 ms monitor interval every driver decides on.
const MI: Time = Time::from_millis(20);

/// History depth of the deployment-shaped actor.
const K: usize = 10;

/// Ticks per pass: 20 s of simulated time, so each pass's p99 has ten
/// ticks beyond it.
const TICKS: usize = 1000;

/// Fleet builds timed per invocation; `setup_s` is their median.
const SETUPS: usize = 15;

/// Timed netsim replays per traced run; `netsim.replay_s` is their median.
const REPLAYS: usize = 3;

/// The network envelope every fleet pass must stay inside. The bands catch
/// congestion collapse (cwnd pinned at the 8192-packet cap, ~97% of sent
/// packets dropped) and starvation. They leave room for the actor's
/// seed-dependent drift: across seeds the incast fleet's mean cwnd ends
/// 9-13x its fair share over a pass, with drops near 4% of sent packets.
const GOODPUT_BAND: (f64, f64) = (0.70, 1.0);
const DROP_MAX: f64 = 0.20;
const CWND_SHARE_BAND: (f64, f64) = (0.25, 32.0);

struct Spec {
    config: FleetConfig,
    /// Attach the telemetry live layer (snapshots plus SLO watchdog).
    live: bool,
}

fn spec(workload: Workload) -> Spec {
    match workload {
        // 256 flows at 8 Mb/s each, all arriving together: one 256-row
        // batch per MI and no certification.
        Workload::FleetSync => Spec {
            config: FleetConfig::dumbbell(256, 2.048e9, K),
            live: false,
        },
        // 64 flows through 8 leaves into one root, staggered 2.5 ms so
        // about 8 decide per instant, each certified with the Cubic
        // fallback.
        Workload::FleetCertified => Spec {
            config: FleetConfig::incast(64, 512e6, 128e6, 8, K)
                .with_stagger(Time::from_micros(2500))
                .with_qc_monitor(QcMonitorConfig {
                    properties: Property::shallow_set(&PropertyParams::default()),
                    threshold: 0.5,
                    n_components: 5,
                }),
            live: true,
        },
        Workload::TrainCanopy => unreachable!("not a fleet workload"),
    }
}

/// The fleet actor: a deployment-shaped k = 10, 64×64 tanh network. Its
/// hidden layers are fixed (drawn from seed [`HIDDEN_SEED`]); `seed` draws
/// the output layer, scaled by [`OUTPUT_SCALE`] with zero bias, so actions
/// depend on the input while the fleet stays close to its Cubic kernel.
///
/// The hidden layers set what certifying one context costs: with them
/// drawn per seed, the same fleet cost either about 28 or about 57 µs per
/// context depending on the seed, which no per-seed benchmark can compare.
/// At a 0.01 output scale one seed in ten drove the incast fleet to 20%
/// drops; at 0.001 every seed tried stays near 4%.
fn actor(seed: u64) -> Mlp {
    let widths = [StateLayout::new(K).dim(), 64, 64, 1];
    let mut net = Mlp::new(
        &mut StdRng::seed_from_u64(HIDDEN_SEED),
        &widths,
        Activation::Tanh,
    );
    let drawn = Mlp::new(&mut StdRng::seed_from_u64(seed), &widths, Activation::Tanh);
    let last = net.layers_mut().last_mut().expect("the actor has layers");
    last.weights = drawn
        .layers()
        .last()
        .expect("the actor has layers")
        .weights
        .clone();
    for w in last.weights.as_mut_slice() {
        *w *= OUTPUT_SCALE;
    }
    last.bias.fill(0.0);
    net
}

const HIDDEN_SEED: u64 = 0;
const OUTPUT_SCALE: f64 = 0.001;

fn live_config() -> LiveConfig {
    LiveConfig::default()
        .with_label("serve_lab")
        .with_slo(SloSpec::new("fallback-rate", SloKind::MaxFallbackRate, 0.1))
}

/// A recorder whose rings hold every record of one pass, with wall-clock
/// span timing on. A synchronized fleet dispatches once per tick, any
/// other fleet at most once per decision.
fn traced_recorder(spec: &Spec) -> FlightRecorder {
    let decisions = spec.config.flows * TICKS;
    let dispatches = if spec.config.stagger == Time::ZERO {
        TICKS
    } else {
        decisions
    };
    let config = RecorderConfig {
        decision_capacity: decisions,
        batch_capacity: dispatches,
        span_capacity: SpanStage::ALL.len() * dispatches,
        span_timing: true,
        ..RecorderConfig::default()
    };
    if spec.live {
        FlightRecorder::with_live(config, live_config())
    } else {
        FlightRecorder::new(config)
    }
}

/// Builds the fleet with `recorder` attached (the traced pass), or with a
/// default live recorder when the workload has a live layer.
fn build(spec: &Spec, actor: &Mlp, recorder: Option<Rc<RefCell<FlightRecorder>>>) -> Fleet {
    let mut fleet = Fleet::new(&spec.config, actor.clone());
    let recorder = recorder.or_else(|| {
        spec.live.then(|| {
            Rc::new(RefCell::new(FlightRecorder::with_live(
                RecorderConfig::default(),
                live_config(),
            )))
        })
    });
    match recorder {
        Some(rec) if spec.live => fleet.attach_live(rec),
        Some(rec) => fleet.set_recorder(Some(rec as SharedRecorder)),
        None => {}
    }
    fleet
}

/// Whole-network packet counts at the end of a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Fingerprint {
    sent: u64,
    dropped: u64,
    acked: u64,
    acked_bytes: u64,
    retransmits: u64,
    decisions: u64,
}

fn fingerprint(sim: &Simulator, decisions: u64) -> Fingerprint {
    let mut fp = Fingerprint {
        decisions,
        ..Fingerprint::default()
    };
    for f in 0..sim.flow_count() {
        let s = sim.flow_stats(FlowId(f));
        fp.sent += s.sent_packets;
        fp.dropped += s.dropped_packets;
        fp.acked += s.acked_packets;
        fp.acked_bytes += s.acked_bytes;
        fp.retransmits += s.retransmits;
    }
    fp
}

struct Pass {
    /// Wall time of each `Fleet::run(MI)` call, ns.
    tick_ns: Vec<f64>,
    /// Decisions that fell due within their tick, and decisions executed.
    due: u64,
    executed: u64,
    fp: Fingerprint,
    /// Mean over ticks of the fleet's mean cwnd, in packets.
    mean_cwnd: f64,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.tick_ns.iter().sum::<f64>() / 1e9
    }
}

/// Runs one pass, timing each `Fleet::run(MI)` call. Counting the due
/// decisions and sampling cwnd happen between ticks, off the clock.
fn run_pass(fleet: &mut Fleet) -> Pass {
    let flows = fleet.sim().flow_count();
    let mut tick_ns = Vec::with_capacity(TICKS);
    let (mut due, mut executed) = (0, 0);
    let mut cwnd_sum = 0.0;
    for _ in 0..TICKS {
        let horizon = fleet.sim().now() + MI;
        due += fleet
            .pool()
            .drivers()
            .iter()
            .filter(|d| d.next_decision() < horizon)
            .count() as u64;
        let t0 = Instant::now();
        let report = fleet.run(MI);
        tick_ns.push(t0.elapsed().as_nanos() as f64);
        executed += report.decisions;
        let sim = fleet.sim();
        cwnd_sum += (0..flows).map(|f| sim.cwnd(FlowId(f))).sum::<f64>() / flows as f64;
    }
    Pass {
        tick_ns,
        due,
        executed,
        fp: fingerprint(fleet.sim(), executed),
        mean_cwnd: cwnd_sum / TICKS as f64,
    }
}

/// Checks one pass against the network envelope and the decision count.
fn check_pass(out: &mut Outcome, spec: &Spec, pass: &Pass, label: &str) {
    let (goodput, drop, share) = envelope(spec, pass);
    out.check(pass.executed == pass.due, || {
        format!(
            "{label}: {} decisions fell due, {} were executed",
            pass.due, pass.executed
        )
    });
    out.check((GOODPUT_BAND.0..=GOODPUT_BAND.1).contains(&goodput), || {
        format!("{label}: goodput ratio {goodput:.4} outside {GOODPUT_BAND:?}")
    });
    out.check((0.0..=DROP_MAX).contains(&drop), || {
        format!("{label}: drop ratio {drop:.4} above {DROP_MAX}")
    });
    out.check(
        (CWND_SHARE_BAND.0..=CWND_SHARE_BAND.1).contains(&share),
        || format!("{label}: mean cwnd is {share:.3}× fair share, outside {CWND_SHARE_BAND:?}"),
    );
}

/// `(goodput_ratio, drop_ratio, mean cwnd ÷ fair share)` of one pass.
fn envelope(spec: &Spec, pass: &Pass) -> (f64, f64, f64) {
    let capacity_bps = match spec.config.topology {
        FleetTopology::Dumbbell { rate_bps } => rate_bps,
        FleetTopology::Incast { root_bps, .. } => root_bps,
    };
    let duration_s = pass.tick_ns.len() as f64 * MI.as_secs_f64();
    let goodput = pass.fp.acked_bytes as f64 * 8.0 / (capacity_bps * duration_s);
    let drop = pass.fp.dropped as f64 / pass.fp.sent.max(1) as f64;
    let bdp_packets = capacity_bps * spec.config.min_rtt.as_secs_f64() / 8.0 / MSS_BYTES as f64;
    let fair = bdp_packets / spec.config.flows as f64;
    (goodput, drop, pass.mean_cwnd / fair)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = spec(args.workload);
    let actor = actor(args.seed);
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &spec, &actor, &mut out);
    } else {
        untraced(args, &spec, &actor, &mut out)?;
    }
    Ok(out)
}

/// Times `SETUPS` fleet builds and returns the median, in seconds.
fn setup_s(spec: &Spec, actor: &Mlp) -> f64 {
    let times: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t0 = Instant::now();
            let built = build(spec, actor, None);
            let dt = t0.elapsed().as_secs_f64();
            drop(std::hint::black_box(built));
            dt
        })
        .collect();
    median(&times)
}

/// One warm-up pass, then timed untraced passes until `--seconds` of wall
/// time are spent (at least three); returns the timed ones. Every pass
/// rebuilds the fleet from the same inputs, so every pass must reproduce
/// the warm-up pass's fingerprint exactly.
fn untraced_passes(args: &Args, spec: &Spec, actor: &Mlp, out: &mut Outcome) -> Vec<Pass> {
    let mut warmup: Option<Pass> = None;
    let mut passes: Vec<Pass> = Vec::new();
    let mut start = Instant::now();
    while passes.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let mut fleet = build(spec, actor, None);
        let pass = run_pass(&mut fleet);
        let label = format!("pass {}", passes.len() + warmup.is_some() as usize);
        check_pass(out, spec, &pass, &label);
        out.attempted += pass.due;
        out.failed += pass.due.saturating_sub(pass.executed);
        match &warmup {
            Some(first) => {
                out.check(pass.fp == first.fp, || {
                    format!(
                        "{label}: fingerprint {:?} differs from pass 0 {:?}",
                        pass.fp, first.fp
                    )
                });
                passes.push(pass);
            }
            None => {
                warmup = Some(pass);
                start = Instant::now();
            }
        }
    }
    passes
}

fn note_fingerprint(out: &mut Outcome, args: &Args, spec: &Spec, pass: &Pass, passes: usize) {
    let (goodput, drop, share) = envelope(spec, pass);
    out.note(format!(
        "fingerprint {} seed={} flows={} ticks={} passes={passes} decisions={} sent={} \
         dropped={} acked={} retransmits={} goodput_ratio={goodput:.6} drop_ratio={drop:.6} \
         cwnd_per_fair_share={share:.4}",
        args.workload.name(),
        args.seed,
        spec.config.flows,
        TICKS,
        pass.fp.decisions,
        pass.fp.sent,
        pass.fp.dropped,
        pass.fp.acked,
        pass.fp.retransmits,
    ));
}

fn untraced(args: &Args, spec: &Spec, actor: &Mlp, out: &mut Outcome) -> Result<(), String> {
    let setup = setup_s(spec, actor);
    let passes = untraced_passes(args, spec, actor, out);
    let first = &passes[0];
    note_fingerprint(out, args, spec, first, passes.len());
    let sim_s = TICKS as f64 * MI.as_secs_f64();
    let realtime: Vec<f64> = passes.iter().map(|p| sim_s / p.wall_s()).collect();
    let rate: Vec<f64> = passes
        .iter()
        .map(|p| p.fp.decisions as f64 / p.wall_s())
        .collect();
    let ticks_ms = |p: &Pass| p.tick_ns.iter().map(|ns| ns / 1e6).collect::<Vec<_>>();
    let p50: Vec<f64> = passes
        .iter()
        .map(|p| quantile(&ticks_ms(p), 0.50))
        .collect();
    let p99: Vec<f64> = passes
        .iter()
        .map(|p| quantile(&ticks_ms(p), 0.99))
        .collect();
    out.note(format!(
        "ticks per pass={} (p99 has {} beyond it), passes={}, tick_p99_ms per pass={:.3?}",
        TICKS,
        TICKS / 100,
        passes.len(),
        p99
    ));
    out.metric("setup_s", setup, "s");
    out.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    out.metric("decisions_per_s", median(&rate), "1/s");
    out.metric("realtime_factor", median(&realtime), "x");
    out.metric("tick_p50_ms", median(&p50), "ms");
    out.metric("tick_p99_ms", median(&p99), "ms");
    Ok(())
}

/// Replays the traced decisions into a bare simulator on the same
/// topology: at each decision instant drain every deciding flow's monitor,
/// then apply each non-fallback window, as the pool does. Returns the
/// simulator and the replay's wall time in seconds.
fn replay(config: &FleetConfig, records: &[DecisionRecord], horizon: Time) -> (Simulator, f64) {
    let mut sim = bare_sim(config);
    let t0 = Instant::now();
    let mut i = 0;
    while i < records.len() {
        let t_ns = records[i].t_ns;
        let end = records[i..]
            .iter()
            .position(|r| r.t_ns != t_ns)
            .map_or(records.len(), |n| i + n);
        sim.run_until(Time::from_nanos(t_ns));
        for r in &records[i..end] {
            std::hint::black_box(sim.monitor_sample(FlowId(r.flow as usize)));
        }
        for r in &records[i..end] {
            if !r.fallback {
                sim.set_cwnd(FlowId(r.flow as usize), r.cwnd);
            }
        }
        i = end;
    }
    sim.run_until(horizon);
    (sim, t0.elapsed().as_secs_f64())
}

/// The fleet's network without its drivers: the same links, flows,
/// starts, and paths as [`Fleet::new`] builds.
fn bare_sim(config: &FleetConfig) -> Simulator {
    let link_of = |name: &str, rate_bps: f64| {
        LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant(name, rate_bps),
            config.min_rtt,
            1.0,
        )
    };
    let (topology, fan_in) = match config.topology {
        FleetTopology::Dumbbell { rate_bps } => (Topology::dumbbell(link_of("fleet", rate_bps)), 0),
        FleetTopology::Incast {
            root_bps,
            leaf_bps,
            fan_in,
        } => (
            Topology::incast(
                link_of("fleet-root", root_bps),
                link_of("fleet-leaf", leaf_bps),
                fan_in,
            ),
            fan_in,
        ),
    };
    let mut sim = Simulator::with_topology(topology);
    for i in 0..config.flows {
        let start = Time::from_nanos(config.stagger.as_nanos() * i as u64);
        let mut flow = FlowConfig::new(config.min_rtt)
            .starting_at(start)
            .without_samples();
        if fan_in > 0 {
            flow = flow.on_path(Topology::incast_path(i, fan_in));
        }
        sim.add_flow(flow, Box::new(Cubic::new()));
    }
    sim
}

fn traced(args: &Args, spec: &Spec, actor: &Mlp, out: &mut Outcome) {
    // Untraced passes first: they warm the process up and give the base
    // of the tracing overhead.
    let untraced = untraced_passes(args, spec, actor, out);
    let untraced_s = median(&untraced.iter().map(Pass::wall_s).collect::<Vec<_>>());

    // The traced pass.
    let recorder = Rc::new(RefCell::new(traced_recorder(spec)));
    let mut fleet = build(spec, actor, Some(recorder.clone()));
    let pass = run_pass(&mut fleet);
    check_pass(out, spec, &pass, "traced pass");
    out.attempted += pass.due;
    out.failed += pass.due.saturating_sub(pass.executed);
    let traced_s = pass.wall_s();
    let rec = recorder.borrow();
    out.check(
        rec.decisions_dropped() == 0 && rec.spans_dropped() == 0,
        || {
            format!(
                "recorder dropped {} decisions and {} spans",
                rec.decisions_dropped(),
                rec.spans_dropped()
            )
        },
    );
    out.check(rec.decisions_seen() == pass.fp.decisions, || {
        format!(
            "recorder saw {} decisions, the fleet executed {}",
            rec.decisions_seen(),
            pass.fp.decisions
        )
    });

    // Stage totals and per-dispatch percentiles.
    let stage = |s: SpanStage| -> (u64, u64, f64) {
        let (_, count, items, dur_ns) = rec.span_stage_totals()[s.index()];
        (count, items, dur_ns as f64 / 1e9)
    };
    let (dispatches, dispatched, dispatch_s) = stage(SpanStage::Dispatch);
    let (_, _, prepare_s) = stage(SpanStage::Prepare);
    let (_, _, group_s) = stage(SpanStage::Group);
    let (_, forward_rows, forward_s) = stage(SpanStage::Forward);
    let (_, contexts, certify_s) = stage(SpanStage::Certify);
    let (_, _, apply_s) = stage(SpanStage::Apply);
    let dispatch_us: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.stage == SpanStage::Dispatch)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    out.check(dispatch_us.len() as u64 == dispatches, || {
        "dispatch spans and stage totals disagree".into()
    });
    let records = rec.decisions();
    let fallbacks = records.iter().filter(|r| r.fallback).count();
    let snapshots = rec.live_snapshots().len() as u64 + rec.live_snapshots_dropped();
    let alerts = rec.alert_ledger().map_or(0, |l| l.alerts.len());
    let records_dropped = rec.live_snapshots_dropped()
        + rec.links_dropped()
        + rec.batches_dropped()
        + rec.decisions_dropped()
        + rec.spans_dropped();
    let overruns = pass
        .tick_ns
        .iter()
        .filter(|&&ns| ns > MI.as_nanos() as f64)
        .count();

    // netsim alone: replay the decisions and demand the same network.
    let horizon = fleet.sim().now();
    let (replayed, first_s) = replay(&spec.config, &records, horizon);
    let mut replays = vec![first_s];
    replays.extend((1..REPLAYS).map(|_| replay(&spec.config, &records, horizon).1));
    let replay_s = median(&replays);
    let mut mismatched = 0;
    for f in 0..spec.config.flows {
        let (a, b) = (
            fleet.sim().flow_stats(FlowId(f)),
            replayed.flow_stats(FlowId(f)),
        );
        if (
            a.sent_packets,
            a.dropped_packets,
            a.acked_packets,
            a.retransmits,
        ) != (
            b.sent_packets,
            b.dropped_packets,
            b.acked_packets,
            b.retransmits,
        ) {
            mismatched += 1;
        }
    }
    out.check(mismatched == 0, || {
        format!("netsim replay diverged on {mismatched} flows")
    });
    drop(rec);

    // Recording only reads the loop: the traced network must be the
    // untraced one.
    out.check(untraced[0].fp == pass.fp, || {
        format!(
            "traced fingerprint {:?} differs from untraced {:?}",
            pass.fp, untraced[0].fp
        )
    });
    let (goodput, drop_ratio, share) = envelope(spec, &pass);
    note_fingerprint(out, args, spec, &pass, 1);
    out.note(format!(
        "layers replay_s={replay_s:.4} dispatch_s={dispatch_s:.4} traced_s={traced_s:.4} \
         untraced_s={untraced_s:.4}"
    ));

    let packets = pass.fp.sent as f64;
    per_layer(
        out,
        &[
            ("netsim.replay_s", replay_s),
            ("netsim.ns_per_packet", replay_s * 1e9 / packets.max(1.0)),
            ("netsim.packets_sent", packets),
            ("netsim.retransmits", pass.fp.retransmits as f64),
            ("netsim.goodput_ratio", goodput),
            ("netsim.drop_ratio", drop_ratio),
            ("netsim.cwnd_per_fair_share", share),
            ("pool.dispatches", dispatches as f64),
            (
                "pool.mean_batch",
                dispatched as f64 / dispatches.max(1) as f64,
            ),
            ("pool.dispatch_s", dispatch_s),
            ("pool.dispatch_p50_us", quantile(&dispatch_us, 0.50)),
            ("pool.dispatch_p99_us", quantile(&dispatch_us, 0.99)),
            ("pool.prepare_s", prepare_s),
            ("pool.group_s", group_s),
            ("pool.apply_s", apply_s),
            ("nn.forward_s", forward_s),
            ("nn.forward_rows", forward_rows as f64),
            ("verifier.certify_s", certify_s),
            ("verifier.contexts", contexts as f64),
            (
                "verifier.us_per_context",
                if contexts > 0 {
                    certify_s * 1e6 / contexts as f64
                } else {
                    0.0
                },
            ),
            (
                "runtime.fallback_ratio",
                fallbacks as f64 / records.len().max(1) as f64,
            ),
            ("telemetry.snapshots", snapshots as f64),
            ("telemetry.alerts", alerts as f64),
            ("telemetry.records_dropped", records_dropped as f64),
            ("trace.overhead_ratio", traced_s / untraced_s),
            ("serve.outside_dispatch_s", traced_s - dispatch_s),
            (
                "serve.tick_overrun_ratio",
                overruns as f64 / pass.tick_ns.len() as f64,
            ),
            ("layers.coverage", (replay_s + dispatch_s) / traced_s),
        ],
    );
}
