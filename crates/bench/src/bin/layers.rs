//! The layered host benchmark: one harness that charges each host layer of
//! the fleet simulator its own marginal wall-time cost, the way the paper's
//! Tables 3–6 charge each protection mechanism its own cycles.
//!
//! Each *rung* of [`rungs`] is one comparison: a workload, a base
//! [`FleetConfig`] and the modes it interleaves, each mode adding one layer
//! to the base:
//!
//! | rung       | modes                          | workload                      |
//! |------------|--------------------------------|-------------------------------|
//! | `turbo`    | reference → turbo              | active                        |
//! | `prove`    | turbo → turbo + prove          | store-heavy                   |
//! | `scope`    | no sink → ring → stream        | Blink only                    |
//! | `blackbox` | off → blackbox                 | active                        |
//! | `tower`    | blackbox → + tower             | active, 8 cohorts             |
//! | `pulse`    | off → pulse                    | active                        |
//! | `helm`     | tower → + helm observer        | active, 8 cohorts             |
//! | `schedule` | serial → parallel → 4 workers  | Blink + Tree Routing over OTA |
//!
//! At 64/256/512 nodes a rung runs its modes interleaved for [`ITERS`]
//! passes and keeps each mode's quickest pass, so a host load spike
//! penalises every mode rather than the one that happened to run under it.
//! Every pass of a mode must repeat that mode's first pass exactly, and
//! every mode must leave the simulated machines (cycle and instruction
//! totals) identical to the rung's first mode: each layer is observational
//! or semantics-preserving. On top of that each rung asserts its own
//! invariants (`Rung::check`). One row per (rung, nodes) lands in
//! `BENCH_layers.json`, with each mode's wall time and its cost relative to
//! the rung's first mode. Run with `--release`: debug builds re-check every
//! elided store, which is the soundness harness, not the fast path.
//!
//! ```sh
//! cargo run --release -p harbor-bench --bin layers              # every rung
//! cargo run --release -p harbor-bench --bin layers -- --seed 7  # one seed for all rungs
//! cargo run --release -p harbor-bench --bin layers -- --check   # the CI gate
//! ```
//!
//! `--check` runs every rung on a 32-node fleet for two passes and
//! evaluates all assertions that do not depend on timing, plus the golden
//! reference cycle total of the `turbo` rung: having the turbo engine in
//! the build, but disabled, must not perturb reference execution.

use harbor::DomainId;
use harbor_bench::report::{machine_hash, seed_from_args, BenchReport, BenchRun};
use harbor_fleet::{
    BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig, PulseReport, TowerConfig,
};
use harbor_helm::{Helm, HelmRun, PlanConfig, RolloutPlan, RolloutState};
use harbor_scope::SinkSpec;
use mini_sos::kernel::MSG_TIMER;
use mini_sos::loader::ModuleSource;
use mini_sos::{modules, Protection};
use std::time::Instant;

const ROUNDS: u64 = 40;

/// Interleaved passes per (rung, nodes); each mode reports its minimum,
/// which converges on the quiet-host time.
const ITERS: usize = 16;

const SIZES: [usize; 3] = [64, 256, 512];

/// Cohort count of the tower and helm rungs.
const COHORTS: u32 = 8;

/// Golden reference-mode cycle total of the `turbo` rung on the `--check`
/// fleet (32 nodes, seed `0x5c09e`, 40 rounds). If this drifts, something
/// changed reference execution itself; update it only for an *intentional*
/// workload or kernel change, never to paper over a turbo-side difference.
const CHECK_NODES: usize = 32;
const CHECK_REFERENCE_CYCLES: u64 = 414_848;

/// The pulse budget: always-on profiling stays within this percentage of
/// the unprofiled wall time. Asserted at 512 nodes only; the sub-20 ms
/// smaller rows are noise-dominated on a busy host.
const MAX_PULSE_OVERHEAD_PCT: f64 = 3.0;

/// What every node runs: the boot modules, the domains that get a timer
/// message every round, and an image disseminated over the radio.
struct Workload {
    boot: Vec<ModuleSource>,
    timers: &'static [u8],
    ota: Option<ModuleSource>,
}

/// Blink, Tree Routing and the patched Surge all firing every round: the
/// densest steady state a campaign produces.
fn active() -> Workload {
    Workload {
        boot: vec![modules::blink(0), modules::tree_routing(1), modules::surge_fixed(3, 1)],
        timers: &[0, 1, 3],
        ota: None,
    }
}

/// One mode of a rung: the layer it adds to the rung's base config.
struct Mode {
    name: &'static str,
    layer: fn(&mut FleetConfig),
    /// Attach a helm controller that observes the tower rollup every round.
    helm: bool,
}

fn mode(name: &'static str, layer: fn(&mut FleetConfig)) -> Mode {
    Mode { name, layer, helm: false }
}

/// Report fields a rung adds to its row: `(key, rendered JSON value)`.
type Fields = Vec<(&'static str, String)>;

struct Rung {
    name: &'static str,
    /// Default seed, overridden by `--seed`.
    seed: u64,
    workload: Workload,
    /// Applied to [`fleet_config`] before each mode's layer.
    base: fn(&mut FleetConfig),
    modes: Vec<Mode>,
    /// The rung's own assertions over each mode's quickest pass, given the
    /// node count and seed; returns the rung's extra report fields.
    check: fn(usize, u64, &[Run]) -> Fields,
}

impl Rung {
    fn config(&self, mode: &Mode, nodes: usize, seed: u64) -> FleetConfig {
        let mut cfg = fleet_config(nodes, seed);
        (self.base)(&mut cfg);
        (mode.layer)(&mut cfg);
        cfg
    }
}

/// The serial 10 %-loss UMPU fleet every rung starts from; serial, so
/// wall-time differences come from the layer only.
fn fleet_config(nodes: usize, seed: u64) -> FleetConfig {
    FleetConfig {
        nodes,
        protection: Protection::Umpu,
        seed,
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads: 1,
        ..FleetConfig::default()
    }
}

/// Blackbox and tower on an 8-cohort fleet: the helm rung's base and the
/// campaign fleet.
fn towered(cfg: &mut FleetConfig) {
    cfg.blackbox = Some(BlackboxConfig::default());
    cfg.cohorts = COHORTS;
    cfg.tower = Some(TowerConfig::default());
}

fn rungs() -> Vec<Rung> {
    let nothing: fn(&mut FleetConfig) = |_| {};
    vec![
        Rung {
            name: "turbo",
            seed: 0x5c09e,
            workload: active(),
            base: nothing,
            modes: vec![mode("reference", nothing), mode("turbo", |c| c.turbo = true)],
            check: |nodes, _, runs| {
                if nodes == CHECK_NODES {
                    assert_eq!(
                        runs[0].cycles, CHECK_REFERENCE_CYCLES,
                        "reference cycle total drifted from the golden value; if the \
                         workload or kernel changed intentionally, update \
                         CHECK_REFERENCE_CYCLES in layers.rs"
                    );
                }
                Vec::new()
            },
        },
        Rung {
            name: "prove",
            seed: 0x5c09e,
            // Store-dominated: the elision win scales with the share of
            // executed instructions that are certified stores.
            workload: Workload {
                boot: vec![modules::blink(0), modules::tree_routing(1), modules::stress_store(2)],
                timers: &[0, 1, 2],
                ota: None,
            },
            base: |c| c.turbo = true,
            modes: vec![mode("turbo", nothing), mode("prove", |c| c.prove = true)],
            check: |_, _, _| Vec::new(),
        },
        Rung {
            name: "scope",
            seed: 0x5c09e,
            workload: Workload { boot: vec![modules::blink(0)], timers: &[0], ota: None },
            base: nothing,
            modes: vec![
                mode("none", nothing),
                mode("ring", |c| c.scope = Some(SinkSpec::Ring(256))),
                mode("stream", |c| c.scope = Some(SinkSpec::Stream)),
            ],
            check: |_, _, runs| {
                let (ring, stream) = (&runs[1], &runs[2]);
                assert_eq!(ring.recorded, stream.recorded, "both sinks see every event");
                assert!(ring.dropped > 0, "256-slot rings overflow on this workload");
                assert_eq!(stream.dropped, 0, "stream sinks never drop");
                vec![
                    ("events", stream.recorded.to_string()),
                    ("ring_dropped", ring.dropped.to_string()),
                ]
            },
        },
        Rung {
            name: "blackbox",
            seed: 0x5c09e,
            workload: active(),
            base: nothing,
            modes: vec![
                mode("off", nothing),
                mode("blackbox", |c| c.blackbox = Some(BlackboxConfig::default())),
            ],
            check: |_, _, runs| {
                assert!(runs[1].recorded > 0, "the recorder ring saw events");
                vec![("events", runs[1].recorded.to_string())]
            },
        },
        Rung {
            name: "tower",
            seed: 0x70_3e_12,
            workload: active(),
            base: |c| {
                c.blackbox = Some(BlackboxConfig::default());
                c.cohorts = COHORTS;
            },
            modes: vec![
                mode("blackbox", nothing),
                mode("tower", |c| c.tower = Some(TowerConfig::default())),
            ],
            check: |nodes, _, runs| {
                assert_eq!(
                    runs[1].ingested,
                    nodes as u64 * ROUNDS,
                    "one sample per node per round"
                );
                vec![("samples", runs[1].ingested.to_string())]
            },
        },
        Rung {
            name: "pulse",
            seed: 0x9a15e,
            workload: active(),
            base: nothing,
            modes: vec![mode("off", nothing), mode("pulse", |c| c.pulse = true)],
            check: |nodes, _, runs| {
                let (off, on) = (&runs[0], &runs[1]);
                assert_eq!(off.telemetry, on.telemetry, "pulse must not perturb the telemetry");
                let pulse = on.pulse.as_ref().expect("profiled run has a report");
                let violations = pulse.reconcile();
                assert!(
                    violations.is_empty(),
                    "{nodes}-node pulse report reconciles: {violations:?}"
                );
                let overhead = cost_pct(off, on);
                assert!(
                    nodes < 512 || overhead <= MAX_PULSE_OVERHEAD_PCT,
                    "{nodes}-node run: pulse overhead {overhead:.2}% exceeds {MAX_PULSE_OVERHEAD_PCT}%"
                );
                // The quickest profiled pass: its phase breakdown is the
                // least polluted by host noise.
                vec![
                    ("idle_pm", pulse.ledger.idle_per_myriad().to_string()),
                    ("phases", phases_json(pulse)),
                ]
            },
        },
        Rung {
            name: "helm",
            seed: 0x70_3e_12,
            workload: active(),
            base: towered,
            modes: vec![mode("tower", nothing), Mode { name: "helm", layer: nothing, helm: true }],
            check: |nodes, seed, runs| {
                // admit + start-stage + one hold per observed round.
                assert_eq!(runs[1].decisions, 2 + ROUNDS, "one decision record per round");
                let (done, detect, rolled) = campaign(nodes, seed);
                vec![
                    ("rounds_to_done", done.to_string()),
                    ("rounds_to_detect", detect.to_string()),
                    ("rounds_to_rollback", rolled.to_string()),
                ]
            },
        },
        Rung {
            name: "schedule",
            seed: 0xf1ee7,
            workload: Workload {
                boot: vec![modules::blink(0)],
                timers: &[0],
                ota: Some(modules::tree_routing(3)),
            },
            base: nothing,
            // Even on a single-core host the forced 4-worker run makes the
            // parallel step path really execute.
            modes: vec![
                mode("serial", nothing),
                mode("parallel", |c| c.threads = 0),
                mode("forced4", |c| c.threads = 4),
            ],
            check: |nodes, _, runs| {
                for run in runs {
                    assert!(
                        run.converged,
                        "{nodes}-node dissemination converged within {ROUNDS} rounds"
                    );
                    assert_eq!(
                        run.telemetry, runs[0].telemetry,
                        "{nodes}-node telemetry must not depend on the thread schedule"
                    );
                }
                Vec::new()
            },
        },
    ]
}

/// What one timed run leaves behind.
struct Run {
    wall_ms: f64,
    cycles: u64,
    instructions: u64,
    /// Comparable telemetry JSON.
    telemetry: String,
    /// Trace events recorded and dropped fleet-wide (0 with no sink).
    recorded: u64,
    dropped: u64,
    /// Tower samples ingested (0 with no tower).
    ingested: u64,
    /// Helm decision records (0 with no controller).
    decisions: u64,
    converged: bool,
    pulse: Option<PulseReport>,
}

impl Run {
    fn identity(&self) -> (u64, u64, &str) {
        (self.cycles, self.instructions, &self.telemetry)
    }
}

fn run(cfg: &FleetConfig, workload: &Workload, helm: bool) -> Run {
    let mut fleet = Fleet::new(cfg, &workload.boot).expect("fleet builds");
    if let Some(src) = &workload.ota {
        let image =
            ModuleImage::assemble(src, &fleet.layout(), cfg.protection).expect("image assembles");
        fleet.disseminate(&image);
    }
    let mut controller = helm.then(observer);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for &dom in workload.timers {
            fleet.post_all(DomainId::num(dom), MSG_TIMER);
        }
        fleet.step_round();
        if let Some(c) = &mut controller {
            let rollup = fleet.tower_rollup().expect("tower attached");
            let commands = c.observe(fleet.round(), &rollup);
            assert!(commands.is_empty(), "the observer must never actuate");
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let ingested = fleet.tower_rollup().map_or(0, |r| r.ingested);
    let t = fleet.telemetry();
    Run {
        wall_ms,
        cycles: t.total(|n| n.cycles),
        instructions: t.total(|n| n.instructions),
        telemetry: t.comparable_json(),
        recorded: t.scope.as_ref().map_or(0, |s| s.recorded),
        dropped: t.scope.as_ref().map_or(0, |s| s.dropped),
        ingested,
        decisions: controller.map_or(0, |c| c.log().len() as u64),
        converged: fleet.converged(),
        pulse: fleet.pulse_report(),
    }
}

/// Runs every mode of `rung` interleaved for `passes` passes and returns
/// each mode's quickest pass, after the shared identity assertions.
fn measure(rung: &Rung, nodes: usize, seed: u64, passes: usize) -> Vec<Run> {
    let cfgs: Vec<FleetConfig> = rung.modes.iter().map(|m| rung.config(m, nodes, seed)).collect();
    let pass = || rung.modes.iter().zip(&cfgs).map(|(m, cfg)| run(cfg, &rung.workload, m.helm));
    let mut best: Vec<Run> = pass().collect();
    for i in 1..passes {
        for ((mode, b), r) in rung.modes.iter().zip(&mut best).zip(pass()) {
            assert!(
                r.identity() == b.identity(),
                "{}/{} at {nodes} nodes: pass {i} must repeat pass 0",
                rung.name,
                mode.name
            );
            if r.wall_ms < b.wall_ms {
                *b = r;
            }
        }
    }
    for (mode, r) in rung.modes.iter().zip(&best).skip(1) {
        assert_eq!(
            (r.cycles, r.instructions),
            (best[0].cycles, best[0].instructions),
            "{}/{} at {nodes} nodes must not perturb the machines",
            rung.name,
            mode.name
        );
    }
    best
}

/// Wall-time cost of `run` relative to `base`, in percent.
fn cost_pct(base: &Run, run: &Run) -> f64 {
    (run.wall_ms / base.wall_ms - 1.0) * 100.0
}

/// The per-phase breakdown of a profiled pass as a JSON object:
/// `{"deliver":{"share_pm":...,"sum_ns":...,"mean_ns":...},...}`.
fn phases_json(report: &PulseReport) -> String {
    let rows: Vec<String> = report
        .phase_stats()
        .iter()
        .map(|row| {
            format!(
                "\"{}\":{{\"share_pm\":{},\"sum_ns\":{},\"mean_ns\":{}}}",
                row.phase.name(),
                row.share_pm,
                row.ns.sum,
                row.ns.mean
            )
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

/// A controller that observes forever: flash targets no fleet can reach
/// and a disarmed stall valve pin it in `hold`, so each round runs the
/// full observe path (flash accounting, health scan, regression check)
/// without ever actuating.
fn observer() -> Helm {
    let mut cfg = PlanConfig::ladder(COHORTS);
    cfg.max_stage_rounds = u64::MAX;
    let plan = RolloutPlan {
        image: u16::MAX,
        name: "observer".to_string(),
        digest: 0,
        certified_stores: 0,
        total_stores: 0,
        cfg,
        admitted_round: 0,
        start_window: u64::MAX,
        baseline: Default::default(),
        cohort_nodes: (0..COHORTS).map(|c| (c, u64::MAX)).collect(),
    };
    let mut helm = Helm::new(plan);
    helm.start(0);
    helm
}

/// One real two-campaign scenario (deterministic for a given seed): the
/// healthy Surge promotes through the full ladder, the crash-looping one
/// is condemned. Returns the closed-loop latencies: rounds to full
/// promotion, and rounds from admission to the rollback decision and to
/// every canary restored.
fn campaign(nodes: usize, seed: u64) -> (u64, u64, u64) {
    // Boot only Blink and Tree Routing: domains 3/4 stay free for the
    // campaign images, exactly like the `harbor-helm --check` scenario.
    let mut cfg = fleet_config(nodes, seed);
    towered(&mut cfg);
    let fleet =
        Fleet::new(&cfg, &[modules::blink(0), modules::tree_routing(1)]).expect("fleet builds");
    let mut run = HelmRun::new(fleet);
    // One round: Blink ticks everywhere, each `(image, domain)` ticks on
    // the nodes that installed it.
    let step = |run: &mut HelmRun, images: &[(u16, u8)]| {
        let fleet = run.fleet_mut();
        fleet.post_all(DomainId::num(0), MSG_TIMER);
        for i in 0..fleet.len() {
            for &(id, dom) in images {
                if fleet.with_node(i, |n| n.has_installed(id)) {
                    fleet.post(i, DomainId::num(dom), MSG_TIMER);
                }
            }
        }
        run.step_round();
    };
    let until_verdict = |run: &mut HelmRun, images: &[(u16, u8)], limit: u64| loop {
        step(run, images);
        let state = run.helm().expect("campaign admitted").state();
        if state.terminal() {
            break state;
        }
        assert!(run.fleet().round() < limit, "campaign did not converge within {limit} rounds");
    };
    for _ in 0..4 {
        step(&mut run, &[]);
    }
    let layout = run.fleet().layout();
    let image = |src| ModuleImage::assemble(&src, &layout, Protection::Umpu).expect("assembles");
    let good = run.admit(&image(modules::surge_fixed(3, 1)), PlanConfig::ladder(COHORTS));
    let good = good.expect("admits");
    let good_admitted = run.fleet().round();
    let state = until_verdict(&mut run, &[(good, 3)], 400);
    assert_eq!(state, RolloutState::Done, "healthy image promotes");
    let rounds_to_done = run.fleet().round() - good_admitted;

    let bad = run.admit(&image(modules::surge(4, 2)), PlanConfig::ladder(COHORTS));
    let bad = bad.expect("admits");
    let state = until_verdict(&mut run, &[(good, 3), (bad, 4)], 800);
    assert_eq!(state, RolloutState::RolledBack, "broken image is condemned");
    let helm = run.helm().expect("campaign ran");
    let admitted = helm.plan().admitted_round;
    let decided = |decision: &str| {
        helm.log()
            .iter()
            .find(|r| r.decision == decision)
            .map(|r| r.round - admitted)
            .unwrap_or_else(|| panic!("{decision} logged"))
    };
    (rounds_to_done, decided("roll-back"), decided("rolled-back"))
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        for rung in rungs() {
            let seed = seed_from_args(rung.seed);
            let runs = measure(&rung, CHECK_NODES, seed, 2);
            (rung.check)(CHECK_NODES, seed, &runs);
            println!(
                "layers --check: {} ok ({} cycles, {} instructions, {} modes identical)",
                rung.name,
                runs[0].cycles,
                runs[0].instructions,
                runs.len()
            );
        }
        return;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "layers: {ROUNDS} rounds per run, min over {ITERS} interleaved passes, \
         {cores} core(s) available"
    );
    let mut report = BenchReport::new("layers", ITERS);
    for rung in rungs() {
        let seed = seed_from_args(rung.seed);
        let names: Vec<&str> = rung.modes.iter().map(|m| m.name).collect();
        println!("\n== {} (seed {seed}): {}", rung.name, names.join(" → "));
        // Warm the allocator, decode table and caches before timing.
        measure(&rung, SIZES[0], seed, 1);
        for nodes in SIZES {
            let runs = measure(&rung, nodes, seed, ITERS);
            let fields = (rung.check)(nodes, seed, &runs);
            let mut row = BenchRun::new(nodes, ROUNDS)
                .raw("rung", &format!("\"{}\"", rung.name))
                .num("seed", seed)
                .num("cores", cores);
            let mut line = format!("{nodes:>6}");
            for (mode, r) in rung.modes.iter().zip(&runs) {
                row = row.ms(&format!("{}_ms", mode.name), r.wall_ms);
                line.push_str(&format!("  {} {:.1} ms", mode.name, r.wall_ms));
            }
            for (mode, r) in rung.modes.iter().zip(&runs).skip(1) {
                let pct = cost_pct(&runs[0], r);
                row = row.ratio(&format!("{}_pct", mode.name), pct);
                line.push_str(&format!("  {} {pct:+.1}%", mode.name));
            }
            row = row.num("cycles", runs[0].cycles).num("instructions", runs[0].instructions);
            for (key, value) in &fields {
                row = row.raw(key, value);
                if !value.starts_with('{') {
                    line.push_str(&format!("  {key}={value}"));
                }
            }
            println!("{line}");
            report.run(row.machine(machine_hash(&[runs[0].cycles, runs[0].instructions])));
        }
    }
    report.write("layers");
}
