//! The three workloads: fleet configuration, the per-round harness, the
//! outcome checks and the simulation digest.
//!
//! A workload is one fixed scenario of [`Workload::rounds`] rounds. The
//! benchmark repeats it on fresh fleets until its time is up, so every
//! repetition does the same simulated work and yields the same digest.

use crate::stats::{splitmix64, Fnv, Spans};
use harbor::DomainId;
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig, TowerConfig};
use harbor_helm::{HelmRun, PlanConfig, RolloutState};
use mini_sos::{modules, LoadPolicy, ModuleSource, Protection, SosSystem, MSG_TIMER};

/// Radio loss shared by every workload.
pub const LOSS: f64 = 0.1;

/// Canary cohorts; the rollout ladder is 1 → 2 → 4 → 8.
pub const COHORTS: u32 = 8;
/// Canary rounds stepped before the first admission, so the counter
/// baselines capture the boot installs.
pub const WARMUP: u64 = 4;
/// Domain of the healthy canary image (Surge with its Tree Routing
/// dependency present).
pub const GOOD_DOM: u8 = 3;
/// Domain of the crash-looping canary image (Surge pointed at an empty
/// domain, so every timer tick faults and is contained).
pub const BAD_DOM: u8 = 4;
/// Domain the OTA workload disseminates Tree Routing into.
pub const OTA_DOM: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Active,
    Ota,
    Canary,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Active, Workload::Ota, Workload::Canary];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Active => "active",
            Workload::Ota => "ota",
            Workload::Canary => "canary",
        }
    }

    /// Rounds in one repetition of the scenario. Each length puts the
    /// round-latency p50 and p90 inside a stable part of the round-cost
    /// distribution for every seed, not on the edge between two kinds of
    /// round (see `README.md`).
    pub fn rounds(self) -> u64 {
        match self {
            Workload::Active => 128,
            // Convergence takes 9–20 rounds and a re-advert wakes the
            // fleet every 16; together they stay under 10 % of the rounds,
            // so the rest is the quiescent tail.
            Workload::Ota => 1024,
            // Warm-up, a full ladder promotion (40–80 rounds), an
            // admission-to-rollback campaign (~5), then a steady observed
            // tail long enough to hold both p50 and p90.
            Workload::Canary => 512,
        }
    }

    /// Rounds the reference-engine replay covers. The OTA replay is the
    /// whole scenario, stepped serially.
    pub fn replay_rounds(self) -> u64 {
        match self {
            Workload::Active => 16,
            Workload::Ota => self.rounds(),
            Workload::Canary => 24,
        }
    }

    pub fn modules(self) -> Vec<ModuleSource> {
        match self {
            Workload::Active => vec![
                modules::blink(0),
                modules::tree_routing(1),
                modules::stress_store(2),
                modules::surge_fixed(3, 1),
            ],
            Workload::Ota => vec![modules::blink(0)],
            Workload::Canary => vec![modules::blink(0), modules::tree_routing(1)],
        }
    }

    /// The fleet the timed phase runs. `seed` is the benchmark seed; the
    /// simulator only sees the seed derived from it.
    pub fn config(self, seed: u64) -> FleetConfig {
        let base = FleetConfig {
            seed: splitmix64(seed ^ self as u64),
            net: NetConfig { loss: LOSS, ..NetConfig::default() },
            ..FleetConfig::default()
        };
        match self {
            Workload::Active => FleetConfig {
                nodes: 512,
                protection: Protection::Umpu,
                turbo: true,
                prove: true,
                threads: 0,
                ..base
            },
            Workload::Ota => FleetConfig {
                nodes: 4096,
                protection: Protection::Sfi,
                load_policy: Some(LoadPolicy::with_allotment(64).with_elision()),
                threads: 0,
                ..base
            },
            Workload::Canary => FleetConfig {
                nodes: 1024,
                protection: Protection::Umpu,
                turbo: true,
                prove: true,
                threads: 1,
                cohorts: COHORTS,
                blackbox: Some(BlackboxConfig::default()),
                tower: Some(TowerConfig::default()),
                ..base
            },
        }
    }

    /// The replay's fleet: reference engine, serial stepping, same seed.
    pub fn replay_config(self, cfg: &FleetConfig) -> FleetConfig {
        FleetConfig { turbo: false, prove: false, threads: 1, ..*cfg }
    }

    /// The traced run's fleet: pulse on and a scope ring on every node.
    /// The canary's blackbox already attaches a (masked) ring per node;
    /// an explicit spec would replace it, so it is left alone.
    pub fn traced_config(self, cfg: &FleetConfig) -> FleetConfig {
        let scope = match self {
            Workload::Canary => None,
            _ => Some(harbor_scope::SinkSpec::Ring(64)),
        };
        FleetConfig { pulse: true, scope, ..*cfg }
    }
}

/// Builds and boots a workload prototype exactly as [`Fleet::new`] does,
/// for the outside-in setup and engine micro timings.
pub fn prototype(w: Workload, cfg: &FleetConfig) -> SosSystem {
    let mut sys = SosSystem::build(cfg.protection, &w.modules(), |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("prototype builds");
    sys.boot().expect("prototype boots");
    sys.set_load_policy(cfg.load_policy);
    sys
}

/// Simulated totals summed over every node.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub instructions: u64,
    pub cycles: u64,
    pub idle_cycles: u64,
    pub stores_elided: u64,
    pub turbo_cached: u64,
    pub turbo_fallback: u64,
    pub blocks_built: u64,
    pub invalidations: u64,
}

impl Totals {
    pub fn of(fleet: &mut Fleet) -> Totals {
        let mut t = Totals::default();
        for i in 0..fleet.len() {
            fleet.with_node(i, |n| {
                t.instructions += n.sys.instructions();
                t.cycles += n.sys.cycles();
                t.idle_cycles += n.sys.idle_cycles();
                t.stores_elided += n.sys.stores_elided();
                if let Some(s) = n.sys.turbo_stats() {
                    t.turbo_cached += s.cached;
                    t.turbo_fallback += s.fallback;
                    t.blocks_built += s.blocks_built;
                    t.invalidations += s.invalidations;
                }
            });
        }
        t
    }

    /// Counter movement since `start`. A rollback restores a node's
    /// pre-flash checkpoint and rewinds its counters with it, so this is
    /// net of rolled-back work (and saturates at zero).
    pub fn since(&self, start: &Totals) -> Totals {
        Totals {
            instructions: self.instructions.saturating_sub(start.instructions),
            cycles: self.cycles.saturating_sub(start.cycles),
            idle_cycles: self.idle_cycles.saturating_sub(start.idle_cycles),
            stores_elided: self.stores_elided.saturating_sub(start.stores_elided),
            turbo_cached: self.turbo_cached.saturating_sub(start.turbo_cached),
            turbo_fallback: self.turbo_fallback.saturating_sub(start.turbo_fallback),
            blocks_built: self.blocks_built.saturating_sub(start.blocks_built),
            invalidations: self.invalidations.saturating_sub(start.invalidations),
        }
    }
}

/// One canary campaign as the harness saw it.
#[derive(Debug, Clone, Copy)]
struct Campaign {
    id: u16,
    admitted: u64,
    /// Fleet round at which the controller was first seen terminal.
    finished: Option<(u64, RolloutState)>,
}

/// A live scenario: the fleet (behind `HelmRun`, which without a
/// campaign is a plain `Fleet::step_round`) plus the scenario state.
pub struct Sim {
    pub w: Workload,
    pub run: HelmRun,
    images: Vec<ModuleImage>,
    ota: Option<u16>,
    good: Option<Campaign>,
    bad: Option<Campaign>,
    good_log: String,
    pre_flash: Vec<u64>,
}

impl Sim {
    /// The timed set-up: build, boot, certify and prime the prototype,
    /// clone every node, and assemble the images the scenario will send.
    pub fn setup(w: Workload, cfg: &FleetConfig) -> Sim {
        let fleet = Fleet::new(cfg, &w.modules()).expect("fleet builds");
        let (layout, prot) = (fleet.layout(), fleet.protection());
        let sources = match w {
            Workload::Active => vec![],
            Workload::Ota => vec![modules::tree_routing(OTA_DOM)],
            Workload::Canary => vec![modules::surge_fixed(GOOD_DOM, 1), modules::surge(BAD_DOM, 2)],
        };
        let images = sources
            .iter()
            .map(|s| ModuleImage::assemble(s, &layout, prot).expect("image assembles"))
            .collect();
        Sim {
            w,
            run: HelmRun::new(fleet),
            images,
            ota: None,
            good: None,
            bad: None,
            good_log: String::new(),
            pre_flash: Vec::new(),
        }
    }

    pub fn fleet(&mut self) -> &mut Fleet {
        self.run.fleet_mut()
    }

    /// One round: the scenario's control action (if any), the harness's
    /// posts, and the step. Every part is a span under one `round` span.
    pub fn round(&mut self, spans: &mut Spans) {
        let r = self.run.fleet().round();
        let root = spans.open("round", r);
        match self.w {
            Workload::Ota if r == 0 => {
                let image = &self.images[0];
                let fleet = self.run.fleet_mut();
                self.ota = Some(spans.time("fleet.disseminate", r, || fleet.disseminate(image)));
            }
            Workload::Canary => self.canary_control(r, spans),
            _ => {}
        }
        spans.time("bench.driver", r, || self.post());
        spans.time("step_round", r, || self.run.step_round());
        spans.close(root);
        self.observe_campaigns();
    }

    /// Admits the healthy image after warm-up, and the crash-looping one
    /// once the first campaign is terminal.
    fn canary_control(&mut self, r: u64, spans: &mut Spans) {
        if r == WARMUP && self.good.is_none() {
            self.good = Some(self.admit(0, r, spans));
        } else if self.bad.is_none() && self.good.is_some_and(|c| c.finished.is_some()) {
            let helm = self.run.helm().expect("good campaign ran");
            self.good_log = helm.log_json();
            let fleet = self.run.fleet_mut();
            self.pre_flash = (0..fleet.len())
                .map(|i| fleet.with_node(i, |n| n.sys.flash_generation()))
                .collect();
            self.bad = Some(self.admit(1, r, spans));
        }
    }

    fn admit(&mut self, image: usize, r: u64, spans: &mut Spans) -> Campaign {
        let image = &self.images[image];
        let run = &mut self.run;
        let id = spans
            .time("helm.admit", r, || run.admit(image, PlanConfig::ladder(COHORTS)))
            .expect("canary image admits");
        Campaign { id, admitted: r, finished: None }
    }

    fn observe_campaigns(&mut self) {
        let Some(helm) = self.run.helm() else { return };
        let round = self.run.fleet().round();
        let state = helm.state();
        let live = if self.bad.is_some() { &mut self.bad } else { &mut self.good };
        if let Some(c) = live {
            if c.finished.is_none() && state.terminal() {
                c.finished = Some((round, state));
            }
        }
    }

    /// The harness's host posts for one round.
    fn post(&mut self) {
        let fleet = self.run.fleet_mut();
        match self.w {
            Workload::Active => {
                for d in 0..4 {
                    fleet.post_all(DomainId::num(d), MSG_TIMER);
                }
            }
            Workload::Ota => {}
            Workload::Canary => {
                // Blink ticks everywhere; nodes that installed a campaign
                // image tick it too (so the bad image faults and the good
                // one runs).
                fleet.post_all(DomainId::num(0), MSG_TIMER);
                let good = self.good.map(|c| c.id);
                let bad = self.bad.map(|c| c.id);
                for i in 0..fleet.len() {
                    let (g, b) = fleet.with_node(i, |n| {
                        (
                            good.is_some_and(|id| n.has_installed(id)),
                            bad.is_some_and(|id| n.has_installed(id)),
                        )
                    });
                    if g {
                        fleet.post(i, DomainId::num(GOOD_DOM), MSG_TIMER);
                    }
                    if b {
                        fleet.post(i, DomainId::num(BAD_DOM), MSG_TIMER);
                    }
                }
            }
        }
    }

    /// Rounds from admission until the healthy image reached `Done`.
    pub fn rounds_to_done(&self) -> Option<u64> {
        self.good.and_then(|c| c.finished.map(|(r, _)| r - c.admitted))
    }

    /// Rounds from admission until every canary of the crash-looping
    /// image was restored (`RolledBack`).
    pub fn rounds_to_rollback(&self) -> Option<u64> {
        self.bad.and_then(|c| c.finished.map(|(r, _)| r - c.admitted))
    }

    /// Hash over everything the simulation produced: the telemetry JSON,
    /// the radio counters and, with a tower attached, the rollup JSON and
    /// the helm decision logs. `stores_elided` is zeroed in the rollup:
    /// it is the one counter prove changes by design, so the reference
    /// replay can be compared byte for byte.
    pub fn digest(&mut self) -> u64 {
        let mut h = Fnv::new();
        let fleet = self.run.fleet_mut();
        h.eat(fleet.telemetry().comparable_json().as_bytes());
        h.eat(format!("{:?}", fleet.radio_stats()).as_bytes());
        if let Some(mut rollup) = fleet.tower_rollup() {
            for c in &mut rollup.cohorts {
                c.totals.stores_elided = 0;
                c.folded.stores_elided = 0;
                for w in &mut c.windows {
                    w.counters.stores_elided = 0;
                }
            }
            h.eat(rollup.to_json().as_bytes());
        }
        h.eat(self.good_log.as_bytes());
        if let Some(helm) = self.run.helm() {
            h.eat(helm.log_json().as_bytes());
        }
        h.finish()
    }

    /// Checks the scenario's own outcome and returns the operation count:
    /// `(attempted, failed)`. Attempted operations are host posts plus
    /// image offers (one per node per image); failures are queue drops,
    /// uncontained faults and offers left unresolved.
    pub fn check(&mut self) -> Result<(u64, u64), String> {
        let w = self.w;
        let ota = self.ota;
        let fleet = self.run.fleet_mut();
        let n = fleet.len() as u64;
        let tel = fleet.telemetry();
        let posts = tel.total(|t| t.messages + t.queue_drops);
        let drops = tel.total(|t| t.queue_drops);
        let faults = tel.total(|t| t.faults());
        let contained = tel.total(|t| t.contained());
        let uncontained = faults - contained;
        let mut offers = 0;
        let mut unresolved = 0;
        match w {
            Workload::Active => {
                if faults + drops > 0 {
                    return Err(format!("active: {faults} faults, {drops} queue drops"));
                }
            }
            Workload::Ota => {
                let id = ota.ok_or("ota: nothing disseminated")?;
                offers = n;
                let (mut installed, mut quarantined) = (0, 0);
                for i in 0..fleet.len() {
                    fleet.with_node(i, |n| {
                        installed += u64::from(n.has_installed(id));
                        quarantined += u64::from(n.has_quarantined(id));
                    });
                }
                unresolved = n - installed;
                if installed != n || quarantined > 0 || tel.convergence_round.is_none() {
                    return Err(format!(
                        "ota: {installed}/{n} installed, {quarantined} quarantined"
                    ));
                }
            }
            Workload::Canary => {
                let good = self.good.ok_or("canary: good image never admitted")?;
                let bad = self.bad.ok_or("canary: bad image never admitted")?;
                if good.finished.map(|f| f.1) != Some(RolloutState::Done) {
                    return Err(format!("canary: good campaign ended {:?}", good.finished));
                }
                if bad.finished.map(|f| f.1) != Some(RolloutState::RolledBack) {
                    return Err(format!("canary: bad campaign ended {:?}", bad.finished));
                }
                offers = 2 * n;
                for i in 0..fleet.len() {
                    let pre = self.pre_flash[i];
                    fleet.with_node(i, |node| {
                        unresolved += u64::from(!node.has_installed(good.id));
                        unresolved += u64::from(
                            node.has_installed(bad.id) || node.sys.flash_generation() != pre,
                        );
                    });
                }
                if unresolved > 0 || uncontained > 0 {
                    return Err(format!(
                        "canary: {unresolved} unresolved offers, {uncontained} uncontained faults"
                    ));
                }
            }
        }
        Ok((posts + offers, drops + uncontained + unresolved))
    }
}
