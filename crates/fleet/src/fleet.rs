//! Round-based parallel stepping of a whole fleet of nodes.
//!
//! Each round has four phases:
//!
//! 1. **deliver** (serial): packets due this round move from the radio to
//!    node inboxes and the seeder; the seeder answers retransmission
//!    requests and re-advertises. All radio RNG draws happen here, in a
//!    fixed order.
//! 2. **step** (parallel): every *busy* node consumes its inbox and runs
//!    its CPU. A node is busy when something woke it since its last step:
//!    a delivery, a host call that handed it out or changed it, or its own
//!    previous step leaving work pending (or a watchdog to feed). Every
//!    other node is idle, and stepping an idle node changes nothing, so it
//!    is skipped. Nodes touch only their own state, so the phase is
//!    embarrassingly parallel — worker threads claim disjoint batches of
//!    busy nodes from a shared queue (dynamic work stealing), and a
//!    one-worker round visits the same nodes in the same per-node order.
//! 3. **collect** (serial): the stepped nodes' outboxes drain onto the
//!    radio in node-id order, and nodes with work left are woken for the
//!    next round.
//! 4. **feed** (serial): every node's counter deltas stream into the
//!    tower, when one is attached.
//!
//! Because every RNG is owned (radio, per-node) and consumed in a
//! schedule-independent order, serial and parallel runs of one seed produce
//! byte-identical telemetry — and so do runs that step every node every
//! round (`tests/fleet_busy_set.rs`).

use crate::image::ModuleImage;
use crate::net::{Envelope, NetConfig, Packet, Radio, BROADCAST, SEEDER};
use crate::node::Node;
use crate::telemetry::FleetTelemetry;
use harbor::DomainId;
use harbor_blackbox::{
    Alert, CausalKind, CausalLog, CausalRecord, FlightRecorder, LamportClock, Postmortem,
    RecorderConfig, Watchdog, WatchdogConfig, SEEDER_ID,
};
use harbor_pulse::{Phase, Pulse, PulseReport, RoundLedger, RoundTiming, StepStats, WorkerStat};
use harbor_tower::{FleetRollup, Tower, TowerConfig};
use mini_sos::loader::{LoadError, ModuleSource};
use mini_sos::{Protection, SosLayout, SosSystem};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Instant;

/// Busy nodes a worker claims per grab of the shared queue.
const BATCH: usize = 4;

/// Rounds between seeder re-adverts.
const ADVERT_PERIOD: u64 = 16;

/// Most chunks the seeder rebroadcasts per round.
const MAX_REBROADCAST: usize = 64;

/// Fleet parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Node count.
    pub nodes: usize,
    /// Protection build every node boots with.
    pub protection: Protection,
    /// Master seed; every generator in the run derives from it.
    pub seed: u64,
    /// Radio channel parameters.
    pub net: NetConfig,
    /// Cycle budget per node per round.
    pub cycle_budget: u64,
    /// Worker threads for the step phase; `0` = one per available core.
    pub threads: usize,
    /// Dissemination chunk payload size in bytes.
    pub chunk_bytes: usize,
    /// Optional admission policy every node applies to disseminated
    /// modules (SFI builds only): an image whose certified stack bound
    /// exceeds the allotment is quarantined instead of installed.
    pub load_policy: Option<mini_sos::LoadPolicy>,
    /// Optional per-node trace sink. When set, every node carries a sink of
    /// this shape (typically a small `Ring` — bounded memory per node) and
    /// [`Fleet::telemetry`] includes the fleet-wide
    /// [`crate::ScopeAggregate`]. Tracing is observational: attaching sinks
    /// leaves the simulated machines byte-identical.
    pub scope: Option<harbor_scope::SinkSpec>,
    /// Optional blackbox wiring. When set, every node carries a
    /// [`FlightRecorder`] (whose masked ring becomes the node's trace sink
    /// unless `scope` is set explicitly) and a [`Watchdog`] fed from the
    /// node's own telemetry each round. Like `scope`, the blackbox is
    /// observational: the simulated machines stay byte-identical.
    pub blackbox: Option<BlackboxConfig>,
    /// Run every node through the `harbor-turbo` fast-path engine.
    /// Execution is cycle-, state- and telemetry-identical either way
    /// (regression-tested in `tests/fleet_turbo.rs`); turbo only removes
    /// per-instruction fetch/decode work, so large fleets step faster.
    pub turbo: bool,
    /// Enable certified store-check elision (`harbor-prove`) on every node.
    /// Under the UMPU build, admission derives a `harbor-flow` store
    /// certificate per module and statically proven stores skip the
    /// memory-map-checker walk. Execution is cycle-, state- and
    /// telemetry-identical either way (regression-tested in
    /// `tests/fleet_prove.rs`); a no-op under the other builds.
    pub prove: bool,
    /// Cohort count for telemetry grouping: node `i` is tagged cohort
    /// `i % cohorts`. Purely observational (a stand-in for a rollout ring
    /// or hardware batch); `1` puts the whole fleet in cohort 0.
    pub cohorts: u32,
    /// Optional telemetry-aggregation pipeline. When set, the fleet feeds
    /// every node's per-round counter deltas, postmortem dumps and
    /// watchdog alerts into a [`harbor_tower::Tower`] and
    /// [`Fleet::tower_rollup`] serves the merged per-cohort rollup.
    /// Observational like `scope`/`blackbox`: the simulated machines stay
    /// byte-identical.
    pub tower: Option<TowerConfig>,
    /// Attach the `harbor-pulse` host-side profiler: per-round per-phase
    /// wall-clock timers, per-worker step stats and the idle-work ledger,
    /// served by [`Fleet::pulse_report`]. Strictly observational — pulse
    /// reads node state and the host clock and never touches a machine,
    /// an RNG or the telemetry JSON (regression-tested in
    /// `tests/fleet_pulse.rs`) — and when `false` the step path is the
    /// exact uninstrumented loop, not a timer that discards its reads.
    pub pulse: bool,
}

/// Blackbox sizing for every node in the fleet: flight-recorder depth and
/// watchdog budgets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlackboxConfig {
    /// Per-node flight-recorder sizing.
    pub recorder: RecorderConfig,
    /// Per-node anomaly-detector budgets.
    pub watchdog: WatchdogConfig,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            nodes: 64,
            protection: Protection::Umpu,
            seed: 0x4852_4252, // "HRBR"
            net: NetConfig::default(),
            cycle_budget: 250_000,
            threads: 0,
            chunk_bytes: 32,
            load_policy: None,
            scope: None,
            blackbox: None,
            turbo: false,
            prove: false,
            cohorts: 1,
            tower: None,
            pulse: false,
        }
    }
}

/// The base station: holds the chunk store for one disseminated image and
/// answers retransmission requests.
#[derive(Debug)]
struct Seeder {
    image_id: u16,
    chunks: Vec<Vec<u8>>,
    inbox: Vec<Envelope>,
    pending: BTreeSet<u16>,
    announced: bool,
    clock: LamportClock,
    causal: CausalLog,
    seq: u64,
}

impl Seeder {
    /// Broadcasts `packet` under the seeder's causal identity
    /// ([`SEEDER_ID`]): tick, stamp, log, send.
    fn send(&mut self, round: u64, radio: &mut Radio, packet: Packet) {
        let lamport = self.clock.tick();
        let seq = self.seq;
        self.seq += 1;
        self.causal.push(CausalRecord {
            lamport,
            round,
            kind: CausalKind::Send,
            peer: BROADCAST,
            from: SEEDER_ID,
            seq,
            label: packet.label(),
        });
        radio.send(round, BROADCAST, Envelope { from: SEEDER_ID, seq, lamport, packet });
    }

    fn step(&mut self, round: u64, radio: &mut Radio) {
        for env in std::mem::take(&mut self.inbox) {
            let lamport = self.clock.observe(env.lamport);
            self.causal.push(CausalRecord {
                lamport,
                round,
                kind: CausalKind::Recv,
                peer: env.from,
                from: env.from,
                seq: env.seq,
                label: env.packet.label(),
            });
            if let Packet::Request { module, missing } = env.packet {
                if module == self.image_id {
                    self.pending
                        .extend(missing.into_iter().filter(|&s| (s as usize) < self.chunks.len()));
                }
            }
        }
        let total = self.chunks.len() as u16;
        if !self.announced {
            // Initial push: advert plus the full image, once.
            self.send(round, radio, Packet::Advert { module: self.image_id, total });
            for seq in 0..self.chunks.len() {
                let chunk = Packet::Chunk {
                    module: self.image_id,
                    seq: seq as u16,
                    total,
                    payload: self.chunks[seq].clone(),
                };
                self.send(round, radio, chunk);
            }
            self.announced = true;
            return;
        }
        if round.is_multiple_of(ADVERT_PERIOD) {
            self.send(round, radio, Packet::Advert { module: self.image_id, total });
        }
        // NACK-driven repair: rebroadcast what anyone asked for, lowest
        // sequence first, bounded per round.
        for _ in 0..MAX_REBROADCAST {
            let Some(seq) = self.pending.pop_first() else { break };
            let chunk = Packet::Chunk {
                module: self.image_id,
                seq,
                total,
                payload: self.chunks[seq as usize].clone(),
            };
            self.send(round, radio, chunk);
        }
    }
}

/// A population of simulated sensor nodes on a shared lossy radio.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    threads: usize,
    layout: SosLayout,
    nodes: Vec<Node>,
    wake: WakeSet,
    installs: Installs,
    // Pulse only: per-node guest cycle counts as of each node's last step.
    cycles: Option<CycleCache>,
    radio: Radio,
    seeder: Option<Seeder>,
    // Causal identity (clock, log, sequence counter) of a seeder retired
    // by a rollout commit/rollback, so a later dissemination never reuses
    // `(SEEDER_ID, seq)` identities or rewinds the Lamport clock.
    retired_seeder: Option<(LamportClock, CausalLog, u64)>,
    // Images retained for rollout management: the one in flight (so a
    // stage extension can re-seed it) and the last committed known-good.
    rollouts: BTreeMap<u16, ModuleImage>,
    known_good: Option<u16>,
    tower: Option<Tower>,
    pulse: Option<Pulse>,
    next_image_id: u16,
    round: u64,
}

/// The busy set: ids of the nodes the next step phase runs, with one flag
/// per node so each id is listed once. It lives outside [`Node`], so
/// building it never touches cold node memory.
#[derive(Debug)]
struct WakeSet {
    flag: Vec<bool>,
    ids: Vec<usize>,
}

impl WakeSet {
    /// Every node starts woken: the first round steps the whole fleet.
    fn all(nodes: usize) -> WakeSet {
        WakeSet { flag: vec![true; nodes], ids: (0..nodes).collect() }
    }

    fn wake(&mut self, i: usize) {
        if !self.flag[i] {
            self.flag[i] = true;
            self.ids.push(i);
        }
    }

    fn wake_all(&mut self) {
        for i in 0..self.flag.len() {
            self.wake(i);
        }
    }

    /// Takes the set in node-id order and clears it.
    fn take(&mut self) -> Vec<usize> {
        let mut ids = std::mem::take(&mut self.ids);
        ids.sort_unstable();
        for &i in &ids {
            self.flag[i] = false;
        }
        ids
    }
}

/// Which nodes hold the seeder's current image, and how many do not — so
/// [`Fleet::converged`] is a counter read, not a fleet scan.
#[derive(Debug)]
struct Installs {
    has: Vec<bool>,
    missing: usize,
}

impl Installs {
    fn note(&mut self, i: usize, installed: bool) {
        if self.has[i] != installed {
            self.has[i] = installed;
            if installed {
                self.missing -= 1;
            } else {
                self.missing += 1;
            }
        }
    }
}

/// Every node's `sys.cycles()` as of its last step, with the fleet-wide
/// sum and max. A node's cycle count only moves when it steps (or when a
/// host call wakes it), so updating the stepped nodes keeps both exact.
#[derive(Debug)]
struct CycleCache {
    per_node: Vec<u64>,
    total: u64,
    frontier: u64,
}

impl CycleCache {
    fn new(nodes: &[Node]) -> CycleCache {
        let per_node: Vec<u64> = nodes.iter().map(|n| n.sys.cycles()).collect();
        let total = per_node.iter().sum();
        let frontier = per_node.iter().copied().max().unwrap_or(0);
        CycleCache { per_node, total, frontier }
    }

    fn update(&mut self, i: usize, cycles: u64) {
        let old = std::mem::replace(&mut self.per_node[i], cycles);
        self.total = self.total - old + cycles;
        if cycles >= self.frontier {
            self.frontier = cycles;
        } else if old == self.frontier {
            // A rollback rewound the frontier node's counters.
            self.frontier = self.per_node.iter().copied().max().unwrap_or(0);
        }
    }
}

/// Per-worker instrumentation of the step loop. `()` is the no-op probe:
/// every hook is empty, so a pulse-off fleet runs the plain loop.
trait StepProbe: Send {
    /// A worker claimed a batch and is about to step it.
    fn claim(&mut self) {}
    /// `node` is about to step.
    fn visit(&mut self, _node: &Node) {}
    /// The claimed batch of `nodes` nodes finished.
    fn release(&mut self, _nodes: usize) {}
    /// The worker found the queue empty and is exiting.
    fn finish(&mut self) {}
}

impl StepProbe for () {}

/// Pulse's probe: classifies each stepped node's pending work before the
/// step and times each batch with one clock-read pair — the coarsest grain
/// that still answers the question, which keeps the measured overhead
/// within the ≤3% budget `BENCH_pulse.json` tracks. Every time is
/// measured from the shared step-phase anchor, so
/// `busy <= span <= finish <= step lap` holds by construction.
struct PulseProbe {
    anchor: Instant,
    stat: WorkerStat,
    ledger: RoundLedger,
    claimed_ns: u64,
    first_claim: Option<u64>,
    last_done: u64,
}

impl PulseProbe {
    fn new(anchor: Instant) -> PulseProbe {
        PulseProbe {
            anchor,
            stat: WorkerStat::default(),
            ledger: RoundLedger::default(),
            claimed_ns: 0,
            first_claim: None,
            last_done: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }
}

impl StepProbe for PulseProbe {
    fn claim(&mut self) {
        self.claimed_ns = self.now_ns();
        self.first_claim.get_or_insert(self.claimed_ns);
    }

    fn visit(&mut self, node: &Node) {
        self.ledger.observe(node.pending_work());
    }

    fn release(&mut self, nodes: usize) {
        self.last_done = self.now_ns();
        self.stat.busy_ns += self.last_done - self.claimed_ns;
        self.stat.nodes += nodes as u64;
    }

    fn finish(&mut self) {
        // Batch busy intervals are disjoint sub-intervals of
        // [first_claim, last_done], so busy <= span; the exit stamp comes
        // last, so span <= finish.
        self.stat.span_ns = self.last_done - self.first_claim.unwrap_or(self.last_done);
        self.stat.finish_ns = self.now_ns();
    }
}

/// Disjoint `&mut` borrows of `nodes[i]` for every `i` in `ids`
/// (ascending, distinct), in O(`ids.len()`).
fn pick<'a>(mut nodes: &'a mut [Node], ids: &[usize]) -> Vec<&'a mut Node> {
    let mut picked = Vec::with_capacity(ids.len());
    let mut base = 0;
    for &i in ids {
        let (node, rest) =
            std::mem::take(&mut nodes)[i - base..].split_first_mut().expect("busy id in range");
        picked.push(node);
        nodes = rest;
        base = i + 1;
    }
    picked
}

/// What the collect phase needs from a node it stepped, read by the worker
/// right after the step, while the node is still in cache.
#[derive(Debug, Clone, Copy, Default)]
struct Stepped {
    /// The outbox holds frames for the radio.
    sends: bool,
    /// Work is still pending, or a watchdog needs next round's sample.
    again: bool,
    /// The node holds the seeder's current image.
    installed: bool,
    /// `sys.cycles()` after the step, for pulse's cycle cache.
    cycles: u64,
}

/// The one node-step loop. `workers` threads each take one `probe`, claim
/// batches of `nodes` (with the matching slots of `out`) off a shared
/// queue until it is empty, and hand the probe back; `step` steps one
/// node and reads its [`Stepped`]. With one worker (or none) the loop runs
/// inline, on the whole slice as one batch, and no thread is spawned.
fn step_batches<P: StepProbe>(
    nodes: &mut [&mut Node],
    out: &mut [Stepped],
    workers: usize,
    probe: impl Fn() -> P + Sync,
    step: impl Fn(&mut Node) -> Stepped + Sync,
) -> Vec<P> {
    let size = if workers > 1 { BATCH } else { nodes.len().max(1) };
    let queue = Mutex::new(nodes.chunks_mut(size).zip(out.chunks_mut(size)));
    let work = || {
        let mut probe = probe();
        loop {
            let claimed = queue.lock().expect("batch queue").next();
            let Some((batch, out)) = claimed else { break };
            probe.claim();
            for (node, out) in batch.iter_mut().zip(out) {
                probe.visit(node);
                *out = step(node);
            }
            probe.release(batch.len());
        }
        probe.finish();
        probe
    };
    if workers <= 1 {
        return vec![work()];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        handles.into_iter().map(|h| h.join().expect("step worker")).collect()
    })
}

/// Marks a phase boundary on the chained lap clock: returns the
/// nanoseconds since the previous boundary and advances the chain. The
/// laps partition one interval on the monotonic clock, so their sum can
/// never exceed a stopwatch started before the chain and read after it.
fn lap(chain: &mut Option<Instant>) -> u64 {
    match chain {
        Some(prev) => {
            let now = Instant::now();
            let ns = now.duration_since(*prev).as_nanos() as u64;
            *chain = Some(now);
            ns
        }
        None => 0,
    }
}

impl Fleet {
    /// Builds and boots `cfg.nodes` identical nodes, each running `sources`
    /// under `cfg.protection`. One prototype system is built and booted,
    /// then cloned per node — machine state is a plain value, so every node
    /// starts bit-identical.
    ///
    /// # Errors
    ///
    /// [`LoadError`] if a module cannot be sandboxed or does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nodes` is zero or the prototype fails to boot.
    pub fn new(cfg: &FleetConfig, sources: &[ModuleSource]) -> Result<Fleet, LoadError> {
        assert!(cfg.nodes > 0, "a fleet needs at least one node");
        let mut proto = SosSystem::build(cfg.protection, sources, |a, api| {
            api.run_scheduler(a);
            a.brk();
        })?;
        proto.boot().expect("prototype boots");
        proto.set_load_policy(cfg.load_policy);
        // Enable on the *prototype*, before cloning: priming decodes the
        // flash image once, and every node then shares it behind an `Arc`.
        // Only ever enable here — a system built under `HARBOR_TURBO=1`
        // already carries an engine, so the CI matrix leg covers the fleet
        // path too.
        // Prove before turbo: the decoded pages bake the elision bit, so
        // the map must be published before the engine primes.
        if cfg.prove && !proto.prove_enabled() {
            proto.set_prove(true);
        }
        if cfg.turbo && !proto.turbo_enabled() {
            proto.set_turbo(true);
        }
        let layout = proto.layout;
        let nodes: Vec<Node> = (0..cfg.nodes)
            .map(|i| {
                let mut sys = proto.clone();
                if let Some(spec) = cfg.scope {
                    sys.attach_scope(spec.build());
                }
                let mut node = Node::new(i as u32, cfg.seed, sys);
                node.cohort = i as u32 % cfg.cohorts.max(1);
                if let Some(bb) = cfg.blackbox {
                    let recorder = FlightRecorder::new(bb.recorder);
                    // An explicit scope spec wins; otherwise the recorder
                    // brings its own masked ring.
                    if cfg.scope.is_none() {
                        node.sys.attach_scope(recorder.sink());
                    }
                    node.recorder = Some(recorder);
                    node.watchdog = Some(Watchdog::new(i as u32, bb.watchdog));
                }
                node
            })
            .collect();
        let threads = match cfg.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        };
        Ok(Fleet {
            cfg: *cfg,
            threads,
            layout,
            wake: WakeSet::all(cfg.nodes),
            installs: Installs { has: vec![false; cfg.nodes], missing: 0 },
            cycles: cfg.pulse.then(|| CycleCache::new(&nodes)),
            nodes,
            radio: Radio::new(cfg.seed, cfg.nodes as u32, cfg.net),
            seeder: None,
            retired_seeder: None,
            rollouts: BTreeMap::new(),
            known_good: None,
            tower: cfg.tower.as_ref().map(Tower::new),
            pulse: cfg.pulse.then(Pulse::new),
            next_image_id: 1,
            round: 0,
        })
    }

    /// The layout shared by every node (for assembling images at the base
    /// station).
    pub fn layout(&self) -> SosLayout {
        self.layout
    }

    /// Protection build every node boots with.
    pub fn protection(&self) -> Protection {
        self.cfg.protection
    }

    /// The admission policy every node applies to disseminated modules.
    pub fn load_policy(&self) -> Option<mini_sos::LoadPolicy> {
        self.cfg.load_policy
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet is empty (never true — `new` requires a node).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rounds stepped so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Worker threads the step phase uses (resolved from the config).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Starts disseminating `image` from the base station: the seeder
    /// adverts + pushes the full chunked image next round, then serves
    /// NACK-driven retransmissions until the fleet converges. Returns the
    /// image id nodes will report.
    pub fn disseminate(&mut self, image: &ModuleImage) -> u16 {
        let id = self.next_image_id;
        self.next_image_id += 1;
        self.seed_image(id, image);
        id
    }

    /// Points the base station at `image` under an existing id. The
    /// seeder's causal identity (clock, log, sequence counter) outlives
    /// any one dissemination — a later image must not reuse
    /// `(SEEDER_ID, seq)` message identities or rewind the clock.
    fn seed_image(&mut self, id: u16, image: &ModuleImage) {
        let (clock, causal, seq) = match self.seeder.take() {
            Some(s) => (s.clock, s.causal, s.seq),
            None => match self.retired_seeder.take() {
                Some(identity) => identity,
                None => (LamportClock::new(), CausalLog::new(SEEDER_ID), 0),
            },
        };
        self.seeder = Some(Seeder {
            image_id: id,
            chunks: image.chunks(self.cfg.chunk_bytes),
            inbox: Vec::new(),
            pending: BTreeSet::new(),
            announced: false,
            clock,
            causal,
            seq,
        });
        self.recount_installs();
    }

    /// Recounts which nodes hold the seeder's current image: a full scan,
    /// run only when the image or the installs change fleet-wide
    /// (seeding, rollback, commit).
    fn recount_installs(&mut self) {
        let id = self.seeder.as_ref().map(|s| s.image_id);
        let mut missing = 0;
        for (has, node) in self.installs.has.iter_mut().zip(&self.nodes) {
            *has = id.is_some_and(|id| node.has_installed(id));
            missing += usize::from(!*has);
        }
        self.installs.missing = if id.is_some() { missing } else { 0 };
    }

    /// Quiesces the base station, preserving its causal identity for the
    /// next dissemination. Called when a rollout commits (the fleet has
    /// the image) or rolls back (nobody should keep downloading it).
    fn retire_seeder(&mut self) {
        if let Some(s) = self.seeder.take() {
            self.retired_seeder = Some((s.clock, s.causal, s.seq));
        }
    }

    /// Starts a *staged* dissemination of `image`: only nodes in
    /// `cohorts` may download and flash it; every other node is gated
    /// ineligible and ignores the image's adverts and chunks. Each
    /// eligible node checkpoints its machine immediately before flashing,
    /// so [`Fleet::rollback_rollout`] can restore the exact pre-rollout
    /// state. Returns the image id. Gating is host-side management (not
    /// radio traffic): an ungated fleet run is byte-identical to one that
    /// never used rollouts.
    pub fn begin_rollout(&mut self, image: &ModuleImage, cohorts: &[u32]) -> u16 {
        let id = self.disseminate(image);
        self.rollouts.insert(id, image.clone());
        for node in &mut self.nodes {
            let eligible = cohorts.contains(&node.cohort);
            node.arm_rollout(id, eligible);
        }
        self.wake.wake_all();
        id
    }

    /// Widens rollout `id` to `cohorts` (a stage promotion): newly
    /// eligible nodes get their stage grant, and the base station
    /// re-pushes the full image so they hear an advert without waiting
    /// for the periodic re-advert.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a retained rollout image.
    pub fn extend_rollout(&mut self, id: u16, cohorts: &[u32]) {
        for node in &mut self.nodes {
            if cohorts.contains(&node.cohort) {
                node.arm_rollout(id, true);
            }
        }
        self.wake.wake_all();
        match &mut self.seeder {
            Some(s) if s.image_id == id => s.announced = false,
            _ => {
                let image = self.rollouts.get(&id).expect("rollout image retained").clone();
                self.seed_image(id, &image);
            }
        }
    }

    /// Rolls back rollout `id` fleet-wide: the seeder stops serving the
    /// image, every node that flashed it restores its pre-flash
    /// checkpoint (landing on the exact pre-rollout flash generation),
    /// and every node quarantines the id so still-circulating chunks are
    /// never reassembled.
    pub fn rollback_rollout(&mut self, id: u16) {
        if self.seeder.as_ref().is_some_and(|s| s.image_id == id) {
            self.retire_seeder();
        }
        for node in &mut self.nodes {
            node.rollback_rollout(id);
        }
        self.wake.wake_all();
        self.recount_installs();
        self.rollouts.remove(&id);
    }

    /// Commits rollout `id` as the fleet's known-good image: checkpoints
    /// and gates are dropped, the seeder retires, and the image is
    /// retained for future reference ([`Fleet::known_good_image`]).
    pub fn commit_rollout(&mut self, id: u16) {
        if self.seeder.as_ref().is_some_and(|s| s.image_id == id) {
            self.retire_seeder();
        }
        for node in &mut self.nodes {
            node.commit_rollout(id);
        }
        self.wake.wake_all();
        self.recount_installs();
        if let Some(prev) = self.known_good.replace(id) {
            if prev != id {
                self.rollouts.remove(&prev);
            }
        }
    }

    /// The last committed rollout image id, if any rollout ever committed.
    pub fn known_good(&self) -> Option<u16> {
        self.known_good
    }

    /// The last committed rollout image (retained at commit).
    pub fn known_good_image(&self) -> Option<&ModuleImage> {
        self.known_good.and_then(|id| self.rollouts.get(&id))
    }

    /// Cohort count the fleet was built with (≥ 1).
    pub fn cohorts(&self) -> u32 {
        self.cfg.cohorts.max(1)
    }

    /// Whether every node has installed the image under dissemination
    /// (vacuously true with no seeder).
    pub fn converged(&self) -> bool {
        self.installs.missing == 0
    }

    /// Host-side message injection on one node (a local sensor event).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn post(&mut self, node: usize, dom: DomainId, msg: u8) {
        self.nodes[node].post(dom, msg);
        self.wake.wake(node);
    }

    /// Host-side message injection on every node.
    pub fn post_all(&mut self, dom: DomainId, msg: u8) {
        for node in &mut self.nodes {
            node.post(dom, msg);
        }
        self.wake.wake_all();
    }

    /// Runs `f` against one node (host-side inspection or injection).
    /// The node may have been changed, so it steps next round.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn with_node<R>(&mut self, node: usize, f: impl FnOnce(&mut Node) -> R) -> R {
        let out = f(&mut self.nodes[node]);
        self.wake.wake(node);
        if let Some(s) = &self.seeder {
            self.installs.note(node, self.nodes[node].has_installed(s.image_id));
        }
        out
    }

    /// One simulation round: deliver → step (parallel) → collect → feed.
    pub fn step_round(&mut self) {
        let round = self.round;
        // Pulse timing: a whole-round stopwatch anchored *before* the lap
        // chain starts and read *after* its last boundary, so
        // `Σ phase_ns <= wall_ns` holds by clock monotonicity — the gap is
        // the unattributed slack `harbor-pulse --check` gates on.
        let wall = self.pulse.as_ref().map(|_| Instant::now());
        let mut chain = wall.map(|_| Instant::now());
        let mut phase_ns = [0u64; Phase::COUNT];

        // Phase 1 (serial): deliveries and the seeder's transmissions.
        for (dest, env) in self.radio.take_due(round) {
            if dest == SEEDER {
                if let Some(seeder) = &mut self.seeder {
                    seeder.inbox.push(env);
                }
            } else if let Some(node) = self.nodes.get_mut(dest as usize) {
                node.inbox.push(env);
                self.wake.wake(dest as usize);
            }
        }
        if let Some(seeder) = &mut self.seeder {
            seeder.step(round, &mut self.radio);
        }
        phase_ns[Phase::Deliver as usize] = lap(&mut chain);

        // Phase 2 (parallel): step the busy nodes.
        let busy = self.wake.take();
        let mut stepped = vec![Stepped::default(); busy.len()];
        let mut stats = self.step_nodes(round, &busy, &mut stepped);
        phase_ns[Phase::Step as usize] = lap(&mut chain);

        // Phase 3 (serial): collect the stepped nodes' outboxes in node-id
        // order so the radio's RNG sees a schedule-independent draw order,
        // and wake every node that still has work — or a watchdog, whose
        // rolling windows take one sample per round. A step never
        // uninstalls, so only fresh installs move the install count.
        for (&i, s) in busy.iter().zip(&stepped) {
            if s.sends {
                for (to, env) in std::mem::take(&mut self.nodes[i].outbox) {
                    self.radio.send(round, to, env);
                }
            }
            if s.again {
                self.wake.wake(i);
            }
            if s.installed {
                self.installs.note(i, true);
            }
            if let Some(cache) = &mut self.cycles {
                cache.update(i, s.cycles);
            }
        }
        if let (Some(stats), Some(cache)) = (&mut stats, &self.cycles) {
            stats.cycles_total = cache.total;
            stats.cycles_frontier = cache.frontier;
        }
        phase_ns[Phase::Collect as usize] = lap(&mut chain);

        // Phase 4 (serial): feed the tower in node-id order. Ingestion is
        // order-insensitive within a round (every aggregate is a sum), but
        // a fixed order keeps the phase schedule-independent by
        // construction, like phase 3.
        if self.tower.is_some() {
            self.feed_tower(round, true);
        }
        phase_ns[Phase::Feed as usize] = lap(&mut chain);

        if let (Some(pulse), Some(wall)) = (&mut self.pulse, wall) {
            let wall_ns = wall.elapsed().as_nanos() as u64;
            pulse.record_round(round, RoundTiming { wall_ns, phase_ns }, stats.unwrap_or_default());
        }

        self.round += 1;
    }

    /// Streams every node's counter deltas, fresh postmortem dumps and
    /// fresh watchdog alerts into the tower. `is_round` marks a real
    /// round boundary; a residual drain (host posts after the last round)
    /// adjusts totals without counting as a node-round sample. Every node
    /// is fed, stepped or not: a tower sample counts node-rounds.
    fn feed_tower(&mut self, round: u64, is_round: bool) {
        let Some(tower) = &mut self.tower else { return };
        for node in &mut self.nodes {
            let sample = node.tower_sample(round, is_round);
            if is_round || !sample.deltas.is_zero() {
                tower.ingest(&sample);
            }
            for dump in node.unrouted_dumps() {
                tower.ingest_dump(node.cohort, &dump);
            }
            for alert in node.unrouted_alerts() {
                tower.ingest_alert(alert.node, node.cohort, alert.kind.index());
            }
        }
    }

    /// Steps the `busy` nodes (ascending ids), filling `out` in the same
    /// order; with pulse attached, also returns the worker stats and the
    /// ledger (the cycle fields are filled in by the collect phase). Worker
    /// count follows the busy set, so a round with nothing to do spawns no
    /// thread.
    fn step_nodes(&mut self, round: u64, busy: &[usize], out: &mut [Stepped]) -> Option<StepStats> {
        let budget = self.cfg.cycle_budget;
        let image = self.seeder.as_ref().map(|s| s.image_id);
        let step = |node: &mut Node| {
            node.step(round, budget);
            Stepped {
                sends: !node.outbox.is_empty(),
                again: node.watchdog.is_some() || node.pending_work().any(),
                installed: image.is_some_and(|id| node.has_installed(id)),
                cycles: node.sys.cycles(),
            }
        };
        let workers = self.threads.min(busy.len().div_ceil(BATCH));
        let mut nodes = pick(&mut self.nodes, busy);
        if self.pulse.is_none() {
            step_batches(&mut nodes, out, workers, || (), step);
            return None;
        }
        // Taken after the deliver-phase lap boundary, so every worker's
        // `finish_ns` is bounded by the step-phase lap.
        let anchor = Instant::now();
        let mut stats = StepStats::default();
        for probe in step_batches(&mut nodes, out, workers, || PulseProbe::new(anchor), step) {
            if probe.stat.nodes > 0 {
                stats.workers.push(probe.stat);
                stats.ledger.merge(&probe.ledger);
            }
        }
        // The ledger classifies every node: a skipped node had no pending
        // work (nothing woke it), so it counts as classified and idle.
        stats.ledger.stepped += (self.nodes.len() - busy.len()) as u64;
        Some(stats)
    }

    /// Steps `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step_round();
        }
    }

    /// Steps until the fleet converges, up to `max_rounds`. Returns the
    /// round count at convergence.
    ///
    /// # Errors
    ///
    /// The fleet state (rounds stepped, nodes still missing the image) if
    /// the deadline passes without convergence.
    pub fn run_until_converged(&mut self, max_rounds: u64) -> Result<u64, String> {
        let deadline = self.round + max_rounds;
        while !self.converged() {
            if self.round >= deadline {
                let missing = self.installs.missing;
                return Err(format!(
                    "dissemination did not converge within {max_rounds} rounds \
                     ({missing}/{} nodes missing the image)",
                    self.nodes.len()
                ));
            }
            self.step_round();
        }
        Ok(self.round)
    }

    /// Snapshot of every counter in the run. When the config attached
    /// trace sinks, the per-node sinks are reduced into a fleet-wide
    /// [`crate::ScopeAggregate`] (per-kind sums plus sum/max/p99 of events
    /// recorded per node).
    pub fn telemetry(&mut self) -> FleetTelemetry {
        let traced = self.cfg.scope.is_some() || self.cfg.blackbox.is_some();
        let scope = traced.then(|| {
            let mut agg = crate::ScopeAggregate::default();
            let mut per_node_recorded = harbor_scope::CycleHistogram::new();
            for node in &self.nodes {
                let Some(sink) = node.sys.scope() else { continue };
                agg.recorded += sink.recorded();
                agg.dropped += sink.dropped();
                agg.max_recorded = agg.max_recorded.max(sink.recorded());
                per_node_recorded.observe(sink.recorded());
                for (total, n) in agg.kinds.iter_mut().zip(sink.kind_counts().as_array()) {
                    *total += n;
                }
            }
            agg.p99_recorded = per_node_recorded.quantile(9900);
            agg
        });
        let per_node: Vec<_> = self.nodes.iter().map(|n| n.telemetry.clone()).collect();
        let convergence_round = if self.seeder.is_some() && self.converged() {
            per_node.iter().filter_map(|n| n.installed_round).max()
        } else {
            None
        };
        FleetTelemetry {
            seed: self.cfg.seed,
            protection: format!("{:?}", self.cfg.protection),
            nodes: self.nodes.len(),
            rounds: self.round,
            threads: self.threads,
            convergence_round,
            packets_sent: self.radio.sent,
            packets_delivered: self.radio.delivered,
            packets_dropped: self.radio.dropped,
            scope,
            per_node,
        }
    }

    /// The merged telemetry rollup: per-cohort time series, health
    /// scores, top-K offenders and the dump index. `None` unless the
    /// config attached a tower. Drains any residual counter movement
    /// first (host-side posts after the last round), so the rollup's
    /// totals reconcile exactly against [`Fleet::telemetry`] at any
    /// point, not just on a round boundary.
    pub fn tower_rollup(&mut self) -> Option<FleetRollup> {
        self.tower.is_some().then(|| {
            let round = self.round;
            self.feed_tower(round, false);
            self.tower.as_ref().expect("tower attached").rollup()
        })
    }

    /// Snapshot of the pulse profiler: per-phase sketches, worker stats,
    /// the idle-work ledger and the retained round timeline. `None`
    /// unless the config set [`FleetConfig::pulse`].
    pub fn pulse_report(&self) -> Option<PulseReport> {
        self.pulse.as_ref().map(Pulse::report)
    }

    /// Channel counters without building full telemetry:
    /// `(sent, delivered, dropped, in_flight)`. `harbor-pulse` cross-checks
    /// the ledger's inbox counts against deliveries with this.
    pub fn radio_stats(&self) -> (u64, u64, u64, usize) {
        (self.radio.sent, self.radio.delivered, self.radio.dropped, self.radio.in_flight_count())
    }

    /// Every postmortem dump the fleet's flight recorders froze, sorted
    /// by `(node, fault cycle stamp)` — a total order independent of
    /// discovery order, so reports built from it are diffable. Empty
    /// unless the config enabled the blackbox.
    pub fn dumps(&mut self) -> Vec<Postmortem> {
        let mut dumps: Vec<Postmortem> = self
            .nodes
            .iter()
            .flat_map(|n| n.recorder.as_ref().map_or(Vec::new(), |r| r.dumps().to_vec()))
            .collect();
        dumps.sort_by_key(|d| (d.node, d.fault.cycles));
        dumps
    }

    /// Every causal log in the run: the nodes in id order, then the
    /// seeder's (if one disseminated). Feed to
    /// [`harbor_blackbox::check_monotone`] or
    /// [`harbor_blackbox::chrome_trace`].
    pub fn causal_logs(&mut self) -> Vec<CausalLog> {
        let mut logs: Vec<CausalLog> = self.nodes.iter().map(|n| n.causal.clone()).collect();
        if let Some(seeder) = &self.seeder {
            logs.push(seeder.causal.clone());
        } else if let Some((_, causal, _)) = &self.retired_seeder {
            logs.push(causal.clone());
        }
        logs
    }

    /// The fleet's happens-before DAG rendered as one multi-track Perfetto
    /// chrome-trace document with flow arrows on the message edges.
    pub fn causal_trace(&mut self) -> String {
        harbor_blackbox::chrome_trace(&self.causal_logs())
    }

    /// Every watchdog alert raised so far, in node-id order (each node's
    /// alerts in round order). Empty unless the config enabled the
    /// blackbox.
    pub fn alerts(&mut self) -> Vec<Alert> {
        self.nodes
            .iter()
            .flat_map(|n| n.watchdog.as_ref().map_or(Vec::new(), |w| w.alerts().to_vec()))
            .collect()
    }
}
