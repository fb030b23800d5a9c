//! One sensor node: a [`SosSystem`] wrapped with a radio inbox/outbox, the
//! dissemination state machine and per-node telemetry.
//!
//! A node only ever touches its own state during the fleet's parallel phase
//! — incoming packets are staged into `inbox` by the serial deliver phase,
//! and outgoing packets accumulate in `outbox` until the serial collect
//! phase drains them onto the radio. That discipline is what lets hundreds
//! of nodes step on worker threads while staying bit-identical to a serial
//! run.

use crate::image::ModuleImage;
use crate::net::{Envelope, NodeId, Packet, SEEDER};
use crate::telemetry::NodeTelemetry;
use avr_core::Fault;
use harbor::DomainId;
use harbor_blackbox::{
    CausalKind, CausalLog, CausalRecord, FlightRecorder, LamportClock, Watchdog,
};
use harbor_scope::ScopeSink;
use mini_sos::SosSystem;
use rand::{Rng, SeedableRng, StdRng};
use std::collections::BTreeMap;

/// Most chunk indices listed in a single retransmission request.
const MAX_REQUEST: usize = 16;

/// Retransmission backoff cap, in rounds.
const MAX_BACKOFF: u64 = 32;

/// In-progress reassembly of one disseminated image.
#[derive(Debug, Clone)]
struct Dissem {
    module: u16,
    chunks: Vec<Option<Vec<u8>>>,
    have: usize,
    backoff: u64,
    next_request: u64,
}

impl Dissem {
    fn new(module: u16, total: u16, round: u64) -> Dissem {
        Dissem {
            module,
            chunks: vec![None; total as usize],
            have: 0,
            backoff: 1,
            next_request: round + 2,
        }
    }

    fn missing(&self) -> Vec<u16> {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| i as u16)
            .take(MAX_REQUEST)
            .collect()
    }
}

/// One simulated sensor node.
#[derive(Debug)]
pub struct Node {
    /// Node id (also its radio address).
    pub id: u32,
    /// Cohort tag for fleet rollups (assigned by the fleet at build:
    /// `id % cohorts`). Purely observational — nodes in different cohorts
    /// run identical code; the tag only groups their telemetry.
    pub cohort: u32,
    /// The node's simulated processor + kernel + modules.
    pub sys: SosSystem,
    /// This node's counters.
    pub telemetry: NodeTelemetry,
    /// Frames delivered this round (staged by the fleet's serial phase).
    pub inbox: Vec<Envelope>,
    /// Frames to transmit (drained by the fleet's serial phase).
    pub outbox: Vec<(NodeId, Envelope)>,
    /// The node's Lamport clock: ticks on send, max-merges on receive, so
    /// every stamp respects happens-before across the whole fleet.
    pub clock: LamportClock,
    /// Causal log of every send, receive and local milestone on this node.
    pub causal: CausalLog,
    /// Optional flight recorder (set by the fleet's blackbox config).
    pub recorder: Option<FlightRecorder>,
    /// Optional anomaly watchdog (set by the fleet's blackbox config).
    pub watchdog: Option<Watchdog>,
    seq: u64,
    /// Plain mirror of the `fleet.faults` metric: the watchdog reads this
    /// every round, and a string-keyed counter lookup is too slow for that
    /// path.
    faults: u64,
    // Elided-store total already mirrored into the metrics registry (the
    // env counter is cumulative; the metric is fed by delta so clones of a
    // warm prototype start clean).
    elided_seen: u64,
    // Cumulative totals already fed to the tower (delta baseline) plus
    // high-water marks for dump/alert routing. All zero until the fleet's
    // feed phase touches them; a tower-less run never does.
    tower_prev: harbor_tower::CounterSet,
    dumps_fed: usize,
    alerts_fed: usize,
    dissem: Option<Dissem>,
    installed: Vec<u16>,
    quarantined: Vec<u16>,
    // Rollout gate: image id → eligibility under the current stage grant.
    // Managed host-side by the fleet's rollout APIs (never over the radio),
    // so an ungated fleet behaves byte-identically to one with no
    // controller attached. An ineligible entry makes the node ignore the
    // image's adverts and chunks until a later stage grants it.
    gate: BTreeMap<u16, bool>,
    // Pre-flash checkpoint of the whole machine, taken immediately before
    // a gated rollout image is burned. Restoring it is what makes
    // auto-rollback land on the *exact* pre-rollout flash generation.
    checkpoint: Option<(u16, Box<SosSystem>)>,
    rng: StdRng,
}

impl Node {
    /// Wraps a booted system as node `id`. The node's private generator
    /// (request jitter) derives from `(fleet_seed, id)` only.
    pub fn new(id: u32, fleet_seed: u64, sys: SosSystem) -> Node {
        Node {
            id,
            cohort: 0,
            sys,
            telemetry: NodeTelemetry { id, ..NodeTelemetry::default() },
            inbox: Vec::new(),
            outbox: Vec::new(),
            clock: LamportClock::new(),
            causal: CausalLog::new(id),
            recorder: None,
            watchdog: None,
            seq: 0,
            faults: 0,
            elided_seen: 0,
            tower_prev: harbor_tower::CounterSet::default(),
            dumps_fed: 0,
            alerts_fed: 0,
            dissem: None,
            installed: Vec::new(),
            quarantined: Vec::new(),
            gate: BTreeMap::new(),
            checkpoint: None,
            rng: StdRng::seed_from_u64(
                fleet_seed ^ (id as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
        }
    }

    /// Whether the node has installed disseminated image `module`.
    pub fn has_installed(&self, module: u16) -> bool {
        self.installed.contains(&module)
    }

    /// Whether the node rejected disseminated image `module` under its
    /// load policy (the image completed reassembly but was never burned).
    pub fn has_quarantined(&self, module: u16) -> bool {
        self.quarantined.contains(&module)
    }

    /// An image the node is done with — installed *or* quarantined — is
    /// never re-downloaded.
    fn has_resolved(&self, module: u16) -> bool {
        self.has_installed(module) || self.has_quarantined(module)
    }

    /// Whether a rollout gate exists for `module` and marks this node
    /// ineligible — adverts and chunks for the image are then ignored, so
    /// a staged canary never reaches cohorts outside its grant.
    fn rollout_blocked(&self, module: u16) -> bool {
        self.gate.get(&module).is_some_and(|&eligible| !eligible)
    }

    /// Registers (or widens) a rollout gate for `module`. `eligible`
    /// nodes may download and flash the image — a flip from ineligible to
    /// eligible is a stage grant and counts toward `helm.stages_promoted`.
    /// Gates never narrow: once granted, a node stays eligible.
    pub(crate) fn arm_rollout(&mut self, module: u16, eligible: bool) {
        let was = self.gate.get(&module).copied().unwrap_or(false);
        if eligible && !was {
            self.telemetry.metrics.inc("helm.stages_promoted", 1);
        }
        self.gate.insert(module, was || eligible);
    }

    /// Rolls back rollout image `module`: restores the pre-flash
    /// checkpoint (if this node burned the image), quarantines the id so
    /// still-circulating chunks are never reassembled, and drops any
    /// in-progress download. Restoring the checkpoint rewinds the whole
    /// machine — flash, flash generation, cycle counters — to the instant
    /// before the install.
    pub(crate) fn rollback_rollout(&mut self, module: u16) {
        if self.dissem.as_ref().is_some_and(|d| d.module == module) {
            self.dissem = None;
        }
        self.gate.remove(&module);
        if !self.quarantined.contains(&module) {
            self.quarantined.push(module);
        }
        if self.checkpoint.as_ref().is_some_and(|(id, _)| *id == module) {
            let (_, sys) = self.checkpoint.take().expect("checkpoint present");
            self.sys = *sys;
            self.installed.retain(|&m| m != module);
            self.telemetry.installed_round = None;
            self.telemetry.metrics.inc("helm.rollbacks", 1);
        }
    }

    /// Commits rollout image `module`: the checkpoint (and the gate) are
    /// no longer needed — the image is the fleet's known-good.
    pub(crate) fn commit_rollout(&mut self, module: u16) {
        self.gate.remove(&module);
        if self.checkpoint.as_ref().is_some_and(|(id, _)| *id == module) {
            self.checkpoint = None;
        }
    }

    /// Host-side message injection (a local sensor event): posts `msg` to
    /// `dom`'s handler, counting queue overflow instead of panicking.
    pub fn post(&mut self, dom: DomainId, msg: u8) {
        if self.sys.try_post(dom, msg) {
            self.telemetry.messages += 1;
        } else {
            self.telemetry.queue_drops += 1;
        }
    }

    /// Queues a packet for transmission: ticks the Lamport clock, stamps
    /// the envelope with this node's next `(from, seq)` message identity,
    /// logs the send in the causal log, and counts it.
    fn transmit(&mut self, round: u64, to: NodeId, packet: Packet) {
        self.telemetry.tx += 1;
        let lamport = self.clock.tick();
        let seq = self.seq;
        self.seq += 1;
        self.causal.push(CausalRecord {
            lamport,
            round,
            kind: CausalKind::Send,
            peer: to,
            from: self.id,
            seq,
            label: packet.label(),
        });
        self.outbox.push((to, Envelope { from: self.id, seq, lamport, packet }));
    }

    /// Classifies this node's pending work for the idle-work ledger — a
    /// pure function of node state (inbox, OTA reassembly, kernel queue),
    /// never of the schedule, so serial and parallel runs classify
    /// identically. The fleet reads it after every step: a node with
    /// pending work stays scheduled for the next round, and one without is
    /// skipped until something wakes it. With pulse attached the fleet
    /// also classifies each stepped node immediately before
    /// [`Node::step`].
    pub fn pending_work(&self) -> harbor_pulse::PendingWork {
        harbor_pulse::PendingWork {
            inbox: !self.inbox.is_empty(),
            ota: self.dissem.is_some(),
            queue: self.sys.queue_len() > 0,
        }
    }

    /// One simulation round: consume the inbox, advance dissemination
    /// (NACK missing chunks with exponential backoff), and run the node's
    /// CPU for up to `cycle_budget` cycles if work is queued. Faults are
    /// recovered kernel-side, mirroring the paper's clean-restart story.
    pub fn step(&mut self, round: u64, cycle_budget: u64) {
        for env in std::mem::take(&mut self.inbox) {
            self.telemetry.rx += 1;
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
            self.receive(round, env.packet);
        }

        // NACK phase: if reassembly has stalled, ask the seeder for what is
        // still missing, backing off exponentially (with per-node jitter so
        // a whole fleet does not synchronize its requests).
        if let Some(d) = &mut self.dissem {
            if round >= d.next_request {
                let missing = d.missing();
                if !missing.is_empty() {
                    let module = d.module;
                    d.backoff = (d.backoff * 2).min(MAX_BACKOFF);
                    let jitter = self.rng.gen_range(0..d.backoff / 2 + 1);
                    d.next_request = round + d.backoff + jitter;
                    self.telemetry.requests += 1;
                    self.transmit(round, SEEDER, Packet::Request { module, missing });
                }
            }
        }

        if self.sys.queue_len() > 0 {
            match self.sys.run_slice(cycle_budget) {
                Ok(_) => {}
                Err(fault) => {
                    self.faults += 1;
                    self.telemetry.metrics.inc("fleet.faults", 1);
                    if matches!(fault, Fault::Env(_)) {
                        self.telemetry.metrics.inc("fleet.contained", 1);
                    }
                    // Freeze the postmortem *before* recovery, while the
                    // architectural state still shows the fault; the fault
                    // is also a local milestone on the causal trace.
                    let lamport = self.clock.tick();
                    self.causal.push(CausalRecord {
                        lamport,
                        round,
                        kind: CausalKind::Local,
                        peer: self.id,
                        from: self.id,
                        seq: 0,
                        label: "fault",
                    });
                    if let Some(rec) = &mut self.recorder {
                        rec.freeze(&self.sys, self.id, round, lamport);
                    }
                    self.sys.recover_from_fault();
                    self.telemetry.metrics.inc("fleet.recoveries", 1);
                }
            }
        }

        if let Some(rec) = &mut self.recorder {
            rec.poll(&self.sys);
        }
        self.telemetry.cycles = self.sys.cycles();
        self.telemetry.idle_cycles = self.sys.idle_cycles();
        self.telemetry.instructions = self.sys.instructions();
        self.telemetry.ring_dropped = self.sys.scope().map_or(0, ScopeSink::dropped);
        // Mirror the env's elided-store total into the metrics registry by
        // delta; the key only ever appears once a store actually elides, so
        // non-prove runs keep an unchanged registry.
        let elided = self.sys.stores_elided();
        if elided > self.elided_seen {
            self.telemetry.metrics.inc("umpu.stores_elided", elided - self.elided_seen);
            self.elided_seen = elided;
        }
        if let Some(wd) = &mut self.watchdog {
            wd.observe(round, self.faults, self.telemetry.requests, self.telemetry.ring_dropped);
            self.telemetry.alerts = wd.alerts().len() as u64;
        }
    }

    /// Snapshot of this node's cumulative totals in tower vocabulary.
    fn tower_totals(&self) -> harbor_tower::CounterSet {
        harbor_tower::CounterSet {
            samples: 0, // set by the delta taker
            cycles: self.telemetry.cycles,
            idle_cycles: self.telemetry.idle_cycles,
            instructions: self.telemetry.instructions,
            rx: self.telemetry.rx,
            tx: self.telemetry.tx,
            messages: self.telemetry.messages,
            queue_drops: self.telemetry.queue_drops,
            chunks: self.telemetry.chunks,
            retransmits: self.telemetry.requests,
            faults: self.faults,
            contained: self.telemetry.contained(),
            recoveries: self.telemetry.recoveries(),
            quarantined: self.telemetry.quarantined(),
            installs: self.sys.modules_installed(),
            unloads: self.sys.modules_unloaded(),
            alerts: self.telemetry.alerts,
            dumps: self.recorder.as_ref().map_or(0, |r| r.dumps().len() as u64),
            ring_dropped: self.telemetry.ring_dropped,
            stores_elided: self.elided_seen,
            images_admitted: self.telemetry.metrics.counter("helm.images_admitted"),
            stages_promoted: self.telemetry.metrics.counter("helm.stages_promoted"),
            rollbacks: self.telemetry.metrics.counter("helm.rollbacks"),
        }
    }

    /// One [`harbor_tower::RoundSample`] for the fleet's feed phase: the
    /// delta of every cumulative counter since the previous sample. Pass
    /// `is_round: false` for a residual drain after the last round (counts
    /// host-side posts that landed after stepping; contributes no sample).
    pub fn tower_sample(&mut self, round: u64, is_round: bool) -> harbor_tower::RoundSample {
        let totals = self.tower_totals();
        let mut deltas = totals.delta(&self.tower_prev);
        self.tower_prev = totals;
        deltas.samples = u64::from(is_round);
        harbor_tower::RoundSample {
            node: self.id,
            cohort: self.cohort,
            round,
            deltas,
            faults_total: self.faults,
            alerts_total: self.telemetry.alerts,
        }
    }

    /// Postmortem dumps frozen since the last feed (tower routing).
    pub fn unrouted_dumps(&mut self) -> Vec<harbor_blackbox::Postmortem> {
        let Some(rec) = &self.recorder else { return Vec::new() };
        let dumps = rec.dumps();
        let fresh = dumps[self.dumps_fed.min(dumps.len())..].to_vec();
        self.dumps_fed = dumps.len();
        fresh
    }

    /// Watchdog alerts raised since the last feed (tower routing).
    pub fn unrouted_alerts(&mut self) -> Vec<harbor_blackbox::Alert> {
        let Some(wd) = &self.watchdog else { return Vec::new() };
        let alerts = wd.alerts();
        let fresh = alerts[self.alerts_fed.min(alerts.len())..].to_vec();
        self.alerts_fed = alerts.len();
        fresh
    }

    fn receive(&mut self, round: u64, packet: Packet) {
        match packet {
            Packet::Advert { module, total } => {
                if self.rollout_blocked(module) {
                    return;
                }
                if !self.has_resolved(module) && self.dissem.is_none() && total > 0 {
                    self.dissem = Some(Dissem::new(module, total, round));
                }
            }
            Packet::Chunk { module, seq, total, payload } => {
                if self.has_resolved(module) || self.rollout_blocked(module) {
                    return;
                }
                if self.dissem.is_none() && total > 0 {
                    self.dissem = Some(Dissem::new(module, total, round));
                }
                let Some(d) = &mut self.dissem else { return };
                if d.module != module || seq as usize >= d.chunks.len() {
                    return;
                }
                if d.chunks[seq as usize].is_none() {
                    d.chunks[seq as usize] = Some(payload);
                    d.have += 1;
                    self.telemetry.chunks += 1;
                    // Progress: restart the backoff clock.
                    d.backoff = 1;
                    d.next_request = round + 2;
                    if d.have == d.chunks.len() {
                        self.finish_dissemination(round);
                    }
                }
            }
            // Only the seeder answers retransmission requests.
            Packet::Request { .. } => {}
            Packet::Msg { dom, msg } => self.post(DomainId::num(dom), msg),
        }
    }

    /// All chunks present: reassemble, verify the checksum and install via
    /// the loader's normal path. A corrupted image restarts reassembly.
    fn finish_dissemination(&mut self, round: u64) {
        let d = self.dissem.as_mut().expect("dissemination in progress");
        let bytes: Vec<u8> =
            d.chunks.iter().flat_map(|c| c.as_deref().expect("complete")).copied().collect();
        match ModuleImage::from_bytes(&bytes) {
            Ok(image) => {
                let module = d.module;
                self.dissem = None;
                let loaded = image.to_loaded();
                // Admission gate, before flash: an image that does not fit
                // its domain's slot (or, under an SFI load policy, whose
                // certified stack bound exceeds the allotment) is
                // quarantined, not installed.
                if self.sys.admit_module(&loaded).is_err() {
                    self.quarantined.push(module);
                    self.telemetry.metrics.inc("fleet.quarantined", 1);
                    return;
                }
                // A gated rollout image checkpoints the machine before
                // flash is touched: rollback restores this clone, so the
                // node lands back on the exact pre-rollout flash generation.
                if self.gate.contains_key(&module) {
                    self.checkpoint = Some((module, Box::new(self.sys.clone())));
                    self.telemetry.metrics.inc("helm.images_admitted", 1);
                }
                self.sys.install_module(loaded);
                self.installed.push(module);
                self.telemetry.installed_round = Some(round);
            }
            Err(_) => {
                // The radio only drops packets, so this is defensive — but
                // a node must never burn a corrupted image into flash.
                for c in &mut d.chunks {
                    *c = None;
                }
                d.have = 0;
                d.backoff = 1;
                d.next_request = round + 1;
            }
        }
    }
}
