//! Busy-set stepping is exact: a fleet that steps only the nodes something
//! woke produces the same bytes as one that steps every node every round.
//!
//! The step-all oracle runs through the public API alone: handing a node
//! out via `Fleet::with_node` schedules it, so touching every node before
//! each round makes the fleet step all of them. Both fleets see the same
//! host posts (including a faulting Surge), the same staged rollout
//! (begin → extend → rollback or commit) and the same radio seed; their
//! telemetry and radio counters are compared after every round (and every
//! outbox is checked drained, a collect path both fleets share), and the
//! tower rollup, causal logs, alerts, postmortem dumps and pulse ledgers
//! at the end. A mismatch names the first differing round, node and field.
//!
//! Reproduce a failing case with `HARBOR_SEED=n cargo test --test
//! fleet_busy_set`; the `HARBOR_TURBO` / `HARBOR_PROVE` legs of
//! `scripts/ci.sh` rerun it on the fast engines.

mod common;

use common::{seed, Divergence};
use harbor::DomainId;
use harbor_blackbox::Postmortem;
use harbor_fleet::{
    BlackboxConfig, Fleet, FleetConfig, FleetTelemetry, ModuleImage, NetConfig, NodeTelemetry,
    TowerConfig,
};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

const ROUNDS: u64 = 40;
const BLINK_DOM: u8 = 0;
const SURGE_DOM: u8 = 3;
/// Tree Routing in Surge's lookup target domain: installing it cures the
/// faulting Surge, so a rollback (which uninstalls it) brings faults back.
const TREE_DOM: u8 = 2;

/// Default test seed; `HARBOR_SEED=n` overrides it for reproduction.
const SEED: u64 = 0xb05e;

/// One drawn case: the fleet shape and the host-side script.
#[derive(Debug, Clone)]
struct Case {
    cfg: FleetConfig,
    /// Per round: `(node, domain)` host posts; `None` posts to every node.
    posts: Vec<Vec<(Option<usize>, u8)>>,
    /// Rounds the rollout begins, extends, and resolves.
    rollout: (u64, u64, u64),
    commit: bool,
}

impl Case {
    #[allow(clippy::too_many_arguments)]
    fn draw(
        salt: u64,
        nodes: usize,
        threads: usize,
        protection: Protection,
        loss_pct: u32,
        observers: u8,
        commit: bool,
    ) -> Case {
        let seed = seed(SEED) ^ salt;
        let cfg = FleetConfig {
            nodes,
            protection,
            seed,
            net: NetConfig { loss: f64::from(loss_pct) / 100.0, ..NetConfig::default() },
            threads,
            cohorts: 3,
            scope: (observers & 1 != 0).then_some(harbor_scope::SinkSpec::Ring(32)),
            blackbox: (observers & 2 != 0).then(BlackboxConfig::default),
            tower: (observers & 4 != 0).then(TowerConfig::default),
            pulse: observers & 8 != 0,
            ..FleetConfig::default()
        };
        // Sparse, bursty host load, so most node-rounds are idle and the
        // busy set genuinely skips nodes.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6275_7379); // "busy"
        let posts = (0..ROUNDS)
            .map(|_| match rng.gen_range(0u32..10) {
                0 => vec![(None, BLINK_DOM)],
                1..=4 => (0..rng.gen_range(1usize..4))
                    .map(|_| {
                        let dom = if rng.gen_range(0u32..3) == 0 { SURGE_DOM } else { BLINK_DOM };
                        (Some(rng.gen_range(0..nodes)), dom)
                    })
                    .collect(),
                _ => Vec::new(),
            })
            .collect();
        let begin = rng.gen_range(2u64..10);
        let extend = begin + rng.gen_range(3u64..10);
        let resolve = extend + rng.gen_range(3u64..15);
        Case { cfg, posts, rollout: (begin, extend, resolve), commit }
    }
}

/// Applies round `r`'s host script to `fleet`.
fn script(case: &Case, fleet: &mut Fleet, image: &ModuleImage, id: &mut Option<u16>, r: u64) {
    for &(node, dom) in &case.posts[r as usize] {
        match node {
            Some(i) => fleet.post(i, DomainId::num(dom), MSG_TIMER),
            None => fleet.post_all(DomainId::num(dom), MSG_TIMER),
        }
    }
    let (begin, extend, resolve) = case.rollout;
    if r == begin {
        *id = Some(fleet.begin_rollout(image, &[0]));
    } else if r == extend {
        fleet.extend_rollout(id.expect("rollout begun"), &[0, 1]);
    } else if r == resolve {
        let id = id.expect("rollout begun");
        if case.commit {
            fleet.commit_rollout(id);
        } else {
            fleet.rollback_rollout(id);
        }
    }
}

fn node_json(t: &FleetTelemetry) -> Vec<String> {
    t.per_node.iter().map(NodeTelemetry::to_json).collect()
}

const COUNTERS: [&str; 5] = ["sent", "delivered", "dropped", "in_flight", "converged"];

/// Radio counters and convergence, named by [`COUNTERS`].
fn counters(fleet: &Fleet) -> [u64; 5] {
    let (sent, delivered, dropped, in_flight) = fleet.radio_stats();
    [sent, delivered, dropped, in_flight as u64, u64::from(fleet.converged())]
}

/// Runs `case` on a busy-set fleet and a step-all fleet in lockstep;
/// returns the first divergence, if any.
fn first_divergence(case: &Case) -> Option<Divergence> {
    let sources = [modules::blink(BLINK_DOM), modules::surge(SURGE_DOM, TREE_DOM)];
    let mut busy = Fleet::new(&case.cfg, &sources).expect("fleet builds");
    let mut all = Fleet::new(&case.cfg, &sources).expect("fleet builds");
    let image = ModuleImage::assemble(
        &modules::tree_routing(TREE_DOM),
        &busy.layout(),
        case.cfg.protection,
    )
    .expect("image assembles");
    let (mut busy_id, mut all_id) = (None, None);
    for r in 0..ROUNDS {
        script(case, &mut busy, &image, &mut busy_id, r);
        script(case, &mut all, &image, &mut all_id, r);
        // Handing every node out schedules all of them; it also checks that
        // the last collect drained every outbox, a path both fleets share.
        let undrained: Vec<usize> =
            (0..all.len()).filter(|&i| all.with_node(i, |n| !n.outbox.is_empty())).collect();
        assert!(undrained.is_empty(), "round {r}: outboxes of nodes {undrained:?} not drained");
        busy.step_round();
        all.step_round();
        let round = r + 1;
        let (bt, at) = (busy.telemetry(), all.telemetry());
        let d =
            common::per_node_json(round, "telemetry.per_node", &node_json(&bt), &node_json(&at))
                .or_else(|| {
                    common::json(round, "telemetry", &bt.comparable_json(), &at.comparable_json())
                })
                .or_else(|| {
                    common::counters(round, "fleet", &COUNTERS, &counters(&busy), &counters(&all))
                });
        if d.is_some() {
            return d;
        }
    }
    let round = ROUNDS;
    let rollup = |f: &mut Fleet| f.tower_rollup().map(|r| r.to_json()).unwrap_or_default();
    // Pulse's deterministic per-round fields: the ledger classifies every
    // node and the cycle cache stands in for a fleet rescan.
    let pulse = |f: &Fleet| {
        f.pulse_report().map_or(Vec::new(), |p| {
            let rounds = p.timeline.iter();
            rounds.map(|t| (t.ledger, t.cycles_delta, t.frontier_start, t.frontier_end)).collect()
        })
    };
    // Per-node causal records, then the seeder's log (last, if any).
    let causal = |f: &mut Fleet| f.causal_logs().into_iter().map(|l| l.records).collect::<Vec<_>>();
    let (bc, ac) = (causal(&mut busy), causal(&mut all));
    let nodes = case.cfg.nodes;
    common::json(round, "rollup", &rollup(&mut busy), &rollup(&mut all))
        .or_else(|| {
            common::items(round, "pulse.timeline", &pulse(&busy), &pulse(&all), |_, _| None)
        })
        .or_else(|| common::per_node_items(round, "causal", &bc[..nodes], &ac[..nodes]))
        .or_else(|| common::items(round, "causal.seeder", &bc[nodes..], &ac[nodes..], |_, _| None))
        .or_else(|| {
            common::items(round, "alerts", &busy.alerts(), &all.alerts(), |_, a| Some(a.node))
        })
        .or_else(|| {
            let (bd, ad) = (busy.dumps(), all.dumps());
            let json = |d: &[Postmortem]| d.iter().map(Postmortem::to_json).collect::<Vec<_>>();
            let node_of = |i: usize, _: &_| bd.get(i).or(ad.get(i)).map(|d| d.node);
            common::items(round, "dumps", &json(&bd), &json(&ad), node_of)
        })
}

/// The busy set really skips: on a quiet fleet (no seeder, no posts) only
/// the first round — every node starts woken — executes node steps, and
/// the ledger still classifies every node every round.
#[test]
fn quiet_rounds_execute_no_node_steps() {
    let cfg = FleetConfig {
        nodes: 16,
        seed: seed(SEED),
        threads: 2,
        pulse: true,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&cfg, &[modules::blink(BLINK_DOM)]).expect("fleet builds");
    fleet.run_rounds(4); // boot-time work drains
    let start = fleet.round();
    fleet.run_rounds(8);
    fleet.post(5, DomainId::num(BLINK_DOM), MSG_TIMER);
    fleet.step_round();
    let report = fleet.pulse_report().expect("pulse attached");
    for r in report.timeline.iter().filter(|r| r.round >= start) {
        let executed: u64 = r.workers.iter().map(|w| w.nodes).sum();
        let expect = u64::from(r.round == start + 8);
        assert_eq!(executed, expect, "round {}: {executed} node-steps executed", r.round);
        assert_eq!(r.ledger.stepped, 16, "round {}: every node classified", r.round);
        assert_eq!(r.ledger.busy, expect, "round {}: busy nodes", r.round);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Busy-set stepping ≡ step-all, for any fleet size, worker count,
    /// protection build, loss rate and observer set (scope ring,
    /// blackbox, tower, pulse), under random host posts and a staged
    /// rollout that either commits or rolls back mid-run.
    #[test]
    fn busy_set_matches_step_all(
        salt in 0u64..1_000_000,
        nodes in 1usize..97,
        threads in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        protection in prop_oneof![Just(Protection::None), Just(Protection::Umpu), Just(Protection::Sfi)],
        loss_pct in 0u32..40,
        observers in 0u8..16,
        commit in any::<bool>(),
    ) {
        let case = Case::draw(salt, nodes, threads, protection, loss_pct, observers, commit);
        let d = first_divergence(&case);
        prop_assert!(d.is_none(), "busy-set diverged from step-all at {}; case {:?}", d.unwrap(), case);
    }
}
