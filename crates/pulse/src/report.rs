//! The [`PulseReport`] snapshot: tables, timelines, JSON, and the
//! invariant check CI gates on.
//!
//! A report is a value — cloned sketches plus the retained timeline — so
//! rendering and reconciling never race the recorder. Everything textual
//! is deterministic given the measurements: fixed key order, integer-only
//! arithmetic, no floats (fractions are carried in per-myriad like the
//! rest of the workspace).

use crate::ledger::{LedgerTotals, RoundLedger};
use crate::probe::{Phase, RoundTiming, WorkerStat};
use harbor_tower::QuantileSketch;

/// One retained round, verbatim. Older rounds survive only inside the
/// report's sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// Fleet round number.
    pub round: u64,
    /// Phase-boundary timings.
    pub timing: RoundTiming,
    /// Idle-work ledger for the round.
    pub ledger: RoundLedger,
    /// Per-worker step-phase stats (one entry in serial runs, none on a
    /// round with no busy node).
    pub workers: Vec<WorkerStat>,
    /// Guest cycles executed fleet-wide this round.
    pub cycles_delta: u64,
    /// Guest-cycle frontier when the round began (shared Perfetto clock).
    pub frontier_start: u64,
    /// Guest-cycle frontier when the round ended; always `> frontier_start`.
    pub frontier_end: u64,
}

/// Integer summary of one sketch: the seven numbers every table column
/// and JSON leaf is built from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchStats {
    /// Observations folded in.
    pub count: u64,
    /// Exact sum of all observations.
    pub sum: u64,
    /// Exact integer mean (floor).
    pub mean: u64,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Median estimate (lower bucket bound, ≤ ~6% relative error).
    pub p50: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl SketchStats {
    /// Summarises a sketch.
    pub fn of(s: &QuantileSketch) -> SketchStats {
        SketchStats {
            count: s.count(),
            sum: s.sum(),
            mean: s.mean(),
            min: s.min(),
            max: s.max(),
            p50: s.quantile(5_000),
            p99: s.quantile(9_900),
        }
    }

    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
            self.count, self.sum, self.mean, self.min, self.max, self.p50, self.p99
        )
    }
}

/// One row of the per-phase table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Which phase.
    pub phase: Phase,
    /// Nanosecond stats over every recorded round.
    pub ns: SketchStats,
    /// Share of the total attributed time, per-myriad.
    pub share_pm: u64,
}

/// Snapshot of a [`crate::Pulse`] recorder.
#[derive(Debug, Clone)]
pub struct PulseReport {
    /// Rounds recorded.
    pub rounds: u64,
    /// Per-phase nanosecond sketches, indexed by [`Phase`] discriminant.
    pub phase: [QuantileSketch; Phase::COUNT],
    /// Whole-round wall-time sketch (independent stopwatch).
    pub wall: QuantileSketch,
    /// Unattributed gap per round: `wall - Σ phases`.
    pub gap: QuantileSketch,
    /// Per-worker busy nanoseconds (one observation per worker per round).
    pub busy: QuantileSketch,
    /// Per-worker barrier wait: step-phase wall minus the worker's finish.
    pub barrier: QuantileSketch,
    /// Load imbalance per round: busiest worker over mean busy, per-myriad
    /// (10000 = perfectly balanced; only recorded when workers > 1).
    pub imbalance_pm: QuantileSketch,
    /// Idle fraction per round, per-myriad.
    pub idle_pm: QuantileSketch,
    /// Guest cycles per host microsecond, per round.
    pub throughput: QuantileSketch,
    /// Whole-run ledger totals.
    pub ledger: LedgerTotals,
    /// Recent rounds, oldest first (bounded by
    /// [`RING_ROUNDS`](crate::probe::RING_ROUNDS)).
    pub timeline: Vec<RoundRecord>,
}

/// `123456789` → `"123,456,789"` (tables only; JSON stays bare).
fn commas(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Per-myriad → `"93.75%"` (two decimals, exact).
fn percent(pm: u64) -> String {
    format!("{}.{:02}%", pm / 100, pm % 100)
}

impl PulseReport {
    /// Per-phase rows in pipeline order, with each phase's share of the
    /// total attributed (non-gap) time.
    pub fn phase_stats(&self) -> [PhaseStats; Phase::COUNT] {
        let total: u64 = self.phase.iter().map(|s| s.sum()).sum();
        std::array::from_fn(|i| {
            let ns = SketchStats::of(&self.phase[i]);
            PhaseStats {
                phase: Phase::ALL[i],
                ns,
                share_pm: (ns.sum * 10_000).checked_div(total).unwrap_or(0),
            }
        })
    }

    /// The per-phase breakdown table plus the ledger and throughput
    /// summary lines — the default CLI output.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("rounds: {}\n", self.rounds));
        out.push_str(&format!(
            "{:<9} {:>7} {:>14} {:>12} {:>12} {:>12}\n",
            "phase", "share", "total ns", "mean ns", "p50 ns", "p99 ns"
        ));
        for row in self.phase_stats() {
            out.push_str(&format!(
                "{:<9} {:>7} {:>14} {:>12} {:>12} {:>12}\n",
                row.phase.name(),
                percent(row.share_pm),
                commas(row.ns.sum),
                commas(row.ns.mean),
                commas(row.ns.p50),
                commas(row.ns.p99),
            ));
        }
        let wall = SketchStats::of(&self.wall);
        let gap = SketchStats::of(&self.gap);
        out.push_str(&format!(
            "round wall: mean {} ns, p99 {} ns (unattributed gap mean {} ns)\n",
            commas(wall.mean),
            commas(wall.p99),
            commas(gap.mean)
        ));
        if self.barrier.count() > 0 {
            out.push_str(&format!(
                "worker busy: mean {} ns  barrier wait: mean {} ns, p99 {} ns\n",
                commas(self.busy.mean()),
                commas(self.barrier.mean()),
                commas(self.barrier.quantile(9_900))
            ));
        }
        if self.imbalance_pm.count() > 0 {
            out.push_str(&format!(
                "load imbalance (max/mean busy): p50 {}, p99 {}\n",
                percent(self.imbalance_pm.quantile(5_000)),
                percent(self.imbalance_pm.quantile(9_900))
            ));
        }
        out.push_str(&format!(
            "idle work: {} of {} node-steps idle ({}); inbox {}, ota {}, queue {}\n",
            commas(self.ledger.idle()),
            commas(self.ledger.stepped),
            percent(self.ledger.idle_per_myriad()),
            commas(self.ledger.inbox),
            commas(self.ledger.ota),
            commas(self.ledger.queue)
        ));
        out.push_str(&format!(
            "throughput: mean {} guest cycles per host µs (min {}, max {})\n",
            commas(self.throughput.mean()),
            commas(self.throughput.min()),
            commas(self.throughput.max())
        ));
        out
    }

    /// The idle-fraction timeline over the retained rounds: one line per
    /// round with a proportional bar, busy-reason counts and wall time.
    pub fn render_timeline(&self) -> String {
        const BAR: usize = 40;
        let mut out = String::new();
        out.push_str(&format!(
            "{:>7} {:<40} {:>7} {:>6} {:>6} {:>6} {:>12}\n",
            "round", "idle fraction", "idle%", "inbox", "ota", "queue", "wall ns"
        ));
        for r in &self.timeline {
            let pm = r.ledger.idle_per_myriad();
            let filled = (pm as usize * BAR) / 10_000;
            let mut bar = String::with_capacity(BAR);
            for i in 0..BAR {
                bar.push(if i < filled { '#' } else { '.' });
            }
            out.push_str(&format!(
                "{:>7} {:<40} {:>7} {:>6} {:>6} {:>6} {:>12}\n",
                r.round,
                bar,
                percent(pm),
                r.ledger.inbox,
                r.ledger.ota,
                r.ledger.queue,
                commas(r.timing.wall_ns)
            ));
        }
        out
    }

    /// Whole-run ledger totals as deterministic JSON. This is the string
    /// the serial≡parallel byte-identity test compares, so it must depend
    /// only on node state, never on timing.
    pub fn ledger_json(&self) -> String {
        self.ledger.to_json()
    }

    /// Full report as deterministic JSON (sketch summaries, ledger,
    /// retained timeline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"rounds\":{},", self.rounds));
        out.push_str("\"phases\":{");
        for (i, row) in self.phase_stats().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"share_pm\":{},\"ns\":{}}}",
                row.phase.name(),
                row.share_pm,
                row.ns.to_json()
            ));
        }
        out.push_str("},");
        out.push_str(&format!("\"wall_ns\":{},", SketchStats::of(&self.wall).to_json()));
        out.push_str(&format!("\"gap_ns\":{},", SketchStats::of(&self.gap).to_json()));
        out.push_str(&format!("\"worker_busy_ns\":{},", SketchStats::of(&self.busy).to_json()));
        out.push_str(&format!("\"barrier_ns\":{},", SketchStats::of(&self.barrier).to_json()));
        out.push_str(&format!(
            "\"imbalance_pm\":{},",
            SketchStats::of(&self.imbalance_pm).to_json()
        ));
        out.push_str(&format!("\"idle_pm\":{},", SketchStats::of(&self.idle_pm).to_json()));
        out.push_str(&format!(
            "\"cycles_per_us\":{},",
            SketchStats::of(&self.throughput).to_json()
        ));
        out.push_str(&format!("\"ledger\":{},", self.ledger.to_json()));
        out.push_str("\"timeline\":[");
        for (i, r) in self.timeline.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"round\":{},\"wall_ns\":{},\"phase_ns\":[{},{},{},{}],\
                 \"ledger\":{},\"workers\":{},\"cycles\":{},\
                 \"frontier\":[{},{}]}}",
                r.round,
                r.timing.wall_ns,
                r.timing.phase_ns[0],
                r.timing.phase_ns[1],
                r.timing.phase_ns[2],
                r.timing.phase_ns[3],
                r.ledger.to_json(),
                r.workers.len(),
                r.cycles_delta,
                r.frontier_start,
                r.frontier_end
            ));
        }
        out.push_str("]}");
        out
    }

    /// The timer-reconciliation and ledger-consistency invariants the
    /// `harbor-pulse --check` CI gate asserts. Returns every violation
    /// found (empty = pass).
    ///
    /// Hard invariants (guaranteed by construction; any violation is a
    /// recorder bug):
    /// * per round, `Σ phase_ns <= wall_ns` — the phase laps are
    ///   sub-intervals of the stopwatch interval on one monotonic clock;
    /// * per worker, `busy <= span <= finish <= step phase wall` — all
    ///   four are measured from the same phase anchor;
    /// * per round, `busy <= stepped` and `inbox + ota + queue >= busy` —
    ///   ledger counting identities;
    /// * per round, `frontier_start < frontier_end` — the shared Perfetto
    ///   clock always advances.
    ///
    /// Soft invariants (tolerance-gated; a violation means the
    /// instrumentation itself costs too much or the host was badly
    /// preempted between stamps):
    /// * mean unattributed gap ≤ max(5% of mean wall, 250 µs);
    /// * per retained round, gap ≤ max(50% of that round's wall, 5 ms).
    pub fn reconcile(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for r in &self.timeline {
            let sum = r.timing.phase_sum();
            if sum > r.timing.wall_ns {
                bad.push(format!(
                    "round {}: phase sum {} ns exceeds wall {} ns",
                    r.round, sum, r.timing.wall_ns
                ));
            }
            let step_ns = r.timing.phase_ns[Phase::Step as usize];
            for (w, stat) in r.workers.iter().enumerate() {
                if !(stat.busy_ns <= stat.span_ns
                    && stat.span_ns <= stat.finish_ns
                    && stat.finish_ns <= step_ns)
                {
                    bad.push(format!(
                        "round {} worker {}: busy {} / span {} / finish {} / step {} not monotone",
                        r.round, w, stat.busy_ns, stat.span_ns, stat.finish_ns, step_ns
                    ));
                }
            }
            let l = &r.ledger;
            if l.busy > l.stepped || l.inbox + l.ota + l.queue < l.busy {
                bad.push(format!("round {}: inconsistent ledger {}", r.round, l.to_json()));
            }
            if r.frontier_start >= r.frontier_end {
                bad.push(format!(
                    "round {}: frontier did not advance ({} -> {})",
                    r.round, r.frontier_start, r.frontier_end
                ));
            }
            let gap = r.timing.wall_ns.saturating_sub(sum);
            let budget = (r.timing.wall_ns / 2).max(5_000_000);
            if gap > budget {
                bad.push(format!(
                    "round {}: unattributed gap {} ns exceeds {} ns",
                    r.round, gap, budget
                ));
            }
        }
        let l = &self.ledger;
        if l.busy > l.stepped || l.inbox + l.ota + l.queue < l.busy {
            bad.push(format!("totals: inconsistent ledger {}", l.to_json()));
        }
        if self.wall.count() > 0 {
            let budget = (self.wall.mean() / 20).max(250_000);
            if self.gap.mean() > budget {
                bad.push(format!(
                    "mean unattributed gap {} ns exceeds {} ns (mean wall {} ns)",
                    self.gap.mean(),
                    budget,
                    self.wall.mean()
                ));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::PendingWork;
    use crate::probe::{Pulse, StepStats};

    fn sample_report() -> PulseReport {
        let mut p = Pulse::new();
        for round in 0..4u64 {
            let mut ledger = RoundLedger::default();
            for i in 0..8u64 {
                ledger.observe(PendingWork { inbox: i % 4 == 0, ..PendingWork::default() });
            }
            let stats = StepStats {
                workers: vec![
                    WorkerStat { nodes: 4, busy_ns: 700, span_ns: 800, finish_ns: 900 },
                    WorkerStat { nodes: 4, busy_ns: 500, span_ns: 600, finish_ns: 950 },
                ],
                ledger,
                cycles_total: (round + 1) * 4_000,
                cycles_frontier: (round + 1) * 500,
            };
            p.record_round(
                round,
                RoundTiming { wall_ns: 1_300, phase_ns: [100, 1_000, 150, 40] },
                stats,
            );
        }
        p.report()
    }

    #[test]
    fn shares_sum_close_to_whole() {
        let r = sample_report();
        let rows = r.phase_stats();
        let total_pm: u64 = rows.iter().map(|p| p.share_pm).sum();
        assert!((9_990..=10_000).contains(&total_pm), "shares sum to {total_pm}");
        assert_eq!(rows[Phase::Step as usize].ns.sum, 4_000);
        // Step dominates: 1000 of 1290 attributed ns.
        assert!(rows[Phase::Step as usize].share_pm > 7_000);
    }

    #[test]
    fn reconcile_passes_on_consistent_data() {
        let r = sample_report();
        let bad = r.reconcile();
        assert!(bad.is_empty(), "unexpected violations: {bad:?}");
    }

    #[test]
    fn reconcile_flags_phase_overflow_and_worker_order() {
        let mut r = sample_report();
        r.timeline[0].timing.wall_ns = 500; // phases sum to 1290
        r.timeline[1].workers[0].busy_ns = 10_000; // busy > span
        r.timeline[2].frontier_end = r.timeline[2].frontier_start;
        let bad = r.reconcile();
        assert_eq!(bad.len(), 3, "expected 3 violations: {bad:?}");
        assert!(bad[0].contains("exceeds wall"));
        assert!(bad[1].contains("not monotone"));
        assert!(bad[2].contains("frontier"));
    }

    #[test]
    fn reconcile_flags_excess_mean_gap() {
        let mut p = Pulse::new();
        for round in 0..3u64 {
            p.record_round(
                round,
                // 10 ms wall, only 1 ms attributed: gap 9 ms > max(5%, 250 µs)
                RoundTiming { wall_ns: 10_000_000, phase_ns: [0, 1_000_000, 0, 0] },
                StepStats {
                    workers: vec![WorkerStat {
                        nodes: 1,
                        busy_ns: 100,
                        span_ns: 100,
                        finish_ns: 100,
                    }],
                    ledger: RoundLedger { stepped: 1, busy: 0, inbox: 0, ota: 0, queue: 0 },
                    cycles_total: round * 100,
                    cycles_frontier: round * 100,
                },
            );
        }
        let bad = p.report().reconcile();
        assert!(
            bad.iter().any(|m| m.contains("mean unattributed gap")),
            "missing mean-gap violation: {bad:?}"
        );
        // Per-round soft gate also trips: 9 ms > max(50% of 10 ms, 5 ms).
        assert!(bad.iter().any(|m| m.contains("unattributed gap 9000000")));
    }

    #[test]
    fn json_and_tables_render() {
        let r = sample_report();
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"phases\":{\"deliver\":"));
        assert!(json.contains("\"ledger\":{\"stepped\":32,\"busy\":8,\"idle\":24"));
        assert!(json.contains("\"timeline\":[{\"round\":0,"));
        let table = r.render_table();
        assert!(table.contains("deliver"));
        assert!(table.contains("idle work: 24 of 32 node-steps idle (75.00%)"));
        let tl = r.render_timeline();
        assert_eq!(tl.lines().count(), 1 + 4);
        assert!(tl.contains("75.00%"));
    }
}
