//! Portfolio search over iterative-deepening rungs, governed by a
//! per-goal **budget ledger**.
//!
//! The CLI used to walk the exploration-bound ladder sequentially:
//! shallow searches that exhaust their space hand the remaining budget to
//! the next rung. The engine turns the rungs of one goal into *competing
//! jobs* under a shared per-goal budget: every rung runs the same
//! deterministic single-rung search it would have run sequentially, and
//! the **lowest rung that solves wins**. When a rung wins, every deeper
//! sibling is cancelled through its [`CancellationToken`]; shallower
//! siblings are left to finish, because one of them could still produce a
//! better (lower-rung) winner.
//!
//! ## The ledger
//!
//! Budgets used to be a wall-clock deadline armed when the goal first got
//! a worker, with every rung's run bounded by "time until the deadline".
//! That had two failure modes the benchmark artifacts exposed: a doomed
//! shallow rung could silently eat the whole budget (the deepest rungs
//! were then declared "out of budget" after microsecond scraps, and the
//! goal reported a 0.5 s "timeout" of a 30 s budget), and nothing stopped
//! a rung from overshooting the deadline inside a long SMT call.
//!
//! The ledger instead tracks **consumption**: each rung attempt is
//! charged exactly the wall time it measured, and a rung may only claim a
//! bounded *slice* of what is left — on first attempt an even share,
//! `remaining / pending rungs` (the whole remainder for the last pending
//! rung), so an unknown-doomed shallow rung cannot eat the deeper rungs'
//! first chance. Slices are *reserved* while a rung runs so concurrent
//! attempts cannot overcommit the budget. A rung cut off at its slice is
//! not finished — it is re-queued and re-lent whatever budget its
//! *shallower* siblings leave behind ([`Portfolio::slice_for`]): once
//! everything shallower is settled, the lowest unfinished rung is the
//! sequential ladder's current position and inherits the remainder
//! outright (repeated attempts are cheap because the enumeration memo
//! and the shared validity cache are warm, but fewer, larger slices
//! still beat thrashing). A rung that finishes under its slice refunds
//! the rest by construction. Rungs that a completed failure *proves
//! equivalent* (see [`Portfolio::skippable`]) are skipped outright and
//! refund their whole slice.
//!
//! The outcome report is honest: a goal is `timed_out` only if some rung
//! actually ran out of the goal's budget, and the reported time is the
//! goal's total consumption — never a scrap measured by the last
//! unluckiest rung.

use crate::runner::RunResult;
use std::time::Duration;
use synquid_core::{CancellationToken, SynthesisStats};

/// The default exploration-bound ladder `(application depth, match
/// depth)`, shallowest first — the same rungs the sequential CLI used.
pub const DEFAULT_RUNGS: &[(usize, usize)] = &[(1, 0), (1, 1), (2, 1), (3, 1), (3, 2)];

/// How one rung of a goal's portfolio ended.
#[derive(Debug, Clone)]
pub enum RungOutcome {
    /// The rung ran to completion (solved or exhausted its search space);
    /// the result is the single-rung [`RunResult`] (boxed: the other
    /// variants are unit-sized and outcome vectors are long-lived).
    Finished(Box<RunResult>),
    /// The rung was cancelled before or while running because a
    /// shallower sibling won.
    Cancelled,
    /// A completed sibling failure proved this rung's search would be
    /// identical (see [`Portfolio::skippable`]); its slice was refunded.
    Skipped,
    /// The goal's budget was consumed before the rung could finish
    /// (pure budget exhaustion, no winner involved).
    OutOfBudget,
}

impl RungOutcome {
    /// Boxes a completed run into the [`RungOutcome::Finished`] variant.
    pub fn finished(result: RunResult) -> RungOutcome {
        RungOutcome::Finished(Box::new(result))
    }
}

/// Equivalence evidence extracted from a completed, genuinely failed
/// rung: its bounds plus the two "could a bigger bound matter?" flags the
/// synthesizer measured during the run.
#[derive(Debug, Clone, Copy)]
struct FailureEvidence {
    bounds: (usize, usize),
    /// The candidate universe was still growing at the run's maximum
    /// application depth.
    frontier_open: bool,
    /// A pattern match was declined because the match-depth bound ran
    /// out.
    match_bound_hit: bool,
}

/// Book-keeping for the portfolio of one goal: one slot and one
/// cancellation token per rung, plus the budget ledger.
#[derive(Debug)]
pub struct Portfolio {
    /// The exploration bounds of each rung, shallowest first.
    pub rungs: Vec<(usize, usize)>,
    /// Per-rung cancellation tokens (shared with the running worker).
    pub tokens: Vec<CancellationToken>,
    outcomes: Vec<Option<RungOutcome>>,
    in_flight: Vec<bool>,
    /// How many attempts each rung has started (a truncated rung is
    /// re-queued, so counts above one mean re-lent budget).
    attempts: Vec<usize>,
    budget: Duration,
    /// Wall time charged by completed (and truncated) rung attempts.
    consumed: Duration,
    /// Slices reserved by attempts currently running.
    reserved: Duration,
    /// Evidence from completed genuine failures, for skip decisions.
    failures: Vec<FailureEvidence>,
    /// When false, every claim gets the full remaining budget and no
    /// rung is ever skipped — the pre-ledger behaviour, kept for the
    /// shaping-parity regression tests.
    shaping: bool,
}

impl Portfolio {
    /// Creates the portfolio state for one goal.
    pub fn new(rungs: Vec<(usize, usize)>, budget: Duration) -> Portfolio {
        Portfolio::with_shaping(rungs, budget, true)
    }

    /// Creates the portfolio state, optionally with budget shaping
    /// (slicing + equivalence skipping) disabled.
    pub fn with_shaping(rungs: Vec<(usize, usize)>, budget: Duration, shaping: bool) -> Portfolio {
        let n = rungs.len();
        Portfolio {
            rungs,
            tokens: (0..n).map(|_| CancellationToken::new()).collect(),
            outcomes: vec![None; n],
            in_flight: vec![false; n],
            attempts: vec![0; n],
            budget,
            consumed: Duration::ZERO,
            reserved: Duration::ZERO,
            failures: Vec::new(),
            shaping,
        }
    }

    /// Total wall time charged to this goal so far.
    pub fn consumed(&self) -> Duration {
        self.consumed
    }

    /// Budget not yet consumed and not reserved by running attempts.
    pub fn available(&self) -> Duration {
        self.budget
            .saturating_sub(self.consumed)
            .saturating_sub(self.reserved)
    }

    /// The smallest slice worth starting a rung attempt for: below this,
    /// a claim is treated as budget exhaustion rather than thrashing
    /// through micro-slices.
    pub fn min_slice(&self) -> Duration {
        (self.budget / 16).min(Duration::from_millis(250))
    }

    /// Rungs with no final outcome that are not currently running.
    fn pending(&self) -> usize {
        self.outcomes
            .iter()
            .zip(&self.in_flight)
            .filter(|(o, f)| o.is_none() && !**f)
            .count()
    }

    /// True if any sibling attempt is currently running.
    pub fn any_in_flight(&self) -> bool {
        self.in_flight.iter().any(|f| *f)
    }

    /// The slice the next claim may reserve: an even share of the
    /// available budget across pending rungs, the whole remainder for the
    /// last one. Without shaping, always the whole remainder.
    pub fn slice(&self) -> Duration {
        let available = self.available();
        if !self.shaping {
            return available;
        }
        let pending = self.pending().max(1) as u32;
        if pending == 1 {
            available
        } else {
            available / pending
        }
    }

    /// The slice a claim on `rung` may reserve.
    ///
    /// A rung's *first* attempt gets the fair share of [`Portfolio::slice`]
    /// — an even split over all pending rungs, so an unknown-doomed
    /// shallow rung cannot silently eat the deeper rungs' first chance.
    /// A *retried* rung (truncated at an earlier slice) instead shares
    /// only with pending rungs **shallower** than itself: once every
    /// shallower sibling is settled, the lowest unfinished rung is the
    /// sequential ladder's current position and inherits the whole
    /// remainder — this is the "unsolved goals re-lend unused budget to
    /// deeper rungs" rule, and it keeps a budget-bound rung from being
    /// thrashed through ever-smaller slices (each re-run replays its
    /// memoized prefix, so fewer, larger slices waste less).
    pub fn slice_for(&self, rung: usize) -> Duration {
        let available = self.available();
        if !self.shaping || self.attempts[rung] == 0 {
            return self.slice();
        }
        let shallower_pending = self.outcomes[..rung]
            .iter()
            .zip(&self.in_flight)
            .filter(|(o, f)| o.is_none() && !**f)
            .count() as u32;
        available / (1 + shallower_pending)
    }

    /// Reserves `slice` for a starting attempt on `rung`.
    pub fn start(&mut self, rung: usize, slice: Duration) {
        debug_assert!(!self.in_flight[rung]);
        self.in_flight[rung] = true;
        self.attempts[rung] += 1;
        self.reserved += slice;
    }

    /// Settles a finished or truncated attempt on `rung`: the reservation
    /// is released and the measured wall time is charged to the ledger.
    pub fn settle(&mut self, rung: usize, slice: Duration, elapsed: Duration) {
        debug_assert!(self.in_flight[rung]);
        self.in_flight[rung] = false;
        self.reserved = self.reserved.saturating_sub(slice);
        self.consumed += elapsed;
    }

    /// True if some already-finished rung shallower than `rung` solved —
    /// meaning `rung` cannot win and need not run.
    pub fn is_dominated(&self, rung: usize) -> bool {
        self.outcomes[..rung]
            .iter()
            .any(|o| matches!(o, Some(RungOutcome::Finished(r)) if r.solved))
    }

    /// True if a completed genuine failure proves `rung`'s search would
    /// be identical, so running it cannot change the goal's outcome.
    ///
    /// A failed run at bounds `(a, m)` reports two facts: whether the
    /// candidate universe was still growing at application depth `a`
    /// (`frontier_open`), and whether the match-depth bound `m` ever
    /// declined a possible match (`match_bound_hit`). Generation at depth
    /// `d` extends the depth `d − 1` sets, so a closed frontier means
    /// every deeper depth enumerates the very same candidates; an unhit
    /// match bound means a deeper match bound changes nothing either.
    /// A later rung `(a', m')` with `a' ≥ a`, `m' ≥ m` therefore re-runs
    /// the identical deterministic search — and must fail identically —
    /// whenever each bound that actually differs is one the failed run
    /// proved irrelevant.
    pub fn skippable(&self, rung: usize) -> bool {
        if !self.shaping {
            return false;
        }
        let (a_j, m_j) = self.rungs[rung];
        self.failures.iter().any(|f| {
            let (a_i, m_i) = f.bounds;
            a_j >= a_i
                && m_j >= m_i
                && (a_j == a_i || !f.frontier_open)
                && (m_j == m_i || !f.match_bound_hit)
        })
    }

    /// Records a rung's final outcome. If the rung solved, all deeper
    /// rungs are cancelled (shallower ones keep running: one of them
    /// could still produce the winning, lower-rung solution). If it
    /// failed genuinely, its equivalence evidence is kept for skip
    /// decisions.
    pub fn record(&mut self, rung: usize, outcome: RungOutcome) {
        if let RungOutcome::Finished(r) = &outcome {
            if r.solved {
                for token in &self.tokens[rung + 1..] {
                    token.cancel();
                }
            } else if !r.timed_out {
                let stats = r.stats.unwrap_or(SynthesisStats {
                    // Without stats we cannot prove anything: treat both
                    // bounds as binding so nothing is skipped.
                    frontier_open: true,
                    match_bound_hit: true,
                    ..SynthesisStats::default()
                });
                self.failures.push(FailureEvidence {
                    bounds: self.rungs[rung],
                    frontier_open: stats.frontier_open,
                    match_bound_hit: stats.match_bound_hit,
                });
            }
        }
        self.outcomes[rung] = Some(outcome);
    }

    /// True once every rung has an outcome.
    pub fn is_complete(&self) -> bool {
        self.outcomes.iter().all(|o| o.is_some())
    }

    /// True if some rung ran out of the goal's budget — the only
    /// condition under which the goal may report a timeout.
    pub fn ran_out_of_budget(&self) -> bool {
        self.outcomes
            .iter()
            .any(|o| matches!(o, Some(RungOutcome::OutOfBudget)))
    }

    /// The verdict of a complete portfolio: the result of the *lowest*
    /// rung that solved, or — mirroring the sequential ladder's
    /// reporting — the deepest finished failure otherwise.
    ///
    /// Returns the result together with the winning rung's bounds (for
    /// solved goals).
    pub fn verdict(&self) -> (Option<&RunResult>, Option<(usize, usize)>) {
        for (i, outcome) in self.outcomes.iter().enumerate() {
            if let Some(RungOutcome::Finished(r)) = outcome {
                if r.solved {
                    return (Some(r), Some(self.rungs[i]));
                }
            }
        }
        let last_failure = self.outcomes.iter().rev().find_map(|o| match o {
            Some(RungOutcome::Finished(r)) => Some(r.as_ref()),
            _ => None,
        });
        (last_failure, None)
    }

    /// Number of rungs that actually ran to completion.
    pub fn rungs_run(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, Some(RungOutcome::Finished(_))))
            .count()
    }

    /// Number of rungs cancelled because a shallower sibling won.
    pub fn rungs_cancelled(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, Some(RungOutcome::Cancelled)))
            .count()
    }

    /// Number of rungs skipped because a completed failure proved them
    /// equivalent.
    pub fn rungs_skipped(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, Some(RungOutcome::Skipped)))
            .count()
    }

    /// Number of rungs that never finished because the goal's budget was
    /// consumed.
    pub fn rungs_out_of_budget(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, Some(RungOutcome::OutOfBudget)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, solved: bool) -> RunResult {
        RunResult {
            name: name.into(),
            solved,
            timed_out: false,
            time_secs: 0.0,
            program: solved.then(|| format!("{name}-program")),
            ast: None,
            code_size: None,
            stats: None,
        }
    }

    fn failure_with_flags(name: &str, frontier_open: bool, match_bound_hit: bool) -> RunResult {
        RunResult {
            stats: Some(SynthesisStats {
                frontier_open,
                match_bound_hit,
                ..SynthesisStats::default()
            }),
            ..result(name, false)
        }
    }

    #[test]
    fn lowest_solved_rung_wins_regardless_of_finish_order() {
        let mut p = Portfolio::new(DEFAULT_RUNGS.to_vec(), Duration::from_secs(10));
        // Deep rung finishes first and solves; shallow rung solves later.
        p.record(3, RungOutcome::finished(result("deep", true)));
        assert!(!p.is_dominated(0), "shallower rungs must keep running");
        assert!(p.is_dominated(4), "deeper rungs are dominated");
        assert!(p.tokens[4].is_cancelled(), "deeper rungs get cancelled");
        assert!(!p.tokens[2].is_cancelled());
        p.record(1, RungOutcome::finished(result("shallow", true)));
        p.record(0, RungOutcome::finished(result("r0", false)));
        p.record(2, RungOutcome::Cancelled);
        p.record(4, RungOutcome::Cancelled);
        assert!(p.is_complete());
        let (winner, rung) = p.verdict();
        assert_eq!(winner.unwrap().program.as_deref(), Some("shallow-program"));
        assert_eq!(rung, Some((1, 1)));
        assert_eq!(p.rungs_run(), 3);
        assert_eq!(p.rungs_cancelled(), 2);
    }

    #[test]
    fn all_failures_report_the_deepest_finished_rung() {
        let mut p = Portfolio::new(vec![(1, 0), (2, 1)], Duration::from_secs(10));
        p.record(0, RungOutcome::finished(result("r0", false)));
        p.record(1, RungOutcome::finished(result("r1", false)));
        let (verdict, rung) = p.verdict();
        assert_eq!(verdict.unwrap().name, "r1");
        assert_eq!(rung, None);
        assert!(!p.ran_out_of_budget(), "exhaustion is not budget overrun");
    }

    #[test]
    fn the_ledger_charges_measured_time_and_refunds_reservations() {
        let mut p = Portfolio::new(DEFAULT_RUNGS.to_vec(), Duration::from_secs(30));
        // First claim: an even share of the full budget.
        assert_eq!(p.slice(), Duration::from_secs(6));
        p.start(0, Duration::from_secs(6));
        assert_eq!(p.available(), Duration::from_secs(24));
        // The rung fails fast: only the measured time is charged; the
        // rest of its reservation flows back to the pool.
        p.settle(0, Duration::from_secs(6), Duration::from_millis(100));
        p.record(0, RungOutcome::finished(result("r0", false)));
        assert_eq!(p.consumed(), Duration::from_millis(100));
        // Four rungs remain: each share grew beyond the original 6 s.
        assert!(p.slice() > Duration::from_secs(7));
        // The last pending rung gets everything that is left.
        for r in 1..4 {
            p.record(r, RungOutcome::finished(result("r", false)));
        }
        assert_eq!(p.slice(), p.available());
    }

    #[test]
    fn closed_frontier_failures_prove_deeper_rungs_equivalent() {
        let mut p = Portfolio::new(DEFAULT_RUNGS.to_vec(), Duration::from_secs(30));
        // Rung (1, 0) fails with a closed frontier and no declined match:
        // every deeper rung would rerun the identical search.
        p.record(
            0,
            RungOutcome::finished(failure_with_flags("r0", false, false)),
        );
        for rung in 1..DEFAULT_RUNGS.len() {
            assert!(p.skippable(rung), "rung {rung} must be skippable");
        }
    }

    #[test]
    fn binding_bounds_block_the_skip() {
        let mut p = Portfolio::new(DEFAULT_RUNGS.to_vec(), Duration::from_secs(30));
        // (1, 0) failed, but a match was declined: only rungs with the
        // same match depth may be skipped (none in the ladder), and once
        // the frontier is open too, nothing may be.
        p.record(
            0,
            RungOutcome::finished(failure_with_flags("r0", false, true)),
        );
        assert!(!p.skippable(1), "deeper match depth could matter");
        p.record(
            1,
            RungOutcome::finished(failure_with_flags("r1", true, false)),
        );
        // (2, 1) has a deeper app depth than (1, 1) whose frontier is
        // open — not skippable; (3, 1) likewise.
        assert!(!p.skippable(2));
        assert!(!p.skippable(3));
        // A failure without stats proves nothing.
        let mut q = Portfolio::new(DEFAULT_RUNGS.to_vec(), Duration::from_secs(30));
        q.record(0, RungOutcome::finished(result("r0", false)));
        assert!(!q.skippable(1));
    }

    #[test]
    fn retried_rungs_inherit_the_ladder_remainder() {
        let mut p = Portfolio::new(DEFAULT_RUNGS.to_vec(), Duration::from_secs(30));
        // First claims get the fair even share.
        assert_eq!(p.slice_for(2), Duration::from_secs(6));
        // Rungs 0–2 settle (0 and 1 finish, 2 is truncated at its slice).
        for rung in 0..2 {
            p.start(rung, Duration::from_secs(6));
            p.settle(rung, Duration::from_secs(6), Duration::from_millis(500));
            p.record(rung, RungOutcome::finished(result("r", false)));
        }
        p.start(2, Duration::from_secs(9));
        p.settle(2, Duration::from_secs(9), Duration::from_secs(9));
        // Rung 2's retry shares with no shallower pending rung: the whole
        // 20 s remainder is re-lent to it, not split with rungs 3 and 4
        // (which still get their fair first share if rung 2 exhausts).
        assert_eq!(p.slice_for(2), Duration::from_secs(20));
        // Rungs 3 and 4 have not started: their first claim stays fair.
        assert_eq!(p.slice_for(3), Duration::from_secs(20) / 3);
    }

    #[test]
    fn shaping_off_disables_slices_and_skips() {
        let mut p = Portfolio::with_shaping(DEFAULT_RUNGS.to_vec(), Duration::from_secs(30), false);
        assert_eq!(p.slice(), Duration::from_secs(30), "full remainder");
        p.record(
            0,
            RungOutcome::finished(failure_with_flags("r0", false, false)),
        );
        assert!(!p.skippable(1));
    }

    #[test]
    fn out_of_budget_is_distinct_from_cancellation() {
        let mut p = Portfolio::new(vec![(1, 0), (2, 1), (3, 2)], Duration::from_secs(10));
        // Rung 0 burned the whole budget; the rest never ran. No winner
        // was involved, so nothing counts as "cancelled".
        p.start(0, Duration::from_secs(10));
        p.settle(0, Duration::from_secs(10), Duration::from_secs(10));
        p.record(0, RungOutcome::finished(result("r0", false)));
        p.record(1, RungOutcome::OutOfBudget);
        p.record(2, RungOutcome::OutOfBudget);
        assert!(p.is_complete());
        assert_eq!(p.rungs_run(), 1);
        assert_eq!(p.rungs_cancelled(), 0);
        assert_eq!(p.rungs_out_of_budget(), 2);
        assert!(p.ran_out_of_budget());
        let (verdict, rung) = p.verdict();
        assert_eq!(verdict.unwrap().name, "r0");
        assert_eq!(rung, None);
    }
}
