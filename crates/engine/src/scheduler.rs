//! The multi-goal scheduler: a fixed pool of worker threads draining a
//! queue of `(goal, rung)` work items.
//!
//! Work items are queued goal-major (every rung of goal 0, then every
//! rung of goal 1, …), so a single worker reproduces the sequential
//! iterative-deepening ladder exactly, while `N` workers overlap both
//! *across* goals and *within* a goal's portfolio. All workers borrow
//! their caches from a [`SynthesisSession`] namespace (keyed by the
//! goal's library fingerprint), so a subtyping obligation proven for one
//! rung (or one goal) is never re-proven by another — and, for resident
//! sessions, not even by a later batch.
//!
//! Each claim is budgeted through the goal's [`Portfolio`] ledger: the
//! attempt reserves a bounded slice of the goal's remaining budget, is
//! charged exactly the wall time it measures, and — when the slice runs
//! out before the search finishes — is re-queued *in front of* its
//! pending siblings to run again on whatever budget remains (the
//! enumeration memo and the shared validity cache make the replayed
//! prefix cheap). Rungs that a completed failure proves equivalent are
//! skipped without running; rungs claimed once the budget is gone are
//! recorded as out-of-budget, never charged for time they did not use.
//!
//! Results are aggregated deterministically: outcomes are reported in
//! job-submission order, and each goal's winner is decided by the
//! portfolio's lowest-solved-rung rule (see [`crate::portfolio`]), not by
//! wall-clock finish order.

use crate::portfolio::{Portfolio, RungOutcome, DEFAULT_RUNGS};
use crate::runner::{run_goal_in_context, RunResult};
use crate::session::{LibraryFingerprint, SessionCaches, SessionStats, SynthesisSession};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use synquid_core::{Goal, SolverContext, SynthesisConfig};
use synquid_solver::{LemmaSeed, ValidityCacheStats};
use synquid_telemetry::{events, events::Event};

/// Configuration of a batch run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads (`--jobs`); clamped to at least 1.
    pub jobs: usize,
    /// Per-goal wall-clock budget, shared by all rungs of the goal.
    pub timeout: Duration,
    /// The exploration-bound ladder each goal's portfolio races over.
    pub rungs: Vec<(usize, usize)>,
    /// Budget shaping (slice rationing + equivalence skipping) in the
    /// per-goal ledger. On by default; the shaping-parity regression
    /// tests disable it to prove shaping changes timing only, never
    /// results.
    pub shaping: bool,
    /// Template configuration (ablation switches, candidate caps);
    /// bounds and timeout are overridden per rung.
    pub base: SynthesisConfig,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            jobs: 1,
            timeout: Duration::from_secs(30),
            rungs: DEFAULT_RUNGS.to_vec(),
            shaping: true,
            base: SynthesisConfig::default(),
        }
    }
}

/// One unit of work submitted to the engine: a goal plus the label of
/// where it came from (spec file path, benchmark group, …).
#[derive(Debug, Clone)]
pub struct GoalJob {
    /// Provenance label used in reports.
    pub source: String,
    /// The synthesis goal.
    pub goal: Goal,
}

impl GoalJob {
    /// Creates a job.
    pub fn new(source: impl Into<String>, goal: Goal) -> GoalJob {
        GoalJob {
            source: source.into(),
            goal,
        }
    }
}

/// The aggregated outcome of one goal's portfolio.
#[derive(Debug, Clone)]
pub struct GoalOutcome {
    /// Provenance label of the job.
    pub source: String,
    /// The winning result (lowest solved rung), or the deepest failure.
    pub result: RunResult,
    /// Exploration bounds of the winning rung (`None` if unsolved).
    pub winning_rung: Option<(usize, usize)>,
    /// Rungs that ran to completion.
    pub rungs_run: usize,
    /// Rungs cancelled after a shallower rung won.
    pub rungs_cancelled: usize,
    /// Rungs skipped because a completed failure proved their search
    /// identical; their budget slices were refunded without running.
    pub rungs_skipped: usize,
    /// Rungs that never ran because the goal's budget was exhausted
    /// (distinct from cancellation: no winner was involved).
    pub rungs_out_of_budget: usize,
    /// Total wall time the ledger charged to this goal's rung attempts.
    /// For unsolved goals this is also the reported `time_secs`; it can
    /// never exceed the goal budget by more than one truncated SMT step.
    pub consumed_secs: f64,
}

/// The deterministic aggregate of a batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-goal outcomes, in job-submission order.
    pub outcomes: Vec<GoalOutcome>,
    /// Validity-cache counters this run contributed (summed over the
    /// namespaces it touched). Against a warm session, `hits` includes
    /// cross-run hits on entries proven by earlier batches.
    pub cache: ValidityCacheStats,
    /// All session-layer counters this run contributed (validity,
    /// enumeration, lemmas), measured before the end-of-batch GC epoch.
    pub session: SessionStats,
    /// Wall-clock duration of the batch.
    pub wall_secs: f64,
    /// Worker threads used.
    pub jobs: usize,
}

impl BatchReport {
    /// True if every goal synthesized.
    pub fn all_solved(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.solved)
    }
}

/// Shared mutable state of one batch run.
struct Shared {
    queue: VecDeque<(usize, usize)>, // (goal index, rung index)
    portfolios: Vec<Portfolio>,
}

/// The parallel synthesis engine.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine.
    pub fn new(config: EngineConfig) -> Engine {
        Engine { config }
    }

    /// Runs a batch of goals against a throwaway cold session —
    /// equivalent to [`Self::run_batch`] on a fresh
    /// [`SynthesisSession`] that is dropped afterwards. Prefer
    /// `run_batch` anywhere a session outlives one batch.
    pub fn run(&self, jobs: Vec<GoalJob>) -> BatchReport {
        self.run_batch(jobs, &SynthesisSession::new())
    }

    /// Runs a batch of goals to completion against a resident session
    /// and aggregates the results.
    ///
    /// The session supplies every piece of cross-goal state: per-goal
    /// cache namespaces are resolved by library fingerprint at batch
    /// start (one frozen lemma seed per namespace, so results cannot
    /// depend on worker scheduling), and one GC epoch is closed when
    /// the batch ends. The report's counters are this run's traffic
    /// only ([`SessionStats::since`] against the start-of-batch
    /// snapshot), so warm hit rates are directly comparable to cold
    /// ones.
    ///
    /// The same batch produces the same solutions whatever `jobs` is,
    /// *timeouts aside*: each `(goal, rung)` search is deterministic,
    /// and the winner per goal is the lowest rung that solves. The
    /// caveat is real — budgets are wall-clock, so a goal whose only
    /// solving rung needs most of the budget can time out under one
    /// worker count and solve under another (with one worker, deep
    /// rungs only get what their shallower siblings left). Goals that
    /// solve comfortably inside the budget, or exhaust their search
    /// space, or are hopeless at every rung, report identically at any
    /// worker count; `tests/determinism.rs` pins this for the corpus.
    /// A warm session changes timing only, never results: cached
    /// verdicts are pure functions of their keys, and replayed lemmas
    /// are implied by the encoding of any query containing their atoms.
    pub fn run_batch(&self, jobs: Vec<GoalJob>, session: &SynthesisSession) -> BatchReport {
        let start = Instant::now();
        let before = session.stats();
        let rungs = if self.config.rungs.is_empty() {
            DEFAULT_RUNGS.to_vec()
        } else {
            self.config.rungs.clone()
        };
        let workers = self.config.jobs.max(1);

        // Resolve each goal's cache namespace up front and freeze one
        // lemma seed per namespace: every run of this batch replays the
        // same seed, while fresh conflicts flow into the resident store
        // for *future* batches only.
        let mut namespaces: BTreeMap<LibraryFingerprint, (SessionCaches, LemmaSeed)> =
            BTreeMap::new();
        let goal_namespaces: Vec<LibraryFingerprint> = jobs
            .iter()
            .map(|job| {
                let fingerprint = LibraryFingerprint::of_env(&job.goal.env);
                namespaces.entry(fingerprint).or_insert_with(|| {
                    let caches = session.caches_for(fingerprint);
                    let seed = caches.lemmas.snapshot();
                    (caches, seed)
                });
                fingerprint
            })
            .collect();

        let mut queue = VecDeque::new();
        let mut portfolios = Vec::with_capacity(jobs.len());
        for (goal_idx, _) in jobs.iter().enumerate() {
            for rung_idx in 0..rungs.len() {
                queue.push_back((goal_idx, rung_idx));
            }
            portfolios.push(Portfolio::with_shaping(
                rungs.clone(),
                self.config.timeout,
                self.config.shaping,
            ));
        }
        let shared = Mutex::new(Shared { queue, portfolios });

        // Never spawn more workers than there are work items; report the
        // count that actually ran.
        let workers = workers.min(jobs.len().max(1) * rungs.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.worker(&shared, &jobs, &namespaces, &goal_namespaces));
            }
        });

        let shared = shared.into_inner().expect("scheduler state poisoned");
        let outcomes = jobs
            .iter()
            .zip(&shared.portfolios)
            .map(|(job, portfolio)| {
                let (result, winning_rung) = portfolio.verdict();
                let consumed_secs = portfolio.consumed().as_secs_f64();
                let mut result = result.cloned().unwrap_or_else(|| RunResult {
                    name: job.goal.name.clone(),
                    solved: false,
                    timed_out: true,
                    time_secs: 0.0,
                    program: None,
                    ast: None,
                    code_size: None,
                    stats: None,
                });
                if !result.solved {
                    // Honest failure reporting: the goal is timed out only
                    // if some rung actually ran out of its budget, and the
                    // reported time is the ledger's total consumption —
                    // never the scrap measured by the last unluckiest rung.
                    result.timed_out = portfolio.ran_out_of_budget();
                    result.time_secs = consumed_secs;
                }
                GoalOutcome {
                    source: job.source.clone(),
                    result,
                    winning_rung,
                    rungs_run: portfolio.rungs_run(),
                    rungs_cancelled: portfolio.rungs_cancelled(),
                    rungs_skipped: portfolio.rungs_skipped(),
                    rungs_out_of_budget: portfolio.rungs_out_of_budget(),
                    consumed_secs,
                }
            })
            .collect();
        // Measure this run's traffic before GC mutates the gauges, then
        // close the batch's epoch: entries untouched for two more
        // batches will be evicted.
        let run_stats = session.stats().since(&before);
        session.advance_epoch();
        BatchReport {
            outcomes,
            cache: run_stats.validity,
            session: run_stats,
            wall_secs: start.elapsed().as_secs_f64(),
            jobs: workers,
        }
    }

    /// One worker: claim items until the queue is empty.
    fn worker(
        &self,
        shared: &Mutex<Shared>,
        jobs: &[GoalJob],
        namespaces: &BTreeMap<LibraryFingerprint, (SessionCaches, LemmaSeed)>,
        goal_namespaces: &[LibraryFingerprint],
    ) {
        // Consecutive pops that all ended in a starved park (see below).
        let mut parked_streak = 0usize;
        loop {
            // Claim the next runnable item under the lock; decide without
            // it whether to run (the synthesis itself must not hold it).
            let claimed = {
                let mut state = shared.lock().expect("scheduler state poisoned");
                let Some((goal_idx, rung_idx)) = state.queue.pop_front() else {
                    return;
                };
                let portfolio = &mut state.portfolios[goal_idx];
                if portfolio.is_dominated(rung_idx) || portfolio.tokens[rung_idx].is_cancelled() {
                    portfolio.record(rung_idx, RungOutcome::Cancelled);
                    continue;
                }
                if portfolio.skippable(rung_idx) {
                    let (app, mat) = portfolio.rungs[rung_idx];
                    portfolio.record(rung_idx, RungOutcome::Skipped);
                    events::emit(|| {
                        Event::new("rung_skip")
                            .uint("rung", rung_idx as u64)
                            .str("goal", &jobs[goal_idx].goal.name)
                            .uint("app_depth", app as u64)
                            .uint("match_depth", mat as u64)
                    });
                    continue;
                }
                let slice = portfolio.slice_for(rung_idx);
                if slice < portfolio.min_slice() {
                    if portfolio.any_in_flight() {
                        // The budget is tied up in running siblings whose
                        // refunds may re-fund this rung: park it behind
                        // them and let the pool make progress elsewhere.
                        state.queue.push_back((goal_idx, rung_idx));
                        Err(state.queue.len())
                    } else {
                        let (app, mat) = portfolio.rungs[rung_idx];
                        portfolio.record(rung_idx, RungOutcome::OutOfBudget);
                        events::emit(|| {
                            Event::new("rung_out_of_budget")
                                .uint("rung", rung_idx as u64)
                                .str("goal", &jobs[goal_idx].goal.name)
                                .uint("app_depth", app as u64)
                                .uint("match_depth", mat as u64)
                        });
                        continue;
                    }
                } else {
                    portfolio.start(rung_idx, slice);
                    events::emit(|| {
                        Event::new("ledger_reserve")
                            .uint("rung", rung_idx as u64)
                            .str("goal", &jobs[goal_idx].goal.name)
                            .f64("slice_secs", slice.as_secs_f64())
                            .f64("available_secs", portfolio.available().as_secs_f64())
                    });
                    let token = portfolio.tokens[rung_idx].clone();
                    let bounds = portfolio.rungs[rung_idx];
                    Ok((goal_idx, rung_idx, bounds, slice, token))
                }
            };
            let (goal_idx, rung_idx, (app_depth, match_depth), slice, token) = match claimed {
                Ok(claim) => {
                    parked_streak = 0;
                    claim
                }
                Err(queue_len) => {
                    // Parked. Other queue entries may be claimable right
                    // now, so keep draining; only once a full queue's
                    // worth of consecutive pops were all starved parks
                    // (everything runnable is waiting on in-flight
                    // reservations) back off briefly so this loop does
                    // not spin on the scheduler lock.
                    parked_streak += 1;
                    if parked_streak >= queue_len.max(1) {
                        std::thread::sleep(Duration::from_millis(2));
                        parked_streak = 0;
                    }
                    continue;
                }
            };

            let mut config = self.config.base.clone().with_bounds(app_depth, match_depth);
            config.timeout = slice;
            let (caches, seed) = &namespaces[&goal_namespaces[goal_idx]];
            let ctx = SolverContext {
                cache: Some(caches.validity.clone()),
                cancel: token,
                enum_cache: caches.enumeration.clone(),
                lemma_seed: Some(seed.clone()),
                lemma_sink: Some(caches.lemmas.clone()),
            };
            events::emit(|| {
                Event::new("rung_start")
                    .uint("rung", rung_idx as u64)
                    .str("goal", &jobs[goal_idx].goal.name)
                    .uint("app_depth", app_depth as u64)
                    .uint("match_depth", match_depth as u64)
                    .f64("slice_secs", slice.as_secs_f64())
            });
            let started = Instant::now();
            let result = run_goal_in_context(&jobs[goal_idx].goal, config, &ctx);
            let elapsed = started.elapsed();
            events::emit(|| {
                let status = if result.solved {
                    "solved"
                } else if result.timed_out {
                    "truncated"
                } else {
                    "exhausted"
                };
                Event::new("rung_finish")
                    .uint("rung", rung_idx as u64)
                    .str("goal", &jobs[goal_idx].goal.name)
                    .uint("app_depth", app_depth as u64)
                    .uint("match_depth", match_depth as u64)
                    .str("status", status)
                    .f64("time_secs", elapsed.as_secs_f64())
            });

            let mut state = shared.lock().expect("scheduler state poisoned");
            let portfolio = &mut state.portfolios[goal_idx];
            portfolio.settle(rung_idx, slice, elapsed);
            events::emit(|| {
                Event::new("ledger_settle")
                    .uint("rung", rung_idx as u64)
                    .str("goal", &jobs[goal_idx].goal.name)
                    .f64(
                        "charged_secs",
                        elapsed.as_secs_f64().min(slice.as_secs_f64()),
                    )
                    .f64("remaining_secs", portfolio.available().as_secs_f64())
            });
            if !result.timed_out {
                // Ran to completion: solved, or genuinely exhausted its
                // search space (the synthesizer reports budget-truncated
                // exhaustion as a timeout, so this verdict is trustable).
                portfolio.record(rung_idx, RungOutcome::finished(result));
            } else if portfolio.tokens[rung_idx].is_cancelled() {
                // Aborted because a shallower sibling won.
                portfolio.record(rung_idx, RungOutcome::Cancelled);
            } else if portfolio.available() >= portfolio.min_slice() || portfolio.any_in_flight() {
                // Truncated at its slice with budget left (or refunds
                // still possible): re-queue in front of pending siblings
                // so the re-lent budget concentrates on the lowest
                // unfinished rung, mirroring the sequential ladder. The
                // warm enumeration memo and validity cache make the
                // replayed prefix of the re-run cheap.
                state.queue.push_front((goal_idx, rung_idx));
            } else {
                portfolio.record(rung_idx, RungOutcome::OutOfBudget);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synquid_logic::{Qualifier, Sort, Term};
    use synquid_types::{BaseType, Environment, RType, Schema};

    fn identity_goal(name: &str) -> Goal {
        let mut env = Environment::new();
        env.add_qualifiers(Qualifier::standard(Sort::Int));
        Goal::new(
            name,
            env,
            Schema::monotype(RType::fun(
                "n",
                RType::int(),
                RType::refined(
                    BaseType::Int,
                    Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int)),
                ),
            )),
        )
    }

    fn impossible_goal(name: &str) -> Goal {
        // {Int | ν = n + 1} with no components: no E-term can satisfy it.
        let mut env = Environment::new();
        env.add_qualifiers(Qualifier::standard(Sort::Int));
        Goal::new(
            name,
            env,
            Schema::monotype(RType::fun(
                "n",
                RType::int(),
                RType::refined(
                    BaseType::Int,
                    Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int).plus(Term::int(1))),
                ),
            )),
        )
    }

    fn engine(jobs: usize) -> Engine {
        Engine::new(EngineConfig {
            jobs,
            timeout: Duration::from_secs(30),
            ..EngineConfig::default()
        })
    }

    #[test]
    fn batch_results_arrive_in_submission_order() {
        let batch: Vec<GoalJob> = (0..4)
            .map(|i| GoalJob::new(format!("job{i}"), identity_goal(&format!("id{i}"))))
            .collect();
        let report = engine(4).run(batch);
        assert!(report.all_solved());
        let names: Vec<&str> = report
            .outcomes
            .iter()
            .map(|o| o.result.name.as_str())
            .collect();
        assert_eq!(names, ["id0", "id1", "id2", "id3"]);
        assert_eq!(report.outcomes[2].source, "job2");
        assert_eq!(report.jobs, 4);
    }

    #[test]
    fn single_and_multi_worker_runs_agree() {
        let batch = || {
            vec![
                GoalJob::new("a", identity_goal("id")),
                GoalJob::new("b", impossible_goal("nope")),
            ]
        };
        let sequential = engine(1).run(batch());
        let parallel = engine(8).run(batch());
        for (s, p) in sequential.outcomes.iter().zip(&parallel.outcomes) {
            assert_eq!(s.result.solved, p.result.solved);
            assert_eq!(s.result.program, p.result.program);
            assert_eq!(s.winning_rung, p.winning_rung);
        }
        assert!(sequential.outcomes[0].result.solved);
        assert!(!sequential.outcomes[1].result.solved);
        assert!(
            !sequential.outcomes[1].result.timed_out,
            "an exhausted search space is not a timeout"
        );
    }

    #[test]
    fn winner_cancels_deeper_rungs() {
        let report = engine(1).run(vec![GoalJob::new("a", identity_goal("id"))]);
        let outcome = &report.outcomes[0];
        assert!(outcome.result.solved);
        // `id` solves at the first rung; the other four are cancelled.
        assert_eq!(outcome.winning_rung, Some(DEFAULT_RUNGS[0]));
        assert_eq!(outcome.rungs_run, 1);
        assert_eq!(outcome.rungs_cancelled, DEFAULT_RUNGS.len() - 1);
    }

    #[test]
    fn the_shared_cache_sees_traffic_from_all_goals() {
        let batch: Vec<GoalJob> = (0..3)
            .map(|i| GoalJob::new("batch", identity_goal(&format!("id{i}"))))
            .collect();
        let report = engine(2).run(batch);
        let cache = report.cache;
        assert!(cache.misses > 0, "fresh queries must be recorded");
        assert!(
            cache.hits > 0,
            "identical goals must hit the shared cache: {cache:?}"
        );
    }

    #[test]
    fn empty_batches_are_fine() {
        let report = engine(4).run(Vec::new());
        assert!(report.outcomes.is_empty());
        assert!(report.all_solved());
    }
}
