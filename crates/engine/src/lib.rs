//! # synquid-engine
//!
//! The parallel synthesis engine: *how* synthesis work is executed,
//! layered on top of `synquid-core`'s single-goal procedure.
//!
//! Three cooperating parts (the architectural seam every future scaling
//! layer — sharding, a server frontend, multi-backend solving — plugs
//! into):
//!
//! * **multi-goal scheduler** ([`scheduler`]) — a `std::thread` work
//!   pool draining a queue of `(goal, rung)` jobs from one or many spec
//!   files, aggregating per-goal results, statistics, and failures in
//!   deterministic submission order;
//! * **portfolio search** ([`portfolio`]) — the iterative-deepening
//!   rungs of each goal become competing jobs under a shared per-goal
//!   time budget and cancellation tokens; the lowest rung that solves
//!   wins and cancels its deeper siblings, so the reported program is
//!   the one the sequential ladder would have found;
//! * **resident sessions** ([`session`]) — all cross-goal state (the
//!   [`SharedValidityCache`](synquid_solver::SharedValidityCache) with
//!   its hash-consed `(antecedent, consequent)` keys, the enumeration
//!   memo, and the theory-lemma pool) is owned by a long-lived
//!   [`SynthesisSession`], namespaced by component-library fingerprint
//!   and epoch-GC'd per batch; every worker's SMT backend borrows from
//!   its goal's namespace, so solver verdicts are reused across rungs,
//!   goals, threads, and — for a resident session — whole batch runs;
//!   hit/miss/negative counters surface in [`BatchReport::cache`],
//!   [`BatchReport::session`], and per-goal
//!   [`SynthesisStats`](synquid_core::SynthesisStats).
//!
//! Every claim a worker makes ends in [`runner::run_goal_in_context`]:
//! one synthesis run of one goal at one rung, reported as a
//! [`RunResult`]. Fixed-bound measurements (the Table 1, Table 2 and
//! Fig. 7 reports) use the same path with a one-rung ladder
//! (`rungs: vec![bounds]`).
//!
//! ## Example
//!
//! ```
//! use std::time::Duration;
//! use synquid_engine::{Engine, EngineConfig, GoalJob};
//! use synquid_core::Goal;
//! use synquid_logic::{Qualifier, Sort, Term};
//! use synquid_types::{BaseType, Environment, RType, Schema};
//!
//! let mut env = Environment::new();
//! env.add_qualifiers(Qualifier::standard(Sort::Int));
//! let goal = Goal::new(
//!     "id",
//!     env,
//!     Schema::monotype(RType::fun(
//!         "n",
//!         RType::int(),
//!         RType::refined(
//!             BaseType::Int,
//!             Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int)),
//!         ),
//!     )),
//! );
//! let engine = Engine::new(EngineConfig {
//!     jobs: 2,
//!     timeout: Duration::from_secs(30),
//!     ..EngineConfig::default()
//! });
//! let report = engine.run(vec![GoalJob::new("example", goal)]);
//! assert!(report.all_solved());
//! ```

pub mod portfolio;
pub mod runner;
pub mod scheduler;
pub mod session;

pub use portfolio::{Portfolio, RungOutcome, DEFAULT_RUNGS};
pub use runner::RunResult;
pub use scheduler::{BatchReport, Engine, EngineConfig, GoalJob, GoalOutcome};
pub use session::{
    LibraryFingerprint, SessionCaches, SessionLimits, SessionStats, SynthesisSession, WarmStart,
};
