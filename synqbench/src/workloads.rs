//! The pinned workloads: which goals each one runs, and how.
//!
//! Goal lists are written out here, never globbed from `specs/`, so a
//! change to the corpus is a change to this file and not a silent shift
//! in what the benchmark measures. A listed goal that fails to load ends
//! the run with an error.

use std::time::Duration;

/// A goal of the corpus, named by its spec file and goal name; its label
/// is `name @ file`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoalRef {
    pub file: &'static str,
    pub name: &'static str,
}

impl GoalRef {
    const fn new(file: &'static str, name: &'static str) -> GoalRef {
        GoalRef { file, name }
    }

    /// The `name @ file` label the engine reports use.
    pub fn label(&self) -> String {
        synquid_lang::runner::goal_label(self.name, self.file)
    }

    /// The metric name of this goal's per-goal time row,
    /// `goal.<spec stem>.<goal name>.s`.
    pub fn metric(&self) -> String {
        let stem = self
            .file
            .trim_start_matches("specs/")
            .trim_end_matches(".sq");
        format!("goal.{stem}.{}.s", self.name)
    }
}

/// The 14 corpus goals the engine solves within 30 s.
pub const SOLVED: [GoalRef; 14] = [
    GoalRef::new("specs/append.sq", "append"),
    GoalRef::new("specs/delete.sq", "list_delete"),
    GoalRef::new("specs/double.sq", "double"),
    GoalRef::new("specs/drop.sq", "drop"),
    GoalRef::new("specs/elem.sq", "list_member"),
    GoalRef::new("specs/heap_singleton.sq", "heap_singleton"),
    GoalRef::new("specs/insert_at_end.sq", "insert_at_end"),
    GoalRef::new("specs/is_empty.sq", "is_empty"),
    GoalRef::new("specs/length.sq", "length"),
    GoalRef::new("specs/list.sq", "is_empty"),
    GoalRef::new("specs/list.sq", "length"),
    GoalRef::new("specs/replicate.sq", "replicate"),
    GoalRef::new("specs/reverse.sq", "reverse"),
    GoalRef::new("specs/take.sq", "take"),
];

/// The solved goals `warm_replay` primes and replays: all but `take`,
/// which comes last in [`SOLVED`]. Cold, `take` alone costs 14–25 s, so
/// priming with it would make each `warm_replay` run cost as much as an
/// `isolated` one, and the benchmark's runs would not fit their time
/// limit.
pub const WARM: &[GoalRef] = SOLVED.split_at(SOLVED.len() - 1).0;

/// The five corpus goals no rung solves within 30 s.
pub const HOLDOUTS: [GoalRef; 5] = [
    GoalRef::new("specs/insert_sorted.sq", "insert_sorted"),
    GoalRef::new("specs/tree_count.sq", "tree_count"),
    GoalRef::new("specs/tree_member.sq", "tree_member"),
    GoalRef::new("specs/bst_insert.sq", "bst_insert"),
    GoalRef::new("specs/bst_member.sq", "bst_member"),
];

/// Every goal any workload runs, in the order of the `goal.*` rows.
pub fn all_goals() -> impl Iterator<Item = &'static GoalRef> {
    SOLVED.iter().chain(HOLDOUTS.iter())
}

/// How a workload drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `run_batch` per goal, each on a fresh session.
    Isolated,
    /// One `run_batch` of every goal per pass, on one resident session
    /// primed by a cold batch during set-up.
    WarmReplay,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload was chosen; the same line as in `BENCHMARK.json`.
    pub why: &'static str,
    pub goals: &'static [GoalRef],
    pub kind: Kind,
    /// Engine worker threads (`EngineConfig::jobs`).
    pub jobs: usize,
    /// Per-goal budget (`EngineConfig::timeout`).
    pub budget: Duration,
}

/// The budget of the solved goals. At the CLI's default 30 s, the ledger
/// slice of `take`'s winning rung is about as long as the rung itself
/// runs, so depending on the host's speed the rung is either finished
/// or cut and run again, and `take` takes about 16 s or about 25 s. At
/// 60 s no rung of a solved goal is cut, and its counts repeat exactly.
const SOLVED_BUDGET: Duration = Duration::from_secs(60);

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "isolated",
        why: "the 14 solved goals, one run_batch each on a fresh session, 60 s budget: what synquid --timeout 60 one.sq costs; enumeration and the SMT stack do the work, no reuse across goals",
        goals: &SOLVED,
        kind: Kind::Isolated,
        jobs: 1,
        budget: SOLVED_BUDGET,
    },
    Workload {
        name: "warm_replay",
        why: "13 solved goals (all but take) replayed as one batch on a resident session primed in set-up: the session's reuse layers do the work, solver work nearly vanishes",
        goals: WARM,
        kind: Kind::WarmReplay,
        jobs: 1,
        budget: SOLVED_BUDGET,
    },
    Workload {
        name: "holdouts",
        why: "the 5 goals no rung solves, short fixed budget, 2 workers: slicing, re-queueing, budget enforcement and candidate rejection do the work",
        goals: &HOLDOUTS,
        kind: Kind::Isolated,
        jobs: 2,
        budget: Duration::from_secs(4),
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}
