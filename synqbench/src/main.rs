//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path synqbench/Cargo.toml -- \
//!     --workload <isolated|warm_replay|holdouts> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root: the goals are loaded from `specs/`. One
//! process drives the public API of the synthesis crates, with at most
//! two engine worker threads. The seed draws the oracle's inputs and
//! orders the goals of every pass, except on `warm_replay`, which keeps
//! the pinned order (see [`goal_order`]).
//!
//! * `--trace 0` measures the end-to-end metrics with profiling off and
//!   no event sink: set-up, then timed passes over the workload's goals
//!   until `--seconds` is used up (at least one pass).
//! * `--trace 1` measures the per-layer metrics: one untraced pass, then
//!   one pass with the span profiler and the in-memory event buffer on,
//!   whose buffer is read back through `synquid_trace::analyze`. The
//!   benchmark's own spans and the per-layer metrics are written to
//!   `.bench_out/`.
//!
//! Every winning program is verified outside the timed window (see
//! [`verify`]). A failed verification counts its goal as failed and the
//! process exits with status 1; a pinned goal that does not load exits
//! with status 2 before anything is printed. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod spans;
mod verify;
mod workloads;

use spans::Spans;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use synquid_engine::{Engine, EngineConfig, GoalJob, GoalOutcome, SessionStats, SynthesisSession};
use synquid_solver::{enumerate_mus_smt, MusConfig, Smt};
use synquid_telemetry::{events, Phase, PhaseProfile};
use workloads::{Kind, Workload};

/// Rounds of spec loading in set-up; `setup_s` uses their median.
const LOAD_REPS: usize = 21;
/// Snapshot round trips in `warm_replay`'s set-up; `setup_s` uses their
/// median.
const SNAPSHOT_REPS: usize = 3;
/// Fresh-solver repetitions of each solver fixture.
const FIXTURE_REPS: usize = 5;
/// In a timed pass, a goal on a fresh session whose first run took less
/// than `REPEAT_BELOW_S` repeats until it has run `MIN_GOAL_REPS` times
/// and its runs add up to `GOAL_REPS_S`, or it has run `MAX_GOAL_REPS`
/// times. Its time in the pass is the median of its runs. Back-to-back
/// runs of a 1.5 s goal differ by up to 15 %, one run of a 20 ms goal is
/// mostly scheduler noise, and every goal weighs the same in
/// `goal_s_geomean`; the goals that decide `goal_s_p50` take 0.3–1.5 s.
const REPEAT_BELOW_S: f64 = 1.8;
const MIN_GOAL_REPS: usize = 5;
const GOAL_REPS_S: f64 = 1.5;
const MAX_GOAL_REPS: usize = 9;
/// Where the traced run writes its spans and per-layer metrics.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |flag: &str| flags.get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = get("--workload")?;
    let workload =
        workloads::find(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("synqbench: {e}");
            return ExitCode::from(2);
        }
    };
    single_malloc_arena();
    // End-to-end numbers are measured with profiling off, whatever the
    // environment asks for; the traced run turns it on itself.
    synquid_telemetry::set_profiling(false);
    match run(&args) {
        Ok(result) => {
            print!("{}", result.table);
            println!("{}", result.json);
            if result.failed > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("synqbench: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// Loads every pinned goal: one `load_file` per distinct spec file.
fn load_jobs(workload: &Workload) -> Result<Vec<GoalJob>, String> {
    let mut specs = BTreeMap::new();
    for goal in workload.goals {
        if !specs.contains_key(goal.file) {
            let spec = synquid_parser::load_file(goal.file)
                .map_err(|e| format!("cannot load {}: {e}", goal.file))?;
            specs.insert(goal.file, spec);
        }
    }
    workload
        .goals
        .iter()
        .map(|g| {
            specs[g.file]
                .goals
                .iter()
                .find(|goal| goal.name == g.name)
                .map(|goal| GoalJob::new(g.file, goal.clone()))
                .ok_or_else(|| format!("pinned goal {} is not in its spec", g.label()))
        })
        .collect()
}

/// The order of the workload's goals within a pass. Goals that each run
/// on a fresh session are shuffled by the seed (Fisher–Yates). The
/// shared batch of `warm_replay` keeps the pinned order: what a warm
/// replay costs depends on the order the session was primed in (see
/// METRICS.md), so a seeded order would make it a different workload on
/// every run.
fn goal_order(workload: &Workload, seed: u64) -> Vec<usize> {
    let n = workload.goals.len();
    let mut order: Vec<usize> = (0..n).collect();
    if workload.kind == Kind::WarmReplay {
        return order;
    }
    let mut rng = synquid_oracle::Rng::new(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

fn engine(workload: &Workload) -> Engine {
    Engine::new(EngineConfig {
        jobs: workload.jobs,
        timeout: workload.budget,
        ..EngineConfig::default()
    })
}

/// Snapshot round trip of a session: serialize, then `warm_start` the
/// text into a throwaway session. Returns (serialize s, bytes, warm-start s).
fn snapshot_round_trip(session: &SynthesisSession, spans: &mut Spans) -> (f64, usize, f64) {
    let (text, serialize_s) = spans.time("session.serialize", None, None, || session.serialize());
    let throwaway = SynthesisSession::new();
    let (_, warm_start_s) = spans.time("session.warm_start", None, None, || {
        throwaway.warm_start(&text)
    });
    (serialize_s, text.len(), warm_start_s)
}

struct Setup {
    jobs: Vec<GoalJob>,
    /// The resident session of `warm_replay`, primed by one cold batch.
    resident: Option<SynthesisSession>,
    setup_s: f64,
    load_s: f64,
}

fn set_up(workload: &Workload, order: &[usize], spans: &mut Spans) -> Result<Setup, String> {
    let mut loads = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..LOAD_REPS {
        let (loaded, secs) = spans.time("parser.load_file", None, None, || load_jobs(workload));
        jobs = loaded?;
        loads.push(secs);
    }
    let load_s = median(&loads);
    let mut setup_s = load_s;
    let mut resident = None;
    if workload.kind == Kind::WarmReplay {
        let session = SynthesisSession::new();
        let batch = order.iter().map(|&i| jobs[i].clone()).collect();
        let (_, prime_s) = spans.time("engine.run_batch", None, None, || {
            engine(workload).run_batch(batch, &session)
        });
        let trips: Vec<f64> = (0..SNAPSHOT_REPS)
            .map(|_| {
                let (serialize_s, _, warm_start_s) = snapshot_round_trip(&session, spans);
                serialize_s + warm_start_s
            })
            .collect();
        setup_s += prime_s + median(&trips);
        resident = Some(session);
    }
    Ok(Setup {
        jobs,
        resident,
        setup_s,
        load_s,
    })
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

/// One goal's verdict in one pass.
struct GoalRun {
    /// Index into the workload's pinned goal list (the goal id of spans).
    idx: usize,
    /// Seconds to the verdict: the `run_batch` call for isolated goals,
    /// the ledger's `consumed_secs` for a goal inside a shared batch.
    secs: f64,
    outcome: GoalOutcome,
}

struct Pass {
    /// Wall time of the pass. For goals on fresh sessions it is the sum
    /// of each goal's median run, so repetitions do not count.
    wall: f64,
    runs: Vec<GoalRun>,
    /// Σ `BatchReport::wall_secs`.
    batch_s: f64,
    /// `BatchReport::session` of every batch.
    session: Vec<SessionStats>,
    /// The fresh sessions of an isolated pass, when asked to keep them.
    sessions: Vec<SynthesisSession>,
}

/// What a pass is for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PassKind {
    /// End-to-end timing: cheap goals on fresh sessions repeat (see
    /// [`REPEAT_BELOW_S`]).
    Timed,
    /// One run per goal: the traced run's untraced comparison pass.
    Single,
    /// One run per goal, keeping each fresh session for the snapshot
    /// metrics.
    Traced,
}

fn run_pass(
    workload: &Workload,
    setup: &Setup,
    order: &[usize],
    spans: &mut Spans,
    kind: PassKind,
    mut after_batch: impl FnMut(),
) -> Pass {
    let engine = engine(workload);
    let pass_span = spans.begin("pass", None, None);
    let mut pass = Pass {
        wall: 0.0,
        runs: Vec::new(),
        batch_s: 0.0,
        session: Vec::new(),
        sessions: Vec::new(),
    };
    match &setup.resident {
        None => {
            for &idx in order {
                let mut times = Vec::new();
                loop {
                    let job = setup.jobs[idx].clone();
                    release_free_heap();
                    let session = SynthesisSession::new();
                    let (report, secs) =
                        spans.time("engine.run_batch", Some(pass_span), Some(idx), || {
                            engine.run_batch(vec![job], &session)
                        });
                    after_batch();
                    pass.batch_s += report.wall_secs;
                    pass.session.push(report.session);
                    let outcome = report
                        .outcomes
                        .into_iter()
                        .next()
                        .expect("one goal per batch");
                    pass.runs.push(GoalRun { idx, secs, outcome });
                    if kind == PassKind::Traced {
                        pass.sessions.push(session);
                    }
                    times.push(secs);
                    if kind != PassKind::Timed
                        || times[0] >= REPEAT_BELOW_S
                        || times.len() == MAX_GOAL_REPS
                        || (times.len() >= MIN_GOAL_REPS
                            && times.iter().sum::<f64>() >= GOAL_REPS_S)
                    {
                        break;
                    }
                }
                pass.wall += median(&times);
            }
            spans.end(pass_span);
        }
        Some(session) => {
            let batch = order.iter().map(|&i| setup.jobs[i].clone()).collect();
            let (report, _) = spans.time("engine.run_batch", Some(pass_span), None, || {
                engine.run_batch(batch, session)
            });
            after_batch();
            pass.batch_s += report.wall_secs;
            pass.session.push(report.session);
            for (&idx, outcome) in order.iter().zip(report.outcomes) {
                let secs = outcome.consumed_secs;
                pass.runs.push(GoalRun { idx, secs, outcome });
            }
            pass.wall = spans.end(pass_span);
        }
    }
    pass
}

// ---------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------

#[derive(Default)]
struct Verification {
    /// Verdict per (goal index, program text); each distinct program is
    /// verified once.
    verdicts: BTreeMap<(usize, String), verify::Verdict>,
}

impl Verification {
    fn verify_pass(
        &mut self,
        pass: &Pass,
        setup: &Setup,
        workload: &Workload,
        seed: u64,
        spans: &mut Spans,
    ) {
        for run in &pass.runs {
            let (Some(ast), Some(text)) = (&run.outcome.result.ast, &run.outcome.result.program)
            else {
                continue;
            };
            let key = (run.idx, text.clone());
            if self.verdicts.contains_key(&key) {
                continue;
            }
            let goal_seed = seed ^ fnv1a(&workload.goals[run.idx].label());
            let (verdict, _) = spans.time("verify", None, Some(run.idx), || {
                verify::verify(&setup.jobs[run.idx].goal, ast, goal_seed)
            });
            if let Some(failure) = &verdict.failure {
                eprintln!(
                    "synqbench: {} FAILED verification: {failure}\n  program: {text}",
                    workload.goals[run.idx].label()
                );
            }
            self.verdicts.insert(key, verdict);
        }
    }

    /// Whether a run solved its goal with a program that verified.
    fn verified(&self, run: &GoalRun) -> bool {
        let Some(text) = &run.outcome.result.program else {
            return false;
        };
        run.outcome.result.solved
            && self
                .verdicts
                .get(&(run.idx, text.clone()))
                .is_some_and(|v| v.failure.is_none())
    }

    fn failed(&self, run: &GoalRun) -> bool {
        run.outcome.result.solved && !self.verified(run)
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let logs: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (logs / values.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Limits glibc to one malloc arena, before any thread starts, so that
/// `peak_rss_mb` measures the program's heap and not the slack of
/// per-thread arenas. With an arena per engine worker, the peak of ten
/// `holdouts` runs (2 workers) ranged over 41–63 MB, and the medians of
/// two sets of ten differed by 24 %; with one arena, five runs peaked at
/// 20–22 MB, against 52–63 MB for the same seeds with the default.
fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        /// `M_ARENA_MAX` from glibc's `malloc.h`.
        const M_ARENA_MAX: std::ffi::c_int = -8;
        extern "C" {
            fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
        }
        // SAFETY: `mallopt` only changes a tuning parameter of glibc's
        // allocator. It takes no pointer, and it is called before the
        // process starts a thread.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Hands the allocator's free pages back to the system before a goal
/// that runs on a fresh session, so that goal's peak does not depend on
/// how earlier goals left the heap fragmented: each starts like a fresh
/// `synquid` process.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` only returns pages that glibc's allocator
        // holds as free to the system. It takes no pointer and may be
        // called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // `+ 0.0` turns the `-0.0` that an empty float sum yields into 0.
        self.0.push((name.into(), value + 0.0, unit));
    }

    fn count(&mut self, name: impl Into<String>, value: usize) {
        self.put(name, value as f64, "count");
    }

    fn table(&self, heading: &str) -> String {
        let mut out = format!("# {heading}\n");
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "{name:<40} {value:>14.6} {unit}");
        }
        out
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

// ---------------------------------------------------------------------
// End-to-end metrics
// ---------------------------------------------------------------------

/// The end-to-end figures of a list of passes over the same goals.
struct EndToEnd {
    wall_s: f64,
    goal_s_p50: f64,
    goal_s_geomean: f64,
    /// Goals in the per-goal sample (`goal_s_*` are over these).
    goal_samples: usize,
    /// Median seconds per goal index.
    per_goal: BTreeMap<usize, f64>,
}

fn end_to_end(passes: &[Pass]) -> EndToEnd {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let mut times: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for run in passes.iter().flat_map(|p| &p.runs) {
        times.entry(run.idx).or_default().push(run.secs);
    }
    let per_goal: BTreeMap<usize, f64> = times.iter().map(|(&i, t)| (i, median(t))).collect();
    let goal_times: Vec<f64> = per_goal.values().copied().collect();
    EndToEnd {
        wall_s: median(&walls),
        goal_s_p50: median(&goal_times),
        goal_s_geomean: geomean(&goal_times),
        goal_samples: goal_times.len(),
        per_goal,
    }
}

// ---------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------

/// Phase self-time and cache counts read back from the traced run's
/// event buffer, summed over every rung attempt of every goal.
#[derive(Default)]
struct TraceTotals {
    phases: PhaseProfile,
    local_hits: u64,
    mus_memo_hits: u64,
    error: Option<String>,
}

impl TraceTotals {
    /// Drains the event buffer and folds its analysis in.
    fn drain(&mut self) {
        let Some(text) = events::take_trace_buffer() else {
            return;
        };
        match synquid_trace::parse_trace(&text) {
            Ok(trace) => {
                let report = synquid_trace::analyze(&trace);
                for goal in report.goals.values() {
                    for rung in goal.rungs.values() {
                        self.phases.merge(&rung.phases);
                    }
                    let hits = |layer: &str| goal.caches.get(layer).map_or(0, |c| c.hits);
                    self.local_hits += hits("local");
                    self.mus_memo_hits += hits("mus-memo");
                }
            }
            Err(e) => {
                self.error.get_or_insert(e.to_string());
            }
        }
    }
}

/// Times each of `synquid_bench::fixtures` against a fresh solver.
fn solver_fixtures(metrics: &mut Metrics, spans: &mut Spans) -> Result<(), String> {
    for fixture in synquid_bench::fixtures::all() {
        let mut times = Vec::new();
        for _ in 0..FIXTURE_REPS {
            let workload = (fixture.build)();
            let mut smt = Smt::new();
            let (ok, secs) = spans.time("solver.fixture", None, None, || match workload {
                synquid_bench::fixtures::Workload::Query {
                    antecedent,
                    consequent,
                } => smt.entails(&antecedent, &consequent) == fixture.expect_unsat,
                synquid_bench::fixtures::Workload::Mus { background, soft } => {
                    let muses = enumerate_mus_smt(
                        &mut smt,
                        &background,
                        &soft,
                        &BTreeSet::new(),
                        MusConfig::default(),
                    );
                    muses.is_empty() != fixture.expect_unsat
                }
            });
            if !ok {
                return Err(format!(
                    "solver fixture {} returned the wrong verdict",
                    fixture.name
                ));
            }
            times.push(secs);
        }
        metrics.put(
            format!("solver.fixture.{}_s", fixture.name),
            median(&times),
            "s",
        );
    }
    Ok(())
}

const SOLVER_PHASES: [(&str, Phase); 5] = [
    ("solver.encode_s", Phase::Encode),
    ("solver.sat_s", Phase::Sat),
    ("solver.lia_s", Phase::Lia),
    ("solver.core_shrink_s", Phase::CoreShrink),
    ("solver.cache_lookup_s", Phase::CacheLookup),
];

fn phase_s(profile: &PhaseProfile, phase: Phase) -> f64 {
    profile.get(phase).total_secs()
}

/// The per-layer metrics of one traced pass.
fn layer_metrics(
    workload: &Workload,
    setup: &Setup,
    traced: &Pass,
    totals: &TraceTotals,
    metrics: &mut Metrics,
) {
    let outcomes: Vec<&GoalOutcome> = traced.runs.iter().map(|r| &r.outcome).collect();
    let consumed: f64 = outcomes.iter().map(|o| o.consumed_secs).sum();
    let sum = |f: fn(&GoalOutcome) -> usize| -> usize { outcomes.iter().map(|o| f(o)).sum() };
    // The stats of each goal's reported rung: the winner, or the last
    // rung that finished. Not whole-goal totals (see METRICS.md).
    let stat = |f: fn(&synquid_core::SynthesisStats) -> usize| -> usize {
        outcomes
            .iter()
            .filter_map(|o| o.result.stats.as_ref())
            .map(f)
            .sum()
    };
    let reported_phases = outcomes
        .iter()
        .filter_map(|o| o.result.stats.as_ref())
        .fold(PhaseProfile::default(), |mut acc, s| {
            acc.merge(&s.phases);
            acc
        });

    metrics.put("parser.load_s", setup.load_s, "s");

    metrics.put("engine.run_batch_s", traced.batch_s, "s");
    metrics.count("engine.rungs_run", sum(|o| o.rungs_run));
    metrics.count("engine.rungs_cancelled", sum(|o| o.rungs_cancelled));
    metrics.count("engine.rungs_skipped", sum(|o| o.rungs_skipped));
    metrics.count("engine.rungs_out_of_budget", sum(|o| o.rungs_out_of_budget));
    let solved: Vec<&&GoalOutcome> = outcomes.iter().filter(|o| o.result.solved).collect();
    let winning: f64 = solved.iter().map(|o| o.result.time_secs).sum();
    let solved_consumed: f64 = solved.iter().map(|o| o.consumed_secs).sum();
    metrics.put(
        "engine.winning_rung_frac",
        ratio(winning, solved_consumed),
        "ratio",
    );
    let budget = workload.budget.as_secs_f64();
    let overshoot = outcomes
        .iter()
        .filter(|o| !o.result.solved && o.result.timed_out)
        .map(|o| o.consumed_secs - budget)
        .fold(0.0, f64::max);
    metrics.put("engine.overshoot_s_max", overshoot, "s");
    metrics.put(
        "engine.attributed_frac",
        ratio(reported_phases.total_secs(), consumed),
        "ratio",
    );

    // Counters of each batch's session delta, summed; entries and
    // resident lemmas are end-of-batch gauges of each batch's session.
    let total = |f: fn(&SessionStats) -> usize| -> usize { traced.session.iter().map(f).sum() };
    let (v_hits, v_misses) = (total(|s| s.validity.hits), total(|s| s.validity.misses));
    let (e_hits, e_misses) = (
        total(|s| s.enumeration.hits),
        total(|s| s.enumeration.misses),
    );
    metrics.put(
        "session.validity_hit_rate",
        ratio(v_hits as f64, (v_hits + v_misses) as f64),
        "ratio",
    );
    metrics.count("session.validity_entries", total(|s| s.validity.entries));
    metrics.put(
        "session.enum_hit_rate",
        ratio(e_hits as f64, (e_hits + e_misses) as f64),
        "ratio",
    );
    metrics.count("session.lemmas_absorbed", total(|s| s.lemmas.absorbed));
    metrics.count("session.lemmas_resident", total(|s| s.lemmas.resident));
    metrics.count(
        "session.terms_interned",
        total(|s| s.validity.terms_interned),
    );
    metrics.count(
        "session.evicted",
        total(|s| {
            s.validity.entries_evicted
                + s.validity.terms_evicted
                + s.enumeration.evicted
                + s.lemmas.evicted
        }),
    );

    let terms = stat(|s| s.terms_enumerated);
    let pruned = stat(|s| s.pruned_early);
    let memo_hits = stat(|s| s.memo_hits);
    let memo_misses = stat(|s| s.memo_misses);
    metrics.count("core.terms_enumerated", terms);
    metrics.count("core.eterms_checked", stat(|s| s.eterms_checked));
    metrics.count("core.pruned_early", pruned);
    metrics.put(
        "core.prune_frac",
        ratio(pruned as f64, terms as f64),
        "ratio",
    );
    metrics.put(
        "core.memo_hit_rate",
        ratio(memo_hits as f64, (memo_hits + memo_misses) as f64),
        "ratio",
    );
    for (name, phase) in [
        ("core.generation_s", Phase::Generation),
        ("core.consistency_s", Phase::Consistency),
        ("core.subtyping_s", Phase::Subtyping),
        ("core.abduction_s", Phase::Abduction),
        ("core.memo_lookup_s", Phase::MemoLookup),
    ] {
        metrics.put(name, phase_s(&totals.phases, phase), "s");
    }

    let queries = stat(|s| s.smt_queries);
    let shared_hits = stat(|s| s.shared_cache_hits);
    let shared_misses = stat(|s| s.shared_cache_misses);
    metrics.count("solver.queries", queries);
    metrics.put(
        "solver.local_hit_rate",
        ratio(stat(|s| s.smt_cache_hits) as f64, queries as f64),
        "ratio",
    );
    metrics.put(
        "solver.shared_hit_rate",
        ratio(shared_hits as f64, (shared_hits + shared_misses) as f64),
        "ratio",
    );
    for (name, phase) in SOLVER_PHASES {
        metrics.put(name, phase_s(&totals.phases, phase), "s");
    }
    let reported_solver_s: f64 = SOLVER_PHASES
        .iter()
        .map(|&(_, p)| phase_s(&reported_phases, p))
        .sum();
    metrics.put(
        "solver.queries_per_s",
        ratio(queries as f64, reported_solver_s),
        "1/s",
    );
    metrics.count(
        "solver.conflicts_learned",
        stat(|s| s.smt_conflicts_learned),
    );
    metrics.count("solver.conflicts_reused", stat(|s| s.smt_conflicts_reused));
    metrics.count(
        "solver.tableau_warm_starts",
        stat(|s| s.tableau_warm_starts),
    );
    metrics.count("solver.pivots_saved", stat(|s| s.lia_pivots_saved));
    metrics.count("solver.bounds_propagated", stat(|s| s.bounds_propagated));
    metrics.count(
        "solver.mus_shared_encodings",
        stat(|s| s.mus_shared_encodings),
    );

    metrics.put(
        "trace.attributed_frac",
        ratio(totals.phases.total_secs(), consumed),
        "ratio",
    );
    metrics.count("trace.local_hits", totals.local_hits as usize);
    metrics.count("trace.mus_memo_hits", totals.mus_memo_hits as usize);
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

struct RunResult {
    table: String,
    json: String,
    failed: usize,
}

/// Timed passes, untraced, until the next one would overrun `seconds`;
/// at least one.
fn timed_passes(args: &Args, setup: &Setup, order: &[usize], spans: &mut Spans) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(run_pass(
            &args.workload,
            setup,
            order,
            spans,
            PassKind::Timed,
            || {},
        ));
        let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
        if started.elapsed().as_secs_f64() + median(&walls) > args.seconds {
            return passes;
        }
    }
}

/// The traced run: the solver fixtures, one untraced pass, then one
/// pass with the profiler and the event buffer on. Puts the per-layer
/// metrics those give into `metrics`; returns (untraced, traced).
fn traced_passes(
    workload: &Workload,
    setup: &Setup,
    order: &[usize],
    spans: &mut Spans,
    metrics: &mut Metrics,
) -> Result<(Pass, Pass), String> {
    solver_fixtures(metrics, spans)?;
    let untraced = run_pass(workload, setup, order, spans, PassKind::Single, || {});
    // Portfolio overhead: the engine's time to each verdict beyond the
    // synthesis run of its winning rung, untraced.
    let solved = untraced.runs.iter().filter(|r| r.outcome.result.solved);
    let synth_s: f64 = solved.clone().map(|r| r.outcome.result.time_secs).sum();
    let overhead = solved.map(|r| r.secs).sum::<f64>() - synth_s;

    synquid_telemetry::set_profiling(true);
    events::init_trace_buffer();
    let mut totals = TraceTotals::default();
    let traced = run_pass(workload, setup, order, spans, PassKind::Traced, || {
        totals.drain()
    });
    if let Some(e) = &totals.error {
        return Err(format!("cannot read back the event buffer: {e}"));
    }
    layer_metrics(workload, setup, &traced, &totals, metrics);
    metrics.put("engine.portfolio_overhead_s", overhead, "s");
    metrics.put("core.synth_s", synth_s, "s");
    metrics.put(
        "telemetry.overhead_frac",
        ratio(traced.wall - untraced.wall, untraced.wall),
        "ratio",
    );
    let resident: Vec<&SynthesisSession> = match &setup.resident {
        Some(session) => vec![session],
        None => traced.sessions.iter().collect(),
    };
    let (mut serialize_s, mut bytes, mut warm_start_s) = (0.0, 0, 0.0);
    for session in resident {
        let (s, b, w) = snapshot_round_trip(session, spans);
        serialize_s += s;
        bytes += b;
        warm_start_s += w;
    }
    metrics.put("session.serialize_s", serialize_s, "s");
    metrics.put("session.snapshot_bytes", bytes as f64, "bytes");
    metrics.put("session.warm_start_s", warm_start_s, "s");
    Ok((untraced, traced))
}

/// The per-layer metrics of verification and outcomes, and the per-goal
/// rows of the traced pass.
fn verdict_metrics(
    workload: &Workload,
    verification: &Verification,
    traced: &Pass,
    solved_frac: f64,
    goal_samples: usize,
    metrics: &mut Metrics,
) {
    let verdicts: Vec<&verify::Verdict> = verification.verdicts.values().collect();
    let count = |f: fn(&verify::Verdict) -> usize| verdicts.iter().map(|v| f(v)).sum();
    let secs = |f: fn(&verify::Verdict) -> f64| verdicts.iter().map(|v| f(v)).sum();
    metrics.put("outcome.solved_frac", solved_frac, "ratio");
    metrics.count("outcome.goal_samples", goal_samples);
    metrics.count("oracle.cases", count(|v| v.cases));
    metrics.count("oracle.violations", count(|v| v.violations));
    metrics.count("oracle.gave_up", count(|v| v.gave_up));
    metrics.count("oracle.undecided", count(|v| v.undecided));
    metrics.put("oracle.check_s", secs(|v| v.oracle_s), "s");
    metrics.put("core.check_s", secs(|v| v.check_s), "s");
    let per_goal = end_to_end(std::slice::from_ref(traced)).per_goal;
    for goal in workloads::all_goals() {
        // A goal outside this workload spent none of its time.
        let secs = workload
            .goals
            .iter()
            .position(|g| g == goal)
            .and_then(|i| per_goal.get(&i).copied())
            .unwrap_or(0.0);
        metrics.put(goal.metric(), secs, "s");
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    let workload = &args.workload;
    let mut spans = Spans::new();
    let order = goal_order(workload, args.seed);
    let setup = set_up(workload, &order, &mut spans)?;
    let mut metrics = Metrics::default();
    let (passes, traced) = if args.trace {
        let (untraced, traced) = traced_passes(workload, &setup, &order, &mut spans, &mut metrics)?;
        (vec![untraced], Some(traced))
    } else {
        (timed_passes(args, &setup, &order, &mut spans), None)
    };

    let mut verification = Verification::default();
    let all_passes = || passes.iter().chain(traced.as_ref());
    for pass in all_passes() {
        verification.verify_pass(pass, &setup, workload, args.seed, &mut spans);
    }
    // Nothing below is traced; drop what verification emitted.
    let _ = events::take_trace_buffer();

    let runs: Vec<&GoalRun> = all_passes().flat_map(|p| &p.runs).collect();
    let attempted = runs.len();
    let failed = runs.iter().filter(|r| verification.failed(r)).count();
    let verified = runs.iter().filter(|r| verification.verified(r)).count();
    let solved_frac = ratio(verified as f64, attempted as f64);
    let e2e = end_to_end(&passes);

    let mut summary = Metrics::default();
    summary.put("setup_s", setup.setup_s, "s");
    summary.put("wall_s", e2e.wall_s, "s");
    summary.put("goal_s_p50", e2e.goal_s_p50, "s");
    summary.put("goal_s_geomean", e2e.goal_s_geomean, "s");
    // A traced run's peak includes its traced pass and event buffer.
    if !args.trace {
        summary.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let mut table = summary.table(&format!(
        "{} ({}) seed {}: {} untraced pass(es) over {} goals; {verified} of {attempted} verdicts solved and verified",
        workload.name,
        workload.why,
        args.seed,
        passes.len(),
        e2e.goal_samples,
    ));
    let _ = writeln!(table, "{:<40} {solved_frac:>14.6} ratio", "solved_frac");

    let json_metrics = match &traced {
        Some(traced) => {
            verdict_metrics(
                workload,
                &verification,
                traced,
                solved_frac,
                e2e.goal_samples,
                &mut metrics,
            );
            table.push_str(&metrics.table("per-layer metrics (traced run)"));
            metrics.json()
        }
        None => {
            for (&idx, secs) in &e2e.per_goal {
                let _ = writeln!(table, "{:<40} {secs:>14.6} s", workload.goals[idx].metric());
            }
            summary.json()
        }
    };
    let json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {json_metrics}}}",
        failed == 0
    );
    if args.trace {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
        let stem = format!("{OUT_DIR}/{}-seed{}", workload.name, args.seed);
        std::fs::write(format!("{stem}.spans.jsonl"), spans.to_jsonl())
            .and_then(|()| std::fs::write(format!("{stem}.layers.json"), format!("{json}\n")))
            .map_err(|e| format!("cannot write {stem}.*: {e}"))?;
    }
    Ok(RunResult {
        table,
        json,
        failed,
    })
}
