//! One synthesis run of one goal at one rung: the unit of work every
//! scheduler claim executes, and the result type the portfolio ranks.

use std::time::Instant;
use synquid_core::{
    Goal, SolverContext, SynthesisConfig, SynthesisError, SynthesisStats, Synthesizer,
};
use synquid_telemetry::{events, events::Event};

/// The outcome of running one synthesis goal.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Goal name.
    pub name: String,
    /// Whether a program was synthesized.
    pub solved: bool,
    /// Whether the run hit the timeout.
    pub timed_out: bool,
    /// Wall-clock time in seconds.
    pub time_secs: f64,
    /// The synthesized program, pretty-printed.
    pub program: Option<String>,
    /// The synthesized program as an AST, for consumers that need to
    /// execute the result (the runtime oracle) rather than display it.
    pub ast: Option<synquid_core::Program>,
    /// Size of the synthesized program in AST nodes.
    pub code_size: Option<usize>,
    /// Statistics of the run (present for both solved and failed runs).
    pub stats: Option<SynthesisStats>,
}

impl RunResult {
    /// Formats the time like Table 1 ("-" for timeouts/failures).
    pub fn time_cell(&self) -> String {
        if self.solved {
            format!("{:.2}", self.time_secs)
        } else {
            "-".to_string()
        }
    }
}

/// Runs a synthesis goal inside a shared solver context: the run feeds
/// (and is fed by) the context's validity cache, and stops early when the
/// context's cancellation token fires.
pub fn run_goal_in_context(goal: &Goal, config: SynthesisConfig, ctx: &SolverContext) -> RunResult {
    events::emit(|| {
        Event::new("goal_start")
            .str("goal", &goal.name)
            .uint("app_depth", config.max_app_depth as u64)
            .uint("match_depth", config.max_match_depth as u64)
    });
    let start = Instant::now();
    let mut synthesizer = Synthesizer::with_context(config, ctx);
    let outcome = synthesizer.synthesize(goal);
    let time_secs = start.elapsed().as_secs_f64();
    let stats = Some(synthesizer.stats());
    events::emit(|| {
        let status = match &outcome {
            Ok(_) => "solved",
            Err(SynthesisError::Timeout(_)) => "timeout",
            Err(_) => "failed",
        };
        Event::new("goal_finish")
            .str("goal", &goal.name)
            .str("status", status)
            .f64("time_secs", time_secs)
    });
    match outcome {
        Ok(result) => RunResult {
            name: goal.name.clone(),
            solved: true,
            timed_out: false,
            time_secs,
            code_size: Some(result.program.size()),
            program: Some(result.program.to_string()),
            ast: Some(result.program),
            stats,
        },
        Err(err) => RunResult {
            name: goal.name.clone(),
            solved: false,
            timed_out: matches!(err, SynthesisError::Timeout(_)),
            time_secs,
            program: None,
            ast: None,
            code_size: None,
            stats,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use synquid_types::{Environment, RType, Schema};

    #[test]
    fn run_goal_reports_success_for_a_trivial_goal() {
        let goal = Goal::new(
            "trivial",
            Environment::new(),
            Schema::monotype(RType::fun("x", RType::int(), RType::int())),
        );
        let result = run_goal_in_context(
            &goal,
            SynthesisConfig::with_timeout(Duration::from_secs(10)),
            &SolverContext::new(),
        );
        assert!(result.solved);
        // The goal type is unrefined, so any well-typed integer body is a
        // valid solution; the enumerator currently prefers the literal 0.
        let program = result.program.as_deref().unwrap();
        assert!(
            program == "\\x . x" || program == "\\x . 0" || program == "\\x . zero",
            "unexpected program {program}"
        );
        assert!(result.code_size.unwrap() >= 2);
        assert_eq!(result.time_cell(), format!("{:.2}", result.time_secs));
    }
}
