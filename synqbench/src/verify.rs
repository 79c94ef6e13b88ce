//! Verification of every winning program, outside the timed window, two
//! independent ways:
//!
//! * the round-trip type checker (`TypeChecker::check_goal`) on a fresh
//!   solver, with no session cache, lemma or snapshot behind it;
//! * the runtime oracle: inputs drawn from the goal's argument
//!   refinements with a seeded generator, the program run by the
//!   evaluator, and its output checked against the result type.
//!
//! `synquid_oracle::fuzz_goal` synthesizes its own program before it
//! fuzzes, so the per-case check is rebuilt here from the oracle's public
//! parts, against the program the benchmark's pass produced.

use std::time::Instant;
use synquid_core::{Evaluator, Goal, Program, TypeChecker};
use synquid_oracle::{CVal, Checker, GenStats, Generator, LogicEnv, LogicVal, OracleError, Rng};
use synquid_types::RType;

/// Inputs drawn per verified program.
pub const ORACLE_CASES: usize = 60;
/// Size bound of generated datatype values.
const ORACLE_MAX_SIZE: usize = 4;

/// The verdict on one program.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// `Some(reason)` when either check failed.
    pub failure: Option<String>,
    pub check_s: f64,
    pub oracle_s: f64,
    pub cases: usize,
    pub violations: usize,
    pub gave_up: usize,
    /// Cases whose output the oracle could not decide.
    pub undecided: usize,
}

pub fn verify(goal: &Goal, program: &Program, seed: u64) -> Verdict {
    let mut verdict = Verdict::default();
    let started = Instant::now();
    let checked = TypeChecker::new().check_goal(goal, program);
    verdict.check_s = started.elapsed().as_secs_f64();
    if let Err(e) = checked {
        verdict.failure = Some(format!("type check failed: {e}"));
    }
    let started = Instant::now();
    oracle(goal, program, seed, &mut verdict);
    verdict.oracle_s = started.elapsed().as_secs_f64();
    verdict
}

/// Runs the oracle on `ORACLE_CASES` seeded inputs. Goals with a
/// higher-order argument or none at all have nothing to generate and are
/// left to the type checker.
fn oracle(goal: &Goal, program: &Program, seed: u64, verdict: &mut Verdict) {
    let ints = vec![RType::int(); goal.schema.type_vars.len()];
    let (args, ret) = goal.schema.instantiate(&ints).uncurry();
    if args.is_empty() || !args.iter().all(|(_, ty)| ty.is_scalar()) || !ret.is_scalar() {
        return;
    }
    let datatypes = goal.env.datatypes();
    let checker = Checker::new(datatypes);
    let mut generator = Generator::new(datatypes);
    generator.max_size = ORACLE_MAX_SIZE;
    let mut rng = Rng::new(seed);
    let mut stats = GenStats::default();
    for _ in 0..ORACLE_CASES {
        let mut case_rng = rng.split();
        let mut env = LogicEnv::new();
        let mut inputs = Vec::with_capacity(args.len());
        // `Some(true)`: generation gave up; `Some(false)`: it cannot
        // generate this type at all.
        let mut skipped = None;
        for (name, ty) in &args {
            match generator.generate(&mut case_rng, ty, &env, &mut stats) {
                Ok(value) => {
                    env.insert(name.clone(), LogicVal::of(&value));
                    inputs.push(value);
                }
                Err(e) => {
                    skipped = Some(matches!(e, OracleError::GaveUp(_)));
                    break;
                }
            }
        }
        verdict.cases += 1;
        match skipped {
            Some(true) => verdict.gave_up += 1,
            Some(false) => verdict.undecided += 1,
            None => {}
        }
        if skipped.is_some() {
            continue;
        }
        let values: Vec<_> = inputs.iter().map(CVal::to_value).collect();
        let detail = match Evaluator::default().run(program, &values) {
            Err(e) => format!("crashed: {e}"),
            Ok(value) => {
                match CVal::from_value(&value).map(|out| (checker.check(&out, &ret, &env), out)) {
                    Some((Ok(true), _)) => continue,
                    Some((Ok(false), out)) => format!("output {out} does not inhabit {ret}"),
                    // The oracle cannot decide this output; the type checker
                    // still checks it.
                    None | Some((Err(_), _)) => {
                        verdict.undecided += 1;
                        continue;
                    }
                }
            }
        };
        verdict.violations += 1;
        let shown: Vec<String> = inputs.iter().map(ToString::to_string).collect();
        verdict
            .failure
            .get_or_insert(format!("oracle: on ({}) {detail}", shown.join(", ")));
    }
}
