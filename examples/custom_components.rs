//! Building a synthesis problem from scratch against the public API:
//! a custom component library (clamp-style integer operations) and a goal
//! whose solution needs both an application and an abduced branch, run
//! through the engine at fixed bounds.
//!
//! Run with: `cargo run --release --example custom_components`

use std::time::Duration;
use synquid::prelude::*;

fn main() {
    // Components: `zero`, `neg` (unary minus), and the comparison `leq`.
    let mut env = Environment::new();
    env.add_qualifiers(Qualifier::standard(Sort::Int));
    let nu = || Term::value_var(Sort::Int);
    env.add_var("zero", RType::refined(BaseType::Int, nu().eq(Term::int(0))));
    env.add_var(
        "neg",
        RType::fun(
            "x",
            RType::int(),
            RType::refined(BaseType::Int, nu().eq(Term::var("x", Sort::Int).neg())),
        ),
    );
    env.add_var(
        "leq",
        RType::fun_n(
            vec![("x".into(), RType::int()), ("y".into(), RType::int())],
            RType::refined(
                BaseType::Bool,
                Term::value_var(Sort::Bool)
                    .iff(Term::var("x", Sort::Int).le(Term::var("y", Sort::Int))),
            ),
        ),
    );

    // Goal: absolute value — abs :: x: Int → {Int | ν ≥ 0 ∧ (ν = x ∨ ν = -x)}
    let x = || Term::var("x", Sort::Int);
    let ret = RType::refined(
        BaseType::Int,
        nu().ge(Term::int(0))
            .and(nu().eq(x()).or(nu().eq(x().neg()))),
    );
    let goal = Goal::new(
        "abs",
        env,
        Schema::monotype(RType::fun("x", RType::int(), ret)),
    );

    println!("Goal: abs :: {}", goal.schema);
    let timeout = Duration::from_secs(60);
    let engine = Engine::new(EngineConfig {
        timeout,
        rungs: vec![(1, 0)],
        base: Variant::Default.config(timeout, (1, 0)),
        ..EngineConfig::default()
    });
    let result = engine
        .run(vec![GoalJob::new("custom_components", goal)])
        .outcomes
        .remove(0)
        .result;
    match result.program {
        Some(program) => println!(
            "Synthesized in {:.2}s:\nabs = {}",
            result.time_secs, program
        ),
        None => println!("No solution within the budget ({:.2}s).", result.time_secs),
    }
}
