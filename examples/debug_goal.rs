//! Debugging helper: run a single Table 1 benchmark by name (or
//! `group/name`, since names repeat across groups) from its `.sq` spec at
//! the row's bounds, and print the outcome with the run's statistics.
//!
//! Usage: `cargo run --example debug_goal -- "is empty" [timeout-secs]`

use std::time::Duration;
use synquid::lang::table1;
use synquid::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "is empty".to_string());
    let timeout = Duration::from_secs(args.next().and_then(|s| s.parse().ok()).unwrap_or(30));
    let bench = table1()
        .into_iter()
        .find(|b| b.name == name || format!("{}/{}", b.group, b.name) == name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let spec = bench.spec.expect("benchmark not transcribed");
    let goal = bench
        .load_goal()
        .expect("transcribed")
        .unwrap_or_else(|e| panic!("specs/{spec}: {e}"));
    eprintln!("goal: {} :: {} (specs/{spec})", goal.name, goal.schema.ty);
    let engine = Engine::new(EngineConfig {
        timeout,
        rungs: vec![bench.bounds],
        base: Variant::Default.config(timeout, bench.bounds),
        ..EngineConfig::default()
    });
    let report = engine.run(vec![GoalJob::new(spec, goal)]);
    let result = &report.outcomes[0].result;
    eprintln!("stats: {:?}", result.stats);
    eprintln!("validity cache: {:?}", report.cache);
    match &result.program {
        Some(program) => println!(
            "solved=true time={:.2}s program={program}",
            result.time_secs
        ),
        None => println!(
            "solved=false time={:.2}s timed_out={}",
            result.time_secs, result.timed_out
        ),
    }
}
