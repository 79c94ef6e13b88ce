//! Figure 7 workload: synthesize `max_n` (the maximum of `n` integers)
//! for growing `n`, demonstrating condition abduction on nested
//! conditionals without any recursion or datatypes. The goals come from
//! the parameterised Rust generator and run through the engine at the
//! Fig. 7 bounds.
//!
//! Run with: `cargo run --release --example sygus_max -- 3`

use std::time::Duration;
use synquid::lang::max_n;
use synquid::prelude::*;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let timeout = Duration::from_secs(120);
    let engine = Engine::new(EngineConfig {
        timeout,
        rungs: vec![(1, 0)],
        base: Variant::Default.config(timeout, (1, 0)),
        ..EngineConfig::default()
    });
    for k in 2..=n {
        let goal = max_n(k);
        println!("== max{k} :: {}", goal.schema);
        let result = engine
            .run(vec![GoalJob::new("sygus_max", goal)])
            .outcomes
            .remove(0)
            .result;
        if result.solved {
            println!(
                "synthesized in {:.2}s:\n{}\n",
                result.time_secs,
                result.program.unwrap()
            );
        } else {
            println!("no solution within the budget ({:.2}s)\n", result.time_secs);
        }
    }
}
