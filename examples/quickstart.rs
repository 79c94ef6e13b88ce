//! Quickstart: synthesize the paper's Fig. 1 example, `replicate`, from its
//! polymorphic refinement type
//! `n: Nat → x: α → {List α | len ν = n}`.
//!
//! The goal comes from the Table 1 row's specification
//! (`specs/replicate.sq`) and runs through the engine at the row's
//! exploration bounds, the way `report table1` measures it. The `synquid`
//! CLI does the same for any `.sq` file, with deepening bounds
//! (`cargo run --release --bin synquid -- specs/replicate.sq`).
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::Duration;
use synquid::lang::table1;
use synquid::prelude::*;

fn main() {
    let replicate = table1()
        .into_iter()
        .find(|b| b.name == "replicate")
        .expect("replicate is part of the Table 1 suite");
    let goal = replicate
        .load_goal()
        .expect("replicate is transcribed")
        .expect("specs/replicate.sq loads");

    println!("Goal: replicate :: {}", goal.schema);
    println!("Synthesizing (this exercises liquid abduction and termination-aware recursion)...");

    let timeout = Duration::from_secs(90);
    let engine = Engine::new(EngineConfig {
        timeout,
        rungs: vec![replicate.bounds],
        base: Variant::Default.config(timeout, replicate.bounds),
        ..EngineConfig::default()
    });
    let result = engine
        .run(vec![GoalJob::new("specs/replicate.sq", goal)])
        .outcomes
        .remove(0)
        .result;
    if result.solved {
        println!(
            "Synthesized in {:.2}s ({} AST nodes):\n",
            result.time_secs,
            result.code_size.unwrap_or(0)
        );
        println!("replicate = {}", result.program.unwrap());
    } else {
        println!(
            "No solution within the time budget ({:.2}s elapsed{}).",
            result.time_secs,
            if result.timed_out { ", timed out" } else { "" }
        );
    }
}
