//! The recommended entry point: write the specification *as text* and let
//! the frontend elaborate it — no hand-built ASTs required.
//!
//! The spec below is the `is_empty` benchmark of Table 1 in Synquid's
//! surface syntax: a refined `List` datatype with its `len`/`elems`
//! measures, a few components, and a goal signature followed by
//! `is_empty = ??`. The engine then synthesizes every goal of the spec.
//!
//! Run with: `cargo run --release --example from_spec`

use std::time::Duration;
use synquid::prelude::*;

const SPEC: &str = r#"
qualifier [x: Int, y: Int] {x <= y, x != y, x < y}
qualifier [x: a, y: a] {x <= y, x != y, x < y}

termination measure len :: List b -> Int
measure elems :: List b -> Set b

data List b where
  Nil  :: {List b | len _v == 0 && elems _v == []}
  Cons :: x: b -> xs: List b ->
          {List b | len _v == len xs + 1 && elems _v == elems xs + [x]}

true :: {Bool | _v <==> True}
false :: {Bool | _v <==> False}

is_empty :: <a> . xs: List a -> {Bool | _v <==> len xs == 0}
is_empty = ??
"#;

fn main() {
    let spec = match synquid::parser::load_named_str("from_spec.sq", SPEC) {
        Ok(spec) => spec,
        Err(e) => {
            eprint!("{e}");
            std::process::exit(2);
        }
    };
    println!(
        "Parsed {} component(s) and {} goal(s) from the inline spec.",
        spec.components.len(),
        spec.goals.len()
    );

    let engine = Engine::new(EngineConfig {
        timeout: Duration::from_secs(60),
        ..EngineConfig::default()
    });
    let jobs = spec
        .goals
        .into_iter()
        .map(|goal| {
            println!("Goal: {} :: {}", goal.name, goal.schema);
            GoalJob::new("from_spec.sq", goal)
        })
        .collect();
    for outcome in engine.run(jobs).outcomes {
        let result = outcome.result;
        match result.program {
            Some(program) => println!(
                "\nSynthesized in {:.2}s:\n{} = {program}",
                result.time_secs, result.name
            ),
            None => println!("\n{}: no solution within the budget.", result.name),
        }
    }
}
