//! Every reuse layer on the trace stream reports its misses as well as
//! its hits, so `report trace` prints real hit rates: a layer that only
//! ever emitted `cache_hit` would read 100% whatever its traffic.
//!
//! Kept in its own test binary: the trace sink is process-global.

use std::time::Duration;
use synquid_engine::{Engine, EngineConfig, GoalJob};
use synquid_lang::spec::goal_from_corpus;
use synquid_telemetry::events::{init_trace_buffer, take_trace_buffer};
use synquid_trace::{analyze, parse_trace};

#[test]
fn local_and_mus_memo_layers_report_misses() {
    init_trace_buffer();
    let goal = goal_from_corpus("is_empty").expect("specs/is_empty.sq");
    let engine = Engine::new(EngineConfig {
        timeout: Duration::from_secs(20),
        ..EngineConfig::default()
    });
    let report = engine.run(vec![GoalJob::new("corpus:is_empty", goal)]);
    assert!(report.all_solved());

    let text = take_trace_buffer().expect("buffer sink was installed");
    let trace = parse_trace(&text).expect("trace parses");
    let forensics = &analyze(&trace).goals["is_empty"];
    for layer in ["local", "mus-memo"] {
        let misses = forensics.caches.get(layer).map_or(0, |r| r.misses);
        assert!(
            misses > 0,
            "layer {layer} reported no misses: {:?}",
            forensics.caches
        );
    }
}
