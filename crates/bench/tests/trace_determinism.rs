//! The trace layer's core contract: a replay is a pure function of
//! `(system, seed, scenario)` — two runs produce byte-identical dumps —
//! every timeline runs forward in time, and the showcase scenario
//! actually exercises every decision family the paper's algorithms emit.

use iorch_bench::tracereplay::{parse_system, run_scenario, SCENARIOS};
use iorch_simcore::trace::{self, TraceEvent};
use iorchestra::SystemKind;

/// Fail unless the timeline's timestamps never decrease, naming the
/// scenario, the system, the seed and the first line stamped earlier
/// than the one before it.
fn assert_time_ordered(events: &[TraceEvent], scenario: &str, system: &str, seed: u64) {
    if let Some(i) = (1..events.len()).find(|&i| events[i].t < events[i - 1].t) {
        panic!(
            "{scenario} under {system} at seed {seed}: timeline line {} steps back in time:\n{}",
            i + 1,
            trace::render_timeline(&events[i - 1..=i])
        );
    }
}

#[test]
fn mixed8_replay_is_byte_identical_and_shows_the_decisions() {
    if !trace::COMPILED {
        return; // built with --cfg iorch_trace_off
    }
    let seed = 42;
    let a = run_scenario(SystemKind::IOrchestra, seed, "mixed8").unwrap();
    let b = run_scenario(SystemKind::IOrchestra, seed, "mixed8").unwrap();
    assert!(!a.is_empty());
    assert_time_ordered(&a, "mixed8", "iorchestra", seed);
    assert_eq!(
        trace::render_timeline(&a),
        trace::render_timeline(&b),
        "same (system, seed, scenario) must give a byte-identical timeline"
    );
    assert_eq!(trace::chrome_json(&a), trace::chrome_json(&b));

    // The full request lifecycle is visible in one dump...
    let timeline = trace::render_timeline(&a);
    for needle in [
        "ring_push",
        "drr_visit",
        "device dispatch",
        "device complete",
        "block_complete",
        "store_write",
        "xenbus_deliver",
    ] {
        assert!(timeline.contains(needle), "{needle} missing from timeline");
    }
    // ...and so is every decision family Algorithms 1–3 emit.
    let decisions = trace::render_decision_log(&a);
    for needle in [
        "flush_now",
        "flush_ack",
        "release_granted",
        "congestion_confirmed",
        "quarantine",
        "weight_push",
    ] {
        assert!(
            decisions.contains(needle),
            "{needle} missing from decision log"
        );
    }
}

#[test]
fn every_scenario_replays_identically_under_every_system() {
    if !trace::COMPILED {
        return;
    }
    for (scenario, _) in SCENARIOS {
        if *scenario == "mixed8" {
            continue; // covered (more deeply) above; keep runtime down
        }
        for name in ["baseline", "iorchestra"] {
            let kind = parse_system(name).unwrap();
            let a = run_scenario(kind, 7, scenario).unwrap();
            let b = run_scenario(kind, 7, scenario).unwrap();
            assert_time_ordered(&a, scenario, name, 7);
            assert_eq!(
                trace::render_timeline(&a),
                trace::render_timeline(&b),
                "{name}/{scenario} diverged between two replays"
            );
        }
    }
}

/// Every scenario under every system at seeds {7, 42, 1337} runs forward
/// in time. Too slow for the debug suite; tier 1 runs it in release.
#[test]
#[ignore]
fn every_timeline_is_time_ordered_at_every_seed() {
    if !trace::COMPILED {
        return;
    }
    for (scenario, _) in SCENARIOS {
        for name in ["baseline", "sdc", "dif", "iorchestra"] {
            let kind = parse_system(name).unwrap();
            for seed in [7, 42, 1337] {
                let events = run_scenario(kind, seed, scenario).unwrap();
                assert_time_ordered(&events, scenario, name, seed);
            }
        }
    }
}

#[test]
fn unknown_scenarios_and_systems_are_rejected() {
    assert!(run_scenario(SystemKind::IOrchestra, 1, "nope").is_none());
    assert!(parse_system("xen").is_none());
}
