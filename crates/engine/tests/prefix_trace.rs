//! The prefix memo, observed through the recorder: the jobs of one batch
//! that run different flows on one `Arc<Aig>` prepare the shared prefix
//! once. This is the only test of its binary, so no other test's flow
//! spans can land in its recording.

use sfq_engine::{Job, SuiteRunner};
use std::sync::Arc;
use t1map::cells::CellLibrary;
use t1map::flow::FlowConfig;

#[test]
fn one_subject_under_three_flows_prepares_once() {
    let lib = CellLibrary::default();
    let aig = Arc::new(sfq_circuits::epfl::adder(8));
    let jobs = [
        ("1φ", FlowConfig::single_phase()),
        ("4φ", FlowConfig::multiphase(4)),
        ("T1", FlowConfig::t1(4)),
    ]
    .map(|(flow, config)| Job::new("adder8", flow, aig.clone(), lib, config));

    sfq_obs::enable();
    let report = SuiteRunner::new(3).run(&jobs);
    sfq_obs::disable();
    let trace = sfq_obs::take();

    assert_eq!(report.cache.misses, 3, "three distinct flows ran");
    let spans = |name: &str| trace.events.iter().filter(|e| e.name == name).count();
    assert_eq!(spans("flow:prepare"), 1, "one prefix for the subject");
    assert_eq!(spans("flow:run"), 3, "each flow finishes on its own");
    // The baseline cover in the prefix plus the T1 flow's own cover.
    assert_eq!(spans("flow:map"), 2);
    let shared = trace
        .counters
        .iter()
        .find(|(name, _)| name == "engine.prefix.shared")
        .map(|&(_, v)| v);
    assert_eq!(shared, Some(2), "two jobs reuse the prefix");
}
