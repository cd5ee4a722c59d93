//! Every bug report must be concretely replayable (§3.5): the solved
//! inputs, interrupt schedule, and forced-failure schedule re-trigger the
//! same failure in the concrete VM.

use ddt::{replay_bug, test_parallel, Ddt, DriverUnderTest, ReplayOutcome, Report};

fn assert_report_replays(run: &str, dut: &DriverUnderTest, report: &Report) {
    assert!(!report.bugs.is_empty(), "{run} must have bugs to replay");
    for bug in &report.bugs {
        match replay_bug(dut, bug) {
            ReplayOutcome::Reproduced { .. } => {}
            ReplayOutcome::NotReproduced { observed } => {
                panic!(
                    "{run}: bug not reproduced: [{}] {} (observed {observed})",
                    bug.class, bug.description
                );
            }
        }
    }
}

fn assert_all_replay(driver: &str) {
    let spec = ddt::drivers::driver_by_name(driver).unwrap();
    let dut = DriverUnderTest::from_spec(&spec);
    assert_report_replays(driver, &dut, &Ddt::default().test(&dut));
}

#[test]
fn rtl8029_bugs_replay() {
    assert_all_replay("rtl8029");
}

#[test]
fn ensoniq_bugs_replay() {
    assert_all_replay("ensoniq");
}

#[test]
fn pcnet_bugs_replay() {
    assert_all_replay("pcnet");
}

#[test]
fn ac97_bug_replays() {
    assert_all_replay("ac97");
}

#[test]
fn pro100_bugs_replay_serial_and_parallel() {
    // The parallel explorer reaches the pro100 HandleInterrupt lock-variant
    // bug through an interrupt injected at a workload boundary, after one
    // entry point returned and before the next is called. The concrete
    // replayer must deliver it there, as the symbolic fork site did.
    let spec = ddt::drivers::driver_by_name("pro100").unwrap();
    let dut = DriverUnderTest::from_spec(&spec);
    assert_report_replays("pro100", &dut, &Ddt::default().test(&dut));
    assert_report_replays("pro100 on 2 workers", &dut, &test_parallel(&Ddt::default(), &dut, 2));
}

#[test]
fn injected_fault_bugs_replay_to_the_same_bug() {
    // A fault-plan run surfaces bugs whose decision schedules carry
    // `InjectFault` sites; replaying such a report must arm the same fault
    // at the same kernel-call index and reproduce the same failure. The
    // run being deterministic, re-exploring yields the identical bug key.
    let spec = ddt::drivers::driver_by_name("pcnet").unwrap();
    let dut = DriverUnderTest::from_spec(&spec);
    let config = ddt::DdtConfig { fault_plan: ddt::FaultPlan::full(), ..Default::default() };
    let report = Ddt::new(config.clone()).test(&dut);
    let injected: Vec<&ddt::Bug> = report
        .bugs
        .iter()
        .filter(|b| {
            b.decisions.iter().any(|d| matches!(d, ddt::core::Decision::InjectFault { .. }))
        })
        .collect();
    assert!(!injected.is_empty(), "pcnet has injected-fault bugs under the full plan");
    for bug in &injected {
        match replay_bug(&dut, bug) {
            ReplayOutcome::Reproduced { .. } => {}
            ReplayOutcome::NotReproduced { observed } => {
                panic!("[{}] {} not reproduced: {observed}", bug.class, bug.description);
            }
        }
    }
    // Determinism of the bug key: a second exploration with the same plan
    // produces the same injected-fault keys.
    let again = Ddt::new(config).test(&dut);
    let keys = |r: &ddt::Report| {
        r.bugs.iter().map(|b| b.key.clone()).collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(keys(&report), keys(&again));
}

#[test]
fn replay_survives_serialization() {
    // The report a consumer receives over the wire replays identically.
    let spec = ddt::drivers::driver_by_name("ensoniq").unwrap();
    let dut = DriverUnderTest::from_spec(&spec);
    let report = Ddt::default().test(&dut);
    let bug = &report.bugs[0];
    let wire = serde_json::to_vec(bug).unwrap();
    let received: ddt::Bug = serde_json::from_slice(&wire).unwrap();
    assert!(matches!(
        replay_bug(&dut, &received),
        ReplayOutcome::Reproduced { .. }
    ));
}

#[test]
fn traces_are_bounded() {
    // §3.5: "The size of these traces rarely exceeds 1 MB per bug".
    let spec = ddt::drivers::driver_by_name("rtl8029").unwrap();
    let dut = DriverUnderTest::from_spec(&spec);
    let report = Ddt::default().test(&dut);
    for bug in &report.bugs {
        let bytes = serde_json::to_vec(bug).unwrap().len();
        assert!(
            bytes < 1_048_576,
            "trace for {:?} is {} bytes (> 1 MB)",
            bug.description,
            bytes
        );
    }
}
