//! Workspace-level integration tests: end-to-end total ordering through the
//! `Scenario` harness on the simulator (both protocols, both services) and
//! on the real threaded runtime, exercising the whole stack from application
//! payload to delivery.

use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::harness::{
    NewTopService, Protocol, Running, RuntimeKind, Scenario, ServiceSpec, SmrKvService, Workload,
};
use fs_smr_suite::newtop::suspector::SuspectorConfig;
use fs_smr_suite::newtop::ServiceKind;

fn quick_workload(messages: u64) -> Workload {
    Workload::paper_default()
        .messages(messages)
        .interval(SimDuration::from_millis(25))
}

fn check_agreement(run: &mut Running, members: u32, messages: u64) {
    let expected = u64::from(members) * messages;
    let reference = run.delivery_log(0);
    assert_eq!(
        reference.len() as u64,
        expected,
        "member 0 must deliver everything"
    );
    for i in 1..members {
        assert_eq!(run.delivery_log(i), reference, "member {i} diverged");
    }
}

fn sim_scenario(
    service: impl ServiceSpec + 'static,
    members: u32,
    protocol: Protocol,
    messages: u64,
) -> Running {
    let mut run = Scenario::new(service)
        .members(members)
        .protocol(protocol)
        .workload(quick_workload(messages))
        .build();
    run.run_until(SimTime::from_secs(3_000));
    run
}

#[test]
fn newtop_groups_of_various_sizes_agree() {
    for members in [2u32, 4, 6] {
        let mut run = sim_scenario(NewTopService::new(), members, Protocol::Crash, 6);
        check_agreement(&mut run, members, 6);
    }
}

#[test]
fn fs_newtop_groups_of_various_sizes_agree() {
    for members in [2u32, 4, 6] {
        let mut run = sim_scenario(NewTopService::new(), members, Protocol::FailSignal, 6);
        check_agreement(&mut run, members, 6);
        // Failure-free runs: no pair fail-signals and no receiver rejects a
        // double-signed output.
        assert!(
            !run.fail_signalled(),
            "a pair signalled with {members} members"
        );
        for i in 0..members {
            let interceptor = run.interceptor(i).expect("FS member has an interceptor");
            assert_eq!(interceptor.receiver_stats().rejected, 0, "member {i}");
        }
    }
}

#[test]
fn smr_kv_groups_agree_under_both_protocols() {
    for protocol in [Protocol::Crash, Protocol::FailSignal] {
        for members in [2u32, 5] {
            let mut run = sim_scenario(SmrKvService::new(), members, protocol, 4);
            check_agreement(&mut run, members, 4);
            assert!(!run.fail_signalled());
        }
    }
}

#[test]
fn fs_newtop_asymmetric_and_causal_services_work_end_to_end() {
    for service in [
        ServiceKind::AsymmetricTotal,
        ServiceKind::Causal,
        ServiceKind::Reliable,
    ] {
        let mut run = sim_scenario(
            NewTopService::new().service_kind(service),
            3,
            Protocol::FailSignal,
            4,
        );
        for i in 0..3 {
            assert_eq!(
                run.delivery_log(i).len(),
                12,
                "member {i} must see all {service:?} deliveries"
            );
        }
        if service == ServiceKind::AsymmetricTotal {
            check_agreement(&mut run, 3, 4);
        }
    }
}

#[test]
fn full_and_collapsed_layouts_use_the_expected_node_counts() {
    use fs_smr_suite::failsignal::group::PairLayout;
    let build = |protocol: Protocol, layout: PairLayout| {
        Scenario::new(NewTopService::new())
            .members(3)
            .protocol(protocol)
            .layout(layout)
            .workload(quick_workload(3))
            .build()
    };
    let mut full = build(Protocol::FailSignal, PairLayout::Full);
    let collapsed = build(Protocol::FailSignal, PairLayout::Collapsed);
    let crash = build(Protocol::Crash, PairLayout::Collapsed);
    // Figure 4: 2 nodes per member (4f + 2 with n = 2f + 1); Figure 5: one
    // node per member; crash-tolerant baseline: one node per member.
    assert_eq!(full.sim().unwrap().node_count(), 6);
    assert_eq!(collapsed.sim().unwrap().node_count(), 3);
    assert_eq!(crash.sim().unwrap().node_count(), 3);
    // FS-NewTOP runs four processes per member (app, interceptor, two
    // wrappers); NewTOP runs two.
    assert_eq!(full.sim().unwrap().actor_count(), 12);
    assert_eq!(crash.sim().unwrap().actor_count(), 6);
    // The Full layout (followers on dedicated nodes) orders just as the
    // collapsed one does.
    full.run_until(SimTime::from_secs(3_000));
    check_agreement(&mut full, 3, 3);
}

#[test]
fn newtop_runs_on_the_real_threaded_runtime() {
    // Three members on real threads: the same scenario with the runtime
    // axis flipped.  The workload itself lasts ~50 ms of real time; the
    // horizon gives the group a generous, fixed settling window before the
    // first inspection shuts the runtime down.
    let members = 3u32;
    let messages = 5u64;
    let mut run = Scenario::new(NewTopService::new().suspector(SuspectorConfig::disabled()))
        .members(members)
        .protocol(Protocol::Crash)
        .runtime(RuntimeKind::Threaded)
        .workload(quick_workload(messages).interval(SimDuration::from_millis(10)))
        .seed(5)
        .build();
    run.run_until(SimTime::from_secs(4));
    check_agreement(&mut run, members, messages);
}
