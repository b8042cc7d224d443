//! The deployment preamble shared by [`Scenario`](crate::Scenario) and
//! [`Cluster`](crate::Cluster): the steps every build runs before it places
//! a single node or actor.

use fs_simnet::link::{LinkModel, Topology};

use crate::faults::FaultSchedule;
use crate::scenario::{Protocol, RuntimeKind};
use crate::workload::Workload;

/// The build steps [`Scenario::build`](crate::Scenario::build) and
/// [`Cluster::build`](crate::Cluster::build) share, run
/// before anything is deployed:
///
/// * stamp the arrival-process seed from the deployment seed, so open-loop
///   runs are reproducible per seed without extra configuration (each member
///   then derives its own independent stream from this value);
/// * pace threaded deployments against the absolute arrival plan, so OS
///   wakeup lateness cannot accumulate into offered-rate drift (the
///   simulator keeps relative pacing: its handler latency is modeled);
/// * reject fault entries that target processes `protocol` does not deploy;
///
/// and return the topology, defaulting to the paper's 100 Mb/s LAN.
pub(crate) fn prepare_build<'a>(
    runtime: RuntimeKind,
    protocol: Protocol,
    seed: u64,
    workload: &mut Workload,
    faults: impl IntoIterator<Item = &'a FaultSchedule>,
    topology: &Option<Topology>,
) -> Topology {
    if workload.arrival_seed == 0 {
        workload.arrival_seed = seed ^ 0x9E37_79B9_7F4A_7C15;
    }
    if runtime == RuntimeKind::Threaded {
        workload.drift_free_pacing = true;
    }
    for entry in faults.into_iter().flat_map(|f| f.entries()) {
        assert!(
            FaultSchedule::target_applies(entry.target, protocol == Protocol::FailSignal),
            "fault schedule targets {:?} of member {}, which the {:?} protocol does not deploy",
            entry.target,
            entry.member,
            protocol,
        );
    }
    topology
        .clone()
        .unwrap_or_else(|| Topology::new(LinkModel::lan_100mbps()))
}

#[cfg(test)]
mod tests {
    use fs_common::time::{SimDuration, SimTime};
    use fs_newtop::message::ServiceKind;
    use fs_newtop::suspector::SuspectorConfig;

    use crate::{NewTopService, PairLayout, Protocol, Running, Scenario, Workload};

    fn small_group(members: u32, protocol: Protocol, messages: u64) -> Scenario {
        small_group_of(NewTopService::new(), members, protocol, messages)
    }

    fn small_group_of(
        service: NewTopService,
        members: u32,
        protocol: Protocol,
        messages: u64,
    ) -> Scenario {
        Scenario::new(service)
            .members(members)
            .protocol(protocol)
            .workload(
                Workload::paper_default()
                    .messages(messages)
                    .interval(SimDuration::from_millis(30)),
            )
    }

    fn run_and_check_agreement(scenario: Scenario, members: u32, messages: u64) {
        let mut run = scenario.build();
        run.run_until(SimTime::from_secs(600));
        let expected = u64::from(members) * messages;
        let reference = run.delivery_log(0);
        assert_eq!(
            reference.len() as u64,
            expected,
            "member 0 delivered {} of {expected}",
            reference.len()
        );
        for i in 1..members {
            assert_eq!(run.delivery_log(i), reference, "member {i} diverged");
        }
    }

    #[test]
    fn newtop_small_group_totally_orders() {
        run_and_check_agreement(small_group(3, Protocol::Crash, 5), 3, 5);
    }

    #[test]
    fn fs_newtop_small_group_totally_orders() {
        run_and_check_agreement(small_group(3, Protocol::FailSignal, 5), 3, 5);
    }

    #[test]
    fn fs_newtop_full_layout_also_works() {
        let scenario = small_group(3, Protocol::FailSignal, 3).layout(PairLayout::Full);
        run_and_check_agreement(scenario, 3, 3);
    }

    #[test]
    fn fs_newtop_pairs_do_not_fail_in_failure_free_runs() {
        let mut run = small_group(4, Protocol::FailSignal, 4).build();
        run.run_until(SimTime::from_secs(600));
        for i in 0..4 {
            let interceptor = run.interceptor(i).expect("FS member has an interceptor");
            assert!(!interceptor.local_fail_signalled(), "member {i} signalled");
            assert_eq!(interceptor.receiver_stats().rejected, 0);
        }
        assert!(!run.fail_signalled());
    }

    #[test]
    fn fs_newtop_uses_more_messages_than_newtop() {
        // Disable the baseline's ping traffic so the comparison counts only
        // protocol messages caused by the workload itself.
        let run = |protocol: Protocol| -> Running {
            let service = NewTopService::new().suspector(SuspectorConfig::disabled());
            let mut run = small_group_of(service, 3, protocol, 3).build();
            run.run_until(SimTime::from_secs(600));
            run
        };
        let newtop = run(Protocol::Crash).stats().messages_sent;
        let fs = run(Protocol::FailSignal).stats().messages_sent;
        assert!(
            fs > newtop,
            "fail-signal wrapping must add message overhead (fs {fs} vs newtop {newtop})"
        );
    }

    #[test]
    fn asymmetric_service_also_agrees_under_fs() {
        let service = NewTopService::new().service_kind(ServiceKind::AsymmetricTotal);
        let scenario = small_group_of(service, 3, Protocol::FailSignal, 4);
        run_and_check_agreement(scenario, 3, 4);
    }

    #[test]
    fn node_counts_match_the_paper() {
        // Full layout: 2 nodes per member; collapsed: 1 node per member;
        // crash-tolerant baseline: 1 node per member.
        let full = small_group(3, Protocol::FailSignal, 1)
            .layout(PairLayout::Full)
            .build();
        let collapsed = small_group(3, Protocol::FailSignal, 1).build();
        let newtop = small_group(3, Protocol::Crash, 1).build();
        assert_eq!(full.members().len(), 3);
        assert_eq!(newtop.members().len(), 3);
        assert_eq!(full.sim().unwrap().node_count(), 6);
        assert_eq!(collapsed.sim().unwrap().node_count(), 3);
        assert_eq!(newtop.sim().unwrap().node_count(), 3);
        // Only the fail-signal deployment puts a wrapper pair behind each
        // member's middleware entry point.
        for m in full.members() {
            assert_ne!(m.leader, m.follower);
        }
        for m in newtop.members() {
            assert_eq!((m.leader, m.follower), (m.middleware, m.middleware));
        }
    }
}
