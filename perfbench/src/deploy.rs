//! Deployments of the benchmark's groups through `fs_harness::Scenario`,
//! one open-loop run each, with the correctness gate applied to what the
//! run's public counters and logs show.

use std::collections::HashSet;
use std::time::Instant;

use fs_common::id::{MemberId, NodeId};
use fs_common::time::{SimDuration, SimTime};
use fs_harness::{
    Admission, NewTopService, Protocol, Running, RuntimeKind, Scenario, SmrDriver, SmrKvService,
    Workload,
};
use fs_newtop::app::AppProcess;
use fs_simnet::trace::{NetStats, TraceEvent};

use crate::classify::{ClassCounts, PidScheme};
use crate::spans::Spans;
use crate::stats::{percentile, Accounting, Probe};

/// The service a group runs.  Both carry the paper's 3-byte payloads, one
/// command per ordering round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// The sequenced replicated KV store (`Put`s).
    Kv,
    /// NewTOP symmetric total-order group communication.
    Gc,
}

/// A group and its load plane: everything but the protocol, runtime, rate
/// and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    pub service: Service,
    pub members: u32,
    /// Logical clients per member, each with at most [`MAX_IN_FLIGHT`]
    /// commands in flight; arrivals past that bound are shed.
    pub clients: u32,
}

/// Commands one logical client may have in flight.
const MAX_IN_FLIGHT: u32 = 2;

/// One open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub group: Group,
    pub protocol: Protocol,
    pub runtime: RuntimeKind,
    /// Aggregate offered rate, commands per second of the runtime's clock.
    pub rate: f64,
    /// Length of the arrival window, seconds of the runtime's clock.
    pub window_s: f64,
    /// Time allowed after the window for in-flight commands to complete;
    /// commands still pending after it count as failed.
    pub drain_s: f64,
    pub seed: u64,
    /// Record the simulator's event trace and classify it by message class.
    pub sim_trace: bool,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub acct: Accounting,
    /// Latencies of completed commands, sorted, in ms of the runtime clock.
    pub lat_ms: Vec<f64>,
    /// Host seconds to build and start the deployment.
    pub build_s: f64,
    /// Host seconds the run took, build excluded.
    pub host_s: f64,
    /// Process CPU seconds from the runtime's start to the end of the
    /// drain (build and shutdown excluded).
    pub cpu_s: f64,
    pub net: NetStats,
    /// Simulated CPU busy time of every node (simulator only), ns.
    pub sim_busy_ns: u64,
    /// Events queued in the simulator halfway through the window.
    pub sim_pending: usize,
    /// Delivery-log entries summed over members.
    pub deliveries: u64,
    /// Members, each running one arrival generator.
    pub members: u32,
    /// The planned arrival window, s.
    pub window_s: f64,
    /// From the first planned arrival to the last completion, s of the
    /// runtime clock.
    pub span_s: f64,
    /// Members whose fail-signal pair fired.
    pub fail_signals: u64,
    /// Message classes of the simulator's trace (`sim_trace` only).
    pub classes: Option<ClassCounts>,
}

impl Outcome {
    pub fn probe(&self) -> Probe {
        Probe {
            goodput: 1.0 - self.acct.failed_frac(),
            p99_ms: percentile(&self.lat_ms, 0.99),
            window_s: self.window_s,
            span_s: self.span_s,
            per_generator: self.acct.offered as f64 / self.members as f64,
        }
    }

    /// Completed commands per second from the first arrival to the last
    /// completion.
    pub fn completed_rate(&self) -> f64 {
        if self.span_s > 0.0 {
            self.acct.completed as f64 / self.span_s
        } else {
            0.0
        }
    }

    /// Completed commands, at least 1 so per-command ratios stay finite.
    pub fn per_cmd(&self) -> f64 {
        self.acct.completed.max(1) as f64
    }
}

const START_DELAY: SimDuration = SimDuration::from_millis(10);

/// Arrivals each member's generator offers.
fn per_member(spec: &RunSpec) -> u64 {
    (spec.rate / f64::from(spec.group.members) * spec.window_s)
        .round()
        .max(1.0) as u64
}

fn scenario(spec: &RunSpec) -> Scenario {
    let g = spec.group;
    let per_member_rate = spec.rate / f64::from(g.members);
    let messages = per_member(spec);
    let workload = Workload::paper_default()
        .messages(messages)
        .interval(SimDuration::from_nanos((1e9 / per_member_rate) as u64))
        .start_delay(START_DELAY)
        .poisson()
        .clients(g.clients)
        .max_in_flight(MAX_IN_FLIGHT)
        .admission(Admission::Shed);
    let base = match g.service {
        Service::Kv => Scenario::new(SmrKvService::new()),
        Service::Gc => Scenario::new(NewTopService::new()),
    };
    base.members(g.members)
        .protocol(spec.protocol)
        .runtime(spec.runtime)
        .workload(workload)
        .seed(spec.seed)
}

/// CPU time of the process's live threads, in seconds: the sum of the
/// first field (ns on a CPU) of every `/proc/self/task/<tid>/schedstat`.
/// Unlike the 10 ms ticks of `/proc/self/stat`, it resolves one
/// command's worth of work; a deployment's node threads are all alive
/// between its start and its settle, where the benchmark samples it.
pub fn process_cpu_s() -> f64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    let ns: u64 = tasks
        .filter_map(|t| {
            // A thread may exit between listing and reading: skip it.
            let stat = std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum();
    ns as f64 / 1e9
}

/// Builds, runs and inspects one deployment, then applies the correctness
/// gate; a failure is returned as the name of the failed check.  Its spans
/// hang under `parent` and carry the deployment number `id`.
pub fn run(
    spec: &RunSpec,
    spans: &mut Spans,
    parent: Option<usize>,
    id: u64,
) -> Result<Outcome, String> {
    let name = format!(
        "{}/{}",
        protocol_name(spec.protocol),
        runtime_name(spec.runtime)
    );
    let req = Some(id);
    let root = spans.open_req(&format!("run {name} @{:.0}/s", spec.rate), parent, req);
    let t0 = Instant::now();
    let b = spans.open_req("Scenario::build", Some(root), req);
    let mut running = scenario(spec).build();
    spans.close(b);
    let build_s = t0.elapsed().as_secs_f64();
    if spec.sim_trace {
        running.enable_trace();
    }
    let cpu0 = process_cpu_s();
    let t1 = Instant::now();
    // A Poisson generator needs `window ± window/√n` to offer its n
    // arrivals; the horizon covers four standard deviations of that, then
    // the drain.
    let spread = 4.0 / (per_member(spec) as f64).sqrt();
    let horizon = SimTime::ZERO
        + START_DELAY
        + SimDuration::from_millis_f64(1e3 * (spec.window_s * (1.0 + spread) + spec.drain_s));
    let r = spans.open_req("Running::run_until", Some(root), req);
    // The simulator's pending-event count is sampled mid-window, where the
    // event queue holds its steady-state load.
    let mid = SimTime::ZERO + START_DELAY + SimDuration::from_millis_f64(500.0 * spec.window_s);
    running.run_until(mid);
    let sim_pending = running.sim().map_or(0, |sim| sim.pending_events());
    running.run_until(horizon);
    spans.close(r);
    let cpu_s = process_cpu_s() - cpu0;
    let s = spans.open_req("Running::settle", Some(root), req);
    running.settle();
    spans.close(s);
    let host_s = t1.elapsed().as_secs_f64();
    let load = running.load_stats();
    let acct = Accounting {
        offered: load.offered,
        shed: load.shed,
        submitted: load.submitted,
        completed: load.completed,
    };
    let mut lat_ms: Vec<f64> = running
        .latencies()
        .samples()
        .iter()
        .map(|d| d.as_nanos() as f64 / 1e6)
        .collect();
    lat_ms.sort_by(f64::total_cmp);
    let net = running.stats();
    let sim_busy_ns = running.sim().map_or(0, |sim| {
        (0..sim.node_count() as u32)
            .filter_map(|n| sim.node_state(NodeId(n)))
            .map(|n| n.busy_time().as_nanos())
            .sum()
    });
    let classes = running.trace().map(|log| {
        let scheme = PidScheme::of(spec.protocol);
        let mut counts = ClassCounts::default();
        for e in log.events() {
            if let TraceEvent::Send { from, to, size, .. } = e {
                counts.add(scheme, *from, *to, *size as u64);
            }
        }
        counts
    });
    let members = spec.group.members;
    let logs = running.delivery_logs();
    let sent = sent_counts(&mut running, spec.group.service, members);
    let last_delivery = last_delivery(&mut running, spec.group.service, members);
    let fail_signals = (0..members)
        .filter(|&i| {
            running
                .interceptor(i)
                .is_some_and(|x| x.local_fail_signalled())
        })
        .count() as u64;
    gate(&mut running, spec, &acct, &logs, &sent, fail_signals)?;
    let span_s = last_delivery.map_or(0.0, |t| {
        t.duration_since(SimTime::ZERO + START_DELAY).as_secs_f64()
    });
    spans.close(root);
    Ok(Outcome {
        acct,
        lat_ms,
        build_s,
        host_s,
        cpu_s,
        net,
        sim_busy_ns,
        sim_pending,
        deliveries: logs.iter().map(|l| l.len() as u64).sum(),
        members,
        window_s: spec.window_s,
        span_s,
        fail_signals,
        classes,
    })
}

/// Commands each member's driver submitted: `(origin, seq)` with `seq`
/// below this count are the only ones a log may hold.
fn sent_counts(running: &mut Running, service: Service, members: u32) -> Vec<u64> {
    (0..members)
        .map(|i| match service {
            Service::Kv => running.app::<SmrDriver>(i).map_or(0, SmrDriver::sent),
            Service::Gc => running.app::<AppProcess>(i).map_or(0, AppProcess::sent),
        })
        .collect()
}

fn last_delivery(running: &mut Running, service: Service, members: u32) -> Option<SimTime> {
    (0..members)
        .filter_map(|i| match service {
            Service::Kv => running.app::<SmrDriver>(i)?.last_delivery(),
            Service::Gc => running.app::<AppProcess>(i)?.last_delivery(),
        })
        .max()
}

/// The correctness gate.  Every check names itself on failure.
fn gate(
    running: &mut Running,
    spec: &RunSpec,
    acct: &Accounting,
    logs: &[Vec<(MemberId, u64)>],
    sent: &[u64],
    fail_signals: u64,
) -> Result<(), String> {
    let what = format!(
        "{} on {} at {:.0} cmds/s, seed {}",
        protocol_name(spec.protocol),
        runtime_name(spec.runtime),
        spec.rate,
        spec.seed
    );
    check_logs(logs, sent).map_err(|e| format!("{e} ({what})"))?;
    if fail_signals > 0 {
        return Err(format!(
            "no-fail-signal: {fail_signals} member(s) fail-signalled on a fault-free run ({what})"
        ));
    }
    if !acct.balanced() {
        return Err(format!(
            "load-accounting: offered {} != completed {} + shed {} + unfinished {} ({what})",
            acct.offered,
            acct.completed,
            acct.shed,
            acct.unfinished()
        ));
    }
    // The machines' own logs must agree as prefixes too, and machines that
    // applied the same log must hold the same state.  A run cut off
    // mid-flight (an overload probe) may leave one machine ahead.
    if spec.group.service == Service::Kv {
        let members = spec.group.members;
        let machine_logs: Vec<Vec<(MemberId, u64)>> = (0..members)
            .map(|i| running.machine_log(i).unwrap_or_default())
            .collect();
        check_logs(&machine_logs, sent).map_err(|e| format!("machine {e} ({what})"))?;
        // Each digest hashes a whole store: compute member 0's once.
        let mut reference = None;
        for i in 1..members {
            if machine_logs[i as usize] == machine_logs[0] {
                let d0 = *reference.get_or_insert_with(|| running.machine_digest(0));
                if running.machine_digest(i) != d0 {
                    return Err(format!(
                        "machine-digest: members 0 and {i} applied the same log into different states ({what})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Agreement and integrity of the members' delivery logs: each log is a
/// prefix of every longer one, and holds no duplicate and no `(origin,
/// seq)` its origin never submitted.
pub fn check_logs(logs: &[Vec<(MemberId, u64)>], sent: &[u64]) -> Result<(), String> {
    for (i, log) in logs.iter().enumerate() {
        let mut seen = HashSet::with_capacity(log.len());
        for &(origin, seq) in log {
            if !seen.insert((origin, seq)) {
                return Err(format!(
                    "no-duplicates: member {i} delivered ({}, {seq}) twice",
                    origin.0
                ));
            }
            if sent.get(origin.0 as usize).is_none_or(|&n| seq >= n) {
                return Err(format!(
                    "no-unsubmitted: member {i} delivered ({}, {seq}), never submitted",
                    origin.0
                ));
            }
        }
    }
    for (i, a) in logs.iter().enumerate() {
        for (j, b) in logs.iter().enumerate().skip(i + 1) {
            let n = a.len().min(b.len());
            if a[..n] != b[..n] {
                return Err(format!(
                    "logs-are-prefixes: members {i} and {j} disagree within their common prefix"
                ));
            }
        }
    }
    Ok(())
}

pub fn protocol_name(p: Protocol) -> &'static str {
    match p {
        Protocol::Crash => "crash",
        Protocol::FailSignal => "fs",
    }
}

fn runtime_name(r: RuntimeKind) -> &'static str {
    match r {
        RuntimeKind::Sim => "sim",
        RuntimeKind::Threaded => "threaded",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_checks_name_the_failed_check() {
        let m = MemberId;
        let good = vec![vec![(m(0), 0), (m(1), 0)], vec![(m(0), 0)]];
        assert_eq!(check_logs(&good, &[1, 1]), Ok(()));
        let dup = vec![vec![(m(0), 0), (m(0), 0)]];
        assert!(check_logs(&dup, &[1])
            .unwrap_err()
            .starts_with("no-duplicates"));
        let invented = vec![vec![(m(0), 3)]];
        assert!(check_logs(&invented, &[3])
            .unwrap_err()
            .starts_with("no-unsubmitted"));
        let stranger = vec![vec![(m(5), 0)]];
        assert!(check_logs(&stranger, &[1])
            .unwrap_err()
            .starts_with("no-unsubmitted"));
        let split = vec![vec![(m(0), 0), (m(1), 0)], vec![(m(1), 0)]];
        assert!(check_logs(&split, &[1, 1])
            .unwrap_err()
            .starts_with("logs-are-prefixes"));
    }
}
