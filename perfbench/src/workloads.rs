//! The workloads and the two kinds of run: the untraced end-to-end run and
//! the traced per-layer run.

use fs_harness::{Protocol, RuntimeKind};

use crate::classify::Class;
use crate::deploy::{self, protocol_name, Group, Outcome, RunSpec, Service};
use crate::layers;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, percentile, search_capacity, Capacity, Probe};

/// A named workload: one group, deployed under both protocols.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub group: Group,
    /// The runtime whose clock every end-to-end latency and rate uses.
    pub runtime: RuntimeKind,
    /// Aggregate offered rate of the latency and CPU measurements.
    pub fixed_rate: f64,
    /// The p99 bound of the capacity search, ms.
    pub slo_ms: f64,
    /// Aggregate offered rate of the overload run that measures peak
    /// goodput, the upper end of the capacity search.
    pub overload_rate: f64,
}

pub const NAMES: [&str; 2] = ["kv-small", "gc-n9"];

pub fn by_name(name: &str) -> Option<Def> {
    Some(match name {
        "kv-small" => Def {
            name: "kv-small",
            group: Group {
                service: Service::Kv,
                members: 3,
                // 512 commands in flight per member hold about 10 ms of
                // crash-protocol work at its knee, so a millisecond host
                // stall does not shed commands.
                clients: 256,
            },
            runtime: RuntimeKind::Threaded,
            fixed_rate: 600.0,
            slo_ms: 50.0,
            overload_rate: 200_000.0,
        },
        "gc-n9" => Def {
            name: "gc-n9",
            group: Group {
                service: Service::Gc,
                members: 9,
                clients: 16,
            },
            runtime: RuntimeKind::Sim,
            // 200 ms per member: the paper's 40 ms cadence is past the
            // fail-signal group's capacity at n = 9 on the 2003 cost model.
            fixed_rate: 45.0,
            slo_ms: 500.0,
            overload_rate: 2250.0,
        },
        _ => return None,
    })
}

/// Commands a capacity probe offers at least: a p99 needs 1000 samples,
/// and shed or lost commands do not count.
const PROBE_SAMPLES: f64 = 1200.0;

const PROTOCOLS: [Protocol; 2] = [Protocol::Crash, Protocol::FailSignal];

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "crash.p50_ms",
    "fs.p50_ms",
    "crash.cpu_us_per_cmd",
    "fs.cpu_us_per_cmd",
    "crash.capacity_cmds_s",
    "fs.capacity_cmds_s",
];

/// Layer metrics a traced run reports once per protocol prefix.
const PER_PROTOCOL: [&str; 22] = [
    "harness.build_ms",
    "net.msgs_per_cmd",
    "codec.bytes_per_cmd",
    "codec.encode_ns",
    "codec.decode_ns",
    "codec.est_us_per_cmd",
    "threaded.busy_us_per_cmd",
    "threaded.outside_us_per_cmd",
    "protocol.residual_us_per_cmd",
    "sim.cpu_us_per_cmd",
    "sim.events_per_delivery",
    "sim.host_us_per_delivery",
    "sim.host_us_per_event",
    "newtop.msgs_per_delivery",
    "class.client_msgs_per_cmd",
    "class.peer_msgs_per_cmd",
    "class.peer_bytes_per_cmd",
    "smr.cmds_per_round",
    "load.p99_ms",
    "load.offered_rate_ratio",
    "load.shed_frac",
    "load.peak_cmds_s",
];

/// Layer metrics a traced run reports once.
const SHARED: [&str; 11] = [
    "crypto.mac_ns",
    "crypto.sign_double_ns",
    "crypto.cosign_verify_ns",
    "crypto.verify_batch_per_mac_ns",
    "crypto.est_us_per_cmd",
    "sched.hold_ns",
    "threaded.rtt_us",
    "threaded.sends_per_s",
    "failsignal.fail_signals",
    "failsignal.pair_msgs_per_cmd",
    "trace.overhead_frac",
];

/// The metric names a run must report, sorted.
pub fn expected_metrics(trace: bool) -> Vec<String> {
    let mut names: Vec<String> = if trace {
        PROTOCOLS
            .iter()
            .flat_map(|p| {
                PER_PROTOCOL
                    .iter()
                    .map(move |m| format!("{}.{m}", protocol_name(*p)))
            })
            .chain(SHARED.iter().map(|m| m.to_string()))
            .collect()
    } else {
        END_TO_END.iter().map(|m| m.to_string()).collect()
    };
    names.sort();
    names
}

/// How one run's time is split between its phases.
#[derive(Debug, Clone, Copy)]
struct Budget {
    /// Rounds of (fixed-rate repeats, one capacity search) per protocol.
    /// Spreading both kinds of measurement over the whole run lets their
    /// medians ride out the host's slow spells.  At least `rounds`; on the
    /// threaded runtime, more while another round fits in `--seconds`.
    rounds: usize,
    reps_per_round: usize,
    fixed_window_s: f64,
    probe_window_s: f64,
    drain_s: f64,
}

/// Set-up repeats every run makes at least.
const SETUP_REPS: usize = 41;

/// Bisection steps of a capacity search after its bracket is confirmed.
const SEARCH_STEPS: u32 = 5;

impl Budget {
    fn of(def: &Def) -> Self {
        // A window offering enough commands for a reportable p99.
        let p99_window_s = PROBE_SAMPLES / def.fixed_rate;
        let drain_s = 2.0 * def.slo_ms / 1e3;
        match def.runtime {
            // Half-second repeats, at least two seconds of them per protocol
            // and round, and enough for a p99 over the round's repeats.
            RuntimeKind::Threaded => Self {
                rounds: 3,
                reps_per_round: (p99_window_s.max(2.0) / 0.5).ceil() as usize,
                fixed_window_s: 0.5,
                probe_window_s: 0.5,
                drain_s,
            },
            // Simulated windows: fixed inputs, so a run's metrics depend on
            // the seed alone and one round suffices; the one repeat is three
            // p99 windows long.
            RuntimeKind::Sim => Self {
                rounds: 1,
                reps_per_round: 1,
                fixed_window_s: 3.0 * p99_window_s,
                probe_window_s: 0.0,
                drain_s,
            },
        }
    }

    /// The arrival window of the traced run's fixed-rate deployment on the
    /// workload's own runtime: one repeat, or a p99 window if longer.
    fn traced_window_s(&self, def: &Def) -> f64 {
        self.fixed_window_s.max(PROBE_SAMPLES / def.fixed_rate)
    }
}

/// True when a round's fixed-rate repeats, taken together, meet the SLO:
/// each repeat's goodput and backlog, and the p99 of their pooled samples.
fn round_meets(reps: &[Outcome], slo_ms: f64) -> bool {
    let mut pooled: Vec<f64> = reps.iter().flat_map(|o| o.lat_ms.iter().copied()).collect();
    pooled.sort_by(f64::total_cmp);
    let p99_ms = percentile(&pooled, 0.99);
    reps.iter().all(|o| {
        Probe {
            p99_ms,
            ..o.probe()
        }
        .meets(slo_ms)
    })
}

/// Derives the seed of a workload's `k`-th deployment from the run seed.
fn derive(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

struct Ctx<'a> {
    def: &'a Def,
    seed: u64,
    /// Deployments made so far; the next one's number.
    next: u64,
    spans: &'a mut Spans,
    /// The span every deployment's spans hang under.
    parent: Option<usize>,
}

impl Ctx<'_> {
    fn run(
        &mut self,
        protocol: Protocol,
        runtime: RuntimeKind,
        rate: f64,
        window_s: f64,
        drain_s: f64,
        sim_trace: bool,
    ) -> Result<Outcome, String> {
        self.next += 1;
        let spec = RunSpec {
            group: self.def.group,
            protocol,
            runtime,
            rate,
            window_s,
            drain_s,
            seed: derive(self.seed, self.next),
            sim_trace,
        };
        deploy::run(&spec, self.spans, self.parent, self.next)
    }
}

/// Median of the setup time of building (and starting) both protocols'
/// groups, repeated at least `reps` times and until `deadline`.
fn setup_s(
    ctx: &mut Ctx<'_>,
    reps: usize,
    deadline: std::time::Instant,
) -> Result<(f64, u64), String> {
    let mut totals = Vec::new();
    while totals.len() < reps || (std::time::Instant::now() < deadline && totals.len() < 5000) {
        let mut total = 0.0;
        for p in PROTOCOLS {
            total += ctx
                .run(p, ctx.def.runtime, ctx.def.fixed_rate, 0.0, 0.0, false)?
                .build_s;
        }
        totals.push(total);
    }
    Ok((
        median(&totals).expect("at least one rep"),
        totals.len() as u64,
    ))
}

/// Overload goodput: completions per second with arrivals far past
/// capacity (the in-flight bound sheds the excess).
fn overload_goodput(ctx: &mut Ctx<'_>, b: &Budget, protocol: Protocol) -> Result<Outcome, String> {
    let rate = ctx.def.overload_rate;
    ctx.run(
        protocol,
        ctx.def.runtime,
        rate,
        probe_window(b, rate),
        b.drain_s,
        false,
    )
}

/// Most commands one probe offers: the KV store keeps every put, and the
/// crash protocol takes some 10⁵ cmds/s, so the cap bounds a probe's
/// memory while the window still lasts ~20× the time the in-flight bound
/// takes to fill.
const MAX_PROBE_CMDS: f64 = 20_000.0;

/// The arrival window of a probe at `rate`: the budget's window, shortened
/// to at most [`MAX_PROBE_CMDS`] commands, and long enough for a
/// reportable p99.
fn probe_window(b: &Budget, rate: f64) -> f64 {
    b.probe_window_s
        .min(MAX_PROBE_CMDS / rate)
        .max(PROBE_SAMPLES / rate)
}

/// One capacity search between the fixed rate and `hi`.  `lo_met` says
/// the round's fixed-rate repeats already met the SLO at the fixed rate,
/// which then needs no probe of its own.
fn search(
    ctx: &mut Ctx<'_>,
    b: &Budget,
    protocol: Protocol,
    hi: f64,
    lo_met: bool,
) -> Result<Capacity, String> {
    let slo = ctx.def.slo_ms;
    let lo = ctx.def.fixed_rate;
    let mut err = None;
    let cap = search_capacity(lo, hi, SEARCH_STEPS, |rate| {
        if err.is_some() {
            return false;
        }
        if rate == lo && lo_met {
            return true;
        }
        let window = probe_window(b, rate);
        let t = std::time::Instant::now();
        match ctx.run(protocol, ctx.def.runtime, rate, window, b.drain_s, false) {
            Ok(o) => {
                let pr = o.probe();
                eprintln!(
                    "  {} probe {rate:.0}/s: goodput {:.4} p99 {:?} ms -> {} ({:.2} s)",
                    protocol_name(protocol),
                    pr.goodput,
                    pr.p99_ms,
                    if pr.meets(slo) { "meets" } else { "misses" },
                    t.elapsed().as_secs_f64()
                );
                pr.meets(slo)
            }
            Err(e) => {
                err = Some(e);
                false
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(cap),
    }
}

/// The median over repeats of one latency percentile.
fn median_percentile(outcomes: &[Outcome], q: f64, protocol: Protocol) -> Result<f64, String> {
    let v: Option<Vec<f64>> = outcomes.iter().map(|o| percentile(&o.lat_ms, q)).collect();
    v.and_then(|v| median(&v)).ok_or_else(|| {
        format!(
            "enough-samples: {} p{} needs 10 samples beyond it in every repeat",
            protocol_name(protocol),
            q * 100.0
        )
    })
}

/// Arrival window of the threaded twin that measures a simulator
/// workload's host CPU per command, s: long enough for a few hundred
/// commands at its fixed rate.
const CPU_TWIN_WINDOW_S: f64 = 5.0;

/// The untraced run: every end-to-end metric.
pub fn end_to_end(
    def: &Def,
    seed: u64,
    seconds: u64,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    let start = std::time::Instant::now();
    let b = Budget::of(def);
    let mut ctx = Ctx {
        def,
        seed,
        next: 0,
        spans,
        parent: None,
    };
    let mut fixed: [Vec<Outcome>; 2] = Default::default();
    let mut caps: [Vec<f64>; 2] = Default::default();
    let mut probes = [0usize; 2];
    let mut his = [0.0; 2];
    for (i, p) in PROTOCOLS.into_iter().enumerate() {
        let peak = overload_goodput(&mut ctx, &b, p)?.completed_rate();
        his[i] = (1.1 * peak).max(1.5 * def.fixed_rate);
    }
    let mut round = 0;
    while round < b.rounds
        || (def.runtime == RuntimeKind::Threaded
            && start.elapsed().as_secs_f64() * (round + 1) as f64 / round as f64 <= seconds as f64)
    {
        for _ in 0..b.reps_per_round {
            for (i, p) in PROTOCOLS.into_iter().enumerate() {
                let o = ctx.run(
                    p,
                    def.runtime,
                    def.fixed_rate,
                    b.fixed_window_s,
                    b.drain_s,
                    false,
                )?;
                eprintln!(
                    "  {} repeat: p50 {:?} ms",
                    protocol_name(p),
                    percentile(&o.lat_ms, 0.5),
                );
                report.count(&o.acct);
                fixed[i].push(o);
            }
        }
        for (i, p) in PROTOCOLS.into_iter().enumerate() {
            let this_round = &fixed[i][fixed[i].len() - b.reps_per_round..];
            let lo_met = round_meets(this_round, def.slo_ms);
            let cap = search(&mut ctx, &b, p, his[i], lo_met)?;
            eprintln!("{}: capacity {:.0} cmds/s", protocol_name(p), cap.rate);
            probes[i] += cap.probes.len();
            caps[i].push(cap.rate);
        }
        eprintln!(
            "round {round} done at {:.1} s",
            start.elapsed().as_secs_f64()
        );
        round += 1;
    }
    // Host CPU comes from the threaded runtime only: on a simulator
    // workload, from a threaded twin of its group at the fixed rate.
    let mut cpu_twins = Vec::new();
    if def.runtime == RuntimeKind::Sim {
        for p in PROTOCOLS {
            let window = CPU_TWIN_WINDOW_S;
            cpu_twins.push(ctx.run(
                p,
                RuntimeKind::Threaded,
                def.fixed_rate,
                window,
                b.drain_s,
                false,
            )?);
        }
    }
    for (i, p) in PROTOCOLS.into_iter().enumerate() {
        let pre = protocol_name(p);
        let outcomes = &fixed[i];
        let samples: u64 = outcomes.iter().map(|o| o.lat_ms.len() as u64).sum();
        report.add(
            &format!("{pre}.p50_ms"),
            median_percentile(outcomes, 0.5, p)?,
            "ms",
            samples,
        );
        // Pooled over the repeats.
        let cpu_runs = match def.runtime {
            RuntimeKind::Threaded => outcomes.as_slice(),
            RuntimeKind::Sim => std::slice::from_ref(&cpu_twins[i]),
        };
        let cmds: f64 = cpu_runs.iter().map(Outcome::per_cmd).sum();
        let cpu_us_per_cmd = 1e6 * cpu_runs.iter().map(|o| o.cpu_s).sum::<f64>() / cmds;
        report.add(
            &format!("{pre}.cpu_us_per_cmd"),
            cpu_us_per_cmd,
            "us",
            cpu_runs.len() as u64,
        );
        report.add(
            &format!("{pre}.capacity_cmds_s"),
            median(&caps[i]).expect("at least one round"),
            "cmds/s",
            probes[i] as u64,
        );
    }
    // Set-up last: it repeats until the run has lasted `seconds`.
    let deadline = start + std::time::Duration::from_secs(seconds);
    let (setup, reps) = setup_s(&mut ctx, SETUP_REPS, deadline)?;
    report.add("setup_s", setup, "s", reps);
    Ok(())
}

/// The other runtime, used for a workload's twin: the simulator's trace
/// classifies messages, and the threaded runtime's counters split host
/// time.
fn twin_of(runtime: RuntimeKind) -> RuntimeKind {
    match runtime {
        RuntimeKind::Sim => RuntimeKind::Threaded,
        RuntimeKind::Threaded => RuntimeKind::Sim,
    }
}

/// Longest arrival window of a twin run, s: the twin measures per-command
/// ratios, which need far fewer commands than a p99.
const TWIN_WINDOW_S: f64 = 2.0;

/// Simulated seconds the simulator twin drains for.
const SIM_TWIN_DRAIN_S: f64 = 30.0;

/// What the traced run keeps of one protocol's twin pair for the layer
/// estimates.
struct Twin {
    protocol: Protocol,
    /// The threaded run at the fixed rate.
    threaded: Outcome,
    /// Mean bytes of an inter-member frame (simulator trace).
    frame: f64,
    /// Inter-member frames per command (simulator trace).
    peer_per_cmd: f64,
    /// Events queued in the simulator mid-run.
    pending: usize,
}

/// Runs `f` inside a span named `name` under `parent`.
fn timed<T>(spans: &mut Spans, parent: usize, name: &str, f: impl FnOnce() -> T) -> T {
    let id = spans.open(name, Some(parent));
    let out = f();
    spans.close(id);
    out
}

/// The traced run: every per-layer metric.  Spans cover each deployment's
/// build, run and settle and each timed layer call.
pub fn traced(def: &Def, seed: u64, spans: &mut Spans, report: &mut Report) -> Result<(), String> {
    let b = Budget::of(def);
    let root = spans.open(&format!("traced {}", def.name), None);
    let mut ctx = Ctx {
        def,
        seed,
        next: 0,
        spans,
        parent: Some(root),
    };
    let twin = twin_of(def.runtime);
    let primary_window = b.traced_window_s(def);
    let twin_window = primary_window.min(TWIN_WINDOW_S);
    let (threaded_rt, sim_rt) = match def.runtime {
        RuntimeKind::Threaded => (def.runtime, twin),
        RuntimeKind::Sim => (twin, def.runtime),
    };
    let window_on = |rt: RuntimeKind| {
        if rt == def.runtime {
            primary_window
        } else {
            twin_window
        }
    };
    let mut fs_frame = 0.0;
    let mut fail_signals = 0;
    let mut pair_per_cmd = 0.0;
    let mut per_protocol = Vec::new();
    for p in PROTOCOLS {
        let pre = protocol_name(p);
        let mut builds = Vec::new();
        for _ in 0..SETUP_REPS {
            builds.push(
                1e3 * ctx
                    .run(p, def.runtime, def.fixed_rate, 0.0, 0.0, false)?
                    .build_s,
            );
        }
        let threaded = ctx.run(
            p,
            threaded_rt,
            def.fixed_rate,
            window_on(threaded_rt),
            b.drain_s,
            false,
        )?;
        // The simulator twin drains until every admitted command completed,
        // so its trace counts whole commands even where the 2003 cost model
        // sheds part of the load.
        let sim = ctx.run(
            p,
            sim_rt,
            def.fixed_rate,
            window_on(sim_rt),
            SIM_TWIN_DRAIN_S,
            true,
        )?;
        let overload = overload_goodput(&mut ctx, &b, p)?;
        // Only the run on the workload's own runtime counts as attempted
        // work: the overload run sheds by design, and the simulator twin of
        // a threaded workload runs past the 2003 cost model's capacity.
        let primary = if def.runtime == RuntimeKind::Threaded {
            &threaded
        } else {
            &sim
        };
        report.count(&primary.acct);
        let classes = sim.classes.expect("the simulator twin is traced");
        let sim_cmds = sim.acct.submitted.max(1) as f64;
        let deliveries = sim.deliveries.max(1) as f64;
        let peer_msgs = classes.msgs(Class::Peer) as f64;
        let frame = classes.bytes(Class::Peer) as f64 / peer_msgs.max(1.0);
        if p == Protocol::FailSignal {
            fs_frame = frame;
            fail_signals = threaded.fail_signals + sim.fail_signals;
            pair_per_cmd = classes.msgs(Class::Pair) as f64 / sim_cmds;
        }
        let n = threaded.per_cmd();
        let m = |name: &str| format!("{pre}.{name}");
        report.add(
            &m("harness.build_ms"),
            median(&builds).expect("reps > 0"),
            "ms",
            builds.len() as u64,
        );
        report.add(
            &m("net.msgs_per_cmd"),
            threaded.net.messages_sent as f64 / n,
            "msgs",
            threaded.acct.completed,
        );
        report.add(
            &m("codec.bytes_per_cmd"),
            threaded.net.bytes_sent as f64 / n,
            "B",
            threaded.acct.completed,
        );
        report.add(
            &m("threaded.busy_us_per_cmd"),
            threaded.net.busy_ns as f64 / 1e3 / n,
            "us",
            threaded.acct.completed,
        );
        report.add(
            &m("threaded.outside_us_per_cmd"),
            (1e9 * threaded.cpu_s - threaded.net.busy_ns as f64) / 1e3 / n,
            "us",
            threaded.acct.completed,
        );
        report.add(
            &m("sim.cpu_us_per_cmd"),
            sim.sim_busy_ns as f64 / 1e3 / sim_cmds,
            "us",
            sim.acct.submitted,
        );
        report.add(
            &m("sim.events_per_delivery"),
            sim.net.events_processed as f64 / deliveries,
            "events",
            sim.deliveries,
        );
        report.add(
            &m("sim.host_us_per_delivery"),
            1e6 * sim.host_s / deliveries,
            "us",
            sim.deliveries,
        );
        report.add(
            &m("sim.host_us_per_event"),
            1e6 * sim.host_s / sim.net.events_processed.max(1) as f64,
            "us",
            sim.net.events_processed,
        );
        report.add(
            &m("newtop.msgs_per_delivery"),
            sim.net.messages_sent as f64 / deliveries,
            "msgs",
            sim.deliveries,
        );
        report.add(
            &m("class.client_msgs_per_cmd"),
            classes.msgs(Class::Client) as f64 / sim_cmds,
            "msgs",
            sim.acct.completed,
        );
        report.add(
            &m("class.peer_msgs_per_cmd"),
            peer_msgs / sim_cmds,
            "msgs",
            sim.acct.completed,
        );
        report.add(
            &m("class.peer_bytes_per_cmd"),
            classes.bytes(Class::Peer) as f64 / sim_cmds,
            "B",
            sim.acct.completed,
        );
        report.add(
            &m("smr.cmds_per_round"),
            sim.acct.submitted as f64 / classes.rounds.max(1) as f64,
            "cmds",
            classes.rounds,
        );
        report.add(
            &m("load.offered_rate_ratio"),
            primary.acct.offered as f64 / primary.span_s.max(1e-9) / def.fixed_rate,
            "ratio",
            primary.acct.offered,
        );
        let p99 = percentile(&primary.lat_ms, 0.99)
            .ok_or_else(|| format!("enough-samples: {pre} p99 needs 10 samples beyond it"))?;
        report.add(&m("load.p99_ms"), p99, "ms", primary.lat_ms.len() as u64);
        report.add(
            &m("load.shed_frac"),
            primary.acct.shed as f64 / primary.acct.offered.max(1) as f64,
            "ratio",
            primary.acct.offered,
        );
        report.add(
            &m("load.peak_cmds_s"),
            overload.completed_rate(),
            "cmds/s",
            overload.acct.completed,
        );
        per_protocol.push(Twin {
            protocol: p,
            threaded,
            frame,
            peer_per_cmd: peer_msgs / sim_cmds,
            pending: sim.sim_pending,
        });
    }
    let t = ctx.spans.open("layers", Some(root));
    let c = timed(ctx.spans, t, "fs_crypto", || {
        layers::crypto(fs_frame.round() as usize, def.group.members as usize, seed)
    });
    report.add("crypto.mac_ns", c.mac_ns, "ns", 15);
    report.add("crypto.sign_double_ns", c.sign_double_ns, "ns", 15);
    report.add("crypto.cosign_verify_ns", c.cosign_verify_ns, "ns", 15);
    report.add(
        "crypto.verify_batch_per_mac_ns",
        c.verify_batch_per_mac_ns,
        "ns",
        15,
    );
    let mut crypto_est = 0.0;
    for tw in &per_protocol {
        let threaded = &tw.threaded;
        let pre = protocol_name(tw.protocol);
        let signed = tw.protocol == Protocol::FailSignal;
        let (enc, dec) = timed(ctx.spans, t, "fs_common::codec", || {
            layers::codec(tw.frame.round() as usize, signed, seed)
        });
        let n = threaded.per_cmd();
        let msgs = threaded.net.messages_sent as f64 / n;
        let codec_est = msgs * (enc + dec) / 1e3;
        let est = if signed {
            crypto_est =
                (pair_per_cmd * c.sign_double_ns + tw.peer_per_cmd * c.cosign_verify_ns) / 1e3;
            crypto_est
        } else {
            0.0
        };
        report.add(&format!("{pre}.codec.encode_ns"), enc, "ns", 15);
        report.add(&format!("{pre}.codec.decode_ns"), dec, "ns", 15);
        report.add(
            &format!("{pre}.codec.est_us_per_cmd"),
            codec_est,
            "us",
            threaded.acct.completed,
        );
        report.add(
            &format!("{pre}.protocol.residual_us_per_cmd"),
            threaded.net.busy_ns as f64 / 1e3 / n - est - codec_est,
            "us",
            threaded.acct.completed,
        );
        if signed {
            let hold = timed(ctx.spans, t, "fs_simnet::sched", || {
                layers::sched_hold_ns(tw.pending, seed)
            });
            report.add("sched.hold_ns", hold, "ns", 15);
        }
    }
    report.add("crypto.est_us_per_cmd", crypto_est, "us", 1);
    let rtt = timed(ctx.spans, t, "threaded rtt", || {
        layers::threaded_rtt_us(2000, seed)
    });
    report.add("threaded.rtt_us", rtt, "us", 2000);
    let sends = timed(ctx.spans, t, "threaded sends", || {
        layers::threaded_sends_per_s(100_000, seed)
    });
    report.add("threaded.sends_per_s", sends, "1/s", 200_000);
    ctx.spans.close(t);
    report.add("failsignal.fail_signals", fail_signals as f64, "count", 2);
    report.add("failsignal.pair_msgs_per_cmd", pair_per_cmd, "msgs", 1);
    // Tracing overhead: the fail-signal simulator twin with and without
    // its event trace, interleaved.
    let mut ratio = Vec::new();
    for _ in 0..3 {
        let plain = ctx.run(
            Protocol::FailSignal,
            sim_rt,
            def.fixed_rate,
            window_on(sim_rt),
            b.drain_s,
            false,
        )?;
        let traced = ctx.run(
            Protocol::FailSignal,
            sim_rt,
            def.fixed_rate,
            window_on(sim_rt),
            b.drain_s,
            true,
        )?;
        ratio.push(traced.host_s / plain.host_s.max(1e-9) - 1.0);
    }
    report.add(
        "trace.overhead_frac",
        median(&ratio).expect("three pairs"),
        "ratio",
        3,
    );
    ctx.spans.close(root);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;

    /// The `name`s listed under `key` in `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let section = &json[start..];
        let end = section.find(']').expect("section closes");
        let mut names: Vec<String> = section[..end]
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn metric_names_are_valid_and_match_the_manifest() {
        let json = include_str!("../../BENCHMARK.json");
        for trace in [false, true] {
            let names = expected_metrics(trace);
            assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
            let mut unique = names.clone();
            unique.dedup();
            assert_eq!(unique, names, "no name twice");
        }
        assert_eq!(listed(json, "end_to_end"), expected_metrics(false));
        assert_eq!(listed(json, "per_layer"), expected_metrics(true));
        let workloads = listed(json, "workloads");
        let mut names: Vec<String> = NAMES.iter().map(|n| n.to_string()).collect();
        names.sort();
        assert_eq!(workloads, names);
        assert!(NAMES
            .iter()
            .all(|n| by_name(n).is_some_and(|d| d.name == *n)));
    }
}
