//! Timings of single layers, taken by calling each layer's public
//! functions from here: fail-signal cryptography, the wire codec, the
//! simulator's event queue and the threaded runtime's transport.
//!
//! Each timing is the median over several timed batches, in nanoseconds per
//! operation (microseconds for the round trip).

use std::cmp::Ordering;
use std::hint::black_box;
use std::time::Instant;

use failsignal::message::{signing_bytes, FsContent, FsOutput};
use fs_common::codec::Wire;
use fs_common::id::{FsId, ProcessId};
use fs_common::rng::DetRng;
use fs_common::time::{SimDuration, SimTime};
use fs_common::Bytes;
use fs_crypto::hmac::HmacKey;
use fs_crypto::keys::{provision, SignerId};
use fs_crypto::sig::Signature;
use fs_simnet::actor::{Actor, Context};
use fs_simnet::sched::{EventQueue, ScheduledEvent, SchedulerKind};
use fs_simnet::threaded::{ThreadedBuilder, ThreadedConfig};
use fs_smr::machine::Endpoint;

use crate::stats::median;

/// Times `op` in `batches` batches of `per_batch` calls; returns the median
/// nanoseconds per call.
fn time_ns(batches: usize, per_batch: usize, mut op: impl FnMut()) -> f64 {
    op();
    let per: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&per).expect("at least one batch")
}

/// Calls per batch so one batch of an operation over `bytes` bytes costs
/// roughly 0.2 ms of hashing.
fn per_batch(bytes: usize) -> usize {
    (200_000 / (bytes + 64)).clamp(4, 2000)
}

/// Fail-signal crypto timings at one frame size.
#[derive(Debug, Clone, Copy)]
pub struct Crypto {
    pub mac_ns: f64,
    pub sign_double_ns: f64,
    pub cosign_verify_ns: f64,
    pub verify_batch_per_mac_ns: f64,
}

/// An output of `frame` machine bytes and the keys of `signers` wrappers.
struct Fixture {
    keys: std::collections::BTreeMap<SignerId, fs_crypto::keys::SigningKey>,
    dir: std::sync::Arc<fs_crypto::keys::KeyDirectory>,
    content: FsContent,
}

impl Fixture {
    fn new(frame: usize, signers: usize, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let (keys, dir) = provision((0..signers.max(2) as u32).map(ProcessId), &mut rng);
        let payload: Vec<u8> = (0..frame).map(|i| (i as u8).wrapping_mul(31)).collect();
        Self {
            keys,
            dir,
            content: FsContent::Output {
                output_seq: 7,
                dest: Endpoint::Broadcast,
                bytes: Bytes::from(payload),
            },
        }
    }

    fn key(&self, i: u32) -> &fs_crypto::keys::SigningKey {
        &self.keys[&SignerId(ProcessId(i))]
    }

    fn signed(&self) -> FsOutput {
        FsOutput::sign(FS, self.content.clone(), self.key(0), self.key(1))
    }
}

const FS: FsId = FsId(1);

/// Times the fail-signal crypto on `frame` bytes of machine output, with
/// batches of `group` verifications.
pub fn crypto(frame: usize, group: usize, seed: u64) -> Crypto {
    let f = Fixture::new(frame, group, seed);
    let out = f.signed();
    let signed = signing_bytes(FS, &f.content);
    let pair = (SignerId(ProcessId(0)), SignerId(ProcessId(1)));
    let n = per_batch(frame);
    let hmac = HmacKey::new(&[0x5a; 32]);
    let sigs: Vec<Signature> = (0..group.max(2) as u32)
        .map(|i| Signature::sign(f.key(i), &signed))
        .collect();
    let sig_refs: Vec<&Signature> = sigs.iter().collect();
    Crypto {
        mac_ns: time_ns(15, n, || {
            black_box(hmac.mac(black_box(&signed)));
        }),
        sign_double_ns: time_ns(15, n, || {
            black_box(f.signed());
        }),
        cosign_verify_ns: time_ns(15, n, || {
            out.verify_with_uncached(&f.dir, black_box(&signed), pair)
                .expect("a correctly signed output verifies");
        }),
        verify_batch_per_mac_ns: time_ns(15, (n / sigs.len()).max(1), || {
            Signature::verify_batch_uncached(&sig_refs, &f.dir, black_box(&signed))
                .expect("correct signatures verify");
        }) / sigs.len() as f64,
    }
}

/// Encode and decode ns of one frame carrying `frame` machine bytes: a
/// double-signed `FsOutput` when `signed`, else its bare `FsContent`.
pub fn codec(frame: usize, signed: bool, seed: u64) -> (f64, f64) {
    let f = Fixture::new(frame, 2, seed);
    let n = per_batch(frame);
    if signed {
        let out = f.signed();
        let wire = out.to_wire();
        (
            time_ns(15, n, || {
                black_box(out.to_wire());
            }),
            time_ns(15, n, || {
                black_box(FsOutput::from_wire(black_box(&wire)).expect("decodes"));
            }),
        )
    } else {
        let wire = f.content.to_wire();
        (
            time_ns(15, n, || {
                black_box(f.content.to_wire());
            }),
            time_ns(15, n, || {
                black_box(FsContent::from_wire(black_box(&wire)).expect("decodes"));
            }),
        )
    }
}

/// One scheduled event of the hold-model benchmark.
#[derive(Debug, PartialEq, Eq)]
struct Ev(SimTime, u64);

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.0, self.1).cmp(&(other.0, other.1))
    }
}

impl ScheduledEvent for Ev {
    fn at(&self) -> SimTime {
        self.0
    }
}

/// The classic hold model on the simulator's default event queue: with
/// `pending` events queued, pop the earliest and push one a random
/// (exponential, 1 ms mean) time later.  Returns ns per pop + push.
pub fn sched_hold_ns(pending: usize, seed: u64) -> f64 {
    let mut rng = DetRng::new(seed);
    let mut q = EventQueue::new(SchedulerKind::default());
    let mut seq = 0u64;
    let gap = |rng: &mut DetRng| SimDuration::from_nanos(rng.exponential(1e6) as u64);
    for _ in 0..pending.max(1) {
        seq += 1;
        q.push(Ev(SimTime::ZERO + gap(&mut rng), seq));
    }
    time_ns(15, 20_000, || {
        let Ev(at, _) = q.pop().expect("the queue holds `pending` events");
        seq += 1;
        q.push(Ev(at + gap(&mut rng), seq));
    })
}

/// Ping side of the round-trip benchmark: sends `left` pings one at a
/// time and records each round trip on the runtime's clock.
struct Pinger {
    peer: ProcessId,
    left: u32,
    sent_at: SimTime,
    rtts_ns: Vec<f64>,
}

impl Pinger {
    fn ping(&mut self, ctx: &mut dyn Context) {
        if self.left > 0 {
            self.left -= 1;
            self.sent_at = ctx.now();
            ctx.send(self.peer, Bytes::from(&b"ping"[..]));
        }
    }
}

impl Actor for Pinger {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.ping(ctx);
    }
    fn on_message(&mut self, ctx: &mut dyn Context, _from: ProcessId, _payload: Bytes) {
        self.rtts_ns
            .push(ctx.now().duration_since(self.sent_at).as_nanos() as f64);
        self.ping(ctx);
    }
}

/// Echoes every message back to its sender.
struct Echo;

impl Actor for Echo {
    fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Bytes) {
        ctx.send(from, payload);
    }
}

/// Sends `left` messages to `sink` as fast as the transport takes them.
struct Blaster {
    sink: ProcessId,
    left: u32,
}

impl Actor for Blaster {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        for _ in 0..self.left {
            ctx.send(self.sink, Bytes::from(&b"x"[..]));
        }
    }
    fn on_message(&mut self, _: &mut dyn Context, _: ProcessId, _: Bytes) {}
}

/// Counts what it receives.
struct Sink {
    got: u64,
}

impl Actor for Sink {
    fn on_message(&mut self, _: &mut dyn Context, _: ProcessId, _: Bytes) {
        self.got += 1;
    }
}

fn threaded(seed: u64) -> ThreadedBuilder {
    ThreadedBuilder::new(ThreadedConfig {
        cpu_charge_scale: 0.0,
        seed,
    })
}

/// Median cross-node round trip through the threaded runtime, µs.
pub fn threaded_rtt_us(pings: u32, seed: u64) -> f64 {
    let mut b = threaded(seed);
    let (a, e) = (b.add_node(), b.add_node());
    let echo = b.next_process_id();
    b.add_on(e, Box::new(Echo));
    let pinger = b.add_on(
        a,
        Box::new(Pinger {
            peer: echo,
            left: pings,
            sent_at: SimTime::ZERO,
            rtts_ns: Vec::new(),
        }),
    );
    let rt = b.start();
    rt.run_until_settled(SimTime::from_secs(60));
    let p = rt
        .shutdown_and_take::<Pinger>(pinger)
        .expect("the pinger is registered");
    assert_eq!(p.rtts_ns.len(), pings as usize, "every ping came back");
    median(&p.rtts_ns).expect("pings > 0") / 1e3
}

/// Cross-node sends per second with two sender nodes contending for one
/// receiver node.
pub fn threaded_sends_per_s(per_sender: u32, seed: u64) -> f64 {
    let mut b = threaded(seed);
    let sink_node = b.add_node();
    let sink = b.add_on(sink_node, Box::new(Sink { got: 0 }));
    for _ in 0..2 {
        let n = b.add_node();
        b.add_on(
            n,
            Box::new(Blaster {
                sink,
                left: per_sender,
            }),
        );
    }
    let t = Instant::now();
    let rt = b.start();
    rt.run_until_settled(SimTime::from_secs(60));
    let elapsed = t.elapsed().as_secs_f64();
    let s = rt
        .shutdown_and_take::<Sink>(sink)
        .expect("the sink is registered");
    assert_eq!(s.got, 2 * u64::from(per_sender), "every send arrived");
    s.got as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_timings_are_positive() {
        let c = crypto(64, 3, 1);
        let (fe, fd) = codec(64, true, 1);
        let (pe, pd) = codec(64, false, 1);
        for v in [
            c.mac_ns,
            c.sign_double_ns,
            c.cosign_verify_ns,
            c.verify_batch_per_mac_ns,
            fe,
            fd,
            pe,
            pd,
        ] {
            assert!(v > 0.0);
        }
        assert!(sched_hold_ns(100, 1) > 0.0);
        assert!(threaded_rtt_us(20, 1) > 0.0);
        assert!(threaded_sends_per_s(200, 1) > 0.0);
    }
}
