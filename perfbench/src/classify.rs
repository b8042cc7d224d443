//! Message classes of a simulator trace, from the harness's fixed process
//! numbering: under the fail-signal protocol member `i` runs its driver as
//! pid `4i`, its interceptor as `4i+1` and its wrapper pair as `4i+2`
//! (leader) and `4i+3` (follower); under the crash protocol the driver is
//! `2i` and the middleware `2i+1`.

use fs_common::id::ProcessId;
use fs_harness::Protocol;

/// The role a process plays in its member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    App,
    Interceptor,
    Leader,
    Follower,
    /// The crash protocol's unwrapped middleware.
    Middleware,
}

/// Where a message travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Inside one member between its driver and the middleware stack
    /// (requests, upcalls, interceptor ↔ wrapper hand-offs).
    Client,
    /// Between the leader and follower of one fail-signal pair: output
    /// comparison and co-signing.
    Pair,
    /// Between members: the ordering protocol itself.
    Peer,
}

/// The numbering scheme of one protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PidScheme {
    stride: u32,
}

impl PidScheme {
    pub fn of(protocol: Protocol) -> Self {
        Self {
            stride: match protocol {
                Protocol::FailSignal => 4,
                Protocol::Crash => 2,
            },
        }
    }

    /// The member index and role of `pid`.
    pub fn role(&self, pid: ProcessId) -> (u32, Role) {
        let member = pid.0 / self.stride;
        let role = match (self.stride, pid.0 % self.stride) {
            (_, 0) => Role::App,
            (2, _) => Role::Middleware,
            (_, 1) => Role::Interceptor,
            (_, 2) => Role::Leader,
            _ => Role::Follower,
        };
        (member, role)
    }

    pub fn classify(&self, from: ProcessId, to: ProcessId) -> Class {
        let (a, ra) = self.role(from);
        let (b, rb) = self.role(to);
        match (ra, rb) {
            (Role::Leader, Role::Follower) | (Role::Follower, Role::Leader) if a == b => {
                Class::Pair
            }
            _ if a == b || ra == Role::App || rb == Role::App => Class::Client,
            _ => Class::Peer,
        }
    }
}

/// Message and byte counts per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    msgs: [u64; 3],
    bytes: [u64; 3],
    /// Frames the drivers sent: one per ordering round they submitted.
    pub rounds: u64,
}

impl ClassCounts {
    /// Counts one send of `bytes` bytes from `from` to `to`.
    pub fn add(&mut self, scheme: PidScheme, from: ProcessId, to: ProcessId, bytes: u64) {
        let class = scheme.classify(from, to) as usize;
        self.msgs[class] += 1;
        self.bytes[class] += bytes;
        if scheme.role(from).1 == Role::App {
            self.rounds += 1;
        }
    }

    pub fn msgs(&self, class: Class) -> u64 {
        self.msgs[class as usize]
    }

    pub fn bytes(&self, class: Class) -> u64 {
        self.bytes[class as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> ProcessId {
        ProcessId(n)
    }

    #[test]
    fn fail_signal_pids_map_to_member_roles() {
        let fs = PidScheme::of(Protocol::FailSignal);
        assert_eq!(fs.role(p(0)), (0, Role::App));
        assert_eq!(fs.role(p(5)), (1, Role::Interceptor));
        assert_eq!(fs.role(p(10)), (2, Role::Leader));
        assert_eq!(fs.role(p(11)), (2, Role::Follower));
        assert_eq!(fs.classify(p(0), p(1)), Class::Client);
        assert_eq!(fs.classify(p(1), p(2)), Class::Client);
        assert_eq!(fs.classify(p(2), p(3)), Class::Pair);
        assert_eq!(fs.classify(p(7), p(6)), Class::Pair);
        // A leader talking to another member's follower is ordering
        // traffic, not pair traffic.
        assert_eq!(fs.classify(p(2), p(7)), Class::Peer);
        assert_eq!(fs.classify(p(6), p(2)), Class::Peer);
    }

    #[test]
    fn crash_pids_map_to_member_roles() {
        let crash = PidScheme::of(Protocol::Crash);
        assert_eq!(crash.role(p(4)), (2, Role::App));
        assert_eq!(crash.role(p(3)), (1, Role::Middleware));
        assert_eq!(crash.classify(p(0), p(1)), Class::Client);
        assert_eq!(crash.classify(p(1), p(0)), Class::Client);
        assert_eq!(crash.classify(p(1), p(3)), Class::Peer);
    }

    #[test]
    fn counts_accumulate_per_class() {
        let fs = PidScheme::of(Protocol::FailSignal);
        let mut c = ClassCounts::default();
        c.add(fs, p(2), p(6), 100);
        c.add(fs, p(3), p(7), 50);
        c.add(fs, p(2), p(3), 7);
        c.add(fs, p(0), p(1), 9);
        assert_eq!(c.msgs(Class::Peer), 2);
        assert_eq!(c.bytes(Class::Peer), 150);
        assert_eq!(c.msgs(Class::Pair), 1);
        assert_eq!(c.msgs(Class::Client), 1);
        assert_eq!(c.rounds, 1, "only the driver's frame opens a round");
    }
}
