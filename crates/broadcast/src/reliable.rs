//! Asymmetric Byzantine reliable broadcast (Alpos et al., used as `arb-` in
//! the paper).
//!
//! This is Bracha's classic SEND → ECHO → READY protocol with its two
//! threshold rules generalized to asymmetric quorums, exactly as prescribed
//! by the paper (§3.2):
//!
//! * *deliver after `2f+1` READY* becomes *deliver after READY from one of
//!   my **quorums***;
//! * *amplify after `f+1` READY* becomes *amplify after READY from one of my
//!   **kernels*** (a set intersecting all my quorums);
//! * *echo after the sender's SEND*, *ready after ECHO from a quorum* as in
//!   Bracha.
//!
//! With a uniform threshold quorum system this *is* Bracha broadcast — the
//! symmetric baseline and the asymmetric protocol share this implementation,
//! which the unit tests exploit.
//!
//! A [`BroadcastHub`] multiplexes any number of instances, keyed by
//! `(origin, tag)`; one process broadcasts at most one value per tag (in the
//! DAG protocols the tag is the round number).

use std::collections::HashMap;

use asym_quorum::{AsymQuorumSystem, ProcessId};

use crate::tally::Tally;

/// Instance tag: distinguishes broadcasts by the same origin (e.g. the DAG
/// round number).
pub type Tag = u64;

/// Wire messages of the reliable broadcast. All of them are sent to *all*
/// processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BcastMsg<T> {
    /// The origin's initial dissemination of `value` under `tag`.
    Send {
        /// Instance tag chosen by the origin.
        tag: Tag,
        /// The broadcast value.
        value: T,
    },
    /// Witness that the sender received `Send{tag, value}` from `origin`.
    Echo {
        /// The process whose broadcast this echoes.
        origin: ProcessId,
        /// Instance tag.
        tag: Tag,
        /// Echoed value.
        value: T,
    },
    /// Commitment that the sender is ready to deliver `value` for
    /// `(origin, tag)`.
    Ready {
        /// The process whose broadcast this concerns.
        origin: ProcessId,
        /// Instance tag.
        tag: Tag,
        /// Value ready for delivery.
        value: T,
    },
}

/// A delivery produced by the hub: `origin` reliably broadcast `value` under
/// `tag`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<T> {
    /// The broadcasting process.
    pub origin: ProcessId,
    /// Instance tag.
    pub tag: Tag,
    /// The delivered value.
    pub value: T,
}

#[derive(Clone, Debug)]
struct Instance<T> {
    /// Who echoed which value.
    echoes: Tally<T>,
    /// Who sent READY for which value.
    readies: Tally<T>,
    sent_echo: bool,
    sent_ready: bool,
    delivered: bool,
}

impl<T> Default for Instance<T> {
    fn default() -> Self {
        Instance {
            echoes: Tally::default(),
            readies: Tally::default(),
            sent_echo: false,
            sent_ready: false,
            delivered: false,
        }
    }
}

/// Multi-instance asymmetric reliable broadcast engine for one process.
///
/// The hub is a pure state machine: [`BroadcastHub::broadcast`] and
/// [`BroadcastHub::on_message`] return the messages to send (each to **all**
/// processes) and the deliveries that became ready. Wrap it in any
/// [`Protocol`](asym_sim::Protocol) by nesting [`BcastMsg`] in the host's
/// message enum — this is how the gather and consensus crates embed it.
///
/// # Examples
///
/// ```
/// use asym_broadcast::{BcastMsg, BroadcastHub};
/// use asym_quorum::{topology, ProcessId};
///
/// let t = topology::uniform_threshold(4, 1);
/// let mut hub = BroadcastHub::<u32>::new(ProcessId::new(0), t.quorums.clone());
/// let out = hub.broadcast(7, 42);
/// assert!(matches!(out[0], BcastMsg::Send { tag: 7, value: 42 }));
/// ```
#[derive(Clone, Debug)]
pub struct BroadcastHub<T> {
    me: ProcessId,
    quorums: AsymQuorumSystem,
    instances: HashMap<(ProcessId, Tag), Instance<T>>,
    originated: std::collections::HashSet<Tag>,
}

impl<T: Clone + Eq + core::fmt::Debug> BroadcastHub<T> {
    /// Creates a hub for process `me` under the given asymmetric quorum
    /// system.
    pub fn new(me: ProcessId, quorums: AsymQuorumSystem) -> Self {
        BroadcastHub { me, quorums, instances: HashMap::new(), originated: Default::default() }
    }

    /// Creates a hub using the classic symmetric threshold system
    /// (`n−f`-quorums): plain Bracha broadcast.
    pub fn symmetric(me: ProcessId, n: usize, f: usize) -> Self {
        let qs = AsymQuorumSystem::uniform(asym_quorum::QuorumSystem::threshold(n, n - f));
        BroadcastHub::new(me, qs)
    }

    /// This process's identity.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// Starts broadcasting `value` under `tag`; returns the messages to send
    /// to all processes.
    ///
    /// Broadcasting twice under one tag is a protocol bug.
    ///
    /// # Panics
    ///
    /// Panics if this process already broadcast under `tag`.
    pub fn broadcast(&mut self, tag: Tag, value: T) -> Vec<BcastMsg<T>> {
        assert!(self.originated.insert(tag), "process {} broadcast twice under tag {tag}", self.me);
        vec![BcastMsg::Send { tag, value }]
    }

    /// Handles one received broadcast-layer message from `from`.
    ///
    /// Returns `(to_send, deliveries)`: messages to send to all processes and
    /// values that became deliverable.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: BcastMsg<T>,
    ) -> (Vec<BcastMsg<T>>, Vec<Delivery<T>>) {
        let mut out = Vec::new();
        let mut delivered = Vec::new();
        match msg {
            BcastMsg::Send { tag, value } => {
                // Echo the first value seen from this origin under this tag.
                let inst = self.instances.entry((from, tag)).or_default();
                if !inst.sent_echo {
                    inst.sent_echo = true;
                    out.push(BcastMsg::Echo { origin: from, tag, value });
                }
            }
            BcastMsg::Echo { origin, tag, value } => {
                let inst = self.instances.entry((origin, tag)).or_default();
                let echoers = inst.echoes.add(&value, from);
                // READY once a quorum of mine echoed the same value.
                if !inst.sent_ready && self.quorums.contains_quorum_for(self.me, echoers) {
                    inst.sent_ready = true;
                    out.push(BcastMsg::Ready { origin, tag, value });
                }
            }
            BcastMsg::Ready { origin, tag, value } => {
                let inst = self.instances.entry((origin, tag)).or_default();
                let readiers = inst.readies.add(&value, from);
                // Amplification: READY after a kernel of READYs.
                if !inst.sent_ready && self.quorums.hits_kernel_for(self.me, readiers) {
                    inst.sent_ready = true;
                    out.push(BcastMsg::Ready { origin, tag, value: value.clone() });
                }
                // Delivery: READY from one of my quorums.
                if !inst.delivered && self.quorums.contains_quorum_for(self.me, readiers) {
                    inst.delivered = true;
                    delivered.push(Delivery { origin, tag, value });
                }
            }
        }
        (out, delivered)
    }

    /// Returns `true` if this hub already delivered for `(origin, tag)`.
    pub fn has_delivered(&self, origin: ProcessId, tag: Tag) -> bool {
        self.instances.get(&(origin, tag)).is_some_and(|i| i.delivered)
    }

    /// Number of instances with any state (observability).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_quorum::topology;

    fn hub(i: usize) -> BroadcastHub<u32> {
        BroadcastHub::new(ProcessId::new(i), topology::uniform_threshold(4, 1).quorums)
    }

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn echo_only_first_value_per_origin_tag() {
        let mut h = hub(0);
        let (out1, _) = h.on_message(pid(1), BcastMsg::Send { tag: 0, value: 5 });
        assert_eq!(out1.len(), 1);
        // Equivocating second SEND: ignored.
        let (out2, _) = h.on_message(pid(1), BcastMsg::Send { tag: 0, value: 6 });
        assert!(out2.is_empty());
        // Different tag: fresh echo.
        let (out3, _) = h.on_message(pid(1), BcastMsg::Send { tag: 1, value: 6 });
        assert_eq!(out3.len(), 1);
    }

    #[test]
    fn ready_after_quorum_of_echoes() {
        let mut h = hub(0);
        // n=4, f=1 → quorums of size 3.
        let echo = |v| BcastMsg::Echo { origin: pid(3), tag: 0, value: v };
        assert!(h.on_message(pid(0), echo(9)).0.is_empty());
        assert!(h.on_message(pid(1), echo(9)).0.is_empty());
        let (out, _) = h.on_message(pid(2), echo(9));
        assert_eq!(out, vec![BcastMsg::Ready { origin: pid(3), tag: 0, value: 9 }]);
        // No duplicate READY on the 4th echo.
        assert!(h.on_message(pid(3), echo(9)).0.is_empty());
    }

    #[test]
    fn echoes_for_different_values_do_not_mix() {
        let mut h = hub(0);
        let echo =
            |from: usize, v| (pid(from), BcastMsg::Echo { origin: pid(3), tag: 0, value: v });
        let (f, m) = echo(0, 1);
        h.on_message(f, m);
        let (f, m) = echo(1, 2);
        h.on_message(f, m);
        let (f, m) = echo(2, 1);
        h.on_message(f, m);
        // Two echoes for 1, one for 2: no quorum for either.
        let (f, m) = echo(3, 2);
        let (out, _) = h.on_message(f, m);
        assert!(out.is_empty(), "2+2 split must not produce READY");
    }

    #[test]
    fn amplification_from_kernel_of_readies() {
        let mut h = hub(0);
        // Kernel size for threshold(4, q=3) is 4-3+1 = 2.
        let ready = |from: usize| (pid(from), BcastMsg::Ready { origin: pid(3), tag: 0, value: 7 });
        let (f, m) = ready(1);
        assert!(h.on_message(f, m).0.is_empty());
        let (f, m) = ready(2);
        let (out, del) = h.on_message(f, m);
        assert_eq!(out, vec![BcastMsg::Ready { origin: pid(3), tag: 0, value: 7 }]);
        assert!(del.is_empty(), "2 readies < quorum");
    }

    #[test]
    fn delivery_after_quorum_of_readies_once() {
        let mut h = hub(0);
        let ready = |from: usize| (pid(from), BcastMsg::Ready { origin: pid(3), tag: 0, value: 7 });
        for i in 1..3 {
            let (f, m) = ready(i);
            h.on_message(f, m);
        }
        let (f, m) = ready(3);
        let (_, del) = h.on_message(f, m);
        assert_eq!(del, vec![Delivery { origin: pid(3), tag: 0, value: 7 }]);
        assert!(h.has_delivered(pid(3), 0));
        // Further READYs do not re-deliver.
        let (f, m) = ready(0);
        let (_, del) = h.on_message(f, m);
        assert!(del.is_empty());
    }

    /// A value whose every construction is a fresh allocation, like a
    /// vertex rebuilt from a WAL, a fetch reply or a Byzantine forgery.
    fn fresh(v: &[u32]) -> std::sync::Arc<[u32]> {
        v.into()
    }

    fn shared_hub(i: usize) -> BroadcastHub<std::sync::Arc<[u32]>> {
        BroadcastHub::new(pid(i), topology::uniform_threshold(4, 1).quorums)
    }

    #[test]
    fn separately_allocated_equal_values_share_one_tally() {
        let mut h = shared_hub(0);
        let echo = |v| BcastMsg::Echo { origin: pid(3), tag: 0, value: v };
        assert!(h.on_message(pid(0), echo(fresh(&[1, 2]))).0.is_empty());
        assert!(h.on_message(pid(1), echo(fresh(&[1, 2]))).0.is_empty());
        // Three distinct allocations, one content: a quorum of echoes.
        let (out, _) = h.on_message(pid(2), echo(fresh(&[1, 2])));
        assert_eq!(out, vec![BcastMsg::Ready { origin: pid(3), tag: 0, value: fresh(&[1, 2]) }]);
    }

    #[test]
    fn an_equivocating_echoer_counts_under_every_value_it_sent() {
        let mut h = shared_hub(0);
        let echo = |from: usize, v: &[u32]| {
            (pid(from), BcastMsg::Echo { origin: pid(3), tag: 0, value: fresh(v) })
        };
        for (f, m) in [echo(0, &[1]), echo(1, &[1]), echo(1, &[2]), echo(2, &[2])] {
            assert!(h.on_message(f, m).0.is_empty(), "no value has a quorum of echoes yet");
        }
        // p1 echoed both values; its vote still completes {1, 2, 3} for [2].
        let (f, m) = echo(3, &[2]);
        let (out, _) = h.on_message(f, m);
        assert_eq!(out, vec![BcastMsg::Ready { origin: pid(3), tag: 0, value: fresh(&[2]) }]);
        // Already READY: a later quorum for [1] sends nothing more.
        let (f, m) = echo(2, &[1]);
        assert!(h.on_message(f, m).0.is_empty());
    }

    #[test]
    fn amplification_and_delivery_thresholds_hold_across_allocations() {
        let mut h = shared_hub(0);
        let ready = |from: usize| {
            (pid(from), BcastMsg::Ready { origin: pid(3), tag: 0, value: fresh(&[7, 8]) })
        };
        // Kernel of threshold(4, q=3) is 2 READYs; a quorum is 3.
        let (f, m) = ready(1);
        assert_eq!(h.on_message(f, m), (vec![], vec![]));
        let (f, m) = ready(2);
        let (out, del) = h.on_message(f, m);
        assert_eq!(out, vec![BcastMsg::Ready { origin: pid(3), tag: 0, value: fresh(&[7, 8]) }]);
        assert!(del.is_empty());
        let (f, m) = ready(3);
        let (out, del) = h.on_message(f, m);
        assert!(out.is_empty());
        assert_eq!(del, vec![Delivery { origin: pid(3), tag: 0, value: fresh(&[7, 8]) }]);
    }

    #[test]
    #[should_panic(expected = "broadcast twice")]
    fn double_broadcast_panics() {
        let mut h = hub(0);
        let out = h.broadcast(0, 1);
        // Simulate the self-delivery of SEND which marks sent_echo.
        for m in out {
            h.on_message(pid(0), m);
        }
        let _ = h.broadcast(0, 2);
    }
}
