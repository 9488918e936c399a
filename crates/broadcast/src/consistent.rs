//! Asymmetric Byzantine **consistent** broadcast.
//!
//! The weaker sibling of reliable broadcast: consistency (no two correct
//! processes deliver different values for the same instance) and validity,
//! but **no totality** — if the (Byzantine) origin equivocates, some correct
//! processes may deliver while others never do. It needs one round less than
//! reliable broadcast (SEND → ECHO → deliver on a quorum of matching
//! echoes), which is why uncertified-DAG protocols such as Mysticeti use it;
//! the paper's §4.5 discusses this trade-off.
//!
//! Included for completeness of the Alpos et al. asymmetric primitive suite
//! and to support the latency ablation in the benchmarks.

use std::collections::HashMap;

use asym_quorum::{AsymQuorumSystem, ProcessId};

use crate::tally::Tally;
use crate::{Delivery, Tag};

/// Wire messages of consistent broadcast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CbcastMsg<T> {
    /// The origin's initial dissemination.
    Send {
        /// Instance tag chosen by the origin.
        tag: Tag,
        /// The broadcast value.
        value: T,
    },
    /// Witness for `(origin, tag, value)`.
    Echo {
        /// The process whose broadcast this echoes.
        origin: ProcessId,
        /// Instance tag.
        tag: Tag,
        /// Echoed value.
        value: T,
    },
}

#[derive(Clone, Debug)]
struct Instance<T> {
    echoes: Tally<T>,
    sent_echo: bool,
    delivered: bool,
}

impl<T> Default for Instance<T> {
    fn default() -> Self {
        Instance { echoes: Tally::default(), sent_echo: false, delivered: false }
    }
}

/// Multi-instance asymmetric consistent broadcast engine for one process.
///
/// Same embedding pattern as [`BroadcastHub`](crate::BroadcastHub).
#[derive(Clone, Debug)]
pub struct ConsistentHub<T> {
    me: ProcessId,
    quorums: AsymQuorumSystem,
    instances: HashMap<(ProcessId, Tag), Instance<T>>,
    originated: std::collections::HashSet<Tag>,
}

impl<T: Clone + Eq + core::fmt::Debug> ConsistentHub<T> {
    /// Creates a hub for process `me` under the given asymmetric quorum
    /// system.
    pub fn new(me: ProcessId, quorums: AsymQuorumSystem) -> Self {
        ConsistentHub { me, quorums, instances: HashMap::new(), originated: Default::default() }
    }

    /// Starts broadcasting `value` under `tag`.
    ///
    /// # Panics
    ///
    /// Panics if this process already broadcast under `tag`.
    pub fn broadcast(&mut self, tag: Tag, value: T) -> Vec<CbcastMsg<T>> {
        assert!(
            self.originated.insert(tag),
            "process {} consistent-broadcast twice under tag {tag}",
            self.me
        );
        vec![CbcastMsg::Send { tag, value }]
    }

    /// Handles one received message; returns `(to_send_to_all, deliveries)`.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: CbcastMsg<T>,
    ) -> (Vec<CbcastMsg<T>>, Vec<Delivery<T>>) {
        let mut out = Vec::new();
        let mut delivered = Vec::new();
        match msg {
            CbcastMsg::Send { tag, value } => {
                let inst = self.instances.entry((from, tag)).or_default();
                if !inst.sent_echo {
                    inst.sent_echo = true;
                    out.push(CbcastMsg::Echo { origin: from, tag, value });
                }
            }
            CbcastMsg::Echo { origin, tag, value } => {
                let inst = self.instances.entry((origin, tag)).or_default();
                let echoers = inst.echoes.add(&value, from);
                if !inst.delivered && self.quorums.contains_quorum_for(self.me, echoers) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_quorum::topology;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn hub(i: usize) -> ConsistentHub<u32> {
        ConsistentHub::new(pid(i), topology::uniform_threshold(4, 1).quorums)
    }

    #[test]
    fn delivers_after_quorum_of_echoes() {
        let mut h = hub(0);
        let echo = |from: usize| (pid(from), CbcastMsg::Echo { origin: pid(3), tag: 1, value: 8 });
        for i in 0..2 {
            let (f, m) = echo(i);
            assert!(h.on_message(f, m).1.is_empty());
        }
        let (f, m) = echo(2);
        let (_, del) = h.on_message(f, m);
        assert_eq!(del, vec![Delivery { origin: pid(3), tag: 1, value: 8 }]);
        assert!(h.has_delivered(pid(3), 1));
    }

    #[test]
    fn echoes_once_per_instance() {
        let mut h = hub(0);
        let (out, _) = h.on_message(pid(2), CbcastMsg::Send { tag: 0, value: 1 });
        assert_eq!(out.len(), 1);
        let (out, _) = h.on_message(pid(2), CbcastMsg::Send { tag: 0, value: 2 });
        assert!(out.is_empty());
    }

    #[test]
    fn split_echoes_never_deliver_two_values() {
        // 2 echoes for each of two values: no quorum for either, and quorum
        // intersection makes a double delivery impossible in principle.
        let mut h = hub(0);
        for (i, v) in [(0, 1u32), (1, 1), (2, 2), (3, 2)] {
            let (_, del) =
                h.on_message(pid(i), CbcastMsg::Echo { origin: pid(3), tag: 0, value: v });
            assert!(del.is_empty());
        }
    }

    /// A value whose every construction is a fresh allocation.
    fn fresh(v: &[u32]) -> std::sync::Arc<[u32]> {
        v.into()
    }

    fn shared_hub(i: usize) -> ConsistentHub<std::sync::Arc<[u32]>> {
        ConsistentHub::new(pid(i), topology::uniform_threshold(4, 1).quorums)
    }

    #[test]
    fn separately_allocated_equal_values_share_one_tally() {
        let mut h = shared_hub(0);
        let echo = |v| CbcastMsg::Echo { origin: pid(3), tag: 0, value: v };
        assert!(h.on_message(pid(0), echo(fresh(&[4]))).1.is_empty());
        assert!(h.on_message(pid(1), echo(fresh(&[4]))).1.is_empty());
        // The third copy completes a quorum: delivery at the same count as
        // for a single shared allocation.
        let (_, del) = h.on_message(pid(2), echo(fresh(&[4])));
        assert_eq!(del, vec![Delivery { origin: pid(3), tag: 0, value: fresh(&[4]) }]);
    }

    #[test]
    fn an_equivocating_echoer_counts_under_every_value_it_sent() {
        let mut h = shared_hub(0);
        let echo = |from: usize, v: &[u32]| {
            (pid(from), CbcastMsg::Echo { origin: pid(3), tag: 0, value: fresh(v) })
        };
        for (f, m) in [echo(0, &[1]), echo(1, &[1]), echo(1, &[2]), echo(2, &[2])] {
            assert!(h.on_message(f, m).1.is_empty());
        }
        let (f, m) = echo(3, &[2]);
        let (_, del) = h.on_message(f, m);
        assert_eq!(del, vec![Delivery { origin: pid(3), tag: 0, value: fresh(&[2]) }]);
        // Delivered once: a later quorum for the other value is ignored.
        let (f, m) = echo(2, &[1]);
        assert!(h.on_message(f, m).1.is_empty());
    }

    #[test]
    #[should_panic(expected = "consistent-broadcast twice")]
    fn double_broadcast_panics() {
        let mut h = hub(0);
        let _ = h.broadcast(3, 1);
        let _ = h.broadcast(3, 2);
    }
}
