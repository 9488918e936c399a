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
//! With a uniform threshold quorum system (quorums are the `n − f`-sets,
//! kernels the `f + 1`-sets) this *is* Bracha broadcast, so there is no
//! separate symmetric version: the symmetric baseline, Algorithm 1 and the
//! asymmetric protocols all run this hub, and the unit tests exploit that.
//!
//! A [`BroadcastHub`] multiplexes any number of instances, keyed by
//! `(origin, tag)`; one process broadcasts at most one value per tag (in the
//! DAG protocols the tag is the round number). The instances of one tag
//! share a row of `n` slots indexed by origin, allocated when the tag's
//! first message arrives. Rows are kept sorted by tag, and the tags a DAG
//! run opens are contiguous rounds, so a message finds its row by one probe
//! at `tag − first tag` and its instance by an index — no hashing, no tree
//! descent; a tag off the contiguous run costs a binary search. Each opened
//! tag costs one row, so a Byzantine far-future tag opens one row, never
//! the range below it. An ECHO or READY whose `origin` is `≥ n` names no
//! process: it opens nothing and produces nothing. (A SEND's origin is its
//! authenticated sender, which the network only ever reports as one of the
//! `n` processes.)

use std::collections::HashSet;

use asym_quorum::{AsymQuorumSystem, ProcessId, ProcessSet};

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

/// Who sent which value for one broadcast instance: `(value, senders)`
/// pairs in the order the values were first seen, matched by `==`.
///
/// An honest instance sees a single value, so the first pair is kept
/// inline and only a second value spills to the heap; with the inline
/// [`ProcessSet`] an honest tally allocates nothing. Values are matched by
/// content, so separately allocated copies of one value share a tally; for
/// shared payloads such as `Arc` (and a DAG vertex, which is one), equality
/// short-circuits on pointer identity first. A sender may appear under
/// several values (an equivocator's echoes count for each).
#[derive(Clone, Debug)]
struct Tally<T> {
    first: Option<(T, ProcessSet)>,
    others: Vec<(T, ProcessSet)>,
}

impl<T> Default for Tally<T> {
    fn default() -> Self {
        Tally { first: None, others: Vec::new() }
    }
}

impl<T: Clone + Eq> Tally<T> {
    /// Records `from` as a sender of `value` and returns everyone who sent
    /// that value so far. `value` is cloned only the first time it is seen.
    fn add(&mut self, value: &T, from: ProcessId) -> &ProcessSet {
        let (first, senders) = self.first.get_or_insert_with(|| (value.clone(), ProcessSet::new()));
        let senders = if first == value {
            senders
        } else if let Some(i) = self.others.iter().position(|(v, _)| v == value) {
            &mut self.others[i].1
        } else {
            self.others.push((value.clone(), ProcessSet::new()));
            &mut self.others.last_mut().expect("just pushed").1
        };
        senders.insert(from);
        senders
    }
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

impl<T> Instance<T> {
    /// `true` once any message reached this instance: a SEND always leaves
    /// `sent_echo` set, an ECHO or READY a non-empty tally.
    fn touched(&self) -> bool {
        self.sent_echo || self.echoes.first.is_some() || self.readies.first.is_some()
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
    /// One row per opened tag, sorted by tag; slot `i` of a row is the
    /// instance of origin `p_i`.
    rows: Vec<(Tag, Box<[Instance<T>]>)>,
    originated: HashSet<Tag>,
}

impl<T: Clone + Eq + core::fmt::Debug> BroadcastHub<T> {
    /// Creates a hub for process `me` under the given asymmetric quorum
    /// system.
    pub fn new(me: ProcessId, quorums: AsymQuorumSystem) -> Self {
        BroadcastHub { me, quorums, rows: Vec::new(), originated: HashSet::new() }
    }

    /// Where `tag`'s row is (`Ok`) or would be inserted (`Err`). A tag in
    /// the contiguous run from the first row's tag is found at its offset;
    /// any other by binary search.
    fn position(&self, tag: Tag) -> Result<usize, usize> {
        if let Some(&(first, _)) = self.rows.first() {
            let offset = tag.checked_sub(first).and_then(|k| usize::try_from(k).ok());
            if let Some(k) = offset.filter(|&k| self.rows.get(k).is_some_and(|(t, _)| *t == tag)) {
                return Ok(k);
            }
        }
        self.rows.binary_search_by_key(&tag, |(t, _)| *t)
    }

    /// This process's identity.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// The quorum system this hub counts ECHOs and READYs against.
    pub fn quorums(&self) -> &AsymQuorumSystem {
        &self.quorums
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
    /// Returns `(to_send, delivery)`: the message to send to all processes
    /// and the value that became deliverable, if any. A SEND can only
    /// produce an ECHO, an ECHO only a READY, and a READY an amplifying
    /// READY and a delivery.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: BcastMsg<T>,
    ) -> (Option<BcastMsg<T>>, Option<Delivery<T>>) {
        let (origin, tag) = match msg {
            BcastMsg::Send { tag, .. } => (from, tag),
            BcastMsg::Echo { origin, tag, .. } | BcastMsg::Ready { origin, tag, .. } => {
                (origin, tag)
            }
        };
        let n = self.quorums.n();
        if origin.index() >= n {
            return (None, None);
        }
        let k = self.position(tag).unwrap_or_else(|k| {
            self.rows.insert(k, (tag, (0..n).map(|_| Instance::default()).collect()));
            k
        });
        let inst = &mut self.rows[k].1[origin.index()];
        match msg {
            BcastMsg::Send { value, .. } => {
                // Echo the first value seen from this origin under this tag.
                if inst.sent_echo {
                    return (None, None);
                }
                inst.sent_echo = true;
                (Some(BcastMsg::Echo { origin, tag, value }), None)
            }
            BcastMsg::Echo { value, .. } => {
                let echoers = inst.echoes.add(&value, from);
                // READY once a quorum of mine echoed the same value.
                if inst.sent_ready || !self.quorums.contains_quorum_for(self.me, echoers) {
                    return (None, None);
                }
                inst.sent_ready = true;
                (Some(BcastMsg::Ready { origin, tag, value }), None)
            }
            BcastMsg::Ready { value, .. } => {
                let readiers = inst.readies.add(&value, from);
                // Amplification: READY after a kernel of READYs.
                let amplify = !inst.sent_ready && self.quorums.hits_kernel_for(self.me, readiers);
                // Delivery: READY from one of my quorums.
                let deliver =
                    !inst.delivered && self.quorums.contains_quorum_for(self.me, readiers);
                inst.sent_ready |= amplify;
                inst.delivered |= deliver;
                let ready = amplify.then(|| BcastMsg::Ready { origin, tag, value: value.clone() });
                (ready, deliver.then_some(Delivery { origin, tag, value }))
            }
        }
    }

    /// Returns `true` if this hub already delivered for `(origin, tag)`.
    pub fn has_delivered(&self, origin: ProcessId, tag: Tag) -> bool {
        let row = self.position(tag).ok().map(|k| &self.rows[k].1);
        row.and_then(|row| row.get(origin.index())).is_some_and(|i| i.delivered)
    }

    /// Number of `(origin, tag)` instances that received any message
    /// (observability).
    pub fn instance_count(&self) -> usize {
        self.rows.iter().flat_map(|(_, row)| row.iter()).filter(|i| i.touched()).count()
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
    fn tally_counts_senders_per_value() {
        let mut t = Tally::default();
        assert_eq!(t.add(&7u32, pid(0)).len(), 1);
        assert_eq!(t.add(&7, pid(1)).len(), 2);
        // A repeated vote is idempotent.
        assert_eq!(t.add(&7, pid(1)).len(), 2);
        // Another value starts its own tally; a sender may be in both.
        assert_eq!(t.add(&8, pid(1)).len(), 1);
        assert_eq!(t.add(&7, pid(2)).len(), 3);
    }

    #[test]
    fn echo_only_first_value_per_origin_tag() {
        let mut h = hub(0);
        let (out1, _) = h.on_message(pid(1), BcastMsg::Send { tag: 0, value: 5 });
        assert!(out1.is_some());
        // Equivocating second SEND: ignored.
        let (out2, _) = h.on_message(pid(1), BcastMsg::Send { tag: 0, value: 6 });
        assert!(out2.is_none());
        // Different tag: fresh echo.
        let (out3, _) = h.on_message(pid(1), BcastMsg::Send { tag: 1, value: 6 });
        assert!(out3.is_some());
    }

    #[test]
    fn ready_after_quorum_of_echoes() {
        let mut h = hub(0);
        // n=4, f=1 → quorums of size 3.
        let echo = |v| BcastMsg::Echo { origin: pid(3), tag: 0, value: v };
        assert!(h.on_message(pid(0), echo(9)).0.is_none());
        assert!(h.on_message(pid(1), echo(9)).0.is_none());
        let (out, _) = h.on_message(pid(2), echo(9));
        assert_eq!(out, Some(BcastMsg::Ready { origin: pid(3), tag: 0, value: 9 }));
        // No duplicate READY on the 4th echo.
        assert!(h.on_message(pid(3), echo(9)).0.is_none());
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
        assert!(out.is_none(), "2+2 split must not produce READY");
    }

    #[test]
    fn amplification_from_kernel_of_readies() {
        let mut h = hub(0);
        // Kernel size for threshold(4, q=3) is 4-3+1 = 2.
        let ready = |from: usize| (pid(from), BcastMsg::Ready { origin: pid(3), tag: 0, value: 7 });
        let (f, m) = ready(1);
        assert!(h.on_message(f, m).0.is_none());
        let (f, m) = ready(2);
        let (out, del) = h.on_message(f, m);
        assert_eq!(out, Some(BcastMsg::Ready { origin: pid(3), tag: 0, value: 7 }));
        assert!(del.is_none(), "2 readies < quorum");
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
        assert_eq!(del, Some(Delivery { origin: pid(3), tag: 0, value: 7 }));
        assert!(h.has_delivered(pid(3), 0));
        // Further READYs do not re-deliver.
        let (f, m) = ready(0);
        let (_, del) = h.on_message(f, m);
        assert!(del.is_none());
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
        assert!(h.on_message(pid(0), echo(fresh(&[1, 2]))).0.is_none());
        assert!(h.on_message(pid(1), echo(fresh(&[1, 2]))).0.is_none());
        // Three distinct allocations, one content: a quorum of echoes.
        let (out, _) = h.on_message(pid(2), echo(fresh(&[1, 2])));
        assert_eq!(out, Some(BcastMsg::Ready { origin: pid(3), tag: 0, value: fresh(&[1, 2]) }));
    }

    #[test]
    fn an_equivocating_echoer_counts_under_every_value_it_sent() {
        let mut h = shared_hub(0);
        let echo = |from: usize, v: &[u32]| {
            (pid(from), BcastMsg::Echo { origin: pid(3), tag: 0, value: fresh(v) })
        };
        for (f, m) in [echo(0, &[1]), echo(1, &[1]), echo(1, &[2]), echo(2, &[2])] {
            assert!(h.on_message(f, m).0.is_none(), "no value has a quorum of echoes yet");
        }
        // p1 echoed both values; its vote still completes {1, 2, 3} for [2].
        let (f, m) = echo(3, &[2]);
        let (out, _) = h.on_message(f, m);
        assert_eq!(out, Some(BcastMsg::Ready { origin: pid(3), tag: 0, value: fresh(&[2]) }));
        // Already READY: a later quorum for [1] sends nothing more.
        let (f, m) = echo(2, &[1]);
        assert!(h.on_message(f, m).0.is_none());
    }

    #[test]
    fn amplification_and_delivery_thresholds_hold_across_allocations() {
        let mut h = shared_hub(0);
        let ready = |from: usize| {
            (pid(from), BcastMsg::Ready { origin: pid(3), tag: 0, value: fresh(&[7, 8]) })
        };
        // Kernel of threshold(4, q=3) is 2 READYs; a quorum is 3.
        let (f, m) = ready(1);
        assert_eq!(h.on_message(f, m), (None, None));
        let (f, m) = ready(2);
        let (out, del) = h.on_message(f, m);
        assert_eq!(out, Some(BcastMsg::Ready { origin: pid(3), tag: 0, value: fresh(&[7, 8]) }));
        assert!(del.is_none());
        let (f, m) = ready(3);
        let (out, del) = h.on_message(f, m);
        assert!(out.is_none());
        assert_eq!(del, Some(Delivery { origin: pid(3), tag: 0, value: fresh(&[7, 8]) }));
    }

    #[test]
    fn an_origin_outside_the_system_opens_nothing() {
        let mut h = hub(0);
        h.on_message(pid(1), BcastMsg::Send { tag: 0, value: 5 });
        assert_eq!(h.instance_count(), 1);
        // n = 4: origin p4 names no process, whoever relays it.
        for from in 0..4 {
            for msg in [
                BcastMsg::Echo { origin: pid(4), tag: 0, value: 5 },
                BcastMsg::Ready { origin: pid(4), tag: 0, value: 5 },
                BcastMsg::Ready { origin: pid(4), tag: 9, value: 5 },
            ] {
                assert_eq!(h.on_message(pid(from), msg), (None, None));
            }
        }
        assert_eq!(h.instance_count(), 1);
        assert!(!h.has_delivered(pid(4), 0));
    }

    #[test]
    fn a_quorum_for_one_slot_readies_no_other() {
        let mut h = hub(0);
        let echo = |origin: usize, tag| BcastMsg::Echo { origin: pid(origin), tag, value: 1 };
        let ready = |origin: usize, tag| BcastMsg::Ready { origin: pid(origin), tag, value: 1 };
        // One ECHO each for the row neighbour (p2, 0) and for (p3, 1).
        assert!(h.on_message(pid(0), echo(2, 0)).0.is_none());
        assert!(h.on_message(pid(0), echo(3, 1)).0.is_none());
        for from in 0..2 {
            assert!(h.on_message(pid(from + 1), echo(3, 0)).0.is_none());
        }
        let (out, _) = h.on_message(pid(3), echo(3, 0));
        assert_eq!(out, Some(ready(3, 0)));
        // A quorum of READYs for (p3, 0) delivers (p3, 0) alone.
        for from in 1..4 {
            h.on_message(pid(from), ready(3, 0));
        }
        assert!(h.has_delivered(pid(3), 0));
        assert!(!h.has_delivered(pid(2), 0));
        assert!(!h.has_delivered(pid(3), 1));
        // Neither neighbour is READY: one more ECHO each is still short of
        // a quorum, and a kernel of READYs for them is what amplifies.
        assert!(h.on_message(pid(1), echo(2, 0)).0.is_none());
        assert!(h.on_message(pid(1), echo(3, 1)).0.is_none());
        assert!(h.on_message(pid(1), ready(2, 0)).0.is_none());
        assert_eq!(h.on_message(pid(2), ready(2, 0)).0, Some(ready(2, 0)));
    }

    #[test]
    fn instance_count_counts_touched_instances_not_row_slots() {
        let mut h = hub(0);
        assert_eq!(h.instance_count(), 0);
        // The first message of tag 3 opens a row of four slots: one counts.
        h.on_message(pid(1), BcastMsg::Send { tag: 3, value: 5 });
        assert_eq!(h.instance_count(), 1);
        // Each message kind touches an instance; a repeat touches nothing new.
        h.on_message(pid(0), BcastMsg::Echo { origin: pid(2), tag: 3, value: 5 });
        h.on_message(pid(0), BcastMsg::Ready { origin: pid(3), tag: 3, value: 5 });
        h.on_message(pid(2), BcastMsg::Echo { origin: pid(2), tag: 3, value: 5 });
        assert_eq!(h.instance_count(), 3);
        h.on_message(pid(2), BcastMsg::Send { tag: 4, value: 5 });
        assert_eq!(h.instance_count(), 4);
    }

    #[test]
    fn rows_stay_sorted_and_one_per_tag_in_any_arrival_order() {
        let mut h = hub(0);
        // Contiguous tags, a far-future one, tags below the first, and a
        // gap filled late: each opens exactly one row, kept in tag order.
        for tag in [5, 6, u64::MAX, 7, 2, 9, 8, 3, 4, 6] {
            h.on_message(pid(1), BcastMsg::Send { tag, value: 1 });
        }
        let tags: Vec<Tag> = h.rows.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, [2, 3, 4, 5, 6, 7, 8, 9, u64::MAX]);
        for (k, &tag) in tags.iter().enumerate() {
            assert_eq!(h.position(tag), Ok(k));
        }
        assert_eq!((h.position(1), h.position(10)), (Err(0), Err(8)));
        assert_eq!(h.instance_count(), 9);
        // Every row still routes to its own instances.
        for tag in [9, 2, u64::MAX] {
            for from in 0..3 {
                h.on_message(pid(from), BcastMsg::Ready { origin: pid(1), tag, value: 1 });
            }
            assert!(h.has_delivered(pid(1), tag));
        }
        assert!(!h.has_delivered(pid(1), 5) && !h.has_delivered(pid(1), 10));
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
