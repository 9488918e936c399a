//! Byzantine protocol variants: attackers speaking the honest wire format.
//!
//! Crash and omission faults live at the network layer
//! ([`asym_sim::FaultMode`]); *Byzantine* behaviour is protocol-level
//! deviation, so it is modelled as an alternative state machine speaking
//! [`AsymRiderMsg`]. [`Party`] packs honest and Byzantine participants into
//! one protocol type so a single simulation can mix them — the form every
//! scenario cell runs. The symmetric baseline speaks the same wire type, so
//! it is one more kind of party.

use asym_broadcast::BcastMsg;
use asym_core::{
    AsymDagRider, AsymRiderMsg, Block, DagRider, OrderedVertex, RiderMetrics, WaveCommitter,
    WaveSegment,
};
use asym_crypto::CommonCoin;
use asym_dag::{round_of_wave, DagStore, Vertex, VertexId};
use asym_quorum::{ProcessId, ProcessSet};
use asym_sim::{Context, Protocol};

/// A protocol-level attack an adversarial participant mounts once at start,
/// staying silent afterwards (worst case: attack + crash).
///
/// Every attack also has a *recovery-time* half, mounted when the attacker
/// is assigned [`Fault::ByzantineRestart`](crate::Fault::ByzantineRestart)
/// and the engine revives it: instead of an honest WAL replay it lies —
/// re-SENDing equivocating copies of its own vertices, re-announcing
/// CONFIRMs it never earned, or soliciting fetch traffic it will poison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByzAttack {
    /// Send *different* round-1 vertices to even and odd processes under the
    /// same arb instance (equivocation). Reliable broadcast must ensure at
    /// most one version is ever ordered, and the same one everywhere. On
    /// recovery: re-SENDs the two copies *swapped* (each peer now sees the
    /// copy it did not see before) and falsely re-announces CONFIRMs.
    EquivocateVertices,
    /// Broadcast a round-2 vertex whose strong edges reference only the
    /// attacker — no quorum, violating the line-140 validity rule. Honest
    /// processes must never insert it. On recovery: broadcasts it again.
    BogusStrongEdges,
    /// Flood CONFIRM/READY messages for far-future waves (state-poisoning
    /// probe against the Algorithm-5 control ladder). On recovery: floods
    /// again.
    ConfirmFlood,
    /// Lie *to recovering processes*: stays silent until it sees a
    /// [`Fetch`](asym_core::AsymRiderMsg::Fetch), then answers with a
    /// forged [`FetchReply`](asym_core::AsymRiderMsg::FetchReply) —
    /// fabricated vertices attributed to honest processes (forged copies
    /// of their genuine round-1 vertices plus never-created ones) and
    /// false confirmed-wave claims. The fetch path bypasses reliable
    /// broadcast, so the recovering process's kernel-matched acceptance is
    /// the only defense this attack probes. On recovery: broadcasts a
    /// `Fetch` of its own, soliciting reply traffic it can answer-poison.
    ForgeFetchReplies,
    /// Lie through the **delivered-state transfer** path: answer every
    /// `Fetch` with a forged [`StateOffer`](asym_core::AsymRiderMsg::StateOffer)
    /// claiming a deep decided wave, and every
    /// [`StateRequest`](asym_core::AsymRiderMsg::StateRequest) with a
    /// forged [`StateChunk`](asym_core::AsymRiderMsg::StateChunk) whose
    /// segments name the *correct* coin-elected leaders (so the cheap coin
    /// filter passes) but carry fabricated [`FORGED_TX`] deliveries — a
    /// forged or truncated delivered prefix. The laggard's kernel-matched
    /// install is the only defense: a lone liar never corroborates a
    /// segment, and the laggard must still converge via honest offers. On
    /// recovery: pushes unsolicited forged offers at everyone.
    ForgeStateOffers,
}

/// The forged transaction id `ForgeFetchReplies` plants in fabricated
/// vertices; appearing in any honest output or DAG is proof the defense
/// failed.
pub const FORGED_TX: u64 = 7777;

impl ByzAttack {
    /// The equivocated/invalid transaction ids this attack injects; the
    /// no-fabrication checker treats them as Byzantine-authored.
    pub fn injected_txs(&self) -> &'static [u64] {
        match self {
            ByzAttack::EquivocateVertices => &[666, 999],
            ByzAttack::BogusStrongEdges => &[31337],
            ByzAttack::ConfirmFlood => &[],
            // FORGED_TX is deliberately absent: the forged vertices claim
            // *honest* sources, so any delivery of one is flagged by the
            // no-fabrication checkers rather than excused as
            // attacker-authored.
            ByzAttack::ForgeFetchReplies => &[],
            // Likewise: forged segments deliver under honest vertex ids, so
            // an installed forgery is a checker violation, never excused.
            ByzAttack::ForgeStateOffers => &[],
        }
    }
}

impl core::fmt::Display for ByzAttack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ByzAttack::EquivocateVertices => write!(f, "equivocate"),
            ByzAttack::BogusStrongEdges => write!(f, "bogus-edges"),
            ByzAttack::ConfirmFlood => write!(f, "confirm-flood"),
            ByzAttack::ForgeFetchReplies => write!(f, "forge-fetch-replies"),
            ByzAttack::ForgeStateOffers => write!(f, "forge-state-offers"),
        }
    }
}

/// A Byzantine consensus participant speaking the honest message type.
#[derive(Clone, Debug)]
pub struct ByzProcess {
    me: ProcessId,
    n: usize,
    attack: ByzAttack,
    /// The cluster's shared coin — an insider attacker knows the leader
    /// schedule, so its forged state segments can name the correct
    /// coin-elected leaders and survive the cheap coin filter (the
    /// kernel-matched install must be the defense that holds).
    coin: CommonCoin,
    sent: bool,
}

impl ByzProcess {
    /// Creates an attacker with identity `me` in an `n`-process system
    /// sharing the cluster's `coin_seed`.
    pub fn new(me: ProcessId, n: usize, attack: ByzAttack, coin_seed: u64) -> Self {
        ByzProcess { me, n, attack, coin: CommonCoin::new(coin_seed, n), sent: false }
    }

    /// The mounted attack.
    pub fn attack(&self) -> ByzAttack {
        self.attack
    }
}

impl ByzProcess {
    /// Sends the two equivocating round-1 copies; `swap` flips which copy
    /// goes to even and odd peers (the recovery-time re-SEND shows every
    /// peer the copy it did not see before the crash).
    fn equivocate(&self, swap: bool, ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>) {
        let full: ProcessSet = (0..self.n).collect();
        for i in 0..self.n {
            let even = (i % 2 == 0) ^ swap;
            let block = Block::new(vec![if even { 666 } else { 999 }]);
            let v = Vertex::new(self.me, 1, block, full.clone(), vec![]);
            ctx.send(ProcessId::new(i), AsymRiderMsg::Arb(BcastMsg::Send { tag: 1, value: v }));
        }
    }

    /// The forged catch-up reply `ForgeFetchReplies` answers fetches with:
    /// fabricated round-`above_round + 1` vertices attributed to every
    /// *other* process (forged copies of genuine round-1 vertices when
    /// `above_round == 0`, pure fabrications otherwise), plus false
    /// confirmed-wave claims.
    fn forged_fetch_reply(&self, above_round: u64) -> AsymRiderMsg {
        let full: ProcessSet = (0..self.n).collect();
        let round = above_round + 1;
        let vertices: Vec<Vertex<Block>> = (0..self.n)
            .filter(|i| *i != self.me.index())
            .map(|i| {
                Vertex::new(
                    ProcessId::new(i),
                    round,
                    Block::new(vec![FORGED_TX]),
                    full.clone(),
                    vec![],
                )
            })
            .collect();
        AsymRiderMsg::FetchReply { vertices, confirmed: (1..=30).collect() }
    }

    /// The forged delivered prefix `ForgeStateOffers` claims: a `StateOffer`
    /// advertising 12 decided waves.
    fn forged_state_offer(&self) -> AsymRiderMsg {
        AsymRiderMsg::StateOffer { decided_wave: 12, floor: round_of_wave(12, 1) }
    }

    /// The forged `StateChunk` backing that offer: segments for every
    /// claimed wave above the requester's watermark, each naming the
    /// *correct* coin-elected leader (the attacker shares the cluster coin)
    /// but delivering a fabricated [`FORGED_TX`] block under the leader's
    /// honest identity — installing any of these is a provable defense
    /// failure.
    fn forged_state_chunk(&self, above_wave: u64) -> AsymRiderMsg {
        let segments: Vec<WaveSegment> = (above_wave + 1..=12)
            .map(|wave| {
                let leader = VertexId::new(round_of_wave(wave, 1), self.coin.leader(wave));
                WaveSegment {
                    wave,
                    // Chain straight onto the requester's watermark so the
                    // first forged segment is immediately installable if
                    // kernel matching ever failed to hold.
                    prev_wave: if wave == above_wave + 1 { above_wave } else { wave - 1 },
                    leader,
                    deliveries: vec![(leader, Block::new(vec![FORGED_TX]))],
                }
            })
            .collect();
        AsymRiderMsg::StateChunk { segments }
    }
}

impl Protocol for ByzProcess {
    type Msg = AsymRiderMsg;
    type Input = Block;
    type Output = OrderedVertex;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        if self.sent {
            return;
        }
        self.sent = true;
        match self.attack {
            ByzAttack::EquivocateVertices => self.equivocate(false, ctx),
            ByzAttack::BogusStrongEdges => {
                let v = Vertex::new(
                    self.me,
                    2,
                    Block::new(vec![31337]),
                    ProcessSet::singleton(self.me),
                    vec![],
                );
                ctx.broadcast(AsymRiderMsg::Arb(BcastMsg::Send { tag: 2, value: v }));
            }
            ByzAttack::ConfirmFlood => {
                for wave in 1..50 {
                    ctx.broadcast(AsymRiderMsg::Confirm { wave });
                    ctx.broadcast(AsymRiderMsg::Ready { wave });
                }
            }
            // Lie reactively: every Fetch it sees gets a poisoned reply.
            ByzAttack::ForgeFetchReplies | ByzAttack::ForgeStateOffers => {}
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        // Attacks stay otherwise silent after their opening move (worst
        // case: attack + crash) — except the forgers, which answer exactly
        // the messages a *recovering* honest process depends on.
        match (self.attack, &msg) {
            (ByzAttack::ForgeFetchReplies, AsymRiderMsg::Fetch { above_round }) => {
                ctx.send(from, self.forged_fetch_reply(*above_round));
            }
            (ByzAttack::ForgeStateOffers, AsymRiderMsg::Fetch { .. }) => {
                ctx.send(from, self.forged_state_offer());
            }
            (ByzAttack::ForgeStateOffers, AsymRiderMsg::StateRequest { above_wave }) => {
                ctx.send(from, self.forged_state_chunk(*above_wave));
            }
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        // The recovery-time lie: a Byzantine process revived by the engine
        // mimics the shape of honest recovery (re-SENDs, CONFIRM
        // re-announcements, a catch-up Fetch) with poisoned content.
        match self.attack {
            ByzAttack::EquivocateVertices => {
                self.equivocate(true, ctx);
                for wave in 1..=8 {
                    ctx.broadcast(AsymRiderMsg::Confirm { wave });
                }
            }
            ByzAttack::BogusStrongEdges => {
                let v = Vertex::new(
                    self.me,
                    2,
                    Block::new(vec![31337]),
                    ProcessSet::singleton(self.me),
                    vec![],
                );
                ctx.broadcast(AsymRiderMsg::Arb(BcastMsg::Send { tag: 2, value: v }));
            }
            ByzAttack::ConfirmFlood => {
                for wave in 1..50 {
                    ctx.broadcast(AsymRiderMsg::Confirm { wave });
                    ctx.broadcast(AsymRiderMsg::Ready { wave });
                }
            }
            ByzAttack::ForgeFetchReplies => {
                // Solicit catch-up traffic it can answer-poison, and push
                // an unsolicited forged reply at everyone in case some
                // peer is mid-recovery right now.
                ctx.broadcast(AsymRiderMsg::Fetch { above_round: 0 });
                let reply = self.forged_fetch_reply(0);
                for i in 0..self.n {
                    if i != self.me.index() {
                        ctx.send(ProcessId::new(i), reply.clone());
                    }
                }
            }
            ByzAttack::ForgeStateOffers => {
                // Push unsolicited forged offers at everyone: any peer
                // mid-recovery will request the forged prefix.
                let offer = self.forged_state_offer();
                for i in 0..self.n {
                    if i != self.me.index() {
                        ctx.send(ProcessId::new(i), offer.clone());
                    }
                }
            }
        }
    }
}

/// One scenario participant — one simulation, one type.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Party {
    /// An honest asymmetric DAG-Rider process.
    Honest(AsymDagRider),
    /// An honest process of the symmetric DAG-Rider baseline.
    Baseline(DagRider),
    /// A protocol-level attacker.
    Byzantine(ByzProcess),
}

impl Party {
    /// The honest asymmetric DAG-Rider process, if this party is one.
    pub fn as_honest(&self) -> Option<&AsymDagRider> {
        match self {
            Party::Honest(p) => Some(p),
            Party::Baseline(_) | Party::Byzantine(_) => None,
        }
    }

    /// The wave-commitment state of an honest party of either protocol.
    pub fn committer(&self) -> Option<&WaveCommitter> {
        match self {
            Party::Honest(p) => Some(p.committer()),
            Party::Baseline(p) => Some(p.committer()),
            Party::Byzantine(_) => None,
        }
    }

    /// The local DAG of an honest party of either protocol.
    pub fn dag(&self) -> Option<&DagStore<Block>> {
        match self {
            Party::Honest(p) => Some(p.dag()),
            Party::Baseline(p) => Some(p.dag()),
            Party::Byzantine(_) => None,
        }
    }

    /// Execution counters (default for an attacker).
    pub fn metrics(&self) -> RiderMetrics {
        match self {
            Party::Honest(p) => p.metrics(),
            Party::Baseline(p) => p.metrics(),
            Party::Byzantine(_) => RiderMetrics::default(),
        }
    }
}

impl Protocol for Party {
    type Msg = AsymRiderMsg;
    type Input = Block;
    type Output = OrderedVertex;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        match self {
            Party::Honest(p) => p.on_start(ctx),
            Party::Baseline(p) => p.on_start(ctx),
            Party::Byzantine(p) => p.on_start(ctx),
        }
    }

    fn on_input(&mut self, input: Block, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        match self {
            Party::Honest(p) => p.on_input(input, ctx),
            Party::Baseline(p) => p.on_input(input, ctx),
            Party::Byzantine(_) => {}
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        match self {
            Party::Honest(p) => p.on_message(from, msg, ctx),
            Party::Baseline(p) => p.on_message(from, msg, ctx),
            Party::Byzantine(p) => p.on_message(from, msg, ctx),
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        match self {
            Party::Honest(p) => p.on_recover(ctx),
            // The runner never schedules a baseline restart (no WAL).
            Party::Baseline(p) => p.on_recover(ctx),
            // A revived attacker lies during its own recovery
            // (Fault::ByzantineRestart) instead of replaying a WAL.
            Party::Byzantine(p) => p.on_recover(ctx),
        }
    }
}
