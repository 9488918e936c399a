//! Pass-through wrappers the traced run puts around the protocol and the
//! scheduler. Each times the calls into the layer below it and forwards
//! every effect unchanged, so a traced execution is the untraced one step
//! for step (the benchmark checks this).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use asym_broadcast::BcastMsg;
use asym_core::{AsymDagRider, AsymRiderMsg, Block, OrderedVertex};
use asym_dag::VertexId;
use asym_quorum::ProcessId;
use asym_sim::{Context, Dest, InFlight, Protocol, Scheduler, Step};

/// The class of one `on_message` call, decided in this priority order: the
/// call emitted ordered vertices (`Commit`), it broadcast a new own vertex
/// (`Advance`), otherwise the kind of message it handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallClass {
    Commit,
    Advance,
    /// Ack / Ready / Confirm of the wave control ladder.
    Control,
    /// Fetch / FetchReply / StateOffer / StateRequest / StateChunk.
    Catchup,
    /// Reliable-broadcast SEND of a peer's vertex.
    Send,
    /// Reliable-broadcast ECHO.
    Echo,
    /// Reliable-broadcast READY.
    Ready,
}

pub const CLASSES: usize = 7;

/// One ECHO or READY a process received, kept so the quorum predicates the
/// broadcast hub evaluated on it can be re-timed outside the execution.
#[derive(Clone, Copy, Debug)]
pub struct BcastEvent {
    pub ready: bool,
    pub from: u8,
    pub origin: u8,
    pub tag: u32,
}

/// What one wrapped process observed about its own calls.
#[derive(Clone, Debug, Default)]
pub struct ProbeStats {
    pub ns: [u64; CLASSES],
    pub calls: [u64; CLASSES],
    pub recover_ns: u64,
    pub recovers: u64,
    /// Own vertices with the simulated time their SEND left this process.
    pub created: Vec<(VertexId, Step)>,
    /// Ordered vertices with the simulated time this process output them.
    pub delivered: Vec<(VertexId, Step)>,
    pub bcast: Vec<BcastEvent>,
}

/// An [`AsymDagRider`] that hands every callback a private [`Context`],
/// times the call, and then forwards the sends and outputs unchanged.
#[derive(Debug)]
pub struct Probe {
    inner: AsymDagRider,
    stats: ProbeStats,
}

impl Probe {
    pub fn new(inner: AsymDagRider) -> Self {
        Probe { inner, stats: ProbeStats::default() }
    }

    pub fn stats(&self) -> &ProbeStats {
        &self.stats
    }

    /// Runs one callback against a private context; returns its duration,
    /// whether it output ordered vertices and whether it broadcast a new
    /// own vertex.
    fn call(
        &mut self,
        ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>,
        f: impl FnOnce(&mut AsymDagRider, &mut Context<'_, AsymRiderMsg, OrderedVertex>),
    ) -> (u64, bool, bool) {
        let mut sends = Vec::new();
        let mut outs = Vec::new();
        let start = Instant::now();
        {
            let mut private = Context::new(ctx.id(), ctx.n(), ctx.now(), &mut sends, &mut outs);
            f(&mut self.inner, &mut private);
        }
        let ns = start.elapsed().as_nanos() as u64;
        let (me, now) = (ctx.id(), ctx.now());
        let mut advanced = false;
        for (dest, msg) in sends {
            if let AsymRiderMsg::Arb(BcastMsg::Send { value, .. }) = &msg {
                if value.source() == me {
                    advanced = true;
                    self.stats.created.push((value.id(), now));
                }
            }
            match dest {
                Dest::To(to) => ctx.send(to, msg),
                Dest::All => ctx.broadcast(msg),
            }
        }
        let committed = !outs.is_empty();
        for out in outs {
            self.stats.delivered.push((out.id, now));
            ctx.output(out);
        }
        (ns, committed, advanced)
    }
}

/// Gives the benchmark the rider behind a plain or a wrapped process.
pub trait Rider {
    fn rider(&self) -> &AsymDagRider;
}

impl Rider for AsymDagRider {
    fn rider(&self) -> &AsymDagRider {
        self
    }
}

impl Rider for Probe {
    fn rider(&self) -> &AsymDagRider {
        &self.inner
    }
}

fn bcast_event(ready: bool, from: ProcessId, origin: ProcessId, tag: u64) -> BcastEvent {
    BcastEvent { ready, from: from.index() as u8, origin: origin.index() as u8, tag: tag as u32 }
}

impl Protocol for Probe {
    type Msg = AsymRiderMsg;
    type Input = Block;
    type Output = OrderedVertex;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.call(ctx, |p, c| p.on_start(c));
    }

    fn on_input(&mut self, block: Block, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.call(ctx, |p, c| p.on_input(block, c));
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        let (ns, _, _) = self.call(ctx, |p, c| p.on_recover(c));
        self.stats.recover_ns += ns;
        self.stats.recovers += 1;
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        let kind = match &msg {
            AsymRiderMsg::Arb(BcastMsg::Send { .. }) => CallClass::Send,
            AsymRiderMsg::Arb(BcastMsg::Echo { origin, tag, .. }) => {
                self.stats.bcast.push(bcast_event(false, from, *origin, *tag));
                CallClass::Echo
            }
            AsymRiderMsg::Arb(BcastMsg::Ready { origin, tag, .. }) => {
                self.stats.bcast.push(bcast_event(true, from, *origin, *tag));
                CallClass::Ready
            }
            AsymRiderMsg::Ack { .. }
            | AsymRiderMsg::Ready { .. }
            | AsymRiderMsg::Confirm { .. } => CallClass::Control,
            _ => CallClass::Catchup,
        };
        let (ns, committed, advanced) = self.call(ctx, |p, c| p.on_message(from, msg, c));
        let class = if committed {
            CallClass::Commit
        } else if advanced {
            CallClass::Advance
        } else {
            kind
        };
        self.stats.ns[class as usize] += ns;
        self.stats.calls[class as usize] += 1;
    }
}

/// Time spent inside the scheduler and the in-flight entries it was shown.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    pub ns: u64,
    pub picks: u64,
    pub pending: u64,
}

/// A scheduler that times `next` and `delivery_time` of the one it wraps.
/// The simulation owns it, so the counters live behind a shared cell.
pub struct TimedScheduler<S> {
    inner: S,
    stats: Rc<Cell<SchedStats>>,
}

impl<S> TimedScheduler<S> {
    pub fn new(inner: S) -> (Self, Rc<Cell<SchedStats>>) {
        let stats = Rc::new(Cell::new(SchedStats::default()));
        (TimedScheduler { inner, stats: Rc::clone(&stats) }, stats)
    }

    fn add(&self, ns: u64, picks: u64, pending: u64) {
        let mut s = self.stats.get();
        s.ns += ns;
        s.picks += picks;
        s.pending += pending;
        self.stats.set(s);
    }
}

impl<M, S: Scheduler<M>> Scheduler<M> for TimedScheduler<S> {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        let start = Instant::now();
        let pick = self.inner.next(pending, now);
        self.add(start.elapsed().as_nanos() as u64, 1, pending.len() as u64);
        pick
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        let start = Instant::now();
        let at = self.inner.delivery_time(chosen, now);
        self.add(start.elapsed().as_nanos() as u64, 0, 0);
        at
    }
}
