//! Coroutines — threaded entry methods (paper §II-H).
//!
//! A threaded entry method runs on its own OS thread, but *never
//! concurrently* with its PE's scheduler: the chare is moved into the
//! coroutine on resume and moved back on every suspension, over a pair of
//! rendezvous channels. While the coroutine waits (on a future or a state
//! predicate) the scheduler holds the chare again and keeps delivering
//! ordinary entry methods to it — which is exactly what makes the CharmPy
//! pattern
//!
//! ```text
//! @threaded def work(self): ... self.wait('self.msg_count == n') ...
//! def recvData(self, data): self.msg_count += 1
//! ```
//!
//! expressible here with zero `unsafe` and no lock held across a
//! suspension.

// Entry-method execution path (DESIGN.md §6): the blocking rule.
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Once;

use charm_trace::{EntryKind, WorkClass};

use crate::chare::{Chare, ChareBox};
use crate::ctx::{Ctx, CtxSeed, Op};
use crate::future::{FutState, Future};
use crate::ids::{ChareId, CoroId, FutureId};
use crate::msg::{Message, Payload};
use crate::pe::{CoroLauncher, PeState};

/// Type-erased wait predicate over the chare state.
pub(crate) type WaitPred = Box<dyn Fn(&dyn Any) -> bool + Send>;

/// What a suspended coroutine is waiting for.
pub(crate) enum WaitKind {
    /// A value for this future.
    Future(FutureId),
    /// The chare state to satisfy this predicate (the `wait` construct).
    Pred(WaitPred),
}

impl std::fmt::Debug for WaitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitKind::Future(fid) => write!(f, "WaitKind::Future({}.{})", fid.pe, fid.seq),
            WaitKind::Pred(_) => write!(f, "WaitKind::Pred"),
        }
    }
}

/// Scheduler → coroutine control.
pub(crate) enum CoroInput {
    /// First handoff: run the body with this chare.
    Start {
        chare: Box<dyn ChareBox>,
        now_ns: u64,
        reply_to: Option<FutureId>,
    },
    /// Wake a suspended coroutine (with the awaited future's value, if any).
    Resume {
        chare: Box<dyn ChareBox>,
        value: Option<Payload>,
        now_ns: u64,
    },
}

/// Coroutine → scheduler control. Both variants return the chare and flush
/// the coroutine's buffered ops. `work_ns` is the user-code time of the
/// finished segment, measured *inside* the coroutine so the OS-thread
/// rendezvous cost is excluded (a real Charm++ user-level context switch is
/// ~100 ns; metering our mpsc handshake would grossly overcharge).
pub(crate) enum CoroYield {
    /// Suspended; resume when `wait` is satisfied.
    Blocked {
        chare: Box<dyn ChareBox>,
        ops: Vec<Op>,
        wait: WaitKind,
        work_ns: u64,
    },
    /// The body returned.
    Done {
        chare: Box<dyn ChareBox>,
        ops: Vec<Op>,
        work_ns: u64,
    },
}

/// The coroutine-thread end of the rendezvous.
pub(crate) struct CoroSide {
    pub rx: Receiver<CoroInput>,
    pub tx: Sender<CoroYield>,
    pub seed: CtxSeed,
    pub chare_id: ChareId,
}

/// Panic payload used to unwind coroutines on runtime shutdown.
struct CoroShutdown;

/// Install (once) a panic hook that keeps shutdown unwinds silent while
/// leaving real panics loud.
pub(crate) fn install_quiet_shutdown_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CoroShutdown>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

fn shutdown() -> ! {
    std::panic::panic_any(CoroShutdown)
}

/// The handle a threaded entry method runs with: access to the chare
/// (`this`), a deferred-op [`Ctx`], and the two suspension primitives.
pub struct Co<T: Chare> {
    pub(crate) ctx: Ctx,
    tx: Sender<CoroYield>,
    rx: Receiver<CoroInput>,
    slot: Option<Box<dyn ChareBox>>,
    segment_start: std::time::Instant,
    _ph: PhantomData<fn() -> T>,
}

impl<T: Chare> Co<T> {
    /// The runtime context (sends, creations, contribute, …).
    pub fn ctx(&mut self) -> &mut Ctx {
        &mut self.ctx
    }

    /// Mutable access to the chare's state.
    pub fn this(&mut self) -> &mut T {
        self.slot
            .as_mut()
            .expect("chare absent (coroutine internal invariant)")
            .any_mut()
            .downcast_mut::<T>()
            .expect("coroutine launched on a chare of a different type")
    }

    /// Shared access to the chare's state.
    pub fn this_ref(&self) -> &T {
        self.slot
            .as_ref()
            .expect("chare absent (coroutine internal invariant)")
            .any_ref()
            .downcast_ref::<T>()
            .expect("coroutine launched on a chare of a different type")
    }

    fn suspend(&mut self, wait: WaitKind) -> Option<Payload> {
        let chare = self
            .slot
            .take()
            .expect("nested suspension (coroutine internal invariant)");
        let ops = std::mem::take(&mut self.ctx.ops);
        let work_ns = self.segment_start.elapsed().as_nanos() as u64;
        if self
            .tx
            .send(CoroYield::Blocked {
                chare,
                ops,
                wait,
                work_ns,
            })
            .is_err()
        {
            shutdown();
        }
        match self.rx.recv() {
            Ok(CoroInput::Resume {
                chare,
                value,
                now_ns,
            }) => {
                self.slot = Some(chare);
                self.ctx.now_ns = now_ns;
                self.segment_start = crate::pe::meter_start();
                value
            }
            _ => shutdown(),
        }
    }

    /// Block this coroutine until `future` has a value, and return it
    /// (`future.get()`). Only this coroutine suspends; the PE continues
    /// scheduling other work, including other entry methods of this chare.
    ///
    /// # Panics
    /// Panics if called on a PE other than the future's creating PE.
    pub fn get<V: Message>(&mut self, future: &Future<V>) -> V {
        assert_eq!(
            future.id().pe as usize,
            self.ctx.my_pe(),
            "futures must be awaited on the PE that created them"
        );
        let payload = self
            .suspend(WaitKind::Future(future.id()))
            .expect("future resumed without a value");
        payload.take::<V>(self.ctx.seed.codec)
    }

    /// Suspend until the chare's state satisfies `pred` — the `self.wait`
    /// construct (§II-H2). The predicate is re-evaluated by the scheduler
    /// after every message delivered to this chare.
    pub fn wait(&mut self, pred: impl Fn(&T) -> bool + Send + 'static) {
        if pred(self.this_ref()) {
            return;
        }
        let wrapped: WaitPred = Box::new(move |any| {
            pred(
                any.downcast_ref::<T>()
                    .expect("wait predicate evaluated on a chare of a different type"),
            )
        });
        self.suspend(WaitKind::Pred(wrapped));
    }
}

/// Body of every coroutine thread: receive the chare, run the user code,
/// hand everything back. Real panics propagate (the scheduler turns the
/// closed channel into a loud error); shutdown unwinds are silent.
pub(crate) fn run_coroutine<T: Chare>(side: CoroSide, body: impl FnOnce(&mut Co<T>)) {
    install_quiet_shutdown_hook();
    let (chare, now_ns, reply_to) = match side.rx.recv() {
        Ok(CoroInput::Start {
            chare,
            now_ns,
            reply_to,
        }) => (chare, now_ns, reply_to),
        _ => return,
    };
    let mut ctx = Ctx::new(side.seed, now_ns, Some(side.chare_id));
    ctx.reply_to = reply_to;
    let mut co = Co::<T> {
        ctx,
        tx: side.tx,
        rx: side.rx,
        slot: Some(chare),
        segment_start: crate::pe::meter_start(),
        _ph: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| body(&mut co)));
    match result {
        Ok(()) => {
            let chare = co
                .slot
                .take()
                .expect("coroutine finished without its chare");
            let ops = std::mem::take(&mut co.ctx.ops);
            let work_ns = co.segment_start.elapsed().as_nanos() as u64;
            let _ = co.tx.send(CoroYield::Done {
                chare,
                ops,
                work_ns,
            });
        }
        Err(payload) => {
            if payload.downcast_ref::<CoroShutdown>().is_none() {
                // A real application panic: re-raise so the thread dies and
                // the scheduler (blocked on our channel) reports it.
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Scheduler-side handle to a coroutine thread.
pub(crate) struct CoroHandle {
    pub tx: Sender<CoroInput>,
    pub rx: Receiver<CoroYield>,
    pub join: Option<std::thread::JoinHandle<()>>,
    pub chare: ChareId,
    /// Present while the coroutine is suspended.
    pub wait: Option<WaitKind>,
}

/// One PE's live coroutines: the scheduler side of the rendezvous.
///
/// **Envelopes:** none; coroutines start from `ctx.go` and wake from
/// `FutureValue` or a state change of their chare (`after_state_change`).
/// **Invariants:** a chare's coroutines and its entry methods never run
/// concurrently — the chare box is moved into the coroutine for a segment
/// and moved back at its suspension, and `invoke` checks the same box
/// out; a coroutine pins its chare to its PE (no migration, no checkpoint)
/// until it is done; one future has one waiter.
#[derive(Default)]
pub(crate) struct Coros {
    table: HashMap<u64, CoroHandle>,
    next: u64,
}

impl Coros {
    /// What coroutine `cid` is suspended on, if it is suspended.
    pub(crate) fn wait_of(&self, cid: CoroId) -> Option<&WaitKind> {
        self.table.get(&cid.0).and_then(|h| h.wait.as_ref())
    }

    /// Coroutines currently suspended.
    #[expect(clippy::disallowed_methods, reason = "nondeterminism: only counts")]
    pub(crate) fn blocked(&self) -> usize {
        self.table.values().filter(|h| h.wait.is_some()).count()
    }
}

// Scheduler code wherever it sits: the hot-path rules (DESIGN.md §6).
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing, clippy::iter_over_hash_type)]
impl PeState {
    /// `ctx.go(..)`: spawn `f` as a coroutine of chare `id` and run it to
    /// its first suspension.
    pub(crate) fn launch_coro(&mut self, id: ChareId, f: CoroLauncher, reply: Option<FutureId>) {
        let (in_tx, in_rx) = mpsc::channel::<CoroInput>();
        let (out_tx, out_rx) = mpsc::channel::<CoroYield>();
        let side = CoroSide {
            rx: in_rx,
            tx: out_tx,
            seed: self.seed.clone(),
            chare_id: id,
        };
        #[expect(clippy::expect_used, reason = "panic: only on resource exhaustion")]
        let join = std::thread::Builder::new()
            .name(format!("coro-{id}"))
            .spawn(move || f(side))
            .expect("failed to spawn coroutine thread");
        let cid = CoroId(self.coros.next);
        self.coros.next += 1;
        let handle = CoroHandle {
            tx: in_tx,
            rx: out_rx,
            join: Some(join),
            chare: id,
            wait: None,
        };
        self.coros.table.insert(cid.0, handle);
        self.slot_mut(&id).coros.push(cid);
        self.run_coro(cid, |chare, now_ns| CoroInput::Start {
            chare,
            now_ns,
            reply_to: reply,
        });
    }

    /// Wake coroutine `cid`, with the future's value if it waited on one.
    pub(crate) fn resume_coro(&mut self, cid: CoroId, value: Option<Payload>) {
        self.run_coro(cid, |chare, now_ns| CoroInput::Resume {
            chare,
            value,
            now_ns,
        });
    }

    #[expect(clippy::expect_used, reason = "panic: wake-ups name live coroutines")]
    fn coro(&mut self, cid: CoroId) -> &mut CoroHandle {
        self.coros.table.get_mut(&cid.0).expect("unknown coroutine")
    }

    /// One rendezvous: move the chare into coroutine `cid` with `input`,
    /// let it run to its next suspension, and take back what it yields. A
    /// live coroutine pins its chare, so the slot is there.
    fn run_coro(&mut self, cid: CoroId, input: impl FnOnce(Box<dyn ChareBox>, u64) -> CoroInput) {
        let id = self.coro(cid).chare;
        let chare = self.slot_mut(&id).checkout();
        let now_ns = self.now_ns();
        let handle = self.coro(cid);
        handle.wait = None;
        #[expect(clippy::expect_used, reason = "panic: the coroutine thread died")]
        handle
            .tx
            .send(input(chare, now_ns))
            .expect("coroutine died at the rendezvous");
        let (chare, ops, work_ns, wait) = match handle.rx.recv() {
            Ok(CoroYield::Blocked {
                chare,
                ops,
                wait,
                work_ns,
            }) => (chare, ops, work_ns, Some(wait)),
            Ok(CoroYield::Done {
                chare,
                ops,
                work_ns,
            }) => (chare, ops, work_ns, None),
            Err(_) => {
                // Recover the original panic payload from the dead thread
                // so the user's message survives, not a generic wrapper.
                match handle.join.take().and_then(|j| j.join().err()) {
                    Some(p) => std::panic::resume_unwind(p),
                    #[expect(clippy::panic, reason = "panic: its thread panicked; propagate it")]
                    None => panic!("coroutine for chare {id} terminated unexpectedly"),
                }
            }
        };
        // Coroutine segments self-meter their user code (excluding the
        // thread rendezvous, which a real user-level-thread runtime would
        // not pay); the sim charges none of it.
        let measured_ns = if self.cfg.sim_model.is_some() {
            0
        } else {
            work_ns
        };
        self.slot_mut(&id).boxed = Some(chare);
        self.charge_work(measured_ns, Some(&id), WorkClass::Entry);
        if self.tracer.enabled() {
            // One segment is one entry activation. The begin stamp is
            // back-dated by the segment's measured work; the tracer clamps
            // ring timestamps so this stays monotone.
            let end = self.now_ns();
            let (begin, ctype) = (end.saturating_sub(measured_ns), self.spec(id.coll).ctype.0);
            self.tracer
                .entry(begin, end, measured_ns, ctype, EntryKind::Coroutine);
        }
        let Some(wait) = wait else {
            // Done: retire the coroutine.
            if let Some(j) = self
                .coros
                .table
                .remove(&cid.0)
                .and_then(|mut h| h.join.take())
            {
                let _ = j.join();
            }
            self.slot_mut(&id).coros.retain(|c| *c != cid);
            self.exec_ops(ops, Some(id), None);
            return self.after_state_change(id);
        };
        let register_future = match &wait {
            WaitKind::Future(fid) => Some(*fid),
            WaitKind::Pred(_) => None,
        };
        self.coro(cid).wait = Some(wait);
        // Flush the coroutine's buffered ops *before* checking for an
        // already-ready future, so they are never lost.
        self.exec_ops(ops, Some(id), None);
        if let Some(fid) = register_future {
            match self.futures.remove(&fid) {
                // Value already arrived: resume immediately.
                Some(FutState::Ready(payload)) => return self.resume_coro(cid, Some(payload)),
                #[expect(clippy::panic, reason = "panic: one waiter per future; user bug")]
                Some(FutState::Waiting(_)) => {
                    panic!("two coroutines waiting on one future")
                }
                _ => {
                    self.futures.insert(fid, FutState::Waiting(cid));
                }
            }
        }
        self.after_state_change(id);
    }
}
