//! # minimpi — an AMPI-style MPI subset on the charm-rs runtime
//!
//! The paper's stencil3d baseline is an mpi4py program. This crate provides
//! the equivalent here: a rank-oriented message-passing interface whose
//! ranks are long-running *threaded chares* on the charm-rs runtime — the
//! same layering as AMPI (MPI implemented over Charm++, from the same
//! research group). Each rank runs the user's `main` on a coroutine;
//! blocking `recv`/`barrier`/`allreduce` suspend only that coroutine.
//!
//! Supported: blocking send (eager/buffered, like MPI's small-message
//! path), blocking receive with source/tag wildcards, `sendrecv`,
//! nonblocking receives (`irecv` + `wait`), barrier, broadcast, reduce /
//! allreduce over the runtime's reduction tree, gather, and `wtime`.
//!
//! ```no_run
//! use charm_core::Runtime;
//! minimpi::run_on(Runtime::new(4), |rank| {
//!     let peer = rank.size() - 1 - rank.rank();
//!     rank.send(peer, 0, &vec![1.0f64; 8]);
//!     let (data, st) = rank.recv::<Vec<f64>>(Some(peer), Some(0));
//!     assert_eq!(st.src, peer);
//!     assert_eq!(data.len(), 8);
//! });
//! ```

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

use charm_core::prelude::*;
use charm_core::RunReport;
use charm_core::Runtime;
use charm_wire::Codec;

/// Wildcard for `recv` source (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Option<usize> = None;
/// Wildcard for `recv` tag (`MPI_ANY_TAG`).
pub const ANY_TAG: Option<i32> = None;

/// Completion information of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank that sent the message.
    pub src: usize,
    /// Message tag.
    pub tag: i32,
}

/// A pending nonblocking receive; complete it with [`Rank::wait`].
#[derive(Debug, Clone, Copy)]
pub struct RecvReq {
    src: Option<usize>,
    tag: Option<i32>,
}

type RankFn = dyn Fn(&mut Rank<'_>) + Send + Sync;

fn fn_table() -> &'static Mutex<Vec<std::sync::Arc<RankFn>>> {
    static TABLE: OnceLock<Mutex<Vec<std::sync::Arc<RankFn>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// The chare implementing one MPI rank.
pub struct RankChare {
    inbox: VecDeque<(usize, i32, Vec<u8>)>,
    red_results: VecDeque<RedData>,
}

/// Rank-to-rank traffic and control.
pub enum RankMsg {
    /// Launch the rank main.
    Start {
        /// Index of the user function in the process-local table.
        fn_idx: u64,
        /// Future completed (via empty reduction) when every rank returns.
        done: Future<RedData>,
    },
    /// Point-to-point payload.
    Data {
        /// Sending rank.
        src: u32,
        /// User tag.
        tag: i32,
        /// Payload, encoded with the fast codec (buffers pass through
        /// as raw bytes — the mpi4py buffer-send path).
        bytes: Vec<u8>,
    },
}
wire_enum! { RankMsg { Start { fn_idx, done }, Data { src, tag, bytes } } }

const TAG_COLLECTIVE: u32 = 0xC011;

impl Chare for RankChare {
    type Msg = RankMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        RankChare {
            inbox: VecDeque::new(),
            red_results: VecDeque::new(),
        }
    }
    fn receive(&mut self, msg: RankMsg, ctx: &mut Ctx) {
        match msg {
            RankMsg::Start { fn_idx, done } => {
                let f = fn_table().lock().unwrap()[fn_idx as usize].clone();
                ctx.go::<RankChare>(move |co| {
                    let mut rank = Rank { co };
                    f(&mut rank);
                    rank.co
                        .ctx()
                        .contribute_barrier(RedTarget::Future(done.id()));
                });
            }
            RankMsg::Data { src, tag, bytes } => {
                self.inbox.push_back((src as usize, tag, bytes));
            }
        }
    }
    fn reduced(&mut self, tag: u32, data: RedData, _ctx: &mut Ctx) {
        assert_eq!(tag, TAG_COLLECTIVE, "unexpected reduction tag in minimpi");
        self.red_results.push_back(data);
    }
}

/// The per-rank handle passed to the user's main function.
pub struct Rank<'a> {
    co: &'a mut Co<RankChare>,
}

impl<'a> Rank<'a> {
    /// This rank's number (`MPI_Comm_rank`). One rank per PE.
    pub fn rank(&mut self) -> usize {
        self.co.ctx().my_pe()
    }

    /// Total ranks (`MPI_Comm_size`).
    pub fn size(&mut self) -> usize {
        self.co.ctx().num_pes()
    }

    /// Elapsed time in seconds (`MPI_Wtime`) — virtual time under the
    /// simulated backend.
    pub fn wtime(&mut self) -> f64 {
        self.co.ctx().now()
    }

    /// Charge synthetic compute time to this rank (virtual under sim;
    /// really sleeps under threads) — used by the imbalanced stencil.
    pub fn charge(&mut self, dt: std::time::Duration) {
        self.co.ctx().charge(dt);
    }

    /// Send `value` to `dest` with `tag`. Buffered-eager semantics: the
    /// call returns immediately (like MPI's small-message send path and
    /// mpi4py's default).
    pub fn send<T: Message>(&mut self, dest: usize, tag: i32, value: &T) {
        let bytes = Codec::Fast.encode(value);
        let me = self.rank() as u32;
        let proxy = self.co.ctx().this_proxy::<RankChare>();
        proxy.elem(dest).send(
            self.co.ctx(),
            RankMsg::Data {
                src: me,
                tag,
                bytes,
            },
        );
    }

    /// Nonblocking send — identical to [`Rank::send`] under buffered-eager
    /// semantics (as in AMPI for small messages).
    pub fn isend<T: Message>(&mut self, dest: usize, tag: i32, value: &T) {
        self.send(dest, tag, value)
    }

    /// Blocking receive with optional source/tag wildcards. Suspends only
    /// this rank's coroutine; the PE keeps scheduling.
    pub fn recv<T: Message>(&mut self, src: Option<usize>, tag: Option<i32>) -> (T, Status) {
        self.co.wait(move |c: &RankChare| {
            c.inbox
                .iter()
                .any(|(s, t, _)| src.is_none_or(|v| v == *s) && tag.is_none_or(|v| v == *t))
        });
        let inbox = &mut self.co.this().inbox;
        let pos = inbox
            .iter()
            .position(|(s, t, _)| src.is_none_or(|v| v == *s) && tag.is_none_or(|v| v == *t))
            .expect("wait postcondition");
        let (s, t, bytes) = inbox.remove(pos).unwrap();
        let value = Codec::Fast
            .decode::<T>(&bytes)
            .expect("mpi payload decode failed");
        (value, Status { src: s, tag: t })
    }

    /// Post a nonblocking receive; complete it later with [`Rank::wait`].
    pub fn irecv(&mut self, src: Option<usize>, tag: Option<i32>) -> RecvReq {
        RecvReq { src, tag }
    }

    /// Complete a nonblocking receive.
    pub fn wait<T: Message>(&mut self, req: RecvReq) -> (T, Status) {
        self.recv(req.src, req.tag)
    }

    /// Whether a matching message is already available (`MPI_Iprobe`).
    pub fn iprobe(&mut self, src: Option<usize>, tag: Option<i32>) -> bool {
        self.co
            .this_ref()
            .inbox
            .iter()
            .any(|(s, t, _)| src.is_none_or(|v| v == *s) && tag.is_none_or(|v| v == *t))
    }

    /// Combined send and receive (`MPI_Sendrecv`) — the stencil workhorse.
    pub fn sendrecv<T: Message, U: Message>(
        &mut self,
        dest: usize,
        send_tag: i32,
        value: &T,
        src: usize,
        recv_tag: i32,
    ) -> U {
        self.send(dest, send_tag, value);
        self.recv::<U>(Some(src), Some(recv_tag)).0
    }

    /// Global barrier over all ranks.
    pub fn barrier(&mut self) {
        self.collective(RedData::Unit, Reducer::Nop);
    }

    /// All-reduce: every rank contributes, every rank gets the result.
    pub fn allreduce(&mut self, data: RedData, op: Reducer) -> RedData {
        self.collective(data, op)
    }

    /// All-reduce of one f64 (common case).
    pub fn allreduce_f64(&mut self, v: f64, op: Reducer) -> f64 {
        self.allreduce(RedData::F64(v), op).as_f64()
    }

    /// Reduce to rank 0: other ranks get `None`.
    pub fn reduce(&mut self, data: RedData, op: Reducer) -> Option<RedData> {
        let out = self.collective(data, op);
        if self.rank() == 0 {
            Some(out)
        } else {
            None
        }
    }

    /// Broadcast `value` from `root` to every rank; returns the value on
    /// all ranks.
    pub fn bcast<T: Message + Clone>(&mut self, root: usize, value: Option<T>) -> T {
        const BCAST_TAG: i32 = -2_000_000_001;
        if self.rank() == root {
            let v = value.expect("bcast root must supply a value");
            let n = self.size();
            for dest in 0..n {
                if dest != root {
                    self.send(dest, BCAST_TAG, &v);
                }
            }
            v
        } else {
            self.recv::<T>(Some(root), Some(BCAST_TAG)).0
        }
    }

    /// Scatter: `root` supplies one value per rank; each rank receives its
    /// own (`MPI_Scatter`).
    pub fn scatter<T: Message>(&mut self, root: usize, values: Option<Vec<T>>) -> T {
        const SCATTER_TAG: i32 = -2_000_000_003;
        let me = self.rank();
        let n = self.size();
        if me == root {
            let mut values = values.expect("scatter root must supply values");
            assert_eq!(values.len(), n, "scatter needs one value per rank");
            // Send in reverse so removal is O(1) and rank order is kept.
            let mine = values.swap_remove(root);
            for (dest, v) in values.into_iter().enumerate() {
                // After swap_remove, index `root` (if < len) holds the last
                // rank's value; map positions back to ranks.
                let dest = if dest == root { n - 1 } else { dest };
                self.send(dest, SCATTER_TAG, &v);
            }
            mine
        } else {
            self.recv::<T>(Some(root), Some(SCATTER_TAG)).0
        }
    }

    /// All-gather: every rank receives every rank's value, in rank order
    /// (`MPI_Allgather`). Implemented as gather + broadcast.
    pub fn allgather<T: Message + Clone>(&mut self, value: &T) -> Vec<T> {
        let gathered = self.gather(value);
        self.bcast(0, gathered)
    }

    /// All-to-all: rank `i` sends `values[j]` to rank `j` and receives a
    /// vector whose `j`-th entry came from rank `j` (`MPI_Alltoall`).
    pub fn alltoall<T: Message>(&mut self, values: Vec<T>) -> Vec<T> {
        const A2A_TAG: i32 = -2_000_000_004;
        let me = self.rank();
        let n = self.size();
        assert_eq!(values.len(), n, "alltoall needs one value per rank");
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (dest, v) in values.into_iter().enumerate() {
            if dest == me {
                out[me] = Some(v);
            } else {
                self.send(dest, A2A_TAG, &v);
            }
        }
        for _ in 0..n - 1 {
            let (v, st) = self.recv::<T>(ANY_SOURCE, Some(A2A_TAG));
            out[st.src] = Some(v);
        }
        out.into_iter().map(|v| v.expect("alltoall hole")).collect()
    }

    /// Gather each rank's value at rank 0 (rank order); `None` elsewhere.
    pub fn gather<T: Message>(&mut self, value: &T) -> Option<Vec<T>> {
        const GATHER_TAG: i32 = -2_000_000_002;
        let me = self.rank();
        let n = self.size();
        if me == 0 {
            let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
            // Rank 0's own value roundtrips through the codec so `T` need
            // not be `Clone`.
            out[0] = Some(Codec::Fast.decode(&Codec::Fast.encode(value)).unwrap());
            for _ in 1..n {
                let (v, st) = self.recv::<T>(ANY_SOURCE, Some(GATHER_TAG));
                out[st.src] = Some(v);
            }
            Some(out.into_iter().map(|v| v.expect("gather hole")).collect())
        } else {
            self.send(0, GATHER_TAG, value);
            None
        }
    }

    fn collective(&mut self, data: RedData, op: Reducer) -> RedData {
        let target = self
            .co
            .ctx()
            .this_proxy::<RankChare>()
            .reduction_target(TAG_COLLECTIVE);
        self.co.ctx().contribute(data, op, target);
        self.co.wait(|c: &RankChare| !c.red_results.is_empty());
        self.co
            .this()
            .red_results
            .pop_front()
            .expect("wait postcondition")
    }
}

/// Run an MPI-style program: one rank per PE of the given runtime. The
/// runtime may be threaded or simulated, native or dynamic dispatch — the
/// rank code is identical.
pub fn run_on(rt: Runtime, f: impl Fn(&mut Rank<'_>) + Send + Sync + 'static) -> RunReport {
    let fn_idx = {
        let mut table = fn_table().lock().unwrap();
        table.push(std::sync::Arc::new(f));
        (table.len() - 1) as u64
    };
    rt.register::<RankChare>().run(move |co| {
        let world = co.ctx().create_group::<RankChare>(());
        let done = co.ctx().create_future::<RedData>();
        world.send(co.ctx(), RankMsg::Start { fn_idx, done });
        co.get(&done);
        co.ctx().exit();
    })
}

/// Convenience: run on `npes` threaded PEs with default settings.
pub fn run(npes: usize, f: impl Fn(&mut Rank<'_>) + Send + Sync + 'static) -> RunReport {
    run_on(Runtime::new(npes), f)
}
