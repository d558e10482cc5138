//! Micro-benchmarks of the serialization substrate (paper §IV-B):
//! fast vs pickle codecs, the `Buf` zero-copy path vs per-element encoding
//! — the mechanism behind "NumPy arrays bypass pickling" — plus the
//! shared-payload fan-out, encode-pool, and guard-drain hot paths.

use charm_bench::bench;
use charm_core::prelude::*;
use charm_sim::MachineModel;
use charm_wire::{Buf, Codec, EncodePool, WireBytes};

/// Timed samples per benchmark.
const REPS: usize = 20;

#[derive(Clone)]
struct GhostMsg {
    iter: u32,
    face: u8,
    data: Vec<f64>,
}
wire_struct! { GhostMsg { iter, face, data } }

#[derive(Clone)]
struct GhostMsgBuf {
    iter: u32,
    face: u8,
    data: Buf<f64>,
}
wire_struct! { GhostMsgBuf { iter, face, data } }

fn codec_benches() {
    for n in [64usize, 1024, 16384] {
        let vec_msg = GhostMsg {
            iter: 7,
            face: 3,
            data: (0..n).map(|i| i as f64).collect(),
        };
        let buf_msg = GhostMsgBuf {
            iter: 7,
            face: 3,
            data: Buf::from_vec((0..n).map(|i| i as f64).collect()),
        };
        for (name, codec) in [("fast", Codec::Fast), ("pickle", Codec::Pickle)] {
            bench(&format!("codec_roundtrip/{name}_vec/{n}"), REPS, || {
                let bytes = codec.encode(&vec_msg).unwrap();
                codec.decode::<GhostMsg>(&bytes).unwrap()
            });
            // The "NumPy bypass": Buf stays memcpy-fast even under pickle.
            bench(&format!("codec_roundtrip/{name}_buf/{n}"), REPS, || {
                let bytes = codec.encode(&buf_msg).unwrap();
                codec.decode::<GhostMsgBuf>(&bytes).unwrap()
            });
        }
    }
}

fn varint_benches() {
    let values: Vec<u64> = (0..256)
        .map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15))
        .collect();
    bench("varint_roundtrip_mixed", REPS, || {
        let mut buf = Vec::with_capacity(2600);
        for &v in &values {
            charm_wire::varint::write_u64(&mut buf, v);
        }
        let mut off = 0;
        let mut acc = 0u64;
        while off < buf.len() {
            let (v, used) = charm_wire::varint::read_u64(&buf[off..]).unwrap();
            acc = acc.wrapping_add(v);
            off += used;
        }
        acc
    });
}

/// The fan-out cost a broadcast/multicast pays per same-PE member: the old
/// scheme deep-copied the encoded payload into an owned buffer per member;
/// the shared scheme bumps a refcount per member.
fn fanout_benches() {
    let payload: Vec<u8> = vec![0xA5; 16 * 1024];
    for m in [8usize, 64] {
        bench(
            &format!("broadcast_payload_fanout/deep_copy/{m}"),
            REPS,
            || (0..m).map(|_| payload.clone()).collect::<Vec<Vec<u8>>>(),
        );
        let shared = WireBytes::from_vec(payload.clone());
        bench(
            &format!("broadcast_payload_fanout/shared/{m}"),
            REPS,
            || (0..m).map(|_| shared.clone()).collect::<Vec<WireBytes>>(),
        );
    }
}

/// Steady-state encode cost: a fresh growth-reallocating `Vec` per message
/// vs a pooled scratch buffer drained into one exact-size allocation.
fn encode_pool_benches() {
    let msg = GhostMsg {
        iter: 7,
        face: 3,
        data: (0..1024).map(|i| i as f64).collect(),
    };
    bench("encode_fresh_vec", REPS, || {
        Codec::Fast.encode(&msg).unwrap()
    });
    let mut pool = EncodePool::new();
    bench("encode_pooled_shared", REPS, || {
        Codec::Fast.encode_shared_with(&mut pool, &msg).unwrap()
    });
}

struct DrainGate {
    open: bool,
    acc: i64,
}

enum DrainMsg {
    Tick(i64),
    Open,
    Report { done: Future<i64> },
}
wire_enum! { DrainMsg { Tick(a), Open, Report { done } } }

impl Chare for DrainGate {
    type Msg = DrainMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        DrainGate {
            open: false,
            acc: 0,
        }
    }
    fn guard(&self, msg: &DrainMsg) -> bool {
        match msg {
            DrainMsg::Tick(_) => self.open,
            _ => true,
        }
    }
    fn receive(&mut self, msg: DrainMsg, ctx: &mut Ctx) {
        match msg {
            DrainMsg::Tick(i) => self.acc += i,
            DrainMsg::Open => self.open = true,
            DrainMsg::Report { done } => ctx.send_future(&done, self.acc),
        }
    }
}

/// 1k messages pile up behind a when-guard, then the guard opens and the
/// whole buffer drains — the `after_state_change` retry loop end to end
/// (a `Vec::remove` drain was quadratic here; the deque drain is linear).
fn guard_drain_bench() {
    const N: i64 = 1000;
    bench("guard_drain_1k_buffered", REPS, || {
        Runtime::new(1)
            .backend(Backend::Sim(MachineModel::local(1)))
            .register::<DrainGate>()
            .run(|co| {
                let gate = co.ctx().create_chare::<DrainGate>((), Some(0));
                for i in 0..N {
                    gate.send(co.ctx(), DrainMsg::Tick(i));
                }
                gate.send(co.ctx(), DrainMsg::Open);
                let done = co.ctx().create_future::<i64>();
                gate.send(co.ctx(), DrainMsg::Report { done });
                assert_eq!(co.get(&done), N * (N - 1) / 2);
                co.ctx().exit();
            });
    });
}

fn main() {
    codec_benches();
    varint_benches();
    fanout_benches();
    encode_pool_benches();
    guard_drain_bench();
}
