//! Host-timed layers with no other home (the ledger records virtual time
//! and counts; `benchmark/` times the Net transport and the tracer):
//!
//! * the serialization substrate (paper §IV-B): fast vs pickle codecs, the
//!   `Buf` zero-copy path, varints, shared-payload fan-out, pooled encode;
//! * a when-guard drain of 1,000 buffered messages;
//! * the fan-in (`charm_bench::workloads::fan_in`) on the sim backend,
//!   labelled `detector_on` when built with `--features analyze`;
//! * the same fan-in with buddy and disk checkpoints at every quiescence,
//!   and on `Backend::Net` (one OS process per PE over loopback TCP).
//!
//! ```sh
//! cargo bench -p charm-bench --bench host
//! cargo bench -p charm-bench --bench host --features analyze
//! ```
//!
//! Each line prints min / median / p90 per call. Net workers re-execute
//! this binary; `main` sends them straight into the run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use charm_bench::workloads::fan_in;
use charm_core::prelude::*;
use charm_core::{is_net_worker, NetCfg};
use charm_sim::MachineModel;
use charm_wire::{Buf, Codec, EncodePool, WireBytes};

/// Timed samples per line.
const REPS: usize = 20;

/// Shortest timed sample: faster bodies are looped inside one sample.
const MIN_SAMPLE: Duration = Duration::from_millis(2);

/// Time `f` and print `min / median / p90` per call. The warm-up doubles
/// as calibration: the inner loop grows until one sample spans
/// [`MIN_SAMPLE`], then `reps` samples are timed.
fn bench<R>(name: &str, reps: usize, mut f: impl FnMut() -> R) {
    let mut time = |inner: u32| {
        let t = Instant::now();
        for _ in 0..inner {
            black_box(f());
        }
        t.elapsed()
    };
    let mut inner = 1u32;
    while time(inner) < MIN_SAMPLE && inner < 1 << 24 {
        inner *= 2;
    }
    let mut us: Vec<f64> = (0..reps)
        .map(|_| time(inner).as_secs_f64() * 1e6 / f64::from(inner))
        .collect();
    us.sort_by(f64::total_cmp);
    let at = |q: f64| us[((us.len() - 1) as f64 * q).round() as usize];
    println!(
        "{name:<44} min {:>11.3} us  median {:>11.3} us  p90 {:>11.3} us  ({reps} x {inner})",
        us[0],
        at(0.5),
        at(0.9)
    );
}

/// A ghost face, its payload encoded element by element.
struct GhostVec {
    iter: u32,
    data: Vec<f64>,
}
wire_struct! { GhostVec { iter, data } }

/// The same face through the `Buf` zero-copy path.
struct GhostBuf {
    iter: u32,
    data: Buf<f64>,
}
wire_struct! { GhostBuf { iter, data } }

fn codecs() {
    for n in [64usize, 1024, 16384] {
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let vec_msg = GhostVec {
            iter: 7,
            data: data.clone(),
        };
        let buf_msg = GhostBuf {
            iter: 7,
            data: Buf::from_vec(data),
        };
        for (name, codec) in [("fast", Codec::Fast), ("pickle", Codec::Pickle)] {
            bench(&format!("codec_roundtrip/{name}_vec/{n}"), REPS, || {
                codec.decode::<GhostVec>(&codec.encode(&vec_msg).unwrap())
            });
            // The "NumPy bypass": a `Buf` stays memcpy-fast under pickle.
            bench(&format!("codec_roundtrip/{name}_buf/{n}"), REPS, || {
                codec.decode::<GhostBuf>(&codec.encode(&buf_msg).unwrap())
            });
        }
    }
    let values: Vec<u64> = (0..256u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
        .collect();
    bench("varint_roundtrip_mixed", REPS, || {
        let mut buf = Vec::with_capacity(2600);
        for &v in &values {
            charm_wire::varint::write_u64(&mut buf, v);
        }
        let (mut off, mut acc) = (0, 0u64);
        while off < buf.len() {
            let (v, used) = charm_wire::varint::read_u64(&buf[off..]).unwrap();
            acc = acc.wrapping_add(v);
            off += used;
        }
        acc
    });
}

/// What a broadcast pays per same-PE member: a deep copy of the encoded
/// payload, or a refcount bump on one shared buffer; and a fresh `Vec`
/// per encode against the pooled scratch buffer.
fn payloads() {
    let payload: Vec<u8> = vec![0xA5; 16 * 1024];
    let shared = WireBytes::from_vec(payload.clone());
    for m in [8usize, 64] {
        let name = |how| format!("broadcast_payload_fanout/{how}/{m}");
        bench(&name("deep_copy"), REPS, || vec![payload.clone(); m]);
        bench(&name("shared"), REPS, || vec![shared.clone(); m]);
    }
    let msg = GhostVec {
        iter: 7,
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
        self.open || !matches!(msg, DrainMsg::Tick(_))
    }
    fn receive(&mut self, msg: DrainMsg, ctx: &mut Ctx) {
        match msg {
            DrainMsg::Tick(i) => self.acc += i,
            DrainMsg::Open => self.open = true,
            DrainMsg::Report { done } => ctx.send_future(&done, self.acc),
        }
    }
}

/// 1,000 messages pile up behind a when-guard, then it opens and the
/// buffer drains: the `after_state_change` retry loop end to end.
fn guard_drain() {
    const N: i64 = 1000;
    bench("guard_drain_1k_buffered", REPS, || {
        let rt = Runtime::new(1).simulated(MachineModel::local(1));
        rt.register::<DrainGate>().run(|co| {
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

/// PEs of the host-timed fan-in.
const NPES: usize = 4;

fn net() -> Runtime {
    Runtime::new(NPES).backend(Backend::Net(NetCfg::new()))
}

fn fan_ins() {
    let sim = || Runtime::new(NPES).simulated(MachineModel::local(NPES));
    let detector = if cfg!(feature = "analyze") {
        "detector_on"
    } else {
        "detector_off"
    };
    bench(&format!("fan_in/sim/{detector}"), REPS, || {
        fan_in(sim(), false)
    });
    bench("fan_in/sim/by_qd", REPS, || fan_in(sim(), true));
    bench("fan_in/sim/by_qd+buddy_ckpt", REPS, || {
        fan_in(sim().auto_checkpoint(1, Store::Memory), true)
    });
    let dir = std::env::temp_dir().join(format!("charm-bench-host-{}", std::process::id()));
    bench("fan_in/sim/by_qd+disk_ckpt", REPS, || {
        fan_in(sim().auto_checkpoint(1, Store::Disk(dir.clone())), true)
    });
    let _ = std::fs::remove_dir_all(dir);
    // Every sample re-executes the workers, assembles the mesh and drains
    // it: the end-to-end price of real processes for the same logical run.
    bench("fan_in/net/by_qd", 10, || fan_in(net(), true));
}

fn main() {
    if is_net_worker() {
        fan_in(net(), true);
        return;
    }
    codecs();
    payloads();
    guard_drain();
    fan_ins();
}
