//! The same-PE send path must never round-trip through encode/decode (the
//! §II-D by-reference shortcut), on both backends.

use std::sync::atomic::{AtomicUsize, Ordering};

use charm_core::prelude::*;
use charm_sim::MachineModel;
use charm_wire::{Reader, Writer};

/// Payload that counts its own `encode` invocations: a local ping that
/// encodes even once is an encode/decode round-trip regression.
static PING_ENCODES: AtomicUsize = AtomicUsize::new(0);

#[derive(Clone, Copy)]
struct CountedVal(i64);

impl Wire for CountedVal {
    fn encode<W: Writer>(&self, w: &mut W) {
        PING_ENCODES.fetch_add(1, Ordering::SeqCst);
        self.0.encode(w);
    }
    fn decode<R: Reader>(r: &mut R) -> charm_wire::Result<Self> {
        i64::decode(r).map(CountedVal)
    }
}

struct Pinger {
    sum: i64,
}

enum PingMsg {
    Ping {
        x: CountedVal,
        left: u32,
        done: Future<i64>,
    },
}
wire_enum! { PingMsg { Ping { x, left, done } } }

impl Chare for Pinger {
    type Msg = PingMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Pinger { sum: 0 }
    }
    fn receive(&mut self, msg: PingMsg, ctx: &mut Ctx) {
        let PingMsg::Ping { x, left, done } = msg;
        self.sum += x.0;
        if left > 0 {
            // Self-send: same chare, same PE — must stay by-reference.
            let me = ctx.this_elem::<Pinger>();
            me.send(
                ctx,
                PingMsg::Ping {
                    x: CountedVal(x.0),
                    left: left - 1,
                    done,
                },
            );
        } else {
            ctx.send_future(&done, self.sum);
        }
    }
}

const PINGS: u32 = 64;

fn run_pings(rt: Runtime) -> charm_core::RunReport {
    rt.register::<Pinger>().run(|co| {
        let p = co.ctx().create_chare::<Pinger>((), Some(0));
        // Let the creation land before the kick-off: a send to a chare
        // that does not exist yet has no known route, so the scheduler
        // conservatively serializes it (it may have to be forwarded).
        let created = co.ctx().create_future::<()>();
        co.ctx().start_quiescence(&created);
        co.get(&created);
        let done = co.ctx().create_future::<i64>();
        p.send(
            co.ctx(),
            PingMsg::Ping {
                x: CountedVal(3),
                left: PINGS,
                done,
            },
        );
        let total = co.get(&done);
        assert_eq!(total, 3 * (PINGS as i64 + 1));
        co.ctx().exit();
    })
}

/// One test body (not several) because the encode counter is global: the
/// phases must run sequentially to keep their deltas attributable.
#[test]
fn local_pings_never_encode_and_the_ablation_proves_the_counter() {
    // Single PE: the main chare, the pinger and every self-send are local.
    for backend in [Backend::Threads, Backend::Sim(MachineModel::local(1))] {
        let before = PING_ENCODES.load(Ordering::SeqCst);
        let report = run_pings(Runtime::new(1).backend(backend));
        assert!(report.clean_exit);
        assert_eq!(
            PING_ENCODES.load(Ordering::SeqCst) - before,
            0,
            "a same-PE ping was serialized"
        );
        // Logical accounting is unaffected by the payload shortcut.
        assert!(report.msgs >= PINGS as u64);
    }

    // `same_pe_byref(false)` is the control: the same run must serialize
    // every ping, proving the counter observes what it claims to.
    let before = PING_ENCODES.load(Ordering::SeqCst);
    let report = run_pings(
        Runtime::new(1)
            .backend(Backend::Sim(MachineModel::local(1)))
            .same_pe_byref(false),
    );
    assert!(report.clean_exit);
    assert!(
        PING_ENCODES.load(Ordering::SeqCst) - before >= PINGS as usize,
        "ablation did not serialize the pings"
    );
}
