//! A fourth scenario showing the threaded-entry-method style (paper §II-H):
//! a 1-D wave equation where each chare's driver is a *coroutine* using the
//! direct-style `wait` construct, instead of the callback/guard style the
//! stencil uses — the exact pattern of the paper's §II-H2 listing.
//!
//! Run with: `cargo run --release --example wave1d`

use charm_rs::core::prelude::*;
use charm_rs::core::Runtime;

const SEGMENTS: i32 = 8;
const POINTS: usize = 64;
const STEPS: usize = 200;

/// One segment of the string.
struct Segment {
    u_prev: Vec<f64>,
    u: Vec<f64>,
    left: Option<f64>,
    right: Option<f64>,
    msg_count: usize,
}
wire_struct! { Segment { u_prev, u, left, right, msg_count } }

enum SegMsg {
    /// Start the driver coroutine.
    Run { done: Future<RedData> },
    /// A neighbor's boundary value for the current step.
    Edge { from_left: bool, value: f64 },
}
wire_enum! { SegMsg { Run { done }, Edge { from_left, value } } }

impl Chare for Segment {
    type Msg = SegMsg;
    type Init = ();

    fn create(_: (), ctx: &mut Ctx) -> Self {
        let k = ctx.my_index().first() as usize;
        // A pluck in the middle of the string.
        let u: Vec<f64> = (0..POINTS)
            .map(|i| {
                let x = (k * POINTS + i) as f64 / (SEGMENTS as usize * POINTS) as f64;
                (-200.0 * (x - 0.5) * (x - 0.5)).exp()
            })
            .collect();
        Segment {
            u_prev: u.clone(),
            u,
            left: None,
            right: None,
            msg_count: 0,
        }
    }

    fn receive(&mut self, msg: SegMsg, ctx: &mut Ctx) {
        match msg {
            SegMsg::Run { done } => {
                // The paper's @threaded work(): a direct-style loop that
                // sends, waits for both neighbor edges, then computes.
                ctx.go::<Segment>(move |co| {
                    let k = co.ctx().my_index().first();
                    let me = co.ctx().this_proxy::<Segment>();
                    for _ in 0..STEPS {
                        let (first, last) = {
                            let this = co.this();
                            (this.u[0], this.u[POINTS - 1])
                        };
                        let mut expected = 0;
                        if k > 0 {
                            me.elem(k - 1).send(
                                co.ctx(),
                                SegMsg::Edge {
                                    from_left: false,
                                    value: first,
                                },
                            );
                            expected += 1;
                        }
                        if k < SEGMENTS - 1 {
                            me.elem(k + 1).send(
                                co.ctx(),
                                SegMsg::Edge {
                                    from_left: true,
                                    value: last,
                                },
                            );
                            expected += 1;
                        }
                        // self.wait('self.msg_count == len(self.neighbors)')
                        co.wait(move |s: &Segment| s.msg_count == expected);
                        let this = co.this();
                        this.msg_count = 0;
                        this.step();
                    }
                    // Contribute the final energy for a sanity print.
                    let e: f64 = co.this().u.iter().map(|v| v * v).sum();
                    co.ctx().contribute(
                        RedData::F64(e),
                        Reducer::Sum,
                        RedTarget::Future(done.id()),
                    );
                });
            }
            SegMsg::Edge { from_left, value } => {
                if from_left {
                    self.left = Some(value);
                } else {
                    self.right = Some(value);
                }
                self.msg_count += 1;
            }
        }
    }
}

impl Segment {
    #[allow(clippy::needless_range_loop)]
    fn step(&mut self) {
        const C2: f64 = 0.25; // (c dt / dx)^2
        let mut next = vec![0.0; POINTS];
        for i in 0..POINTS {
            let um = if i == 0 {
                self.left.unwrap_or(0.0) // fixed end at the string boundary
            } else {
                self.u[i - 1]
            };
            let up = if i == POINTS - 1 {
                self.right.unwrap_or(0.0)
            } else {
                self.u[i + 1]
            };
            next[i] = 2.0 * self.u[i] - self.u_prev[i] + C2 * (um - 2.0 * self.u[i] + up);
        }
        self.u_prev = std::mem::replace(&mut self.u, next);
        self.left = None;
        self.right = None;
    }
}

fn main() {
    Runtime::new(4).register::<Segment>().run(|co| {
        let string = co.ctx().create_array::<Segment>(&[SEGMENTS], ());
        let done = co.ctx().create_future::<RedData>();
        string.send(co.ctx(), SegMsg::Run { done });
        let energy = co.get(&done).as_f64();
        println!("wave1d: {SEGMENTS} segments x {POINTS} points, {STEPS} steps");
        println!("final energy sum(u^2) = {energy:.6}");
        assert!(energy.is_finite() && energy > 0.0);
        co.ctx().exit();
    });
    println!("done");
}
