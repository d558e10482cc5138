//! Tracing & telemetry overhead micro-benchmark (DESIGN.md §7, §12).
//!
//! Runs the same message-heavy fan-in workload as `analyze_overhead` under
//! the four trace levels and measures host wall time per run:
//!
//! ```sh
//! cargo bench -p charm-bench --bench trace_overhead
//! ```
//!
//! The benchmark ids are `fan_in_sim/trace_off`, `…/counters_only`,
//! `…/summary` and `…/full_capture`; the off→counters ratio is the cost of
//! the always-on aggregate path (the acceptance budget is <5%),
//! counters→summary is the streaming quantum-binning increment, and
//! summary→full is the cost of timestamping and ring insertion on every
//! scheduler boundary. No cargo feature is needed — levels are set per run
//! with `Runtime::trace`.
//!
//! A second group ablates the in-band telemetry cadence (DESIGN.md §12) on
//! a quiescence-cadenced variant of the same workload, on both backends:
//! `telemetry_sim/off | every_10_qd | every_qd` and the `telemetry_threads`
//! mirror. The off→every_10_qd gap is the amortized sweep cost (probe relay,
//! frame merge up the spanning tree, held QD waiters); every_qd is the
//! worst case of one sweep per quiescence round.

use charm_bench::bench;
use charm_core::prelude::*;
use charm_sim::MachineModel;

const NPES: usize = 8;
const PER_PE: i64 = 32;
const ROUNDS: usize = 4;

struct Sink {
    sum: i64,
    got: usize,
    expect: usize,
    notify: Option<Future<i64>>,
}

enum SinkMsg {
    Push(i64),
    WhenDone { expect: usize, notify: Future<i64> },
}
wire_enum! { SinkMsg { Push(a), WhenDone { expect, notify } } }

impl Chare for Sink {
    type Msg = SinkMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Sink {
            sum: 0,
            got: 0,
            expect: usize::MAX,
            notify: None,
        }
    }
    fn receive(&mut self, msg: SinkMsg, ctx: &mut Ctx) {
        match msg {
            SinkMsg::Push(v) => {
                self.sum += v;
                self.got += 1;
            }
            SinkMsg::WhenDone { expect, notify } => {
                self.expect = expect;
                self.notify = Some(notify);
            }
        }
        if self.got == self.expect {
            if let Some(f) = self.notify.take() {
                ctx.send_future(&f, self.sum);
            }
        }
    }
}

struct Spray;

enum SprayMsg {
    Go { sink: Proxy<Sink>, per_pe: i64 },
}
wire_enum! { SprayMsg { Go { sink, per_pe } } }

impl Chare for Spray {
    type Msg = SprayMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Spray
    }
    fn receive(&mut self, msg: SprayMsg, ctx: &mut Ctx) {
        let SprayMsg::Go { sink, per_pe } = msg;
        for k in 0..per_pe {
            sink.send(ctx, SinkMsg::Push(ctx.my_pe() as i64 + k));
        }
    }
}

fn fan_in_run(trace: TraceConfig) -> charm_core::RunReport {
    let report = Runtime::new(NPES)
        .simulated(MachineModel::local(NPES))
        .trace(trace)
        .register::<Sink>()
        .register::<Spray>()
        .run(|co| {
            for _ in 0..ROUNDS {
                let sink = co.ctx().create_chare::<Sink>((), Some(0));
                let group = co.ctx().create_group::<Spray>(());
                let done = co.ctx().create_future::<i64>();
                group.send(
                    co.ctx(),
                    SprayMsg::Go {
                        sink,
                        per_pe: PER_PE,
                    },
                );
                sink.send(
                    co.ctx(),
                    SinkMsg::WhenDone {
                        expect: NPES * PER_PE as usize,
                        notify: done,
                    },
                );
                co.get(&done);
            }
            co.ctx().exit();
        });
    assert!(report.clean_exit);
    report
}

/// Quiescence-cadenced variant: the same fan-in flood followed by
/// `QD_ROUNDS` quiescence rounds, so a telemetry cadence of `every` fires
/// `QD_ROUNDS / every` in-band sweeps. `sim` selects the backend.
fn fan_in_qd_run(sim: bool, telemetry: Option<TelemetryCfg>) -> charm_core::RunReport {
    let mut rt = Runtime::new(NPES);
    if sim {
        rt = rt.simulated(MachineModel::local(NPES));
    }
    if let Some(cfg) = telemetry {
        rt = rt.telemetry(cfg);
    }
    let report = rt.register::<Sink>().register::<Spray>().run(|co| {
        let sink = co.ctx().create_chare::<Sink>((), Some(0));
        let group = co.ctx().create_group::<Spray>(());
        let done = co.ctx().create_future::<i64>();
        group.send(
            co.ctx(),
            SprayMsg::Go {
                sink,
                per_pe: PER_PE,
            },
        );
        sink.send(
            co.ctx(),
            SinkMsg::WhenDone {
                expect: NPES * PER_PE as usize,
                notify: done,
            },
        );
        co.get(&done);
        for _ in 0..QD_ROUNDS {
            let q = co.ctx().create_future::<()>();
            co.ctx().start_quiescence(&q);
            co.get(&q);
        }
        co.ctx().exit();
    });
    assert!(report.clean_exit);
    report
}

const QD_ROUNDS: usize = 10;

/// Timed samples per configuration.
const REPS: usize = 20;

fn trace_overhead() {
    let levels = [
        ("trace_off", TraceConfig::off()),
        ("counters_only", TraceConfig::counters()),
        ("summary", TraceConfig::summary()),
        ("full_capture", TraceConfig::full()),
    ];
    for (label, cfg) in levels {
        bench(&format!("fan_in_sim/{label}"), REPS, || fan_in_run(cfg));
    }
}

fn telemetry_cadence() {
    let cadences: [(&str, Option<u64>); 3] = [
        ("off", None),
        ("every_10_qd", Some(10)),
        ("every_qd", Some(1)),
    ];
    for (backend, sim) in [("telemetry_sim", true), ("telemetry_threads", false)] {
        for (label, every) in cadences {
            bench(&format!("{backend}/{label}"), REPS, || {
                let r = fan_in_qd_run(sim, every.map(TelemetryCfg::every));
                // A sweep per `every`-th QD round must actually have run;
                // keeps the ablation honest if the cadence plumbing moves.
                let want = every.map_or(0, |e| QD_ROUNDS / e as usize);
                assert!(
                    r.telemetry.len() >= want,
                    "{backend}/{label}: {} frames < {want}",
                    r.telemetry.len()
                );
                r
            });
        }
    }
}

// CHARMRS_TRACE_DIR=<dir> also drops a trace artifact: the fan-in
// workload's Chrome trace + utilization summary, after the timing passes.
fn main() {
    trace_overhead();
    telemetry_cadence();
    if charm_bench::trace_dir().is_some() {
        let r = fan_in_run(TraceConfig::full());
        charm_bench::emit_trace("micro_fan_in", &r);
    }
}
