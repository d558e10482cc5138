//! METG — minimum effective task granularity (Task Bench, Slaughter et
//! al.), the paper-adjacent overhead headline: sweep the per-task grain
//! downward and report the smallest grain at which the runtime still
//! reaches ≥ 50% efficiency, for all five dependency patterns on both
//! backends.
//!
//! Efficiency = ideal / actual, where ideal = `width · steps · grain /
//! npes`. Under sim, "actual" is the virtual-time makespan (message
//! latency from the machine model is the overhead); under threads it is
//! wall time (real scheduling + channel costs — note the OS sleep
//! granularity behind `ctx.charge` inflates sub-microsecond grains there).
//!
//! Knobs: `CHARMRS_TB_PES` (4), `CHARMRS_TB_WIDTH` (64), `CHARMRS_TB_STEPS`
//! (32), `CHARMRS_TB_GRAIN_START` (65536 ns), `CHARMRS_TB_GRAIN_FLOOR`
//! (256 ns).

use charm_apps::taskbench::{run_taskbench, Pattern, TaskBenchParams};
use charm_bench::{env_usize, grain_series, taskbench_efficiency, MetgSweep};
use charm_core::{Backend, Runtime};
use charm_sim::MachineModel;

struct Knobs {
    npes: usize,
    width: u32,
    steps: u32,
    grains: Vec<u64>,
}

fn sweep(k: &Knobs, pattern: Pattern, sim: bool) -> MetgSweep {
    let mut points = Vec::with_capacity(k.grains.len());
    for &grain_ns in &k.grains {
        let params = TaskBenchParams {
            pattern,
            width: k.width,
            steps: k.steps,
            grain_ns,
            fanout: 3,
            seed: 7,
        };
        let rt = if sim {
            Runtime::new(k.npes)
                .backend(Backend::Sim(MachineModel::local(k.npes)))
                .meter_compute(false)
        } else {
            Runtime::new(k.npes)
        };
        let r = run_taskbench(params, rt);
        assert_eq!(r.tasks, k.width as u64 * k.steps as u64);
        let actual_ns = r.report.time.as_nanos() as u64;
        points.push((
            grain_ns,
            taskbench_efficiency(
                grain_ns,
                k.width as u64,
                k.steps as u64,
                k.npes as u64,
                actual_ns,
            ),
        ));
    }
    MetgSweep { points }
}

fn fmt_metg(m: Option<u64>) -> String {
    match m {
        Some(ns) => format!("{ns} ns"),
        None => "> sweep".into(),
    }
}

fn main() {
    let k = Knobs {
        npes: env_usize("CHARMRS_TB_PES", 4),
        width: env_usize("CHARMRS_TB_WIDTH", 64) as u32,
        steps: env_usize("CHARMRS_TB_STEPS", 32) as u32,
        grains: grain_series(
            env_usize("CHARMRS_TB_GRAIN_START", 65_536) as u64,
            env_usize("CHARMRS_TB_GRAIN_FLOOR", 256) as u64,
        ),
    };

    for (backend, sim) in [("sim", true), ("threads", false)] {
        println!(
            "\n# METG ({backend}) — width={} steps={} npes={}",
            k.width, k.steps, k.npes
        );
        print!("{:>10}", "grain_ns");
        for p in Pattern::ALL {
            print!("  {:>9}", p.name());
        }
        println!("   (efficiency)");

        let sweeps: Vec<MetgSweep> = Pattern::ALL.iter().map(|&p| sweep(&k, p, sim)).collect();
        for (row, &grain) in k.grains.iter().enumerate() {
            print!("{grain:>10}");
            for s in &sweeps {
                print!("  {:>9.3}", s.points[row].1);
            }
            println!();
        }
        for (p, s) in Pattern::ALL.iter().zip(&sweeps) {
            println!("METG[{backend}/{}] = {}", p.name(), fmt_metg(s.metg_ns()));
        }
        eprintln!("metg: {backend} done");
    }
}
