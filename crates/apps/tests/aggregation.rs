//! Mini-apps under TRAM-style aggregation (`--features analyze`,
//! DESIGN.md §9): the 3D stencil and histogram sort must compute the same
//! results with per-destination coalescing on, under permuted delivery
//! schedules, with the dynamic race detector armed throughout.

#![cfg(feature = "analyze")]

use charm_apps::histo::{run_histo, HistoParams};
use charm_apps::stencil3d::{charm::run_charm, StencilParams};
use charm_core::{AggCfg, Backend, Runtime};
use charm_sim::MachineModel;

fn sim(npes: usize) -> Runtime {
    Runtime::new(npes).backend(Backend::Sim(MachineModel::local(npes)))
}

fn batches(report: &charm_core::RunReport) -> u64 {
    report.pe_stats.iter().map(|p| p.batches_sent).sum()
}

/// Histogram sort: every observable is an integer (key count, wrapping key
/// sum, sortedness), so an aggregated run must be *bit-identical* to the
/// aggregation-off baseline under each of 16 permuted schedules — and the
/// armed detector must stay silent.
#[test]
fn histo_bit_identical_with_aggregation_under_permuted_schedules() {
    let params = HistoParams::small();
    let (rt, probe) = sim(4).analyze_probe();
    let base = run_histo(params.clone(), rt);
    assert!(base.sorted, "baseline did not sort");
    assert!(
        probe.findings().is_empty(),
        "baseline findings: {:?}",
        probe.findings()
    );
    assert_eq!(batches(&base.report), 0, "aggregation-off sent batches");

    for seed in [None].into_iter().chain((1..=16).map(Some)) {
        let (mut rt, probe) = sim(4).analyze_probe();
        rt = rt.aggregation(AggCfg::count(8));
        if let Some(s) = seed {
            rt = rt.permute_schedule(s);
        }
        let r = run_histo(params.clone(), rt);
        assert!(
            probe.findings().is_empty(),
            "seed {seed:?}: detector findings: {:?}",
            probe.findings()
        );
        assert_eq!(
            (r.total_keys, r.key_sum, r.sorted),
            (base.total_keys, base.key_sum, base.sorted),
            "seed {seed:?}: aggregated histo diverged from baseline"
        );
        assert_eq!(
            r.report.entries, base.report.entries,
            "seed {seed:?}: logical entry count changed under aggregation"
        );
        assert!(batches(&r.report) > 0, "seed {seed:?}: no batches formed");
    }
}

/// 3D stencil: the physics is deterministic, but the final checksum flows
/// through an incremental floating-point reduction that combines partials
/// in arrival order, so (exactly like the rest of the stencil suite) the
/// comparison is to 1e-9 relative tolerance rather than to the bit. Entry
/// counts are integers and must match exactly.
#[test]
fn stencil_matches_baseline_with_aggregation_under_permuted_schedules() {
    let params = StencilParams::new([8, 8, 8], [2, 2, 2], 6);
    let (rt, probe) = sim(4).analyze_probe();
    let base = run_charm(params.clone(), rt);
    assert!(
        probe.findings().is_empty(),
        "baseline findings: {:?}",
        probe.findings()
    );
    assert_eq!(batches(&base.report), 0, "aggregation-off sent batches");

    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
    for seed in [None].into_iter().chain((1..=16).map(Some)) {
        let (mut rt, probe) = sim(4).analyze_probe();
        rt = rt.aggregation(AggCfg::count(8));
        if let Some(s) = seed {
            rt = rt.permute_schedule(s);
        }
        let r = run_charm(params.clone(), rt);
        assert!(
            probe.findings().is_empty(),
            "seed {seed:?}: detector findings: {:?}",
            probe.findings()
        );
        assert!(
            close(r.checksum.0, base.checksum.0) && close(r.checksum.1, base.checksum.1),
            "seed {seed:?}: aggregated stencil {:?} vs baseline {:?}",
            r.checksum,
            base.checksum
        );
        assert_eq!(
            r.report.entries, base.report.entries,
            "seed {seed:?}: logical entry count changed under aggregation"
        );
        assert!(batches(&r.report) > 0, "seed {seed:?}: no batches formed");
    }
}
