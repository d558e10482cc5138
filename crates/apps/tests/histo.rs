//! Histogram sort end-to-end: sortedness, conservation, balance, and
//! dispatch/backend invariance.

use charm_apps::histo::{run_histo, HistoParams};
use charm_core::{Backend, DispatchMode, Runtime};
use charm_sim::MachineModel;

fn sim(npes: usize) -> Runtime {
    Runtime::new(npes).backend(Backend::Sim(MachineModel::local(npes)))
}

fn input_key_sum(params: &HistoParams) -> (u64, u64) {
    // Recompute the deterministic input directly.
    use charm_wire::SplitMix64;
    let mut total = 0u64;
    let mut sum = 0u64;
    for c in 0..params.chares as u64 {
        let mut rng = SplitMix64::new(params.seed ^ c.wrapping_mul(0x9E3779B9));
        for _ in 0..params.keys_per_chare {
            let u = rng.next_f64();
            let k = ((u * u) * params.key_max as f64) as u64;
            total += 1;
            sum = sum.wrapping_add(k);
        }
    }
    (total, sum)
}

#[test]
fn sorts_and_conserves() {
    let params = HistoParams::small();
    let (n0, sum0) = input_key_sum(&params);
    let r = run_histo(params, sim(4));
    assert!(r.sorted, "global order must hold");
    assert_eq!(r.total_keys, n0, "no key lost or duplicated");
    assert_eq!(r.key_sum, sum0, "key values unchanged");
}

#[test]
fn histogram_splitters_balance_the_skewed_keys() {
    let r = run_histo(
        HistoParams {
            chares: 16,
            keys_per_chare: 1000,
            bins: 256,
            ..HistoParams::small()
        },
        sim(4),
    );
    assert!(r.sorted);
    // With quadratic-skewed keys, uniform splitters would give the first
    // chare several times the average; histogram splitters stay close.
    assert!(r.imbalance < 1.5, "imbalance {}", r.imbalance);
}

#[test]
fn backend_and_dispatch_invariance() {
    let params = HistoParams::small();
    let a = run_histo(params.clone(), sim(3));
    let b = run_histo(params.clone(), Runtime::new(3));
    let c = run_histo(params, sim(3).dispatch(DispatchMode::Dynamic));
    for r in [&a, &b, &c] {
        assert!(r.sorted);
        assert_eq!(r.total_keys, a.total_keys);
        assert_eq!(r.key_sum, a.key_sum);
    }
}

#[test]
fn single_chare_degenerate() {
    let r = run_histo(
        HistoParams {
            chares: 1,
            bins: 1,
            keys_per_chare: 100,
            ..HistoParams::small()
        },
        sim(2),
    );
    assert!(r.sorted);
    assert_eq!(r.total_keys, 100);
}
