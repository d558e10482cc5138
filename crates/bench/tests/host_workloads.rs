//! The threads lines of the `host` bench (`benches/host.rs`), run tiny:
//! each workload must deliver every payload and nothing else, so the lines
//! that time the threads layer cannot drift into timing something broken.

use charm_bench::workloads::{flood, pingpong, Tally};
use charm_core::{Backend, DispatchMode, Runtime};

/// Byte sums of 64 flood payloads: payload `k` is the bytes `k, k + 1, ..`
/// (mod 256), so the 256 B ones are 64 full cycles of 0..=255.
const FLOOD_SUM_32: u64 = 96_256;
const FLOOD_SUM_256: u64 = 64 * 32_640;

/// Envelopes a run counts (`RunReport::msgs`) besides its payloads and
/// their returns: the group's creation, `Notify`, `Go` and the tally's
/// future.
const OVERHEAD_MSGS: u64 = 4;

fn threads() -> Runtime {
    Runtime::new(2).backend(Backend::Threads)
}

#[test]
fn pingpong_returns_the_payload_between_rounds() {
    let (tally, report) = pingpong(threads(), 8, 32);
    // Payload 0 is the bytes 0..32, which sum to 496.
    assert_eq!(
        tally,
        Tally {
            msgs: 8,
            sum: 8 * 496
        }
    );
    assert_eq!(report.msgs, 8 + 7 + OVERHEAD_MSGS);
}

#[test]
fn flood_delivers_every_payload_once() {
    for (len, dispatch, sum) in [
        (32, DispatchMode::Native, FLOOD_SUM_32),
        (32, DispatchMode::Dynamic, FLOOD_SUM_32),
        (256, DispatchMode::Native, FLOOD_SUM_256),
    ] {
        let (tally, report) = flood(threads().dispatch(dispatch), 64, len);
        let what = format!("{len} B, {dispatch:?}");
        assert_eq!(tally, Tally { msgs: 64, sum }, "{what}");
        assert_eq!(report.msgs, 64 + OVERHEAD_MSGS, "{what}");
    }
}
