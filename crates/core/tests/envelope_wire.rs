//! The Net backend's envelope encoding (DESIGN.md §13.1): `Envelope` and
//! `EnvKind` cross a process boundary as their own `Wire` form. Every
//! variant must round-trip under both codecs, and the one value that lives
//! only inside one process (a `Payload::Local`) must end in the typed "not
//! wire-representable" error instead of a panic or a silent drop.

use charm_core::collections::{CollKind, CollSpec, Placement};
use charm_core::ids::{ChareTypeId, CollectionId, FutureId};
use charm_core::msg::{EnvKind, Envelope, MigrateMsg, Payload, TelemetryBody};
use charm_core::{ChareId, Index, LbChareStat, RedData, RedTarget, Reducer};
use charm_trace::{MetricFrame, TopItem};
use charm_wire::{Codec, WireBytes, WireError};

fn chare(seq: u32) -> ChareId {
    ChareId {
        coll: CollectionId { creator: 1, seq },
        index: Index::new(&[3, -4]),
    }
}

fn wire(bytes: &[u8]) -> Payload {
    Payload::Wire(WireBytes::copy_from_slice(bytes))
}

/// One envelope kind per `EnvKind` variant that has a wire form, with
/// every field away from its default.
fn one_of_each() -> Vec<EnvKind> {
    let coll = CollectionId { creator: 2, seq: 9 };
    let fid = FutureId { pe: 3, seq: 77 };
    let spec = CollSpec {
        id: coll,
        ctype: ChareTypeId(5),
        kind: CollKind::Dense { dims: vec![4, 2] },
        placement: Placement::Custom(7),
        use_lb: true,
    };
    let stat = LbChareStat {
        id: chare(1),
        pe: 2,
        load_ns: 12_345,
    };
    vec![
        EnvKind::Entry {
            to: chare(1),
            payload: wire(&[9; 100]),
            reply: Some(fid),
            guard: Some(4),
        },
        EnvKind::Batch {
            count: 3,
            frame: WireBytes::copy_from_slice(&[1, 2, 3]),
        },
        EnvKind::BroadcastEntry {
            coll,
            bytes: WireBytes::copy_from_slice(b"bcast"),
            root: 1,
        },
        EnvKind::CreateCollection {
            spec: spec.clone(),
            init: WireBytes::copy_from_slice(b"init"),
            root: 2,
        },
        EnvKind::InsertElem {
            coll,
            index: Index::new(&[8]),
            init: wire(b"ctor"),
            on_pe: Some(1),
            placed: true,
        },
        EnvKind::DoneInserting { coll },
        EnvKind::FutureValue {
            fid,
            payload: wire(b"value"),
        },
        EnvKind::RedPartial {
            coll,
            redno: 6,
            count: 5,
            data: RedData::VecF64(vec![1.5, -2.0]),
            reducer: Reducer::Custom(2),
            target: Some(RedTarget::Element(chare(2), 11)),
        },
        EnvKind::RedDeliver {
            to: chare(3),
            tag: 8,
            data: RedData::I64(-5),
        },
        EnvKind::RedBroadcast {
            coll,
            tag: 9,
            data: RedData::Gather(vec![(Index::new(&[1]), vec![7, 7])]),
            root: 3,
        },
        EnvKind::MigrateChare {
            msg: Box::new(MigrateMsg {
                coll,
                index: Index::new(&[1, 2, 3]),
                data: vec![1, 2, 3, 4],
                buffered: vec![(vec![5, 6], Some(fid), Some(2)), (vec![], None, None)],
                load_ns: 99,
                red_seq: 4,
                for_lb: true,
                trail: vec![0, 3],
                seq: 6,
            }),
        },
        EnvKind::LocationUpdate {
            id: chare(4),
            pe: 2,
            seq: 6,
        },
        EnvKind::SubtreeAdd { coll, delta: -3 },
        EnvKind::LbDoMigrate {
            moves: vec![(chare(5), 3)],
        },
        EnvKind::LbMigrated,
        EnvKind::LbResume { root: 0 },
        EnvKind::LbKick { epoch: 2 },
        EnvKind::LbTreePoll { epoch: 2, root: 0 },
        EnvKind::LbTreeReport {
            report: Box::new(charm_core::lb::LbTreeReport {
                pe_count: 4,
                chare_count: 16,
                total_load_ns: 1_000,
                ordered: 2,
                acceptors: vec![(1, 10), (3, 20)],
                spill: vec![stat],
            }),
        },
        EnvKind::QdProbe { round: 5, root: 0 },
        EnvKind::QdCounts {
            round: 5,
            sent: 10,
            done: 9,
            pes: 4,
        },
        EnvKind::CkptSave {
            dir: Some("/tmp/ckpt".into()),
            epoch: 3,
            buddy: true,
        },
        EnvKind::CkptBuddy {
            owner: 1,
            initiator: 0,
            epoch: 3,
            saved: 2,
            image: WireBytes::copy_from_slice(&[0xAB; 70]),
        },
        EnvKind::CkptAck { saved: 2 },
        EnvKind::RestoreColl { spec, root: 0 },
        EnvKind::QdRequest { fid },
        EnvKind::TelemetryProbe { seq: 4, root: 0 },
        telemetry_frame(),
        EnvKind::Bootstrap,
        EnvKind::Exit,
        EnvKind::Halt,
    ]
}

/// A frame with every row, both histograms and the top-K list non-empty.
fn telemetry_frame() -> EnvKind {
    let mut words = vec![0; MetricFrame::LEN];
    for (i, (w, row)) in words.iter_mut().zip(MetricFrame::ROWS).enumerate() {
        *w = if row.float {
            (i as f64 + 0.5).to_bits()
        } else {
            i as u64 + 1
        };
    }
    let mut frame = MetricFrame::from_words(&words).unwrap();
    for v in [3, 40, 40, 5_000] {
        frame.exec.record(v);
    }
    frame.latency.record(u64::MAX);
    frame.top = vec![
        TopItem {
            label: "Ring[3]".into(),
            weight: 9,
            err: 1,
        },
        TopItem {
            label: "Ring[0]".into(),
            weight: 2,
            err: 0,
        },
    ];
    frame.top_cap = 8;
    EnvKind::TelemetryFrame {
        seq: 1,
        frame: TelemetryBody(Box::new(frame)),
    }
}

/// Replaces the compile-time exhaustiveness of the old envelope mirror:
/// every variant crosses the Net encoding (both codecs) and comes back
/// re-encoding to the same bytes, and the samples provably cover the
/// whole enum — their compact variant indices are exactly `0..n` with `n`
/// rejected.
#[test]
fn every_kind_round_trips_through_the_net_encoding() {
    let mut indices = Vec::new();
    for kind in one_of_each() {
        indices.push(Codec::Fast.encode(&kind).unwrap()[0]);
        let mut env = Envelope::new(3, kind);
        env.epoch = 2;
        env.sent_ns = 99;
        for codec in [Codec::Fast, Codec::Pickle] {
            let bytes = codec.encode(&env).unwrap();
            let back: Envelope = codec.decode(&bytes).unwrap();
            assert_eq!((back.src, back.epoch, back.sent_ns), (3, 2, 99));
            assert_eq!(
                std::mem::discriminant(&back.kind),
                std::mem::discriminant(&env.kind),
                "{:?}",
                env.kind
            );
            assert_eq!(codec.encode(&back).unwrap(), bytes, "{:?}", env.kind);
        }
    }
    indices.sort_unstable();
    let n = indices.len() as u8;
    assert_eq!(
        indices,
        (0..n).collect::<Vec<_>>(),
        "samples skip a variant"
    );
    assert!(
        Codec::Fast.decode::<EnvKind>(&[n, 0, 0]).is_err(),
        "variant index {n} must not decode"
    );
}

#[test]
fn payload_bytes_cross_the_boundary_unchanged() {
    for codec in [Codec::Fast, Codec::Pickle] {
        let value = codec.encode(&42u64).unwrap();
        let env = Envelope::new(
            1,
            EnvKind::Entry {
                to: chare(7),
                payload: wire(&value),
                reply: None,
                guard: Some(3),
            },
        );
        let back: Envelope = codec.decode(&codec.encode(&env).unwrap()).unwrap();
        match back.kind {
            EnvKind::Entry {
                to,
                payload,
                reply,
                guard,
            } => {
                assert_eq!((to, reply, guard), (chare(7), None, Some(3)));
                assert_eq!(payload.take::<u64>(codec), 42);
            }
            other => panic!("wrong kind after round trip: {other:?}"),
        }
    }
}

#[test]
fn process_local_values_are_typed_errors_not_panics() {
    let local = EnvKind::Entry {
        to: chare(1),
        payload: Payload::Local(Box::new(5u32)),
        reply: None,
        guard: None,
    };
    let env = Envelope::new(0, local);
    for codec in [Codec::Fast, Codec::Pickle] {
        match codec.encode(&env) {
            Err(WireError::Unsupported(why)) => assert!(why.contains("Local"), "{why}"),
            other => panic!("expected Unsupported(Local), got {other:?}"),
        }
    }
}

#[test]
fn garbage_bytes_are_a_typed_decode_error() {
    for codec in [Codec::Fast, Codec::Pickle] {
        assert!(codec
            .decode::<Envelope>(&[0xFF, 0x13, 0x37, 0x00, 0x01])
            .is_err());
    }
}
