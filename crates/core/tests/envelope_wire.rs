//! The Net backend's envelope encoding (DESIGN.md §13.1): `Envelope` and
//! `EnvKind` cross a process boundary as their own `Wire` form. Every
//! variant must round-trip under both codecs. Encoding cannot fail: the one
//! value that lives only inside one process (a `Payload::Local`) never
//! reaches an encoder, because the scheduler serializes every payload bound
//! for another PE and `Net::send` keeps its own PE's envelopes local. One
//! that did would be a runtime bug, and it panics rather than being
//! silently dropped. Decoding reads untrusted bytes and stays fallible.

use charm_core::collections::{CollKind, CollSpec, Placement};
use charm_core::ids::{ChareTypeId, CollectionId, FutureId};
use charm_core::msg::{
    CkptMsg, CollMsg, EnvKind, Envelope, LbMsg, LocMsg, MigrateMsg, Payload, RedMsg, SweepMsg,
    TelemetryBody,
};
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

/// One sample per wire kind of `EnvKind` (module kinds included), with
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
        EnvKind::Coll(CollMsg::Create {
            spec: spec.clone(),
            init: WireBytes::copy_from_slice(b"init"),
            root: 2,
        }),
        EnvKind::Coll(CollMsg::Insert {
            coll,
            index: Index::new(&[8]),
            init: wire(b"ctor"),
            on_pe: Some(1),
            placed: true,
        }),
        EnvKind::Coll(CollMsg::DoneInserting { coll }),
        EnvKind::FutureValue {
            fid,
            payload: wire(b"value"),
        },
        EnvKind::Red(RedMsg::Partial {
            coll,
            redno: 6,
            count: 5,
            data: RedData::VecF64(vec![1.5, -2.0]),
            reducer: Reducer::Custom(2),
            target: Some(RedTarget::Element(chare(2), 11)),
        }),
        EnvKind::RedDeliver {
            to: chare(3),
            tag: 8,
            data: RedData::I64(-5),
        },
        EnvKind::Red(RedMsg::Broadcast {
            coll,
            tag: 9,
            data: RedData::Gather(vec![(Index::new(&[1]), vec![7, 7])]),
            root: 3,
        }),
        EnvKind::Loc(LocMsg::Migrate {
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
        }),
        EnvKind::Loc(LocMsg::Update {
            id: chare(4),
            pe: 2,
            seq: 6,
        }),
        EnvKind::Coll(CollMsg::SubtreeAdd { coll, delta: -3 }),
        EnvKind::Lb(LbMsg::DoMigrate {
            moves: vec![(chare(5), 3)],
        }),
        EnvKind::Lb(LbMsg::Migrated),
        EnvKind::Lb(LbMsg::Resume { root: 0 }),
        EnvKind::Lb(LbMsg::Kick { epoch: 2 }),
        EnvKind::Lb(LbMsg::TreePoll { epoch: 2, root: 0 }),
        EnvKind::Lb(LbMsg::TreeReport {
            report: Box::new(charm_core::lb::LbTreeReport {
                pe_count: 4,
                chare_count: 16,
                total_load_ns: 1_000,
                ordered: 2,
                acceptors: vec![(1, 10), (3, 20)],
                spill: vec![stat],
            }),
        }),
        EnvKind::Sweep(SweepMsg::QdProbe { round: 5, root: 0 }),
        EnvKind::Sweep(SweepMsg::QdCounts {
            round: 5,
            sent: 10,
            done: 9,
            pes: 4,
        }),
        EnvKind::Ckpt(CkptMsg::Save {
            dir: Some("/tmp/ckpt".into()),
            epoch: 3,
            buddy: true,
        }),
        EnvKind::Ckpt(CkptMsg::Buddy {
            owner: 1,
            initiator: 0,
            epoch: 3,
            saved: 2,
            image: WireBytes::copy_from_slice(&[0xAB; 70]),
        }),
        EnvKind::Ckpt(CkptMsg::Ack { saved: 2 }),
        EnvKind::Ckpt(CkptMsg::RestoreColl { spec, root: 0 }),
        EnvKind::Sweep(SweepMsg::QdRequest { fid }),
        EnvKind::Sweep(SweepMsg::TelemetryProbe { seq: 4, root: 0 }),
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
    EnvKind::Sweep(SweepMsg::TelemetryFrame {
        seq: 1,
        frame: TelemetryBody(Box::new(frame)),
    })
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
        indices.push(Codec::Fast.encode(&kind)[0]);
        let mut env = Envelope::new(3, kind);
        env.epoch = 2;
        env.sent_ns = 99;
        for codec in [Codec::Fast, Codec::Pickle] {
            let bytes = codec.encode(&env);
            let back: Envelope = codec.decode(&bytes).unwrap();
            assert_eq!((back.src, back.epoch, back.sent_ns), (3, 2, 99));
            assert_eq!(
                std::mem::discriminant(&back.kind),
                std::mem::discriminant(&env.kind),
                "{:?}",
                env.kind
            );
            assert_eq!(codec.encode(&back), bytes, "{:?}", env.kind);
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
        let value = codec.encode(&42u64);
        let env = Envelope::new(
            1,
            EnvKind::Entry {
                to: chare(7),
                payload: wire(&value),
                reply: None,
                guard: Some(3),
            },
        );
        let back: Envelope = codec.decode(&codec.encode(&env)).unwrap();
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

/// The arm a `Payload::Local` takes does not depend on the codec, so one
/// codec covers it.
#[test]
#[should_panic(expected = "Payload::Local at a process boundary")]
fn a_process_local_value_at_a_boundary_is_a_runtime_bug() {
    let local = EnvKind::Entry {
        to: chare(1),
        payload: Payload::Local(Box::new(5u32)),
        reply: None,
        guard: None,
    };
    Codec::Fast.encode(&Envelope::new(0, local));
}

#[test]
fn garbage_bytes_are_a_typed_decode_error() {
    for codec in [Codec::Fast, Codec::Pickle] {
        assert!(codec
            .decode::<Envelope>(&[0xFF, 0x13, 0x37, 0x00, 0x01])
            .is_err());
    }
}

/// FNV-1a of `bytes`.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = charm_trace::fnv::Fnv::new();
    bytes.iter().for_each(|&b| h.eat(b));
    h.finish()
}

/// Each sample's bytes under both codecs, in `one_of_each` order: the
/// Fast variant index, then the FNV-1a of the whole Fast and Pickle
/// encodings. A renumbered index, a renamed Pickle variant or type, or a
/// reordered field moves a row; the round trip above would not notice.
#[rustfmt::skip]
const GOLD_KIND_BYTES: [(u8, u64, u64); 31] = [
    (0, 0x53c3107eddd51e9c, 0x355a5819d3dd9d28),
    (1, 0xca06364f0ebd6d6e, 0x492bccec810b4c0f),
    (2, 0xd4d72568cae1f0e7, 0x12c79dddcfd10ef6),
    (3, 0x763ddfad2db57d4f, 0x400aac46ebbf3192),
    (4, 0xadeb3c38ae3d7116, 0x464996fb91ca9275),
    (5, 0xae048018538d0bfd, 0x273ef99f068736cc),
    (6, 0x813602b7995f7e2d, 0x641cc156192c1acb),
    (7, 0x961f27f3026b5d75, 0x798c657ac1b18f38),
    (8, 0xad8a924df902aeee, 0x3ce7dca3305199a5),
    (9, 0x6eafe15a0080f520, 0x63c9fafe43d3aeb8),
    (10, 0x5248df09f030e749, 0x47a2ce6c92be2d5a),
    (11, 0x6bb92c1c63c321a4, 0x3d22a57744cfe4eb),
    (12, 0xbb9e97a0ecbb0759, 0xa025cf8129c0ef86),
    (13, 0xda28c24e44847d37, 0x84f6ca985acf105b),
    (14, 0xaf63c34c8601c211, 0x4eaf4babda9e70a3),
    (15, 0x08438607b4f9dfba, 0x5b08d2776017baeb),
    (16, 0x0868e607b5199f17, 0x4c036e2a8f70f5cb),
    (17, 0x5b421318b5ace20e, 0x612b4aba1bc2b44a),
    (18, 0x47f1e66930214efd, 0x49288e65df946ffc),
    (19, 0x6c9f3b18bf8588df, 0x32af6e1e0a68565e),
    (20, 0x90c015f024e1e455, 0x71f536ace4aacbb4),
    (21, 0xd6a940924429da8f, 0x43337913e067d1d5),
    (22, 0x2b9ceed083bc53ff, 0x4ed02670ed9cca6e),
    (23, 0x085eb407b510f59c, 0xe38bc4cd06e5f8f5),
    (24, 0xe3c8bec318c86d2a, 0xd81db3c6e69c2582),
    (25, 0xa0919418dcf02c68, 0x05b151acfce5f314),
    (26, 0xba75f818eb938071, 0x55127d1f662cbe2c),
    (27, 0xa3e922484cf3f705, 0x8c5ee1971a8452be),
    (28, 0xaf63d14c8601d9db, 0xb0ba0615a251afcb),
    (29, 0xaf63d04c8601d828, 0xbf613513f4490b82),
    (30, 0xaf63d34c8601dd41, 0x4aa9788aa1cb2ce3),
];

#[test]
fn every_kind_encodes_to_its_pinned_bytes() {
    let got: Vec<(u8, u64, u64)> = one_of_each()
        .iter()
        .map(|kind| {
            let fast = Codec::Fast.encode(kind);
            (fast[0], digest(&fast), digest(&Codec::Pickle.encode(kind)))
        })
        .collect();
    assert_eq!(got, GOLD_KIND_BYTES);
}

/// What the scheduler and the sim read off a kind: `(counts_for_qd,
/// qd_weight, coll, size_hint)`.
type KindFacts = (bool, u64, Option<(u32, u32)>, usize);

/// Each sample's [`KindFacts`], in `one_of_each` order.
#[rustfmt::skip]
const GOLD_KIND_FACTS: [KindFacts; 31] = [
    (true, 1, None, 132),
    (false, 3, None, 35),
    (true, 1, Some((2, 9)), 37),
    (false, 0, None, 100),
    (true, 1, Some((2, 9)), 36),
    (false, 0, Some((2, 9)), 32),
    (true, 1, None, 37),
    (true, 1, Some((2, 9)), 57),
    (true, 1, None, 41),
    (true, 1, Some((2, 9)), 75),
    (true, 1, Some((2, 9)), 70),
    (false, 0, None, 32),
    (false, 0, Some((2, 9)), 32),
    (false, 0, None, 72),
    (false, 0, None, 32),
    (false, 0, None, 32),
    (false, 0, None, 32),
    (false, 0, None, 32),
    (false, 0, None, 112),
    (false, 0, None, 32),
    (false, 0, None, 32),
    (false, 0, None, 32),
    (false, 0, None, 102),
    (false, 0, None, 32),
    (false, 0, None, 32),
    (false, 0, None, 32),
    (false, 0, None, 32),
    (false, 0, None, 544),
    (false, 0, None, 32),
    (false, 0, None, 32),
    (false, 0, None, 32),
];

#[test]
fn every_kind_keeps_its_pinned_accounting() {
    let got: Vec<KindFacts> = one_of_each()
        .iter()
        .map(|k| {
            let coll = k.coll().map(|c| (c.creator, c.seq));
            (k.counts_for_qd(), k.qd_weight(), coll, k.size_hint())
        })
        .collect();
    assert_eq!(got, GOLD_KIND_FACTS);
}

/// A kind this build does not know is a typed error, never a panic: every
/// Fast variant index past the last kind up to 255, and under Pickle each
/// kind's variant name with its first letter lowered (no kind is spelled
/// that way).
#[test]
fn unknown_kinds_are_typed_decode_errors() {
    let n = one_of_each().len() as u64;
    for ix in n..=255 {
        let mut bytes = Codec::Fast.encode(&ix);
        bytes.extend([0; 8]);
        let err = Codec::Fast.decode::<EnvKind>(&bytes).err();
        assert_eq!(err, Some(WireError::InvalidLength(ix)), "index {ix}");
    }
    for kind in one_of_each() {
        // The enum tag, the type name, then the variant name.
        let mut bytes = Codec::Pickle.encode(&kind);
        assert_eq!(bytes.get(1..9), Some(&b"\x07EnvKind"[..]));
        bytes[10] = bytes[10].to_ascii_lowercase();
        let err = Codec::Pickle.decode::<EnvKind>(&bytes).err();
        assert_eq!(err, Some(WireError::UnknownVariant("EnvKind")), "{kind:?}");
    }
}
