//! Seeded property tests: arbitrary values roundtrip through both codecs,
//! and arbitrary byte soup never panics the decoders. Every assertion
//! names the seed that produced its input.

use charm_wire::{wire_enum, Buf, Codec, SplitMix64};
use std::collections::BTreeMap;

const CASES: u64 = 256;

#[derive(PartialEq, Debug, Clone)]
enum ArbMsg {
    Unit,
    Num(i64),
    Float(f64),
    Text(String),
    List(Vec<ArbMsg>),
    Record {
        id: u32,
        payload: Vec<u8>,
        flag: bool,
    },
    Table(BTreeMap<String, i32>),
    Opt(Option<Box<ArbMsg>>),
}
wire_enum! {
    ArbMsg {
        Unit,
        Num(a),
        Float(a),
        Text(a),
        List(a),
        Record { id, payload, flag },
        Table(a),
        Opt(a),
    }
}

/// A finite, non-NaN float of any magnitude (NaN would fail `PartialEq`
/// spuriously).
fn arb_f64(rng: &mut SplitMix64) -> f64 {
    loop {
        let f = f64::from_bits(rng.next_u64());
        if f.is_finite() {
            return f;
        }
    }
}

fn arb_text(rng: &mut SplitMix64, max: u64) -> String {
    (0..rng.below(max + 1))
        .map(|_| char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{1F980}'))
        .collect()
}

fn arb_bytes(rng: &mut SplitMix64, max: u64) -> Vec<u8> {
    (0..rng.below(max)).map(|_| rng.next_u64() as u8).collect()
}

fn arb_msg(rng: &mut SplitMix64, depth: u32) -> ArbMsg {
    // Leaves only at the depth limit; containers otherwise share the draw.
    match rng.below(if depth == 0 { 6 } else { 8 }) {
        0 => ArbMsg::Unit,
        1 => ArbMsg::Num(rng.next_u64() as i64),
        2 => ArbMsg::Float(arb_f64(rng)),
        3 => ArbMsg::Text(arb_text(rng, 24)),
        4 => ArbMsg::Record {
            id: rng.next_u64() as u32,
            payload: arb_bytes(rng, 32),
            flag: rng.below(2) == 1,
        },
        5 => ArbMsg::Table(
            (0..rng.below(6))
                .map(|_| {
                    let key = (0..rng.below(7))
                        .map(|_| (b'a' + rng.below(26) as u8) as char)
                        .collect();
                    (key, rng.next_u64() as i32)
                })
                .collect(),
        ),
        6 => ArbMsg::List((0..rng.below(4)).map(|_| arb_msg(rng, depth - 1)).collect()),
        _ => ArbMsg::Opt(match rng.below(2) {
            0 => None,
            _ => Some(Box::new(arb_msg(rng, depth - 1))),
        }),
    }
}

/// Run `check` on one generated message per seed.
fn for_each_msg(check: impl Fn(u64, ArbMsg)) {
    for seed in 0..CASES {
        check(seed, arb_msg(&mut SplitMix64::new(seed), 3));
    }
}

#[test]
fn roundtrip_fast() {
    for_each_msg(|seed, msg| {
        let bytes = Codec::Fast.encode(&msg);
        let back: ArbMsg = Codec::Fast.decode(&bytes).unwrap();
        assert_eq!(back, msg, "seed {seed}");
    });
}

#[test]
fn roundtrip_pickle() {
    for_each_msg(|seed, msg| {
        let bytes = Codec::Pickle.encode(&msg);
        let back: ArbMsg = Codec::Pickle.decode(&bytes).unwrap();
        assert_eq!(back, msg, "seed {seed}");
    });
}

#[test]
fn fast_never_larger_than_pickle() {
    for_each_msg(|seed, msg| {
        let f = Codec::Fast.encode(&msg);
        let p = Codec::Pickle.encode(&msg);
        assert!(
            f.len() <= p.len(),
            "seed {seed}: fast {} > pickle {} for {msg:?}",
            f.len(),
            p.len()
        );
    });
}

#[test]
fn decoder_never_panics_on_garbage() {
    for seed in 0..CASES {
        let bytes = arb_bytes(&mut SplitMix64::new(seed), 256);
        // A panic here aborts the test; the harness reports the seed via
        // the loop variable in the backtrace-free message below.
        for codec in [Codec::Fast, Codec::Pickle] {
            let r = std::panic::catch_unwind(|| {
                let _ = codec.decode::<ArbMsg>(&bytes);
            });
            assert!(r.is_ok(), "seed {seed}: {codec:?} decoder panicked");
        }
    }
}

#[test]
fn varint_roundtrip() {
    let mut rng = SplitMix64::new(0x5EED);
    for case in 0..CASES {
        // Spread magnitudes so every encoded width is hit.
        let v = rng.next_u64() >> rng.below(64);
        let mut buf = Vec::new();
        charm_wire::varint::write_u64(&mut buf, v);
        let (got, used) = charm_wire::varint::read_u64(&buf).unwrap();
        assert_eq!((got, used), (v, buf.len()), "seed 0x5EED case {case}");
    }
}

#[test]
fn zigzag_roundtrip() {
    let mut rng = SplitMix64::new(0x5EED);
    for case in 0..CASES {
        let v = (rng.next_u64() >> rng.below(64)) as i64 * if rng.below(2) == 0 { 1 } else { -1 };
        assert_eq!(
            charm_wire::varint::unzigzag(charm_wire::varint::zigzag(v)),
            v,
            "seed 0x5EED case {case}"
        );
    }
}

#[test]
fn buf_roundtrip() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let v: Vec<f64> = (0..rng.below(128)).map(|_| arb_f64(&mut rng)).collect();
        let b = Buf::from_vec(v.clone());
        for codec in [Codec::Fast, Codec::Pickle] {
            let bytes = codec.encode(&b);
            let back: Buf<f64> = codec.decode(&bytes).unwrap();
            assert_eq!(&*back, &v[..], "seed {seed} {codec:?}");
        }
    }
}
