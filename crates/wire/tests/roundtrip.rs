//! Roundtrip tests exercising both codecs over representative message shapes.

use std::collections::BTreeMap;

use charm_wire::fast::FastReader;
use charm_wire::{wire_enum, wire_struct, Buf, Codec, Reader, Wire, WireError};

fn roundtrip_both<T>(value: &T)
where
    T: Wire + PartialEq + std::fmt::Debug,
{
    for codec in [Codec::Fast, Codec::Pickle] {
        let bytes = codec.encode(value).unwrap();
        let back: T = codec.decode(&bytes).unwrap();
        assert_eq!(&back, value, "codec {codec:?}");
    }
}

#[derive(PartialEq, Debug, Clone)]
struct GhostMsg {
    iter: u32,
    face: u8,
    data: Vec<f64>,
}
wire_struct! { GhostMsg { iter, face, data } }

#[derive(PartialEq, Debug, Clone)]
enum StencilMsg {
    Start,
    Ghost(GhostMsg),
    Converged { residual: f64, iter: u64 },
    Pair(i32, String),
}
wire_enum! { StencilMsg { Start, Ghost(a), Converged { residual, iter }, Pair(a, b) } }

#[derive(PartialEq, Debug)]
struct Nested {
    opt: Option<Box<Nested>>,
    name: String,
    tags: BTreeMap<String, i64>,
    tuple: (u8, i16, f32),
    unit: (),
    list: Vec<Option<bool>>,
}
wire_struct! { Nested { opt, name, tags, tuple, unit, list } }

#[test]
fn primitives() {
    roundtrip_both(&true);
    roundtrip_both(&false);
    roundtrip_both(&0u8);
    roundtrip_both(&255u8);
    roundtrip_both(&-1i8);
    roundtrip_both(&i16::MIN);
    roundtrip_both(&u16::MAX);
    roundtrip_both(&i32::MIN);
    roundtrip_both(&u32::MAX);
    roundtrip_both(&i64::MIN);
    roundtrip_both(&i64::MAX);
    roundtrip_both(&u64::MAX);
    roundtrip_both(&i128::MIN);
    roundtrip_both(&u128::MAX);
    roundtrip_both(&1.5f32);
    roundtrip_both(&-0.0f64);
    roundtrip_both(&f64::MAX);
    roundtrip_both(&'q');
    roundtrip_both(&'\u{1F980}');
    roundtrip_both(&String::from("hello chare"));
    roundtrip_both(&String::new());
}

#[test]
fn options_and_units() {
    roundtrip_both(&Option::<u32>::None);
    roundtrip_both(&Some(42u32));
    roundtrip_both(&Some(Option::<String>::None));
    roundtrip_both(&());
}

#[test]
fn sequences_and_maps() {
    roundtrip_both(&vec![1u32, 2, 3]);
    roundtrip_both(&Vec::<f64>::new());
    roundtrip_both(&vec![vec![1i8], vec![], vec![-3, 4]]);
    let mut m = BTreeMap::new();
    m.insert("alpha".to_string(), 1i64);
    m.insert("beta".to_string(), -2);
    roundtrip_both(&m);
    roundtrip_both(&BTreeMap::<String, u8>::new());
}

#[test]
fn structs_and_enums() {
    let g = GhostMsg {
        iter: 7,
        face: 3,
        data: vec![1.0, -2.5, 3.25],
    };
    roundtrip_both(&g);
    roundtrip_both(&StencilMsg::Start);
    roundtrip_both(&StencilMsg::Ghost(g.clone()));
    roundtrip_both(&StencilMsg::Converged {
        residual: 1e-9,
        iter: 999,
    });
    roundtrip_both(&StencilMsg::Pair(-5, "x".into()));
    roundtrip_both(&vec![
        StencilMsg::Start,
        StencilMsg::Pair(0, String::new()),
        StencilMsg::Converged {
            residual: 0.0,
            iter: 0,
        },
    ]);
}

#[test]
fn deeply_nested() {
    let n = Nested {
        opt: Some(Box::new(Nested {
            opt: None,
            name: "inner".into(),
            tags: BTreeMap::new(),
            tuple: (1, -2, 3.5),
            unit: (),
            list: vec![None, Some(true)],
        })),
        name: "outer".into(),
        tags: [("k".to_string(), 9i64)].into_iter().collect(),
        tuple: (255, i16::MIN, f32::INFINITY),
        unit: (),
        list: vec![],
    };
    roundtrip_both(&n);
}

#[test]
fn buf_roundtrips_in_both_codecs() {
    let b: Buf<f64> = vec![1.0, 2.0, -3.0, 4.5].into();
    for codec in [Codec::Fast, Codec::Pickle] {
        let bytes = codec.encode(&b).unwrap();
        let back: Buf<f64> = codec.decode(&bytes).unwrap();
        assert_eq!(&*back, &*b);
    }
    let bi: Buf<i32> = vec![i32::MIN, 0, i32::MAX].into();
    roundtrip_buf(&bi);
}

fn roundtrip_buf<T: charm_wire::Scalar + PartialEq + std::fmt::Debug>(b: &Buf<T>) {
    for codec in [Codec::Fast, Codec::Pickle] {
        let bytes = codec.encode(b).unwrap();
        let back: Buf<T> = codec.decode(&bytes).unwrap();
        assert_eq!(&*back, &**b);
    }
}

#[test]
fn buf_is_zero_copyish_in_pickle_mode() {
    // A Buf<f64> of n elements must cost ~8n bytes even under pickle,
    // while a Vec<f64> under pickle pays a tag per element.
    let n = 1000usize;
    let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let buf_bytes = Codec::Pickle.encode(&Buf::from_vec(vals.clone())).unwrap();
    let vec_bytes = Codec::Pickle.encode(&vals).unwrap();
    assert!(buf_bytes.len() <= 8 * n + 16, "buf={}", buf_bytes.len());
    assert!(
        vec_bytes.len() >= 9 * n,
        "vec under pickle should carry tags: {}",
        vec_bytes.len()
    );
}

#[test]
fn fast_is_smaller_than_pickle_for_structs() {
    let g = GhostMsg {
        iter: 3,
        face: 1,
        data: vec![0.5; 16],
    };
    let f = Codec::Fast.encode(&g).unwrap();
    let p = Codec::Pickle.encode(&g).unwrap();
    assert!(
        f.len() < p.len(),
        "fast ({}) should be smaller than pickle ({})",
        f.len(),
        p.len()
    );
}

#[test]
fn pickle_tolerates_field_reordering_like_pickle() {
    // The pickle codec keys struct fields by name, so a reader whose struct
    // declares fields in a different order still decodes correctly —
    // mirroring pickle's dict-based state.
    struct WriterSide {
        a: u32,
        b: String,
    }
    wire_struct! { WriterSide { a, b } }
    #[derive(Debug, PartialEq)]
    struct ReaderSide {
        b: String,
        a: u32,
    }
    wire_struct! { ReaderSide { b, a } }
    let bytes = Codec::Pickle
        .encode(&WriterSide {
            a: 9,
            b: "hi".into(),
        })
        .unwrap();
    let r: ReaderSide = Codec::Pickle.decode(&bytes).unwrap();
    assert_eq!(
        r,
        ReaderSide {
            b: "hi".into(),
            a: 9
        }
    );
}

#[test]
fn truncated_input_is_eof_not_panic() {
    let g = StencilMsg::Ghost(GhostMsg {
        iter: 1,
        face: 2,
        data: vec![3.0; 8],
    });
    for codec in [Codec::Fast, Codec::Pickle] {
        let bytes = codec.encode(&g).unwrap();
        for cut in 0..bytes.len() {
            let err = codec.decode::<StencilMsg>(&bytes[..cut]).unwrap_err();
            // Any structured error is fine; panics/successes are not.
            match err {
                WireError::Eof
                | WireError::BadTag(_)
                | WireError::InvalidLength(_)
                | WireError::VarintOverflow
                | WireError::TypeMismatch { .. }
                | WireError::Utf8 => {}
                other => panic!("unexpected error {other:?} at cut {cut}"),
            }
        }
    }
}

#[test]
fn trailing_bytes_detected() {
    for codec in [Codec::Fast, Codec::Pickle] {
        let mut bytes = codec.encode(&7u32).unwrap();
        bytes.push(0xAB);
        let err = codec.decode::<u32>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::TrailingBytes(1)), "{codec:?}");
    }
}

#[test]
fn wrong_enum_variant_name_fails_cleanly_in_pickle() {
    enum A {
        OnlyInA(u8),
    }
    wire_enum! { A { OnlyInA(a) } }
    #[derive(Debug)]
    enum B {
        OnlyInB(u8),
    }
    wire_enum! { B { OnlyInB(a) } }
    let bytes = Codec::Pickle.encode(&A::OnlyInA(1)).unwrap();
    assert!(Codec::Pickle.decode::<B>(&bytes).is_err());
}

#[test]
fn fast_prefix_decoding() {
    let mut bytes = Codec::Fast.encode(&42u32).unwrap();
    let tail = Codec::Fast.encode(&String::from("rest")).unwrap();
    bytes.extend_from_slice(&tail);
    let mut r = FastReader::new(&bytes);
    assert_eq!(u32::decode(&mut r).unwrap(), 42);
    let used = bytes.len() - r.remaining();
    let s: String = Codec::Fast.decode(&bytes[used..]).unwrap();
    assert_eq!(s, "rest");
}

#[test]
fn pickle_skips_unknown_fields() {
    // Reader ignores a field the writer sent: the value is walked past by tag.
    struct W {
        keep: u32,
        extra: Vec<String>,
    }
    wire_struct! { W { keep, extra } }
    struct R {
        keep: u32,
    }
    wire_struct! { R { keep } }
    let bytes = Codec::Pickle
        .encode(&W {
            keep: 5,
            extra: vec!["a".into(), "b".into()],
        })
        .unwrap();
    let r: R = Codec::Pickle.decode(&bytes).unwrap();
    assert_eq!(r.keep, 5);
}

#[test]
fn deeply_nested_enums_roundtrip() {
    #[derive(PartialEq, Debug)]
    enum Inner {
        A,
        B(Vec<u8>),
    }
    wire_enum! { Inner { A, B(a) } }
    #[derive(PartialEq, Debug)]
    enum Outer {
        Wrap(Inner),
        Pair { left: Inner, right: Option<Inner> },
    }
    wire_enum! { Outer { Wrap(a), Pair { left, right } } }
    roundtrip_both(&Outer::Wrap(Inner::A));
    roundtrip_both(&Outer::Pair {
        left: Inner::B(vec![1, 2, 3]),
        right: Some(Inner::A),
    });
    roundtrip_both(&vec![
        Outer::Wrap(Inner::B(vec![])),
        Outer::Pair {
            left: Inner::A,
            right: None,
        },
    ]);
}

#[test]
fn all_buf_scalar_types_roundtrip() {
    fn rt<T: charm_wire::Scalar + PartialEq + std::fmt::Debug>(v: Vec<T>) {
        let b = Buf::from_vec(v);
        for codec in [Codec::Fast, Codec::Pickle] {
            let bytes = codec.encode(&b).unwrap();
            let back: Buf<T> = codec.decode(&bytes).unwrap();
            assert_eq!(&*back, &*b);
        }
    }
    rt::<u8>(vec![0, 255, 7]);
    rt::<i8>(vec![-128, 127]);
    rt::<u16>(vec![0, u16::MAX]);
    rt::<i16>(vec![i16::MIN, -1]);
    rt::<u32>(vec![u32::MAX]);
    rt::<i32>(vec![i32::MIN, 0, i32::MAX]);
    rt::<u64>(vec![u64::MAX, 1]);
    rt::<i64>(vec![i64::MIN]);
    rt::<f32>(vec![f32::MIN_POSITIVE, -0.0]);
    rt::<f64>(vec![f64::MAX, f64::EPSILON]);
}

#[test]
fn unit_struct_and_newtype_shapes() {
    #[derive(PartialEq, Debug)]
    struct Marker;
    wire_struct! { Marker {} }
    #[derive(PartialEq, Debug)]
    struct Wrapper(u64);
    wire_struct! { Wrapper(a) }
    #[derive(PartialEq, Debug)]
    struct TupleS(u8, String, Vec<i32>);
    wire_struct! { TupleS(a, b, c) }
    roundtrip_both(&Marker);
    roundtrip_both(&Wrapper(u64::MAX));
    roundtrip_both(&TupleS(9, "x".into(), vec![-1, 0, 1]));
}

#[test]
fn codec_default_is_fast() {
    assert_eq!(Codec::default(), Codec::Fast);
}
