//! Hostile input against both readers and the frame layer under them:
//! every malformed input ends in a typed [`WireError`] or [`FrameError`],
//! never a panic, and never in an allocation sized by a length field the
//! input has not paid for. Also pins both layouts and the frame layout
//! byte-for-byte.

#[path = "../../trace/tests/common/counting_alloc.rs"]
mod counting_alloc;

use std::collections::BTreeMap;

use std::io::{BufReader, Cursor};

use charm_wire::frame::{self, FrameError};
use charm_wire::{wire_enum, wire_struct, Buf, Codec, WireError};
use counting_alloc::largest_request;

/// No input in this file is longer than a few hundred bytes, so nothing a
/// decoder allocates on its behalf may come near this.
const ALLOC_BOUND: usize = 64 << 10;

const CODECS: [Codec; 2] = [Codec::Fast, Codec::Pickle];

#[derive(Debug, PartialEq, Clone)]
enum Shape {
    Unit,
    One(u32),
    Two(i16, String),
    Named { x: f64, tags: Vec<String> },
}
wire_enum! { Shape { Unit, One(a), Two(a, b), Named { x, tags } } }

/// One value touching every shape the trait covers.
#[derive(Debug, PartialEq, Clone)]
struct Everything {
    flag: bool,
    small: (u8, i8),
    wide: (u64, i64),
    huge: (u128, i128),
    real: (f32, f64),
    ch: char,
    text: String,
    opt: Option<Box<Everything>>,
    list: Vec<Shape>,
    arr: [u16; 3],
    map: BTreeMap<String, i32>,
    grid: Buf<f64>,
    unit: (),
}
wire_struct! {
    Everything { flag, small, wide, huge, real, ch, text, opt, list, arr, map, grid, unit }
}

fn sample() -> Everything {
    let leaf = Everything {
        flag: true,
        small: (200, -100),
        wide: (u64::MAX, i64::MIN),
        huge: (u128::MAX, i128::MIN),
        real: (1.5, -2.25),
        ch: '\u{1F980}',
        text: "hostile".into(),
        opt: None,
        list: vec![
            Shape::Unit,
            Shape::One(7),
            Shape::Two(-3, "t".into()),
            Shape::Named {
                x: 0.5,
                tags: vec!["a".into(), "bc".into()],
            },
        ],
        arr: [1, 300, 65535],
        map: [("k".to_string(), -9)].into_iter().collect(),
        grid: vec![1.0, 2.0, 3.0].into(),
        unit: (),
    };
    Everything {
        opt: Some(Box::new(leaf.clone())),
        ..leaf
    }
}

#[test]
fn every_shape_round_trips() {
    for codec in CODECS {
        let bytes = codec.encode(&sample());
        assert_eq!(codec.decode::<Everything>(&bytes).unwrap(), sample());
    }
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    for codec in CODECS {
        let bytes = codec.encode(&sample());
        for cut in 0..bytes.len() {
            let err = codec.decode::<Everything>(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Eof | WireError::InvalidLength(_) | WireError::MissingField(_)
                ),
                "{codec:?} cut {cut}: {err:?}"
            );
        }
    }
    assert!(
        largest_request() < ALLOC_BOUND,
        "{} bytes",
        largest_request()
    );
}

/// LEB128 of `v` (test-side copy so the inputs are built independently).
fn leb(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return out;
        }
        out.push(b | 0x80);
    }
}

#[test]
fn length_larger_than_the_input_never_sizes_an_allocation() {
    // A length that lies by a little (past the input, inside the compact
    // reader's slack for zero-size elements) and by a lot.
    for lie in [100u64, 1 << 19, u32::MAX as u64, u64::MAX >> 1, u64::MAX] {
        let l = leb(lie);
        // Compact: the header *is* the length.
        let fast = [&l[..], &[1, 2, 3]].concat();
        assert!(Codec::Fast.decode::<Vec<u64>>(&fast).is_err(), "seq {lie}");
        assert!(Codec::Fast.decode::<String>(&fast).is_err(), "str {lie}");
        assert!(Codec::Fast.decode::<Buf<u8>>(&fast).is_err(), "bytes {lie}");
        assert!(
            Codec::Fast.decode::<BTreeMap<u8, u8>>(&fast).is_err(),
            "map {lie}"
        );
        // Self-describing: tag, then the length.
        for (tag, what) in [
            (0x0a, "list"),
            (0x08, "str"),
            (0x09, "bytes"),
            (0x0b, "map"),
        ] {
            let pickle = [&[tag][..], &l[..], &[0x04, 1, 0x04, 2]].concat();
            let err = match what {
                "list" => Codec::Pickle.decode::<Vec<u64>>(&pickle).map(drop),
                "str" => Codec::Pickle.decode::<String>(&pickle).map(drop),
                "bytes" => Codec::Pickle.decode::<Buf<u8>>(&pickle).map(drop),
                _ => Codec::Pickle
                    .decode::<BTreeMap<u64, u64>>(&pickle)
                    .map(drop),
            }
            .unwrap_err();
            assert!(
                matches!(err, WireError::Eof | WireError::InvalidLength(_)),
                "{what} {lie}: {err:?}"
            );
        }
        // A struct that claims more fields than the input holds.
        let st = [&[0x0c, 1, b'R'][..], &l[..]].concat();
        assert!(Codec::Pickle.decode::<Shape>(&st).is_err());
    }
    assert!(
        largest_request() < ALLOC_BOUND,
        "a decoder allocated {} bytes for a few-byte input",
        largest_request()
    );
}

#[test]
fn unknown_tags_and_variants_are_typed_errors() {
    for tag in 0x12..=0xffu8 {
        assert_eq!(
            Codec::Pickle.decode::<u32>(&[tag, 0]).unwrap_err(),
            WireError::BadTag(tag)
        );
    }
    // A known tag of the wrong type names both sides.
    assert!(matches!(
        Codec::Pickle.decode::<u32>(&[0x08, 0]).unwrap_err(),
        WireError::TypeMismatch {
            found: "str",
            expected: "uint"
        }
    ));
    // Compact: variant index one past the end.
    assert_eq!(
        Codec::Fast.decode::<Shape>(&[4]).unwrap_err(),
        WireError::InvalidLength(4)
    );
    // Self-describing: a variant name the reader does not declare.
    let mut bytes = Codec::Pickle.encode(&Shape::Unit);
    let at = bytes.iter().position(|&b| b == b'U').unwrap();
    bytes[at] = b'X';
    assert_eq!(
        Codec::Pickle.decode::<Shape>(&bytes).unwrap_err(),
        WireError::UnknownVariant("Shape")
    );
    // Bytes that are not a bool, an option, a char.
    assert_eq!(
        Codec::Fast.decode::<bool>(&[2]).unwrap_err(),
        WireError::BadTag(2)
    );
    assert_eq!(
        Codec::Fast.decode::<Option<u8>>(&[9, 0]).unwrap_err(),
        WireError::BadTag(9)
    );
    assert_eq!(
        Codec::Fast.decode::<char>(&leb(0xD800)).unwrap_err(),
        WireError::BadChar(0xD800)
    );
    // A narrow integer that does not fit.
    assert!(matches!(
        Codec::Fast.decode::<u16>(&leb(70_000)).unwrap_err(),
        WireError::TypeMismatch {
            expected: "u16",
            ..
        }
    ));
    // A byte block that is not a whole number of elements.
    assert_eq!(
        Codec::Fast.decode::<Buf<f64>>(&[3, 0, 0, 0]).unwrap_err(),
        WireError::InvalidLength(3)
    );
}

#[test]
fn trailing_bytes_are_rejected() {
    for codec in CODECS {
        let mut bytes = codec.encode(&sample());
        bytes.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            codec.decode::<Everything>(&bytes).unwrap_err(),
            WireError::TrailingBytes(3)
        );
    }
}

#[test]
fn a_missing_field_is_named() {
    struct Narrow {
        a: u8,
    }
    wire_struct! { Narrow { a } }
    #[derive(Debug)]
    struct Wide {
        a: u8,
        b: u8,
    }
    wire_struct! { Wide { a, b } }
    let bytes = Codec::Pickle.encode(&Narrow { a: 1 });
    assert_eq!(
        Codec::Pickle.decode::<Wide>(&bytes).unwrap_err(),
        WireError::MissingField("b")
    );
}

#[test]
fn skipping_an_unknown_field_is_depth_bounded() {
    struct Keep {
        keep: u8,
    }
    wire_struct! { Keep { keep } }
    // struct "Keep" { junk: Some(Some(…Some(unit)…)), keep: 1 }
    let mut bytes = vec![
        0x0c, 4, b'K', b'e', b'e', b'p', 2, 4, b'j', b'u', b'n', b'k',
    ];
    bytes.extend(std::iter::repeat_n(0x0e, 100_000));
    bytes.push(0x00);
    bytes.extend_from_slice(&[4, b'k', b'e', b'e', b'p', 0x04, 1]);
    assert!(matches!(
        Codec::Pickle.decode::<Keep>(&bytes).map(|k| k.keep),
        Err(WireError::TooDeep)
    ));
    // Shallow junk is skipped and the wanted field still found.
    bytes.drain(12..12 + 100_000 - 3);
    assert_eq!(Codec::Pickle.decode::<Keep>(&bytes).unwrap().keep, 1);
}

/// The reference bytes of both layouts, written out by hand from the
/// format definitions (DESIGN.md §5): any drift in tags, names, integer
/// encodings or field order fails here.
#[test]
fn golden_bytes_pin_both_layouts() {
    let v = Shape::Named {
        x: 1.0,
        tags: vec!["ab".into()],
    };
    let one: [u8; 8] = 1.0f64.to_le_bytes();
    let fast = [&[3][..], &one, &[1, 2, b'a', b'b']].concat();
    assert_eq!(Codec::Fast.encode(&v), fast);
    let pickle = [
        &[0x0d, 5][..],
        b"Shape",
        &[5],
        b"Named",
        &[0x0c, 5],
        b"Named",
        &[2, 1, b'x', 0x06],
        &one,
        &[4],
        b"tags",
        &[0x0a, 1, 0x08, 2, b'a', b'b'],
    ]
    .concat();
    assert_eq!(Codec::Pickle.encode(&v), pickle);

    // Scalars, options, tuples, maps, unit variants, raw blocks.
    let t = (300u32, (-2i16, Some(true)), (7u8, -1i8));
    assert_eq!(Codec::Fast.encode(&t), [0xac, 0x02, 0x03, 1, 1, 7, 0xff]);
    assert_eq!(
        Codec::Pickle.encode(&t),
        [
            0x0a, 3, 0x04, 0xac, 0x02, 0x0a, 2, 0x03, 0x03, 0x0e, 0x02, 0x0a, 2, 0x04, 7, 0x03,
            0x01
        ]
    );
    assert_eq!(Codec::Fast.encode(&Shape::Unit), [0]);
    assert_eq!(
        Codec::Pickle.encode(&Shape::Unit),
        [&[0x0d, 5][..], b"Shape", &[4], b"Unit", &[0x00]].concat()
    );
    assert_eq!(
        Codec::Pickle.encode(&Shape::Two(1, String::new())),
        [
            &[0x0d, 5][..],
            b"Shape",
            &[3],
            b"Two",
            &[0x0a, 2, 0x03, 2, 0x08, 0]
        ]
        .concat()
    );
    let m: BTreeMap<u8, ()> = [(5, ())].into_iter().collect();
    assert_eq!(Codec::Fast.encode(&m), [1, 5]);
    assert_eq!(Codec::Pickle.encode(&m), [0x0b, 1, 0x04, 5, 0x00]);
    let b: Buf<u16> = vec![1, 2].into();
    assert_eq!(Codec::Fast.encode(&b), [4, 1, 0, 2, 0]);
    assert_eq!(Codec::Pickle.encode(&b), [0x09, 4, 1, 0, 2, 0]);
    assert_eq!(Codec::Pickle.encode(&Option::<u8>::None), [0x0f]);
    assert_eq!(Codec::Pickle.encode(&'a'), [0x07, 97]);
    assert_eq!(Codec::Fast.encode(&'a'), [97]);
}

/// A header that passes every header check and promises `len` payload bytes.
fn promising_header(len: usize) -> Vec<u8> {
    let mut hdr = frame::build(4, &[]);
    hdr[4..8].copy_from_slice(&(len as u32).to_le_bytes());
    let hcrc = frame::fnv1a(&hdr[0..8]);
    hdr[8..12].copy_from_slice(&hcrc.to_le_bytes());
    hdr
}

#[test]
fn a_frame_header_cannot_size_an_allocation_the_stream_has_not_paid_for() {
    let max = frame::DEFAULT_MAX_FRAME;
    // The largest promise a reader accepts, then nothing.
    let err = frame::read_frame(&mut Cursor::new(promising_header(max)), max).unwrap_err();
    assert_eq!(
        err,
        FrameError::Torn {
            needed: max,
            got: 0
        }
    );
    assert!(
        largest_request() <= frame::RESERVE_CAP + (4 << 10),
        "{} bytes reserved on a header's word",
        largest_request()
    );
    // The same promise, then 3 MiB: memory follows the bytes received (the
    // body's Vec doubles 1, 2, 4 MiB; this stream itself is under 4 MiB).
    let mut stream = promising_header(max);
    stream.resize(frame::HDR_LEN + (3 << 20), 0x5a);
    let err = frame::read_frame(&mut Cursor::new(&stream), max).unwrap_err();
    assert_eq!(
        err,
        FrameError::Torn {
            needed: max,
            got: 3 << 20
        }
    );
    assert!(
        largest_request() <= 8 << 20,
        "{} bytes allocated for 3 MiB received",
        largest_request()
    );
}

#[test]
fn frame_truncation_at_every_offset_is_closed_or_torn() {
    let payload: Vec<u8> = (0..100).collect();
    let mut bytes = Vec::new();
    frame::write_frame(&mut bytes, 4, &payload).unwrap();
    for cut in 0..bytes.len() {
        let want = match cut {
            0 => FrameError::Closed,
            c if c < frame::HDR_LEN => FrameError::Torn {
                needed: frame::HDR_LEN,
                got: c,
            },
            c => FrameError::Torn {
                needed: payload.len(),
                got: c - frame::HDR_LEN,
            },
        };
        let max = frame::DEFAULT_MAX_FRAME;
        let direct = frame::read_frame(&mut Cursor::new(&bytes[..cut]), max);
        assert_eq!(direct, Err(want.clone()), "cut {cut}");
        // Behind a buffer smaller than the frame, as a connection reads it.
        let mut buffered = BufReader::with_capacity(32, Cursor::new(&bytes[..cut]));
        assert_eq!(
            frame::read_frame(&mut buffered, max),
            Err(want),
            "cut {cut}"
        );
    }
    let mut buffered = BufReader::with_capacity(32, Cursor::new(&bytes));
    assert_eq!(frame::read_frame(&mut buffered, 100), Ok((4, payload)));
    assert!(
        largest_request() < ALLOC_BOUND,
        "{} bytes",
        largest_request()
    );
}

#[test]
fn a_version_1_frame_is_refused_by_version() {
    // Layout version 1 by hand: FNV-1a over the payload where version 2
    // carries sum32.
    let payload = b"sealed by the old binary";
    let mut v1 = vec![0xAE, 0x43, 1, 4];
    v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let hcrc = frame::fnv1a(&v1);
    v1.extend_from_slice(&hcrc.to_le_bytes());
    v1.extend_from_slice(&frame::fnv1a(payload).to_le_bytes());
    v1.extend_from_slice(payload);
    assert_eq!(
        frame::read_frame(&mut Cursor::new(&v1), frame::DEFAULT_MAX_FRAME),
        Err(FrameError::BadVersion { found: 1 })
    );
}

/// One version-2 frame, byte for byte: magic, version, kind, length, the
/// FNV-1a of those eight bytes, the sum32 of the payload (one whole block,
/// one tail word, one tail byte), the payload.
#[test]
fn golden_bytes_pin_the_frame_layout_and_sum32() {
    let payload: Vec<u8> = (0..=40).collect();
    let header = [
        0xae, 0x43, 0x02, 0x04, 0x29, 0x00, 0x00, 0x00, 0xb1, 0x37, 0xad, 0xa7, 0x90, 0x2d, 0x41,
        0xde,
    ];
    let golden = [&header[..], &payload].concat();
    let mut written = Vec::new();
    frame::write_frame(&mut written, 4, &payload).unwrap();
    assert_eq!(written, golden);
    assert_eq!(frame::sealed(4, &[&payload[..7], &payload[7..]]), golden);
    assert_eq!(frame::sum32(&payload), 0xde41_2d90);
    assert_eq!(frame::sum32(b""), 0xc4a6_b772);
    assert_eq!(
        frame::read_frame(&mut Cursor::new(&golden), 41),
        Ok((4, payload))
    );
}
