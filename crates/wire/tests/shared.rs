//! Shared-payload (`WireBytes`) behavior: fan-out shares one allocation,
//! pooled encodes round-trip under both codecs.

use charm_wire::{wire_struct, Codec, EncodePool, WireBytes};

#[derive(PartialEq, Debug, Clone)]
struct Payload {
    a: u64,
    b: Vec<i32>,
    s: String,
}
wire_struct! { Payload { a, b, s } }

fn sample() -> Payload {
    Payload {
        a: 0xDEAD_BEEF,
        b: (0..64).collect(),
        s: "shared payload".into(),
    }
}

/// Model of a same-PE multicast fan-out: the runtime encodes once and
/// clones the handle per member. Every member must see the *same*
/// allocation — a clone that deep-copied would break pointer equality.
#[test]
fn multicast_fanout_shares_one_allocation() {
    let bytes = Codec::Fast.encode_shared(&sample());
    let members: Vec<WireBytes> = (0..16).map(|_| bytes.clone()).collect();
    assert_eq!(bytes.ref_count(), 17);
    for m in &members {
        assert!(
            WireBytes::ptr_eq(&bytes, m),
            "fan-out member does not share the sender's allocation"
        );
        let decoded: Payload = Codec::Fast.decode(m).unwrap();
        assert_eq!(decoded, sample());
    }
    drop(members);
    assert_eq!(bytes.ref_count(), 1);
}

#[test]
fn encode_shared_matches_plain_encode() {
    for codec in [Codec::Fast, Codec::Pickle] {
        let shared = codec.encode_shared(&sample());
        let plain = codec.encode(&sample());
        assert_eq!(&shared[..], &plain[..]);
        let decoded: Payload = codec.decode(&shared).unwrap();
        assert_eq!(decoded, sample());
    }
}

#[test]
fn explicit_pool_is_reused_across_encodes() {
    let mut pool = EncodePool::new();
    for _ in 0..8 {
        let b = Codec::Fast.encode_shared_with(&mut pool, &sample());
        let decoded: Payload = Codec::Fast.decode(&b).unwrap();
        assert_eq!(decoded.a, 0xDEAD_BEEF);
    }
    assert_eq!(
        pool.misses(),
        1,
        "only the first encode should allocate scratch"
    );
    assert_eq!(pool.hits(), 7);
    assert!(
        pool.with_scratch(|buf| buf.is_empty() && buf.capacity() >= 256),
        "the scratch is kept across encodes and handed out cleared"
    );
}

/// A payload whose encode outgrows `MAX_POOLED_CAP` does not pin its
/// scratch: the next encode starts from a fresh, small buffer (a miss).
#[test]
fn oversized_scratch_is_dropped_after_its_encode() {
    use charm_wire::pool::MAX_POOLED_CAP;
    let mut pool = EncodePool::new();
    let huge = vec![7u8; MAX_POOLED_CAP + 1];
    Codec::Fast.encode_shared_with(&mut pool, &huge);
    Codec::Fast.encode_shared_with(&mut pool, &sample());
    assert_eq!((pool.hits(), pool.misses()), (0, 2), "oversize was kept");
    assert!(pool.with_scratch(|buf| buf.capacity()) <= MAX_POOLED_CAP);
}
