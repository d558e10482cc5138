//! Number formatting for the exporters: decimal integers and nanoseconds
//! as microseconds, appended to the artifact's one output buffer without
//! going through `format!`.

use std::fmt::Write;

/// `"00" ..= "99"`: two digits a step halve the chain of divisions.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append `v` in decimal.
pub(crate) fn push_dec(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 10 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    // What is left is one digit, unless `v` was two digits a pair.
    if v > 0 || i == buf.len() {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend(buf[i..].iter().map(|&b| char::from(b)));
}

/// From here up the integer path and `{:.3}` of the float can differ, so
/// [`push_us`] falls back to the float. Below it, `ns as f64` is exact
/// (`1000 * 2^43 < 2^53`), the division is correctly rounded, and the
/// quotient is under `2^43`, where doubles are at most `2^-10` apart: it
/// lies within `2^-11 < 0.0005` of the true `ns / 1000`, which is itself a
/// multiple of 0.001, so rounding the double to three places gives back
/// exactly the integer quotient and remainder. At `2^43` microseconds
/// (about 102 days) the spacing doubles and the argument ends at once: the
/// float prints `FLOAT_FROM_NS + 1` as `...208.002`.
const FLOAT_FROM_NS: u64 = 1000 << 43;

/// Append `ns` nanoseconds as microseconds with three decimals: the bytes
/// of `format!("{:.3}", ns as f64 / 1000.0)`.
pub(crate) fn push_us(out: &mut String, ns: u64) {
    if ns < FLOAT_FROM_NS {
        let frac = ns % 1000;
        push_dec(out, ns / 1000);
        out.push('.');
        for digit in [frac / 100, frac / 10 % 10, frac % 10] {
            out.push(char::from(b'0' + digit as u8));
        }
    } else {
        // `fmt::Write` for `String` cannot fail.
        let _ = write!(out, "{:.3}", ns as f64 / 1000.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(ns: u64) -> String {
        let mut out = String::new();
        push_us(&mut out, ns);
        out
    }

    fn reference(ns: u64) -> String {
        format!("{:.3}", ns as f64 / 1000.0)
    }

    #[test]
    fn push_dec_equals_display() {
        let powers = (0..20).map(|k| 10u64.pow(k));
        let edges = powers.flat_map(|p| {
            [
                p - 1,
                p,
                p + 1,
                p.saturating_mul(2) - 1,
                p.saturating_mul(5),
            ]
        });
        let mut state = 0xdec_u64;
        let seeded = (0..10_000).map(|i: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> (i % 64)
        });
        for v in edges.chain([u64::from(u32::MAX), u64::MAX]).chain(seeded) {
            let mut out = String::from("x");
            push_dec(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn push_us_equals_the_float_format_at_every_magnitude() {
        assert_eq!(us(0), "0.000");
        for shift in 0..64 {
            let p = 1u64 << shift;
            for ns in [p - 1, p, p.saturating_add(1)] {
                assert_eq!(us(ns), reference(ns), "ns={ns}");
            }
        }
        assert_eq!(us(u64::MAX), reference(u64::MAX));
        // Both sides of the hand-over, and the remainders that sit on a
        // rounding edge just below it.
        for ns in FLOAT_FROM_NS - 5_000..FLOAT_FROM_NS + 5_000 {
            assert_eq!(us(ns), reference(ns), "ns={ns}");
        }
    }

    #[test]
    fn push_us_equals_the_float_format_on_seeded_values() {
        let seed = 0x75_5eed_u64;
        let mut state = seed;
        for i in 0..1_000_000u32 {
            // splitmix64, shifted so every magnitude is drawn.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let ns = z >> (i % 64);
            assert_eq!(us(ns), reference(ns), "seed {seed:#x} draw {i}: ns={ns}");
        }
    }
}
