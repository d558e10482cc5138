//! Number formatting for the exporters and the `charm-perf` reports:
//! decimal integers, nanoseconds as microseconds and floats to a fixed
//! number of places, appended to one output buffer without going through
//! `format!`, byte for byte what `format!` writes.

use std::fmt::Write;

/// `"00" ..= "99"`: two digits a step halve the chain of divisions.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// `b`, an ASCII byte, as a `char` the compiler knows is ASCII: the mask
/// lets `String::push` store one byte, without the branch for a `char`
/// above 0x7f, which takes two.
#[inline]
fn ascii(b: u8) -> char {
    char::from(b & 0x7f)
}

/// Append `v` in decimal.
pub fn push_dec(out: &mut String, mut v: u64) {
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
    // One capacity test, then a push a digit (~20 % faster a number than
    // `extend` over the bytes; validating them as one `str` is slower).
    out.reserve(buf.len() - i);
    for &b in &buf[i..] {
        out.push(ascii(b));
    }
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
pub(crate) const FLOAT_FROM_NS: u64 = 1000 << 43;

/// Append `ns` nanoseconds as microseconds with three decimals: the bytes
/// of `format!("{:.3}", ns as f64 / 1000.0)`.
pub fn push_us(out: &mut String, ns: u64) {
    if ns < FLOAT_FROM_NS {
        let frac = ns % 1000;
        push_dec(out, ns / 1000);
        out.push('.');
        for digit in [frac / 100, frac / 10 % 10, frac % 10] {
            out.push(ascii(b'0' + digit as u8));
        }
    } else {
        // `fmt::Write` for `String` cannot fail.
        let _ = write!(out, "{:.3}", ns as f64 / 1000.0);
    }
}

/// `10^0 ..= 10^9`.
const TENS: [u64; 10] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Append `v` with `places` digits after the point (at most 9): the bytes
/// of `format!("{v:.places$}")`. That rounds the float's exact binary
/// value to the nearest multiple of `10^-places`, a tie to the even one,
/// and keeps the sign of a negative value that rounds to zero. Here the
/// value is `m * 2^e`, so `v * 10^places` is `m * 10^places` shifted right
/// by `-e` bits: its quotient and remainder in `u128` round exactly. Below
/// `2^53` (`e < 0`, every fraction) and for whole numbers below `2^64`;
/// the float formatter writes the rest.
pub fn push_fixed(out: &mut String, v: f64, places: usize) {
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1 << 52) - 1);
    let (m, e) = match biased {
        0 => (frac, -1074),
        _ => (frac | 1 << 52, biased - 1075),
    };
    let Some(&ten) = TENS.get(places).filter(|_| biased < 0x7ff && e < 12) else {
        // `fmt::Write` for `String` cannot fail.
        let _ = write!(out, "{v:.places$}");
        return;
    };
    let scaled = if e >= 0 {
        u128::from(m << e) * u128::from(ten)
    } else {
        let wide = u128::from(m) * u128::from(ten);
        // Below `2^-128` of a unit the value rounds to zero.
        let shift = e.unsigned_abs().min(127);
        let (q, r, half) = (wide >> shift, wide & ((1 << shift) - 1), 1 << (shift - 1));
        q + u128::from(r > half || r == half && q & 1 == 1)
    };
    if v.is_sign_negative() {
        out.push('-');
    }
    let ten = u128::from(ten);
    push_dec(out, (scaled / ten) as u64);
    if places > 0 {
        out.push('.');
        let digits = (scaled % ten) as u64;
        for k in (0..places).rev() {
            out.push(ascii(b'0' + (digits / TENS[k] % 10) as u8));
        }
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

    fn fixed(v: f64, places: usize) -> String {
        let mut out = String::new();
        push_fixed(&mut out, v, places);
        out
    }

    #[test]
    fn push_fixed_equals_the_float_format() {
        let mut cases = vec![
            0.0,
            -0.0,
            0.125,
            0.375,
            2.5,
            0.5,
            1.5,
            0.0078125,
            -0.0001,
            1e21,
            0.5e-6,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            (1u64 << 53) as f64,
            (1u64 << 63) as f64,
            u64::MAX as f64,
            9_999_999.999_999_5,
        ];
        // Exact ties at every place count, both parities, and neighbours.
        for (places, &ten) in TENS.iter().enumerate() {
            for k in 0..200u64 {
                let tie = (2 * k + 1) as f64 / (2.0 * ten as f64);
                cases.extend([tie, f64::from_bits(tie.to_bits() + 1), -tie]);
                cases.push((k as f64 + 0.5) / (1u64 << (places + 1)) as f64);
            }
        }
        // splitmix64: raw bit patterns, and values of every magnitude.
        let mut state = 0xf1_5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in 0..30_000 {
            let z = next();
            cases.push(f64::from_bits(z));
            cases.push((z >> (i % 64)) as f64 / TENS[i % 10] as f64);
            cases.push(f64::from_bits(z) % 1e7);
        }
        for v in cases {
            for places in 0..10 {
                assert_eq!(
                    fixed(v, places),
                    format!("{v:.places$}"),
                    "{v:e} to {places}"
                );
            }
        }
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
