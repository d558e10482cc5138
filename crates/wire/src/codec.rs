//! The [`Wire`] trait and the [`Writer`]/[`Reader`] pair it is written
//! against.
//!
//! A type describes its shape once (`encode` walks the value, `decode`
//! rebuilds it) and the two formats decide what each shape costs on the
//! wire: the compact format ([`crate::fast`]) writes values only, the
//! self-describing format ([`crate::pickle`]) tags every value and names
//! every struct, field and variant. The trait covers exactly the shapes the
//! runtime's messages use — scalars, strings, options, sequences, tuples,
//! maps, structs and enums — and nothing else.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use crate::error::{Result, WireError};

/// Sink for one encoded value. Scalars map to one call each; compound
/// shapes open with a `begin_*` call and are followed by their parts.
pub trait Writer {
    /// A boolean.
    fn put_bool(&mut self, v: bool);
    /// A `u8` (one raw byte in the compact format).
    fn put_u8(&mut self, v: u8);
    /// An `i8` (one raw byte in the compact format).
    fn put_i8(&mut self, v: i8);
    /// Any wider unsigned integer.
    fn put_uint(&mut self, v: u64);
    /// Any wider signed integer.
    fn put_int(&mut self, v: i64);
    /// A `u128`.
    fn put_u128(&mut self, v: u128);
    /// An `i128`.
    fn put_i128(&mut self, v: i128);
    /// An `f32`.
    fn put_f32(&mut self, v: f32);
    /// An `f64`.
    fn put_f64(&mut self, v: f64);
    /// A `char`.
    fn put_char(&mut self, v: char);
    /// A string.
    fn put_str(&mut self, v: &str);
    /// One raw byte block (the `Buf<T>` / `WireBytes` bypass).
    fn put_bytes(&mut self, v: &[u8]);
    /// The unit value (also the payload of a unit enum variant).
    fn put_unit(&mut self);
    /// Option discriminant; a `Some` is followed by its value.
    fn put_option(&mut self, some: bool);
    /// A variable-length sequence of `len` values.
    fn begin_seq(&mut self, len: usize);
    /// A fixed-arity tuple (tuple, array, tuple struct, tuple variant).
    fn begin_tuple(&mut self, len: usize);
    /// A map of `len` key/value pairs.
    fn begin_map(&mut self, len: usize);
    /// A struct with `fields` fields; each is a [`Writer::field`] call
    /// followed by the value.
    fn begin_struct(&mut self, name: &'static str, fields: usize);
    /// The name of the struct field whose value follows.
    fn field(&mut self, name: &'static str);
    /// An enum variant; followed by its payload (unit, the single value of
    /// a one-field variant, a tuple, or a struct named after the variant).
    fn begin_variant(&mut self, ty: &'static str, index: u32, variant: &'static str);
}

/// Source of one encoded value; the mirror of [`Writer`]. Every method
/// returns a typed [`WireError`] on malformed input and never allocates
/// from an unchecked length.
pub trait Reader {
    /// Bytes of input not yet consumed.
    fn remaining(&self) -> usize;
    /// A boolean.
    fn get_bool(&mut self) -> Result<bool>;
    /// A `u8`.
    fn get_u8(&mut self) -> Result<u8>;
    /// An `i8`.
    fn get_i8(&mut self) -> Result<i8>;
    /// Any wider unsigned integer.
    fn get_uint(&mut self) -> Result<u64>;
    /// Any wider signed integer.
    fn get_int(&mut self) -> Result<i64>;
    /// A `u128`.
    fn get_u128(&mut self) -> Result<u128>;
    /// An `i128`.
    fn get_i128(&mut self) -> Result<i128>;
    /// An `f32`.
    fn get_f32(&mut self) -> Result<f32>;
    /// An `f64`.
    fn get_f64(&mut self) -> Result<f64>;
    /// A `char`.
    fn get_char(&mut self) -> Result<char>;
    /// A string, borrowed from the input.
    fn get_str(&mut self) -> Result<&str>;
    /// One raw byte block, borrowed from the input.
    fn get_bytes(&mut self) -> Result<&[u8]>;
    /// The unit value.
    fn get_unit(&mut self) -> Result<()>;
    /// Option discriminant: `true` means a value follows.
    fn get_option(&mut self) -> Result<bool>;
    /// Sequence header: the element count.
    fn begin_seq(&mut self) -> Result<usize>;
    /// Tuple header for a tuple the caller knows has `len` parts.
    fn begin_tuple(&mut self, len: usize) -> Result<()>;
    /// Map header: the pair count.
    fn begin_map(&mut self) -> Result<usize>;
    /// Struct header: how many `(field, value)` entries follow.
    fn begin_struct(
        &mut self,
        name: &'static str,
        fields: &'static [&'static str],
    ) -> Result<usize>;
    /// Which of `fields` the `i`-th entry holds. The compact format is
    /// positional (`Some(i)`); the self-describing one looks the wire name
    /// up, and for a name the reader does not know skips the value and
    /// returns `None`.
    fn field(&mut self, i: usize, fields: &'static [&'static str]) -> Result<Option<usize>>;
    /// Enum header: the index into `variants` of the variant whose payload
    /// follows.
    fn variant(&mut self, ty: &'static str, variants: &'static [&'static str]) -> Result<u32>;
}

/// A value with a wire representation under both formats.
pub trait Wire: Sized {
    /// Write `self` to `w`. Encoding cannot fail: a type has a wire form
    /// or it does not implement `Wire`. Only decoding, which reads bytes
    /// from outside the process, returns an error.
    fn encode<W: Writer>(&self, w: &mut W);
    /// Read one value from `r`.
    fn decode<R: Reader>(r: &mut R) -> Result<Self>;
}

fn out_of_range(expected: &'static str) -> WireError {
    WireError::TypeMismatch {
        found: "integer out of range",
        expected,
    }
}

macro_rules! wire_scalar {
    ($($t:ty => $put:ident, $get:ident;)*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode<W: Writer>(&self, w: &mut W) {
                w.$put(*self);
            }
            #[inline]
            fn decode<R: Reader>(r: &mut R) -> Result<Self> {
                r.$get()
            }
        }
    )*};
}

wire_scalar! {
    bool => put_bool, get_bool;
    u8 => put_u8, get_u8;
    i8 => put_i8, get_i8;
    u64 => put_uint, get_uint;
    i64 => put_int, get_int;
    u128 => put_u128, get_u128;
    i128 => put_i128, get_i128;
    f32 => put_f32, get_f32;
    f64 => put_f64, get_f64;
    char => put_char, get_char;
}

macro_rules! wire_narrow_int {
    ($($t:ty => $wide:ty, $put:ident, $get:ident;)*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode<W: Writer>(&self, w: &mut W) {
                w.$put(*self as $wide);
            }
            #[inline]
            fn decode<R: Reader>(r: &mut R) -> Result<Self> {
                <$t>::try_from(r.$get()?).map_err(|_| out_of_range(stringify!($t)))
            }
        }
    )*};
}

wire_narrow_int! {
    u16 => u64, put_uint, get_uint;
    u32 => u64, put_uint, get_uint;
    usize => u64, put_uint, get_uint;
    i16 => i64, put_int, get_int;
    i32 => i64, put_int, get_int;
}

impl Wire for () {
    fn encode<W: Writer>(&self, w: &mut W) {
        w.put_unit();
    }
    fn decode<R: Reader>(r: &mut R) -> Result<Self> {
        r.get_unit()
    }
}

impl Wire for String {
    fn encode<W: Writer>(&self, w: &mut W) {
        w.put_str(self);
    }
    fn decode<R: Reader>(r: &mut R) -> Result<Self> {
        r.get_str().map(str::to_owned)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode<W: Writer>(&self, w: &mut W) {
        (**self).encode(w);
    }
    fn decode<R: Reader>(r: &mut R) -> Result<Self> {
        T::decode(r).map(Box::new)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode<W: Writer>(&self, w: &mut W) {
        w.put_option(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }
    fn decode<R: Reader>(r: &mut R) -> Result<Self> {
        if r.get_option()? {
            T::decode(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode<W: Writer>(&self, w: &mut W) {
        w.begin_seq(self.len());
        self.iter().for_each(|v| v.encode(w));
    }
    fn decode<R: Reader>(r: &mut R) -> Result<Self> {
        let len = r.begin_seq()?;
        // The claimed length is untrusted: reserve no more slots than the
        // input has bytes left, and let a lying length run into `Eof`.
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode<W: Writer>(&self, w: &mut W) {
        w.begin_tuple(N);
        self.iter().for_each(|v| v.encode(w));
    }
    fn decode<R: Reader>(r: &mut R) -> Result<Self> {
        r.begin_tuple(N)?;
        // In place, no allocation (particle coordinates decode through
        // here); the first error stops further reads.
        let mut failed = None;
        let parts: [Option<T>; N] = std::array::from_fn(|_| {
            if failed.is_some() {
                return None;
            }
            T::decode(r).map_err(|e| failed = Some(e)).ok()
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(parts.map(|p| p.expect("every part decoded when none failed"))),
        }
    }
}

macro_rules! wire_tuple {
    ($len:expr; $($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn encode<W: Writer>(&self, w: &mut W) {
                w.begin_tuple($len);
                $(self.$i.encode(w);)+
            }
            fn decode<R: Reader>(r: &mut R) -> Result<Self> {
                r.begin_tuple($len)?;
                Ok(($($t::decode(r)?,)+))
            }
        }
    };
}

wire_tuple!(2; A 0, B 1);
wire_tuple!(3; A 0, B 1, C 2);

macro_rules! wire_map {
    ($map:ident: $($bound:tt)+) => {
        impl<K: Wire + $($bound)+, V: Wire> Wire for $map<K, V> {
            fn encode<W: Writer>(&self, w: &mut W) {
                w.begin_map(self.len());
                self.iter().for_each(|(k, v)| {
                    k.encode(w);
                    v.encode(w);
                });
            }
            fn decode<R: Reader>(r: &mut R) -> Result<Self> {
                // Grown by insertion: the claimed length reserves nothing.
                let mut out = $map::new();
                for _ in 0..r.begin_map()? {
                    let k = K::decode(r)?;
                    out.insert(k, V::decode(r)?);
                }
                Ok(out)
            }
        }
    };
}

wire_map!(BTreeMap: Ord);
wire_map!(HashMap: Eq + Hash);
