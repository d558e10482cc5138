//! The *pickle* format: self-describing and name-carrying.
//!
//! This is the analog of Python's pickle as used by CharmPy for arbitrary
//! method arguments (paper §IV-B): every value carries a type tag, structs
//! carry their type and field names, and enums carry variant names. Decoding
//! compares those names (so a reader may declare fields in another order,
//! or not at all), which makes this format genuinely slower than
//! [`crate::fast`] — the same relationship pickle has to Charm++'s native
//! packing. The dynamic dispatch mode of the runtime uses this format; the
//! ablation benches compare the two directly.

use crate::codec::{Reader, Writer};
use crate::error::{Result, WireError};
use crate::fast::{FastReader, FastWriter};

// Type tags. Every serialized value begins with one of these.
const T_UNIT: u8 = 0x00;
const T_FALSE: u8 = 0x01;
const T_TRUE: u8 = 0x02;
const T_INT: u8 = 0x03; // zigzag varint i64
const T_UINT: u8 = 0x04; // varint u64
const T_F32: u8 = 0x05;
const T_F64: u8 = 0x06;
const T_CHAR: u8 = 0x07;
const T_STR: u8 = 0x08;
const T_BYTES: u8 = 0x09;
const T_LIST: u8 = 0x0a; // varint len, then tagged values
const T_MAP: u8 = 0x0b; // varint len, then (tagged key, tagged value)
const T_STRUCT: u8 = 0x0c; // name, varint len, then (field name, tagged value)
const T_ENUM: u8 = 0x0d; // enum name, variant name, tagged payload
const T_SOME: u8 = 0x0e; // tagged inner value
const T_NONE: u8 = 0x0f;
const T_I128: u8 = 0x10; // 16 LE bytes
const T_U128: u8 = 0x11; // 16 LE bytes

/// Human name of each tag, indexed by tag value (for `TypeMismatch`).
const TAG_NAMES: [&str; 18] = [
    "unit", "bool", "bool", "int", "uint", "f32", "f64", "char", "str", "bytes", "list", "map",
    "struct", "enum", "some", "none", "i128", "u128",
];

/// Deepest nesting [`PickleReader`] will walk while skipping a value the
/// reading type does not declare; hostile nesting ends in a typed error
/// instead of exhausting the stack.
const MAX_SKIP_DEPTH: u32 = 64;

/// [`Writer`] for the pickle format, appending to a byte vector: a tag,
/// then the value exactly as the fast format writes it.
pub struct PickleWriter<'a> {
    raw: FastWriter<'a>,
}

impl<'a> PickleWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> PickleWriter<'a> {
        PickleWriter {
            raw: FastWriter::new(out),
        }
    }

    fn tag(&mut self, tag: u8) -> &mut FastWriter<'a> {
        self.raw.put_u8(tag);
        &mut self.raw
    }
}

impl Writer for PickleWriter<'_> {
    fn put_bool(&mut self, v: bool) {
        self.tag(if v { T_TRUE } else { T_FALSE });
    }
    fn put_u8(&mut self, v: u8) {
        self.put_uint(v as u64);
    }
    fn put_i8(&mut self, v: i8) {
        self.put_int(v as i64);
    }
    fn put_uint(&mut self, v: u64) {
        self.tag(T_UINT).put_uint(v);
    }
    fn put_int(&mut self, v: i64) {
        self.tag(T_INT).put_int(v);
    }
    fn put_u128(&mut self, v: u128) {
        self.tag(T_U128).put_u128(v);
    }
    fn put_i128(&mut self, v: i128) {
        self.tag(T_I128).put_i128(v);
    }
    fn put_f32(&mut self, v: f32) {
        self.tag(T_F32).put_f32(v);
    }
    fn put_f64(&mut self, v: f64) {
        self.tag(T_F64).put_f64(v);
    }
    fn put_char(&mut self, v: char) {
        self.tag(T_CHAR).put_char(v);
    }
    fn put_str(&mut self, v: &str) {
        self.tag(T_STR).put_str(v);
    }
    fn put_bytes(&mut self, v: &[u8]) {
        self.tag(T_BYTES).put_bytes(v);
    }
    fn put_unit(&mut self) {
        self.tag(T_UNIT);
    }
    fn put_option(&mut self, some: bool) {
        self.tag(if some { T_SOME } else { T_NONE });
    }
    fn begin_seq(&mut self, len: usize) {
        self.tag(T_LIST).put_uint(len as u64);
    }
    fn begin_tuple(&mut self, len: usize) {
        self.begin_seq(len);
    }
    fn begin_map(&mut self, len: usize) {
        self.tag(T_MAP).put_uint(len as u64);
    }
    fn begin_struct(&mut self, name: &'static str, fields: usize) {
        // Names (struct, field, enum, variant) are untagged strings.
        self.tag(T_STRUCT).put_str(name);
        self.raw.put_uint(fields as u64);
    }
    fn field(&mut self, name: &'static str) {
        self.raw.put_str(name);
    }
    fn begin_variant(&mut self, ty: &'static str, _index: u32, variant: &'static str) {
        self.tag(T_ENUM).put_str(ty);
        self.raw.put_str(variant);
    }
}

/// [`Reader`] for the pickle format over a borrowed byte slice: checks the
/// tag, then reads the value exactly as the fast format does.
pub struct PickleReader<'a> {
    raw: FastReader<'a>,
}

impl<'a> PickleReader<'a> {
    /// A reader over `input`.
    pub fn new(input: &'a [u8]) -> PickleReader<'a> {
        PickleReader {
            raw: FastReader::new(input),
        }
    }

    /// A count of things that each occupy at least one input byte, so a
    /// count past the remaining input is a lie, not a big value.
    fn len(&mut self) -> Result<usize> {
        let v = self.raw.get_uint()?;
        if v > self.raw.remaining() as u64 {
            return Err(WireError::InvalidLength(v));
        }
        Ok(v as usize)
    }

    fn tag(&mut self) -> Result<u8> {
        let t = self.raw.get_u8()?;
        if t as usize >= TAG_NAMES.len() {
            return Err(WireError::BadTag(t));
        }
        Ok(t)
    }

    /// Consume the tag `want` (or report what was there instead) and hand
    /// back the untagged reader for the value.
    fn expect(&mut self, want: u8) -> Result<&mut FastReader<'a>> {
        let t = self.tag()?;
        if t != want {
            return Err(WireError::TypeMismatch {
                found: TAG_NAMES[t as usize],
                expected: TAG_NAMES[want as usize],
            });
        }
        Ok(&mut self.raw)
    }

    /// Walk past one tagged value of any shape.
    fn skip(&mut self, depth: u32) -> Result<()> {
        if depth > MAX_SKIP_DEPTH {
            return Err(WireError::TooDeep);
        }
        match self.tag()? {
            T_UNIT | T_FALSE | T_TRUE | T_NONE => {}
            T_INT | T_UINT => {
                self.raw.get_uint()?;
            }
            T_CHAR => {
                self.raw.get_char()?;
            }
            T_F32 => {
                self.raw.take(4)?;
            }
            T_F64 => {
                self.raw.take(8)?;
            }
            T_I128 | T_U128 => {
                self.raw.take(16)?;
            }
            T_STR => {
                self.raw.get_str()?;
            }
            T_BYTES => {
                self.raw.get_bytes()?;
            }
            T_SOME => self.skip(depth + 1)?,
            T_LIST => {
                for _ in 0..self.len()? {
                    self.skip(depth + 1)?;
                }
            }
            T_MAP => {
                for _ in 0..self.len()? {
                    self.skip(depth + 1)?;
                    self.skip(depth + 1)?;
                }
            }
            T_STRUCT => {
                self.raw.get_str()?;
                for _ in 0..self.len()? {
                    self.raw.get_str()?;
                    self.skip(depth + 1)?;
                }
            }
            T_ENUM => {
                self.raw.get_str()?;
                self.raw.get_str()?;
                self.skip(depth + 1)?;
            }
            // `tag()` admits only the tags named above.
            other => return Err(WireError::BadTag(other)),
        }
        Ok(())
    }
}

impl Reader for PickleReader<'_> {
    fn remaining(&self) -> usize {
        self.raw.remaining()
    }
    fn get_bool(&mut self) -> Result<bool> {
        match self.tag()? {
            T_FALSE => Ok(false),
            T_TRUE => Ok(true),
            t => Err(WireError::TypeMismatch {
                found: TAG_NAMES[t as usize],
                expected: "bool",
            }),
        }
    }
    fn get_u8(&mut self) -> Result<u8> {
        u8::try_from(self.get_uint()?).map_err(|_| WireError::TypeMismatch {
            found: "integer out of range",
            expected: "u8",
        })
    }
    fn get_i8(&mut self) -> Result<i8> {
        i8::try_from(self.get_int()?).map_err(|_| WireError::TypeMismatch {
            found: "integer out of range",
            expected: "i8",
        })
    }
    fn get_uint(&mut self) -> Result<u64> {
        self.expect(T_UINT)?.get_uint()
    }
    fn get_int(&mut self) -> Result<i64> {
        self.expect(T_INT)?.get_int()
    }
    fn get_u128(&mut self) -> Result<u128> {
        self.expect(T_U128)?.get_u128()
    }
    fn get_i128(&mut self) -> Result<i128> {
        self.expect(T_I128)?.get_i128()
    }
    fn get_f32(&mut self) -> Result<f32> {
        self.expect(T_F32)?.get_f32()
    }
    fn get_f64(&mut self) -> Result<f64> {
        self.expect(T_F64)?.get_f64()
    }
    fn get_char(&mut self) -> Result<char> {
        self.expect(T_CHAR)?.get_char()
    }
    fn get_str(&mut self) -> Result<&str> {
        self.expect(T_STR)?.get_str()
    }
    fn get_bytes(&mut self) -> Result<&[u8]> {
        self.expect(T_BYTES)?.get_bytes()
    }
    fn get_unit(&mut self) -> Result<()> {
        self.expect(T_UNIT).map(drop)
    }
    fn get_option(&mut self) -> Result<bool> {
        match self.tag()? {
            T_NONE => Ok(false),
            T_SOME => Ok(true),
            t => Err(WireError::TypeMismatch {
                found: TAG_NAMES[t as usize],
                expected: "option",
            }),
        }
    }
    fn begin_seq(&mut self) -> Result<usize> {
        self.expect(T_LIST)?;
        self.len()
    }
    fn begin_tuple(&mut self, len: usize) -> Result<()> {
        let found = self.expect(T_LIST)?.get_uint()?;
        if found != len as u64 {
            return Err(WireError::InvalidLength(found));
        }
        Ok(())
    }
    fn begin_map(&mut self) -> Result<usize> {
        self.expect(T_MAP)?;
        self.len()
    }
    fn begin_struct(
        &mut self,
        _name: &'static str,
        _fields: &'static [&'static str],
    ) -> Result<usize> {
        // Like pickle's dict-based state, the struct name is informational.
        self.expect(T_STRUCT)?.get_str()?;
        self.len()
    }
    fn field(&mut self, _i: usize, fields: &'static [&'static str]) -> Result<Option<usize>> {
        let name = self.raw.get_str()?;
        let found = fields.iter().position(|f| *f == name);
        if found.is_none() {
            self.skip(0)?;
        }
        Ok(found)
    }
    fn variant(&mut self, ty: &'static str, variants: &'static [&'static str]) -> Result<u32> {
        self.expect(T_ENUM)?.get_str()?;
        let name = self.raw.get_str()?;
        variants
            .iter()
            .position(|v| *v == name)
            .map(|i| i as u32)
            .ok_or(WireError::UnknownVariant(ty))
    }
}
