//! The *fast* format: compact and schema-static.
//!
//! This is the analog of Charm++'s native message packing: both sides know
//! the message type, so nothing self-describing is written — no field names,
//! no type tags. Integers are varint/zigzag encoded, floats are little-endian,
//! enum variants are encoded by index, struct fields are positional.
//!
//! The format is not self-describing: decoding with the wrong type is
//! detected only probabilistically (usually as `Eof` or `InvalidLength`).

use crate::codec::{Reader, Writer};
use crate::error::{Result, WireError};
use crate::varint;

/// [`Writer`] for the fast format, appending to a byte vector.
pub struct FastWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> FastWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> FastWriter<'a> {
        FastWriter { out }
    }
}

impl Writer for FastWriter<'_> {
    #[inline]
    fn put_bool(&mut self, v: bool) {
        self.out.push(v as u8);
    }
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.out.push(v);
    }
    #[inline]
    fn put_i8(&mut self, v: i8) {
        self.out.push(v as u8);
    }
    #[inline]
    fn put_uint(&mut self, v: u64) {
        varint::write_u64(self.out, v);
    }
    #[inline]
    fn put_int(&mut self, v: i64) {
        varint::write_u64(self.out, varint::zigzag(v));
    }
    fn put_u128(&mut self, v: u128) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i128(&mut self, v: i128) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_f32(&mut self, v: f32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn put_char(&mut self, v: char) {
        self.put_uint(v as u64);
    }
    fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
    fn put_bytes(&mut self, v: &[u8]) {
        self.put_uint(v.len() as u64);
        self.out.extend_from_slice(v);
    }
    #[inline]
    fn put_unit(&mut self) {}
    #[inline]
    fn put_option(&mut self, some: bool) {
        self.out.push(some as u8);
    }
    #[inline]
    fn begin_seq(&mut self, len: usize) {
        self.put_uint(len as u64);
    }
    #[inline]
    fn begin_tuple(&mut self, _len: usize) {}
    #[inline]
    fn begin_map(&mut self, len: usize) {
        self.put_uint(len as u64);
    }
    #[inline]
    fn begin_struct(&mut self, _name: &'static str, _fields: usize) {}
    #[inline]
    fn field(&mut self, _name: &'static str) {}
    #[inline]
    fn begin_variant(&mut self, _ty: &'static str, index: u32, _variant: &'static str) {
        self.put_uint(index as u64);
    }
}

/// [`Reader`] for the fast format over a borrowed byte slice.
pub struct FastReader<'a> {
    input: &'a [u8],
}

impl<'a> FastReader<'a> {
    /// A reader over `input`.
    pub fn new(input: &'a [u8]) -> FastReader<'a> {
        FastReader { input }
    }

    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.input.len() < n {
            return Err(WireError::Eof);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    #[inline]
    fn get_len(&mut self) -> Result<usize> {
        let v = self.get_uint()?;
        // Lengths may never exceed the remaining input (1 byte per element
        // minimum does not hold for unit-element seqs, but a sanity cap of
        // the full input length plus slack catches corrupt frames early).
        if v > (self.input.len() as u64).saturating_add(1 << 20) {
            return Err(WireError::InvalidLength(v));
        }
        Ok(v as usize)
    }
}

impl Reader for FastReader<'_> {
    #[inline]
    fn remaining(&self) -> usize {
        self.input.len()
    }
    fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::BadTag(other)),
        }
    }
    #[inline]
    fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    #[inline]
    fn get_i8(&mut self) -> Result<i8> {
        Ok(self.get_u8()? as i8)
    }
    #[inline]
    fn get_uint(&mut self) -> Result<u64> {
        let (v, used) = varint::read_u64(self.input)?;
        self.input = &self.input[used..];
        Ok(v)
    }
    #[inline]
    fn get_int(&mut self) -> Result<i64> {
        Ok(varint::unzigzag(self.get_uint()?))
    }
    fn get_u128(&mut self) -> Result<u128> {
        Ok(u128::from_le_bytes(self.take_array()?))
    }
    fn get_i128(&mut self) -> Result<i128> {
        Ok(i128::from_le_bytes(self.take_array()?))
    }
    #[inline]
    fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take_array()?))
    }
    #[inline]
    fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }
    fn get_char(&mut self) -> Result<char> {
        let raw = self.get_uint()?;
        let raw32 = u32::try_from(raw).map_err(|_| WireError::BadChar(u32::MAX))?;
        char::from_u32(raw32).ok_or(WireError::BadChar(raw32))
    }
    fn get_str(&mut self) -> Result<&str> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError::Utf8)
    }
    fn get_bytes(&mut self) -> Result<&[u8]> {
        let len = self.get_len()?;
        self.take(len)
    }
    #[inline]
    fn get_unit(&mut self) -> Result<()> {
        Ok(())
    }
    fn get_option(&mut self) -> Result<bool> {
        self.get_bool()
    }
    fn begin_seq(&mut self) -> Result<usize> {
        self.get_len()
    }
    #[inline]
    fn begin_tuple(&mut self, _len: usize) -> Result<()> {
        Ok(())
    }
    fn begin_map(&mut self) -> Result<usize> {
        self.get_len()
    }
    #[inline]
    fn begin_struct(
        &mut self,
        _name: &'static str,
        fields: &'static [&'static str],
    ) -> Result<usize> {
        Ok(fields.len())
    }
    #[inline]
    fn field(&mut self, i: usize, _fields: &'static [&'static str]) -> Result<Option<usize>> {
        Ok(Some(i))
    }
    fn variant(&mut self, _ty: &'static str, variants: &'static [&'static str]) -> Result<u32> {
        let index = self.get_uint()?;
        if index >= variants.len() as u64 {
            return Err(WireError::InvalidLength(index));
        }
        Ok(index as u32)
    }
}
