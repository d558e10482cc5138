//! Error type shared by the wire codecs.

use std::fmt;

/// Error produced while decoding a message (encoding cannot fail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a complete value could be decoded.
    Eof,
    /// A length, variant index or tag was out of the representable range.
    InvalidLength(u64),
    /// An unknown type tag was encountered (self-describing codec only).
    BadTag(u8),
    /// A varint was longer than the maximum encodable width.
    VarintOverflow,
    /// A string was not valid UTF-8.
    Utf8,
    /// A `char` value was not a valid Unicode scalar.
    BadChar(u32),
    /// The decoded value did not match what the caller asked for.
    TypeMismatch {
        /// What the decoder found on the wire.
        found: &'static str,
        /// What the caller expected.
        expected: &'static str,
    },
    /// Trailing bytes remained after decoding a complete value.
    TrailingBytes(usize),
    /// The input nests deeper than the self-describing reader will walk
    /// while skipping a value the reading type does not declare.
    TooDeep,
    /// A struct field the reading type requires was absent from the input
    /// (self-describing format only).
    MissingField(&'static str),
    /// The input named a variant the reading enum (named here) does not
    /// declare (self-describing format only).
    UnknownVariant(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of input"),
            WireError::InvalidLength(n) => write!(f, "invalid length {n}"),
            WireError::BadTag(t) => write!(f, "unknown type tag {t:#04x}"),
            WireError::VarintOverflow => write!(f, "varint overflow"),
            WireError::Utf8 => write!(f, "invalid utf-8 in string"),
            WireError::BadChar(c) => write!(f, "invalid char scalar {c:#x}"),
            WireError::TypeMismatch { found, expected } => {
                write!(f, "type mismatch: found {found}, expected {expected}")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::TooDeep => write!(f, "value nested too deeply to skip"),
            WireError::MissingField(name) => write!(f, "missing field `{name}`"),
            WireError::UnknownVariant(ty) => write!(f, "unknown variant of enum `{ty}`"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire decoding.
pub type Result<T> = std::result::Result<T, WireError>;
