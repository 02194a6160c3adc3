//! Error types shared across the data model.

use std::fmt;

/// Error produced when parsing a textual representation (ASN, prefix,
/// community, AS path) fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    /// Create a new parse error with a human-readable message.
    pub fn new(message: impl Into<String>) -> Self {
        ParseError { message: message.into() }
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Error produced by the binary wire codecs (BGP attributes, UPDATE bodies,
/// MRT records consume these as their payload layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// How many bytes were needed.
        needed: usize,
        /// How many bytes were available.
        available: usize,
    },
    /// A length field disagrees with the surrounding structure.
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The offending length value.
        value: usize,
    },
    /// A field holds a value the codec cannot interpret.
    BadValue {
        /// What was being decoded.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// An attribute appeared twice in one UPDATE.
    DuplicateAttribute(u8),
    /// An encoder was asked to write a length its field cannot carry.
    TooLong {
        /// What was being encoded.
        what: &'static str,
        /// The length that did not fit.
        len: usize,
        /// The largest length the field can carry.
        max: usize,
    },
}

impl CodecError {
    /// Helper: check `buf` has at least `needed` bytes remaining.
    pub fn ensure(what: &'static str, available: usize, needed: usize) -> Result<(), CodecError> {
        if available < needed {
            Err(CodecError::Truncated { what, needed, available })
        } else {
            Ok(())
        }
    }

    /// Helper: narrow `len` into a 2-byte length field, refusing rather
    /// than truncating a length the field cannot carry.
    pub fn fit_u16(what: &'static str, len: usize) -> Result<u16, CodecError> {
        u16::try_from(len).map_err(|_| CodecError::TooLong { what, len, max: u16::MAX as usize })
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what, needed, available } => {
                write!(f, "truncated {what}: needed {needed} bytes, had {available}")
            }
            CodecError::BadLength { what, value } => {
                write!(f, "bad length for {what}: {value}")
            }
            CodecError::BadValue { what, value } => {
                write!(f, "bad value for {what}: {value}")
            }
            CodecError::DuplicateAttribute(code) => {
                write!(f, "duplicate path attribute with type code {code}")
            }
            CodecError::TooLong { what, len, max } => {
                write!(f, "{what} too long to encode: {len} bytes, field carries at most {max}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_passes_when_enough() {
        assert!(CodecError::ensure("x", 4, 4).is_ok());
        assert!(CodecError::ensure("x", 5, 4).is_ok());
    }

    #[test]
    fn ensure_fails_when_short() {
        let err = CodecError::ensure("prefix", 1, 4).unwrap_err();
        assert_eq!(err, CodecError::Truncated { what: "prefix", needed: 4, available: 1 });
        assert!(err.to_string().contains("prefix"));
    }

    #[test]
    fn display_messages() {
        assert!(ParseError::new("nope").to_string().contains("nope"));
        assert!(CodecError::BadLength { what: "nlri", value: 99 }.to_string().contains("nlri"));
        assert!(CodecError::BadValue { what: "afi", value: 7 }.to_string().contains("afi"));
        assert!(CodecError::DuplicateAttribute(8).to_string().contains('8'));
        let too_long = CodecError::TooLong { what: "communities", len: 70_000, max: 65_535 };
        assert!(too_long.to_string().contains("communities"));
    }
}
