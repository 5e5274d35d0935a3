use std::error::Error;
use std::fmt;

/// Errors produced by the media substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MediaError {
    /// An encoded frame did not start with the codec magic bytes.
    BadMagic {
        /// The bytes actually found at the start of the buffer.
        found: [u8; 4],
    },
    /// The encoded buffer ended before the declared pixel data was complete.
    Truncated {
        /// Number of bytes that were available.
        available: usize,
        /// Number of bytes the decoder needed next.
        needed: usize,
    },
    /// A frame dimension was zero or implausibly large.
    BadDimensions {
        /// Declared width in pixels.
        width: u32,
        /// Declared height in pixels.
        height: u32,
    },
    /// The decoder produced a different number of pixels than the header
    /// declared — the stream is corrupt.
    PixelCountMismatch {
        /// Pixels the header promised.
        expected: usize,
        /// Pixels actually decoded.
        actual: usize,
    },
    /// The codec version in the header is not supported by this build.
    UnsupportedVersion(u8),
    /// The quantisation shift in the header is larger than 7.
    BadShift(u8),
    /// A [`FrameId`](crate::FrameId) was not present in the frame store
    /// (already released, evicted, or never inserted).
    UnknownFrame(u64),
}

impl fmt::Display for MediaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaError::BadMagic { found } => {
                write!(f, "encoded frame has bad magic bytes {found:?}")
            }
            MediaError::Truncated { available, needed } => write!(
                f,
                "encoded frame truncated: {available} bytes available, {needed} needed"
            ),
            MediaError::BadDimensions { width, height } => {
                write!(f, "invalid frame dimensions {width}x{height}")
            }
            MediaError::PixelCountMismatch { expected, actual } => write!(
                f,
                "decoded pixel count {actual} does not match header {expected}"
            ),
            MediaError::UnsupportedVersion(v) => {
                write!(f, "unsupported codec version {v}")
            }
            MediaError::BadShift(shift) => {
                write!(f, "quantisation shift {shift} is larger than 7")
            }
            MediaError::UnknownFrame(id) => {
                write!(f, "frame id {id} not found in frame store")
            }
        }
    }
}

impl Error for MediaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = [
            MediaError::BadMagic { found: [0; 4] },
            MediaError::Truncated {
                available: 1,
                needed: 2,
            },
            MediaError::BadDimensions {
                width: 0,
                height: 0,
            },
            MediaError::PixelCountMismatch {
                expected: 10,
                actual: 5,
            },
            MediaError::UnsupportedVersion(9),
            MediaError::BadShift(8),
            MediaError::UnknownFrame(3),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
            assert!(!format!("{v:?}").is_empty());
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<MediaError>();
    }
}
