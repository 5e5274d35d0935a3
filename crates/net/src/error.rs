use std::error::Error;
use std::fmt;

/// Errors produced by the messaging substrate.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// The channel/connection was closed by the other side.
    Disconnected,
    /// Non-blocking receive found no message.
    WouldBlock,
    /// Blocking receive timed out.
    Timeout,
    /// An endpoint string could not be parsed.
    BadEndpoint {
        /// The offending endpoint string.
        endpoint: String,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// An inproc channel name was already bound.
    AlreadyBound(String),
    /// An inproc channel name is not bound.
    NotBound(String),
    /// A frame on the wire was malformed.
    BadFrame(&'static str),
    /// A frame exceeded [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN).
    FrameTooLarge {
        /// Declared frame length.
        len: usize,
    },
    /// Underlying I/O failure (TCP transport).
    Io(std::io::Error),
    /// A request did not receive a response in time.
    RequestTimeout {
        /// The service channel the request was sent to.
        service: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::WouldBlock => write!(f, "no message ready"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::BadEndpoint { endpoint, reason } => {
                write!(f, "bad endpoint {endpoint:?}: {reason}")
            }
            NetError::AlreadyBound(name) => write!(f, "channel {name:?} already bound"),
            NetError::NotBound(name) => write!(f, "channel {name:?} not bound"),
            NetError::BadFrame(reason) => write!(f, "malformed frame: {reason}"),
            NetError::FrameTooLarge { len } => write!(f, "frame of {len} bytes exceeds limit"),
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::RequestTimeout { service } => {
                write!(f, "request to service {service:?} timed out")
            }
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_for_all_variants() {
        let variants: Vec<NetError> = vec![
            NetError::Disconnected,
            NetError::WouldBlock,
            NetError::Timeout,
            NetError::BadEndpoint {
                endpoint: "x".into(),
                reason: "nope",
            },
            NetError::AlreadyBound("a".into()),
            NetError::NotBound("b".into()),
            NetError::BadFrame("short"),
            NetError::FrameTooLarge { len: 1 },
            NetError::Io(std::io::Error::other("x")),
            NetError::RequestTimeout {
                service: "pose".into(),
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn io_error_source_is_preserved() {
        let err = NetError::from(std::io::Error::other("inner"));
        assert!(err.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetError>();
    }
}
