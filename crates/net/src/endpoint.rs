use crate::error::NetError;
use std::fmt;
use std::str::FromStr;

/// Whether the endpoint binds (listens) or connects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndpointMode {
    /// Listen for peers (`bind#…`).
    Bind,
    /// Connect to a bound peer (`connect#…`).
    Connect,
}

/// The underlying transport of an endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EndpointTransport {
    /// TCP: host (or `*` for bind-any) and port.
    Tcp {
        /// Host name or address; `*` means bind-any.
        host: String,
        /// TCP port.
        port: u16,
    },
    /// In-process named channel.
    Inproc {
        /// Channel name.
        name: String,
    },
}

/// A parsed endpoint string.
///
/// The paper's pipeline configuration uses strings like
/// `"bind#tcp://*:5861"` (Listing 1); this type parses exactly that syntax,
/// plus `inproc://name` for co-located modules:
///
/// ```
/// use videopipe_net::{Endpoint, EndpointMode};
///
/// let ep: Endpoint = "bind#tcp://*:5861".parse()?;
/// assert_eq!(ep.mode(), EndpointMode::Bind);
/// assert_eq!(ep.to_string(), "bind#tcp://*:5861");
/// # Ok::<(), videopipe_net::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    mode: EndpointMode,
    transport: EndpointTransport,
}

impl Endpoint {
    /// Creates a TCP bind endpoint on the given port (host `*`).
    pub fn bind_tcp(port: u16) -> Self {
        Endpoint {
            mode: EndpointMode::Bind,
            transport: EndpointTransport::Tcp {
                host: "*".into(),
                port,
            },
        }
    }

    /// Creates a TCP connect endpoint.
    pub fn connect_tcp(host: impl Into<String>, port: u16) -> Self {
        Endpoint {
            mode: EndpointMode::Connect,
            transport: EndpointTransport::Tcp {
                host: host.into(),
                port,
            },
        }
    }

    /// Creates an in-process endpoint (mode is meaningful only for binding
    /// uniqueness).
    pub fn inproc(name: impl Into<String>, mode: EndpointMode) -> Self {
        Endpoint {
            mode,
            transport: EndpointTransport::Inproc { name: name.into() },
        }
    }

    /// The bind/connect mode.
    pub fn mode(&self) -> EndpointMode {
        self.mode
    }
}

impl FromStr for Endpoint {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |reason: &'static str| NetError::BadEndpoint {
            endpoint: s.to_string(),
            reason,
        };
        // Optional "bind#"/"connect#" prefix; default is bind for inproc,
        // required for tcp.
        let (mode, rest) = if let Some(rest) = s.strip_prefix("bind#") {
            (Some(EndpointMode::Bind), rest)
        } else if let Some(rest) = s.strip_prefix("connect#") {
            (Some(EndpointMode::Connect), rest)
        } else {
            (None, s)
        };

        if let Some(name) = rest.strip_prefix("inproc://") {
            if name.is_empty() {
                return Err(bad("empty inproc channel name"));
            }
            return Ok(Endpoint {
                mode: mode.unwrap_or(EndpointMode::Bind),
                transport: EndpointTransport::Inproc {
                    name: name.to_string(),
                },
            });
        }

        if let Some(addr) = rest.strip_prefix("tcp://") {
            let mode = mode.ok_or_else(|| bad("tcp endpoints need bind# or connect#"))?;
            let (host, port_str) = addr
                .rsplit_once(':')
                .ok_or_else(|| bad("tcp endpoint needs host:port"))?;
            if host.is_empty() {
                return Err(bad("empty host"));
            }
            let port: u16 = port_str.parse().map_err(|_| bad("invalid port"))?;
            if mode == EndpointMode::Connect && host == "*" {
                return Err(bad("cannot connect to wildcard host"));
            }
            return Ok(Endpoint {
                mode,
                transport: EndpointTransport::Tcp {
                    host: host.to_string(),
                    port,
                },
            });
        }

        Err(bad("unknown scheme (expected tcp:// or inproc://)"))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match self.mode {
            EndpointMode::Bind => "bind",
            EndpointMode::Connect => "connect",
        };
        match &self.transport {
            EndpointTransport::Tcp { host, port } => write!(f, "{mode}#tcp://{host}:{port}"),
            EndpointTransport::Inproc { name } => write!(f, "{mode}#inproc://{name}"),
        }
    }
}

#[cfg(test)]
impl Endpoint {
    /// Whether this endpoint is in-process.
    pub(crate) fn is_inproc(&self) -> bool {
        matches!(self.transport, EndpointTransport::Inproc { .. })
    }

    /// For a TCP endpoint, the `host:port` string a socket API expects
    /// (bind-any `*` becomes `0.0.0.0`).
    pub(crate) fn socket_addr(&self) -> Option<String> {
        match &self.transport {
            EndpointTransport::Tcp { host, port } => {
                let host = if host == "*" { "0.0.0.0" } else { host };
                Some(format!("{host}:{port}"))
            }
            EndpointTransport::Inproc { .. } => None,
        }
    }

    /// The transport.
    pub(crate) fn transport(&self) -> &EndpointTransport {
        &self.transport
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_syntax() {
        let ep: Endpoint = "bind#tcp://*:5861".parse().unwrap();
        assert_eq!(ep.mode(), EndpointMode::Bind);
        assert_eq!(
            ep.transport(),
            &EndpointTransport::Tcp {
                host: "*".into(),
                port: 5861
            }
        );
        assert_eq!(ep.socket_addr().unwrap(), "0.0.0.0:5861");
    }

    #[test]
    fn parses_connect() {
        let ep: Endpoint = "connect#tcp://desktop.local:5862".parse().unwrap();
        assert_eq!(ep.mode(), EndpointMode::Connect);
        assert_eq!(ep.socket_addr().unwrap(), "desktop.local:5862");
    }

    #[test]
    fn parses_inproc_with_default_mode() {
        let ep: Endpoint = "inproc://pose_channel".parse().unwrap();
        assert!(ep.is_inproc());
        assert_eq!(ep.mode(), EndpointMode::Bind);
        assert_eq!(ep.socket_addr(), None);
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "bind#tcp://*:5861",
            "connect#tcp://host:80",
            "bind#inproc://abc",
            "connect#inproc://xyz",
        ] {
            let ep: Endpoint = s.parse().unwrap();
            assert_eq!(ep.to_string(), s);
            let again: Endpoint = ep.to_string().parse().unwrap();
            assert_eq!(again, ep);
        }
    }

    #[test]
    fn rejects_malformed() {
        for s in [
            "",
            "tcp://*:1",             // missing mode for tcp
            "bind#tcp://*:notaport", // bad port
            "bind#tcp://:80",        // empty host
            "bind#tcp://hostonly",   // no port
            "connect#tcp://*:80",    // connect to wildcard
            "bind#udp://x:1",        // unknown scheme
            "inproc://",             // empty name
            "bind#tcp://*:99999",    // port overflow
        ] {
            assert!(s.parse::<Endpoint>().is_err(), "{s:?} parsed");
        }
    }

    #[test]
    fn constructors() {
        assert_eq!(Endpoint::bind_tcp(80).to_string(), "bind#tcp://*:80");
        assert_eq!(
            Endpoint::connect_tcp("h", 81).to_string(),
            "connect#tcp://h:81"
        );
        assert!(Endpoint::inproc("n", EndpointMode::Connect).is_inproc());
    }

    #[test]
    fn ipv6_style_host_uses_last_colon() {
        // rsplit_once keeps everything before the last colon as host.
        let ep: Endpoint = "connect#tcp://::1:5000".parse().unwrap();
        assert_eq!(ep.socket_addr().unwrap(), "::1:5000");
    }
}
