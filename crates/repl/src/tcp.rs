//! Loopback-TCP transport.
//!
//! Frames [`WireMessage`]s onto a real socket so the replication stream
//! crosses an actual OS boundary — the shape a network tap or pcap-style
//! snapshot would observe. An internal [`FrameDecoder`] buffers partial
//! reads, so a timeout mid-frame never loses stream sync.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use crate::wire::{FrameDecoder, WireMessage};
use crate::{ReplError, ReplResult};

fn io_err(e: std::io::Error) -> ReplError {
    match e.kind() {
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe => ReplError::Disconnected,
        _ => ReplError::Io(e.to_string()),
    }
}

/// One side of a TCP replication link.
pub struct TcpEndpoint {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl TcpEndpoint {
    /// Wraps an accepted or connected stream.
    pub fn new(stream: TcpStream) -> ReplResult<Self> {
        stream.set_nodelay(true).map_err(io_err)?;
        // Accepted sockets may inherit the listener's nonblocking mode on
        // some platforms; the endpoint drives timeouts itself.
        stream.set_nonblocking(false).map_err(io_err)?;
        Ok(TcpEndpoint {
            stream,
            decoder: FrameDecoder::default(),
        })
    }

    /// Connects to a listening primary.
    pub fn connect(addr: SocketAddr) -> ReplResult<Self> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        TcpEndpoint::new(stream)
    }
}

impl crate::transport::Transport for TcpEndpoint {
    fn send(&mut self, msg: &WireMessage) -> ReplResult<()> {
        self.stream.write_all(&msg.to_frame()).map_err(io_err)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> ReplResult<Option<WireMessage>> {
        // A buffered message from an earlier read satisfies immediately.
        if let Some(msg) = self.decoder.next_message()? {
            return Ok(Some(msg));
        }
        // set_read_timeout(0) would mean "block forever"; clamp up.
        let timeout = timeout.max(Duration::from_millis(1));
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(io_err)?;
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ReplError::Disconnected),
                Ok(n) => {
                    self.decoder.feed(&buf[..n]);
                    if let Some(msg) = self.decoder.next_message()? {
                        return Ok(Some(msg));
                    }
                    // Partial frame: loop for the rest (bounded by the
                    // read timeout still armed on the socket).
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None);
                }
                Err(e) => return Err(io_err(e)),
            }
        }
    }
}

/// A listener handing out [`TcpEndpoint`]s, one per replica connection.
pub struct TcpAcceptor {
    listener: TcpListener,
}

impl TcpAcceptor {
    /// Binds an ephemeral loopback port.
    pub fn bind() -> ReplResult<Self> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
        Ok(TcpAcceptor { listener })
    }

    /// The address replicas should connect to.
    pub fn local_addr(&self) -> ReplResult<SocketAddr> {
        self.listener.local_addr().map_err(io_err)
    }

    /// Blocks until the next replica connects.
    pub fn accept(&self) -> ReplResult<TcpEndpoint> {
        let (stream, _) = self.listener.accept().map_err(io_err)?;
        TcpEndpoint::new(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;
    use crate::wire::SequencedEvent;
    use minidb::wal::BinlogEvent;

    #[test]
    fn tcp_round_trip_and_timeout() {
        let acceptor = TcpAcceptor::bind().unwrap();
        let addr = acceptor.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut ep = TcpEndpoint::connect(addr).unwrap();
            ep.send(&WireMessage::Handshake {
                replica_id: 2,
                next_seq: 0,
            })
            .unwrap();
            ep.recv_timeout(Duration::from_secs(2)).unwrap()
        });
        let mut server = acceptor.accept().unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_secs(2)).unwrap(),
            Some(WireMessage::Handshake {
                replica_id: 2,
                next_seq: 0
            })
        );
        // Idle link: timeout yields None, not an error.
        assert_eq!(server.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        server
            .send(&WireMessage::Events {
                events: vec![SequencedEvent::plain(
                    0,
                    &BinlogEvent {
                        lsn: 1,
                        txn: 1,
                        timestamp: 42,
                        statement: "INSERT INTO t VALUES (1)".into(),
                        ctx: None,
                    },
                )],
            })
            .unwrap();
        let got = client.join().unwrap();
        assert!(matches!(got, Some(WireMessage::Events { ref events }) if events.len() == 1));
    }

    #[test]
    fn tcp_peer_close_is_disconnect() {
        let acceptor = TcpAcceptor::bind().unwrap();
        let addr = acceptor.local_addr().unwrap();
        let client = std::thread::spawn(move || TcpEndpoint::connect(addr).unwrap());
        let mut server = acceptor.accept().unwrap();
        drop(client.join().unwrap());
        // Reads drain the FIN and report a disconnect (possibly after a
        // timeout-None while the close is in flight).
        let mut saw_disconnect = false;
        for _ in 0..100 {
            match server.recv_timeout(Duration::from_millis(10)) {
                Err(ReplError::Disconnected) => {
                    saw_disconnect = true;
                    break;
                }
                Ok(None) => continue,
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert!(saw_disconnect);
    }
}
