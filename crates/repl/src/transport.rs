//! Transport abstraction for the replication stream.
//!
//! A [`Transport`] moves whole [`WireMessage`]s between a primary session
//! and a replica I/O thread. Two implementations ship: the in-process
//! [`duplex`] channel pair (deterministic, used by tests and the
//! experiment harness) and the loopback-TCP endpoint in [`crate::tcp`].
//! [`FlakyEndpoint`] wraps either one to inject mid-stream disconnects.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use crate::wire::WireMessage;
use crate::{ReplError, ReplResult};

/// A bidirectional message pipe between two replication endpoints.
pub trait Transport: Send {
    /// Sends one message to the peer.
    fn send(&mut self, msg: &WireMessage) -> ReplResult<()>;

    /// Receives the next message, waiting up to `timeout`. `Ok(None)`
    /// means the timeout elapsed with the link still healthy.
    fn recv_timeout(&mut self, timeout: Duration) -> ReplResult<Option<WireMessage>>;
}

/// In-process channel endpoint: messages cross as encoded byte vectors so
/// the channel path exercises the same serialization as TCP.
pub struct ChannelEndpoint {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl Transport for ChannelEndpoint {
    fn send(&mut self, msg: &WireMessage) -> ReplResult<()> {
        self.tx
            .send(msg.encode())
            .map_err(|_| ReplError::Disconnected)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> ReplResult<Option<WireMessage>> {
        // Drain without blocking first so a zero timeout still delivers.
        match self.rx.try_recv() {
            Ok(bytes) => return WireMessage::decode(&bytes).map(Some),
            Err(TryRecvError::Disconnected) => return Err(ReplError::Disconnected),
            Err(TryRecvError::Empty) => {}
        }
        match self.rx.recv_timeout(timeout) {
            Ok(bytes) => WireMessage::decode(&bytes).map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ReplError::Disconnected),
        }
    }
}

/// Creates a connected pair of in-process endpoints.
pub fn duplex() -> (ChannelEndpoint, ChannelEndpoint) {
    let (atx, arx) = channel();
    let (btx, brx) = channel();
    (
        ChannelEndpoint { tx: atx, rx: brx },
        ChannelEndpoint { tx: btx, rx: arx },
    )
}

/// Shared switch that severs a [`FlakyEndpoint`] on demand.
#[derive(Clone, Default)]
pub struct LinkCutter {
    cut: Arc<AtomicBool>,
}

impl LinkCutter {
    /// Severs the link: every subsequent operation on wrapped endpoints
    /// fails with [`ReplError::Disconnected`] until [`Self::restore`].
    pub fn cut(&self) {
        self.cut.store(true, Ordering::SeqCst);
    }

    /// Heals the link. Endpoints already dropped stay dead; a reconnect
    /// obtains a fresh pair.
    pub fn restore(&self) {
        self.cut.store(false, Ordering::SeqCst);
    }

    /// Whether the link is currently severed.
    pub fn is_cut(&self) -> bool {
        self.cut.load(Ordering::SeqCst)
    }
}

/// Fault-injection wrapper: fails every operation while an external
/// [`LinkCutter`] is tripped.
pub struct FlakyEndpoint<T: Transport> {
    inner: T,
    cutter: LinkCutter,
}

impl<T: Transport> FlakyEndpoint<T> {
    /// Wraps `inner` with an external cut switch.
    pub fn with_cutter(inner: T, cutter: LinkCutter) -> Self {
        FlakyEndpoint { inner, cutter }
    }

    fn check(&self) -> ReplResult<()> {
        if self.cutter.is_cut() {
            return Err(ReplError::Disconnected);
        }
        Ok(())
    }
}

impl<T: Transport> Transport for FlakyEndpoint<T> {
    fn send(&mut self, msg: &WireMessage) -> ReplResult<()> {
        self.check()?;
        self.inner.send(msg)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> ReplResult<Option<WireMessage>> {
        self.check()?;
        let got = self.inner.recv_timeout(timeout);
        // The cut may have landed while this call was blocked in the
        // inner receive — a real partition severs in-flight delivery,
        // so a message that raced the cut is dropped, not delivered.
        // (Safe for replication: the resume handshake re-fetches it.)
        self.check()?;
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_delivers_both_ways() {
        let (mut a, mut b) = duplex();
        a.send(&WireMessage::Purged { purged_to: 3 }).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(100)).unwrap(),
            Some(WireMessage::Purged { purged_to: 3 })
        );
        b.send(&WireMessage::Heartbeat {
            primary_seq: 1,
            timestamp: 2,
        })
        .unwrap();
        assert!(matches!(
            a.recv_timeout(Duration::from_millis(100)).unwrap(),
            Some(WireMessage::Heartbeat { .. })
        ));
    }

    #[test]
    fn duplex_times_out_then_disconnects() {
        let (mut a, b) = duplex();
        assert_eq!(a.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        drop(b);
        assert_eq!(
            a.recv_timeout(Duration::from_millis(5)),
            Err(ReplError::Disconnected)
        );
    }

    #[test]
    fn cutter_severs_and_is_shared() {
        let (a, _b) = duplex();
        let cutter = LinkCutter::default();
        let mut flaky = FlakyEndpoint::with_cutter(a, cutter.clone());
        flaky.send(&WireMessage::Purged { purged_to: 0 }).unwrap();
        cutter.cut();
        assert_eq!(
            flaky.recv_timeout(Duration::from_millis(1)),
            Err(ReplError::Disconnected)
        );
    }
}
