//! Shared exponential-backoff retry with a total-deadline cap — the one
//! sleep-and-double loop in the workspace. Every retry runs through
//! [`with_backoff`], each under its own [`RetryPolicy`]:
//!
//! * collectives re-sending into a full eager queue ([`send_with_backoff`]);
//! * every [`RpcClient::call`](crate::RpcClient::call) re-sending one
//!   request on `ServerBusy` (`rpc::BUSY`);
//! * the replication primary shipping WAL records to a backup, and
//!   reporting a dropped backup to the group directory;
//! * `LwfsClient` failing a data operation over within its storage group;
//! * a lock request waiting out `WouldBlock` (`lwfs-txn`).
//!
//! The loop being retried is always a one-shot send
//! ([`RpcClient::send_once`](crate::RpcClient::send_once) or
//! [`Endpoint::send`]), so no retry loop nests inside another. The
//! deadline turns "retry transient errors" into a bounded operation: when
//! it expires the caller gets the distinct [`Error::RetriesExhausted`],
//! which is deliberately *not* transient — retrying it would loop forever.

use std::time::{Duration, Instant};

use bytes::Bytes;
use lwfs_proto::{Error, ProcessId, Result};

use crate::endpoint::Endpoint;

/// Backoff shape shared by every retry loop in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First sleep after a transient failure (doubled each attempt).
    pub base: Duration,
    /// Ceiling for the doubling.
    pub cap: Duration,
    /// Total budget: once elapsed, the loop gives up with
    /// [`Error::RetriesExhausted`].
    pub deadline: Duration,
}

impl RetryPolicy {
    /// The historical collective-send shape (50 µs doubling to 10 ms)
    /// under the given total deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self { base: Duration::from_micros(50), cap: Duration::from_millis(10), deadline }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::with_deadline(Duration::from_secs(10))
    }
}

/// Run `op` until it succeeds, fails non-transiently, or the policy's
/// deadline expires. `retryable` decides which errors are worth another
/// attempt; anything else is surfaced immediately.
pub fn with_backoff<T>(
    policy: &RetryPolicy,
    retryable: impl Fn(&Error) -> bool,
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    let start = Instant::now();
    let mut backoff = policy.base;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if retryable(&e) => {
                if start.elapsed() >= policy.deadline {
                    return Err(Error::RetriesExhausted);
                }
                std::thread::sleep(backoff.min(policy.deadline.saturating_sub(start.elapsed())));
                backoff = (backoff * 2).min(policy.cap);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Eager-send `data`, backing off while the receiver's queue is full.
///
/// `ServerBusy` is the only retried error: an unreachable or dead peer
/// fails fast, exactly like a bare [`Endpoint::send`].
pub fn send_with_backoff(
    ep: &Endpoint,
    to: ProcessId,
    match_bits: u64,
    data: Bytes,
    policy: &RetryPolicy,
) -> Result<()> {
    with_backoff(
        policy,
        |e| matches!(e, Error::ServerBusy),
        || ep.send(to, match_bits, data.clone()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fast(deadline: Duration) -> RetryPolicy {
        RetryPolicy { base: Duration::from_micros(10), cap: Duration::from_micros(100), deadline }
    }

    #[test]
    fn transient_failures_retry_until_success() {
        let attempts = AtomicU32::new(0);
        let out = with_backoff(&fast(Duration::from_secs(5)), Error::is_transient, || {
            if attempts.fetch_add(1, Ordering::Relaxed) < 3 {
                Err(Error::ServerBusy)
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(attempts.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn deadline_converts_transients_into_retries_exhausted() {
        let t0 = Instant::now();
        let out: Result<()> =
            with_backoff(&fast(Duration::from_millis(20)), Error::is_transient, || {
                Err(Error::ServerBusy)
            });
        assert_eq!(out.unwrap_err(), Error::RetriesExhausted);
        // The loop must not sleep meaningfully past the deadline.
        assert!(t0.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn non_retryable_errors_surface_immediately() {
        let attempts = AtomicU32::new(0);
        let out: Result<()> =
            with_backoff(&fast(Duration::from_secs(5)), Error::is_transient, || {
                attempts.fetch_add(1, Ordering::Relaxed);
                Err(Error::AccessDenied)
            });
        assert_eq!(out.unwrap_err(), Error::AccessDenied);
        assert_eq!(attempts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn send_fails_fast_on_unreachable_peer() {
        let net = Network::default();
        let ep = net.register(ProcessId::new(0, 0));
        let out = send_with_backoff(
            &ep,
            ProcessId::new(99, 0),
            1,
            Bytes::from_static(b"x"),
            &RetryPolicy::default(),
        );
        assert_eq!(out.unwrap_err(), Error::Unreachable);
    }
}
