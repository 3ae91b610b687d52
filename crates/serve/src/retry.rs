//! Client-side self-healing: bounded exponential backoff against a saturated or
//! degraded server.
//!
//! [`ServeError::Saturated`] and [`ServeError::Degraded`] share one crucial property:
//! the rejected request had **no effect** on the policy or the log, so resubmitting it
//! is a fresh request — nothing can be lost or duplicated by retrying. That makes a
//! dumb sleep-and-retry loop *correct*; [`RetryPolicy`] merely bounds it (exponential
//! backoff capped per attempt, a deadline overall) so a dead server turns into a typed
//! error instead of a hang.

use crate::error::{Result, ServeError};
use crate::server::{Client, ServeDecision};
use crowd_sim::ArrivalContext;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounds for [`Client::decide_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Sleep before the first retry; doubles on every subsequent one.
    pub initial_backoff: Duration,
    /// Per-attempt cap on the backoff sleep.
    pub max_backoff: Duration,
    /// Total budget: once this much time has elapsed since the first attempt, the
    /// last transient error is returned instead of sleeping again.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(10),
            deadline: Duration::from_secs(1),
        }
    }
}

impl Client {
    /// [`Client::try_decide`] wrapped in bounded exponential backoff: transient
    /// rejections ([`ServeError::Saturated`] — ingress full — and
    /// [`ServeError::Degraded`] — log outage or staleness shed) are retried until
    /// `retry.deadline` elapses; every other error (and deadline exhaustion) returns
    /// the underlying error unchanged.
    ///
    /// Each retry is a *fresh* request — the server guarantees a rejected request
    /// never touched the policy — so a successful return means exactly one decision
    /// was made and logged for this call, however many attempts it took. The arrival is
    /// checked and copied once; every attempt resends that one shared copy.
    pub fn decide_with_retry(
        &self,
        context: &ArrivalContext,
        retry: &RetryPolicy,
    ) -> Result<ServeDecision> {
        self.check_arrival(context)?;
        let context = Arc::new(context.clone());
        let started = Instant::now();
        let mut backoff = retry.initial_backoff.max(Duration::from_micros(1));
        loop {
            let error = match self.enqueue_decide(Arc::clone(&context), false) {
                Ok(decision) => return Ok(decision),
                Err(e @ (ServeError::Saturated | ServeError::Degraded { .. })) => e,
                Err(e) => return Err(e),
            };
            let Some(budget) = retry.deadline.checked_sub(started.elapsed()) else {
                return Err(error);
            };
            if budget.is_zero() {
                return Err(error);
            }
            std::thread::sleep(backoff.min(budget));
            backoff = (backoff * 2).min(retry.max_backoff.max(Duration::from_micros(1)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_bounded_and_ordered() {
        let retry = RetryPolicy::default();
        assert!(retry.initial_backoff <= retry.max_backoff);
        assert!(retry.max_backoff < retry.deadline);
    }
}
