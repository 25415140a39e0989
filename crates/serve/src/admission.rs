//! Per-tenant admission control.
//!
//! The mux front end multiplexes thousands of connections over one
//! bounded queue, so a single aggressive tenant (one instrument script
//! resubmitting in a loop) could fill the whole queue and starve every
//! other user while each individual request still looks admissible. The
//! [`Admission`] controller bounds each tenant's *outstanding* work —
//! jobs queued plus jobs running — to a fixed quota. A request over
//! quota is refused with a typed busy reason at submission time, before
//! it occupies queue memory, exactly like a queue-full shed.
//!
//! Tenancy is cooperative and optional: the request envelope may carry a
//! `"tenant"` string, and requests without one are exempt from quotas
//! (single-user pipe mode and existing clients keep their behavior). A
//! quota of zero disables enforcement entirely.
//!
//! Accounting invariant: `Admission::admit` increments the tenant's
//! outstanding count and hands back a ticket name; the serving layer
//! releases it exactly once per admitted job — after the worker sends
//! the response, or immediately when the queue push is refused.

use std::collections::HashMap;

use std::sync::Mutex;

use crate::lock;

/// Refusal from [`Admission::admit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QuotaExceeded {
    /// The tenant that is over quota.
    pub(crate) tenant: String,
    /// The configured per-tenant outstanding-job limit.
    pub(crate) limit: usize,
}

/// Tracks outstanding (queued + running) jobs per tenant.
pub struct Admission {
    /// Max outstanding jobs per tenant; 0 disables enforcement.
    limit: usize,
    outstanding: Mutex<HashMap<String, usize>>,
}

impl Admission {
    /// A controller enforcing `limit` outstanding jobs per tenant
    /// (0 = unlimited).
    pub(crate) fn new(limit: usize) -> Admission {
        Admission {
            limit,
            outstanding: Mutex::new(HashMap::new()),
        }
    }

    /// Try to admit one job for `tenant`. `None` tenants are exempt and
    /// always admitted. On success the tenant's outstanding count is
    /// already incremented — the caller owes exactly one
    /// [`release`](Admission::release).
    pub(crate) fn admit(&self, tenant: Option<&str>) -> Result<(), QuotaExceeded> {
        let Some(tenant) = tenant else { return Ok(()) };
        if self.limit == 0 {
            return Ok(());
        }
        let mut map = lock(&self.outstanding);
        let count = map.entry(tenant.to_string()).or_insert(0);
        if *count >= self.limit {
            return Err(QuotaExceeded {
                tenant: tenant.to_string(),
                limit: self.limit,
            });
        }
        *count += 1;
        Ok(())
    }

    /// Return one admitted job's slot. Entries at zero are removed so
    /// the map stays bounded by the set of *active* tenants, not every
    /// tenant ever seen.
    pub(crate) fn release(&self, tenant: Option<&str>) {
        let Some(tenant) = tenant else { return };
        if self.limit == 0 {
            return;
        }
        let mut map = lock(&self.outstanding);
        if let Some(count) = map.get_mut(tenant) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                map.remove(tenant);
            }
        }
    }

    /// Outstanding jobs for `tenant` right now (diagnostics/tests).
    pub fn outstanding(&self, tenant: &str) -> usize {
        lock(&self.outstanding).get(tenant).copied().unwrap_or(0)
    }

    /// Number of tenants with outstanding work.
    pub fn active_tenants(&self) -> usize {
        lock(&self.outstanding).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_admits_up_to_limit_then_refuses() {
        let a = Admission::new(2);
        assert!(a.admit(Some("lab-a")).is_ok());
        assert!(a.admit(Some("lab-a")).is_ok());
        let err = a.admit(Some("lab-a")).unwrap_err();
        assert_eq!(err.tenant, "lab-a");
        assert_eq!(err.limit, 2);
        // Another tenant has its own quota.
        assert!(a.admit(Some("lab-b")).is_ok());
        // Releasing frees a slot.
        a.release(Some("lab-a"));
        assert!(a.admit(Some("lab-a")).is_ok());
    }

    #[test]
    fn untenanted_jobs_are_exempt() {
        let a = Admission::new(1);
        for _ in 0..10 {
            assert!(a.admit(None).is_ok());
        }
        assert_eq!(a.active_tenants(), 0);
    }

    #[test]
    fn zero_limit_disables_enforcement() {
        let a = Admission::new(0);
        for _ in 0..10 {
            assert!(a.admit(Some("t")).is_ok());
        }
        assert_eq!(a.outstanding("t"), 0, "nothing tracked when disabled");
    }

    #[test]
    fn release_removes_drained_tenants() {
        let a = Admission::new(4);
        a.admit(Some("t")).unwrap();
        a.admit(Some("t")).unwrap();
        assert_eq!(a.outstanding("t"), 2);
        a.release(Some("t"));
        assert_eq!(a.outstanding("t"), 1);
        a.release(Some("t"));
        assert_eq!(a.outstanding("t"), 0);
        assert_eq!(a.active_tenants(), 0);
        // A stray release for an unknown tenant is a no-op, not a panic.
        a.release(Some("ghost"));
    }
}
