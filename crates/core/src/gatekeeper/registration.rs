//! Account-registration throttling (paper §2.4).
//!
//! "If only one new user every `t` seconds is given an account to access
//! the database, we can place a lower bound on the time it would take an
//! adversary to accumulate enough identities for the parallel attack to
//! become feasible." Alternatively a registration *fee* can price the
//! attack out; both are modeled here.

use super::identity::{Ipv4, UserId};
use std::collections::HashMap;

/// Policy for admitting new identities.
#[derive(Debug, Clone, Copy)]
pub struct RegistrationPolicy {
    /// Minimum seconds between successive registrations (global).
    pub min_interval_secs: f64,
    /// Fee charged per registration (arbitrary currency units; 0 = free).
    pub fee: f64,
}

impl RegistrationPolicy {
    /// Rate-limit-only policy.
    pub fn interval(secs: f64) -> RegistrationPolicy {
        assert!(secs >= 0.0);
        RegistrationPolicy {
            min_interval_secs: secs,
            fee: 0.0,
        }
    }
}

/// Outcome of a registration attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistrationOutcome {
    /// Admitted with a new identity; the fee charged is echoed back.
    Admitted { user: UserId, fee_charged: f64 },
    /// Rejected: must wait until the embedded time.
    TooSoon { retry_at: f64 },
}

/// The registrar: hands out identities subject to the policy.
#[derive(Debug)]
pub struct Registrar {
    policy: RegistrationPolicy,
    next_id: u64,
    last_registration: Option<f64>,
    /// Registered users and the IP they registered from.
    users: HashMap<UserId, Ipv4>,
}

impl Registrar {
    /// A registrar with the given policy.
    pub fn new(policy: RegistrationPolicy) -> Registrar {
        Registrar {
            policy,
            next_id: 1,
            last_registration: None,
            users: HashMap::new(),
        }
    }

    /// Attempt to register a new identity from `ip` at time `now`.
    pub fn register(&mut self, ip: Ipv4, now: f64) -> RegistrationOutcome {
        if let Some(last) = self.last_registration {
            let earliest = last + self.policy.min_interval_secs;
            if now < earliest {
                return RegistrationOutcome::TooSoon { retry_at: earliest };
            }
        }
        let user = UserId(self.next_id);
        self.next_id += 1;
        self.last_registration = Some(now);
        self.users.insert(user, ip);
        RegistrationOutcome::Admitted {
            user,
            fee_charged: self.policy.fee,
        }
    }

    /// The IP a user registered from.
    pub(crate) fn ip_of(&self, user: UserId) -> Option<Ipv4> {
        self.users.get(&user).copied()
    }

    /// Number of registered users.
    pub fn count(&self) -> usize {
        self.users.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip() -> Ipv4 {
        Ipv4::parse("203.0.113.9").unwrap()
    }

    #[test]
    fn admits_at_interval() {
        let mut r = Registrar::new(RegistrationPolicy::interval(60.0));
        let a = r.register(ip(), 0.0);
        assert!(matches!(a, RegistrationOutcome::Admitted { .. }));
        match r.register(ip(), 30.0) {
            RegistrationOutcome::TooSoon { retry_at } => assert_eq!(retry_at, 60.0),
            other => panic!("expected TooSoon, got {other:?}"),
        }
        assert!(matches!(
            r.register(ip(), 60.0),
            RegistrationOutcome::Admitted { .. }
        ));
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn distinct_ids_handed_out() {
        let mut r = Registrar::new(RegistrationPolicy::interval(0.0));
        let mut ids = Vec::new();
        for i in 0..10 {
            match r.register(ip(), i as f64) {
                RegistrationOutcome::Admitted { user, .. } => ids.push(user),
                other => panic!("{other:?}"),
            }
        }
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 10);
        assert!(r.ip_of(ids[0]).is_some());
        assert_eq!(r.ip_of(ids[0]), Some(ip()));
    }

    #[test]
    fn accumulation_bound() {
        // The §2.4 bound: registering as fast as the policy allows, the
        // 11th identity lands at (11 - 1) · t.
        let mut r = Registrar::new(RegistrationPolicy::interval(3600.0));
        let mut at = 0.0;
        for _ in 1..11 {
            assert!(matches!(
                r.register(ip(), at),
                RegistrationOutcome::Admitted { .. }
            ));
            match r.register(ip(), at) {
                RegistrationOutcome::TooSoon { retry_at } => at = retry_at,
                other => panic!("registered twice at {at}: {other:?}"),
            }
        }
        assert!(matches!(
            r.register(ip(), at),
            RegistrationOutcome::Admitted { .. }
        ));
        assert_eq!(at, 36_000.0);
    }

    #[test]
    fn unknown_user_not_registered() {
        let r = Registrar::new(RegistrationPolicy::interval(1.0));
        assert!(r.ip_of(UserId(99)).is_none());
        assert_eq!(r.ip_of(UserId(99)), None);
    }
}
