//! Gatekeeper + guarded database working together: the full §2.4 story
//! under a virtual clock.

use delayguard::core::analysis::sybil_optimum;
use delayguard::core::gatekeeper::{
    Admission, Gatekeeper, GatekeeperConfig, Ipv4, RefusalReason, RegistrationOutcome,
    RegistrationPolicy, UserId,
};
use delayguard::core::{GuardConfig, GuardedDatabase};

fn keeper(interval: f64) -> Gatekeeper {
    Gatekeeper::new(GatekeeperConfig {
        per_user_rate: 1.0,
        per_user_burst: 3.0,
        per_subnet_rate: 2.0,
        per_subnet_burst: 6.0,
        registration: RegistrationPolicy::interval(interval),
        storefront_query_threshold: 50,
    })
}

fn must_register(k: &mut Gatekeeper, ip: &str, now: f64) -> UserId {
    match k.register(Ipv4::parse(ip).unwrap(), now) {
        RegistrationOutcome::Admitted { user, .. } => user,
        other => panic!("registration failed: {other:?}"),
    }
}

#[test]
fn admitted_queries_flow_into_the_guarded_database() {
    let mut keeper = keeper(10.0);
    let db = GuardedDatabase::new(GuardConfig::paper_default());
    db.execute_at("CREATE TABLE d (id INT NOT NULL, v TEXT)", 0.0)
        .unwrap();
    for i in 0..20 {
        db.execute_at(&format!("INSERT INTO d VALUES ({i}, 'v')"), 0.0)
            .unwrap();
    }
    let alice = must_register(&mut keeper, "192.0.2.1", 0.0);
    let mut served = 0;
    let mut refused = 0;
    // Alice asks one query per second: all within budget.
    for t in 0..30 {
        let now = 100.0 + t as f64;
        match keeper.admit(alice, now) {
            Admission::Granted => {
                db.execute_at(&format!("SELECT * FROM d WHERE id = {}", t % 20), now)
                    .unwrap();
                served += 1;
            }
            Admission::Refused(_) => refused += 1,
        }
    }
    assert_eq!(served, 30);
    assert_eq!(refused, 0);
    assert_eq!(db.access_events("d"), 30);
}

#[test]
fn extraction_bot_is_rate_limited_before_delay_even_matters() {
    let mut keeper = keeper(10.0);
    let bot = must_register(&mut keeper, "192.0.2.9", 0.0);
    // The bot fires 1000 queries in one second: the token bucket lets the
    // burst (3) through and refuses the rest.
    let mut granted = 0;
    for i in 0..1000 {
        let now = 100.0 + i as f64 / 1000.0;
        if keeper.admit(bot, now) == Admission::Granted {
            granted += 1;
        }
    }
    assert!(granted <= 5, "bot pushed {granted} queries through");
}

#[test]
fn sybil_fleet_pinned_by_registration_and_subnet() {
    let interval = 60.0;
    let mut keeper = keeper(interval);
    // Registering 10 identities takes 9 * 60 s of calendar time.
    let mut users = Vec::new();
    for i in 0..10 {
        let t = i as f64 * interval;
        users.push(must_register(&mut keeper, &format!("10.1.1.{i}"), t));
    }
    // ...and no sooner: an eleventh must wait out the interval again.
    assert_eq!(
        keeper.register(Ipv4::parse("10.1.1.10").unwrap(), 9.5 * interval),
        RegistrationOutcome::TooSoon {
            retry_at: 10.0 * interval
        }
    );
    // All ten share one /24: their combined steady-state throughput is the
    // subnet rate (2/s), not 10x the per-user rate.
    let mut granted = 0;
    let t0 = 10_000.0;
    for tick in 0..600 {
        let now = t0 + tick as f64 * 0.1; // 60 seconds of wall clock
        for &u in &users {
            if keeper.admit(u, now) == Admission::Granted {
                granted += 1;
            }
        }
    }
    let per_sec = granted as f64 / 60.0;
    assert!(
        per_sec < 2.5,
        "subnet aggregate should pin ~2/s, got {per_sec}"
    );
}

#[test]
fn refusal_reasons_are_distinguishable() {
    let mut keeper = keeper(1.0);
    assert_eq!(
        keeper.admit(UserId(777), 0.0),
        Admission::Refused(RefusalReason::Unregistered)
    );
    let u = must_register(&mut keeper, "10.0.0.1", 0.0);
    for _ in 0..3 {
        assert_eq!(keeper.admit(u, 10.0), Admission::Granted);
    }
    assert_eq!(
        keeper.admit(u, 10.0),
        Admission::Refused(RefusalReason::UserRateExceeded)
    );
}

#[test]
fn registration_economics_match_the_analysis() {
    // Size the interval so the optimal Sybil fleet still pays >= 40% of
    // the serial cost, then verify with the registrar's own bound.
    let serial_cost = 7.0 * 24.0 * 3600.0; // one week of delay
    let t = delayguard::core::analysis::registration_interval_for(serial_cost, 0.4);
    let (k, wall) = sybil_optimum(serial_cost, t);
    assert!(wall >= 0.4 * serial_cost * 0.99);
    // Registering as fast as the registrar allows, the k-th identity
    // lands at the model's (k - 1) * t.
    let mut keeper = keeper(t);
    let mut at = 0.0;
    for _ in 1..k.round() as u64 {
        must_register(&mut keeper, "10.9.9.9", at);
        match keeper.register(Ipv4::parse("10.9.9.9").unwrap(), at) {
            RegistrationOutcome::TooSoon { retry_at } => at = retry_at,
            other => panic!("registered twice at {at}: {other:?}"),
        }
    }
    must_register(&mut keeper, "10.9.9.9", at);
    assert!((at - (k.round() - 1.0) * t).abs() < 1e-6);
}
