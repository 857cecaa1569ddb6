//! # delayguard-workload
//!
//! Deterministic workload generation for the paper's evaluation (§4):
//!
//! * [`rng`] — seeded xoshiro256** PRNG (all experiments reproduce
//!   bit-for-bit from a seed).
//! * [`zipf`] — power-law sampling.
//! * [`trace`] — timestamped request streams.
//! * [`calgary`] — synthetic stand-in for the Calgary web trace (§4.1):
//!   12,179 objects, 725,091 requests, static Zipf(1.5) popularity.
//! * [`boxoffice`] — synthetic stand-in for the 2002 Variety box-office
//!   season (§4.2): 634 films, weekly-shifting skew, one request per
//!   $100k of weekly sales.
//! * [`updates`] — Zipf-shaped per-item update rates (§3, §4.3).
//! * [`adversary`] — extraction orders, Sybil parallelism, storefront
//!   observers (§2.4).

#![forbid(unsafe_code)]

pub mod adversary;
pub mod boxoffice;
pub mod calgary;
pub mod rng;
pub mod trace;
pub mod updates;
pub mod zipf;

pub use adversary::{ExtractionOrder, StorefrontObserver, SybilPlan};
pub use boxoffice::{BoxOffice, BoxOfficeConfig, WEEK_SECS};
pub use calgary::CalgaryConfig;
pub use rng::Rng;
pub use trace::{Request, Trace};
pub use updates::UpdateRates;
pub use zipf::{generalized_harmonic, power_sum, Zipf};
