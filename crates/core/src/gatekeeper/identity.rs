//! Identities and subnet aggregation (paper §2.4).
//!
//! "An adversary may be able to control many addresses within a single
//! subnet, but any given subnet can be treated as an aggregate, with
//! responses rate-limited across all users in that subnet."

use std::fmt;

/// A registered user identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u64);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user#{}", self.0)
    }
}

/// An IPv4 address (the paper's identity substrate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4(pub [u8; 4]);

impl Ipv4 {
    /// Parse dotted-quad notation.
    pub fn parse(s: &str) -> Option<Ipv4> {
        let mut parts = [0u8; 4];
        let mut n = 0;
        for piece in s.split('.') {
            if n == 4 {
                return None;
            }
            parts[n] = piece.parse().ok()?;
            n += 1;
        }
        (n == 4).then_some(Ipv4(parts))
    }

    /// The /24 subnet containing this address.
    pub(crate) fn subnet24(self) -> Subnet {
        Subnet {
            base: [self.0[0], self.0[1], self.0[2], 0],
            prefix: 24,
        }
    }

    /// The subnet with an arbitrary prefix length.
    pub(crate) fn subnet(self, prefix: u8) -> Subnet {
        assert!(prefix <= 32);
        let raw = u32::from_be_bytes(self.0);
        let mask = if prefix == 0 {
            0
        } else {
            u32::MAX << (32 - prefix)
        };
        Subnet {
            base: (raw & mask).to_be_bytes(),
            prefix,
        }
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// A subnet: the aggregation unit for rate limiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Subnet {
    base: [u8; 4],
    prefix: u8,
}

impl Subnet {
    /// Prefix length.
    pub fn prefix(&self) -> u8 {
        self.prefix
    }

    /// Base address (for wire encoding; round-trips through
    /// [`Ipv4::subnet`]).
    pub fn base(&self) -> [u8; 4] {
        self.base
    }
}

impl fmt::Display for Subnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}/{}",
            self.base[0], self.base[1], self.base[2], self.base[3], self.prefix
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let ip = Ipv4::parse("192.168.7.33").unwrap();
        assert_eq!(ip.to_string(), "192.168.7.33");
        assert!(Ipv4::parse("1.2.3").is_none());
        assert!(Ipv4::parse("1.2.3.4.5").is_none());
        assert!(Ipv4::parse("1.2.3.999").is_none());
        assert!(Ipv4::parse("a.b.c.d").is_none());
    }

    #[test]
    fn subnet24_groups_neighbors() {
        let a = Ipv4::parse("10.0.1.5").unwrap();
        let b = Ipv4::parse("10.0.1.200").unwrap();
        let c = Ipv4::parse("10.0.2.5").unwrap();
        assert_eq!(a.subnet24(), b.subnet24());
        assert_ne!(a.subnet24(), c.subnet24());
        assert_eq!(a.subnet24().to_string(), "10.0.1.0/24");
    }

    #[test]
    fn subnet16_wider_than_24() {
        let a = Ipv4::parse("10.0.1.5").unwrap();
        let c = Ipv4::parse("10.0.2.5").unwrap();
        assert_eq!(a.subnet(16), c.subnet(16));
    }

    #[test]
    fn arbitrary_prefixes() {
        let ip = Ipv4::parse("255.255.255.255").unwrap();
        assert_eq!(ip.subnet(0).to_string(), "0.0.0.0/0");
        assert_eq!(ip.subnet(32).to_string(), "255.255.255.255/32");
        assert_eq!(ip.subnet(0), Ipv4::parse("1.2.3.4").unwrap().subnet(0));
    }
}
