//! Execution ports and sets of ports.
//!
//! Intel Core CPUs dispatch µops through execution *ports* (6 ports up to Ivy
//! Bridge, 8 ports from Haswell on). A [`PortSet`] is the set of ports a µop
//! may be dispatched to; the paper writes such sets as `p015` (ports 0, 1 and
//! 5) and port usages as `3*p015+1*p23`.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign};

/// The maximum number of execution ports supported by the model.
pub const MAX_PORTS: u8 = 10;

/// One execution port, identified by its number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(pub u8);

impl Port {
    /// The port number.
    #[must_use]
    pub fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A set of execution ports, stored as a bitmask.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortSet(u16);

impl PortSet {
    /// The empty port set.
    pub const EMPTY: PortSet = PortSet(0);

    /// Creates an empty port set.
    #[must_use]
    pub fn new() -> PortSet {
        PortSet::EMPTY
    }

    /// Creates a set containing a single port.
    ///
    /// # Panics
    ///
    /// Panics if `port >= MAX_PORTS`.
    #[must_use]
    pub fn single(port: u8) -> PortSet {
        assert!(port < MAX_PORTS, "port number out of range: {port}");
        PortSet(1 << port)
    }

    /// Creates a set from a list of port numbers.
    ///
    /// # Panics
    ///
    /// Panics if any port number is `>= MAX_PORTS`.
    #[must_use]
    pub fn of(ports: &[u8]) -> PortSet {
        let mut s = PortSet::EMPTY;
        for &p in ports {
            s |= PortSet::single(p);
        }
        s
    }

    /// Parses a set from the `p015` notation used by the paper.
    ///
    /// Returns `None` if the string is not of the form `p` followed by one
    /// digit per port.
    #[must_use]
    pub fn parse(s: &str) -> Option<PortSet> {
        let rest = s.strip_prefix('p')?;
        if rest.is_empty() {
            return None;
        }
        let mut set = PortSet::EMPTY;
        for c in rest.chars() {
            let d = c.to_digit(10)?;
            if d >= u32::from(MAX_PORTS) {
                return None;
            }
            set |= PortSet::single(d as u8);
        }
        Some(set)
    }

    /// Returns `true` if the set contains the given port.
    #[must_use]
    pub fn contains(self, port: u8) -> bool {
        port < MAX_PORTS && self.0 & (1 << port) != 0
    }

    /// Returns `true` if the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The number of ports in the set.
    #[must_use]
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Returns `true` if `self` is a subset of `other`.
    #[must_use]
    pub fn is_subset_of(self, other: PortSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Returns `true` if `self` is a strict subset of `other`.
    #[must_use]
    pub fn is_strict_subset_of(self, other: PortSet) -> bool {
        self != other && self.is_subset_of(other)
    }

    /// Returns `true` if the two sets share at least one port.
    #[must_use]
    pub fn intersects(self, other: PortSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterates over the port numbers in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let port = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                port
            })
        })
    }

    /// The lowest-numbered port in the set, if any.
    #[must_use]
    pub fn first(self) -> Option<u8> {
        self.iter().next()
    }
}

impl BitOr for PortSet {
    type Output = PortSet;
    fn bitor(self, rhs: PortSet) -> PortSet {
        PortSet(self.0 | rhs.0)
    }
}

impl BitOrAssign for PortSet {
    fn bitor_assign(&mut self, rhs: PortSet) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for PortSet {
    type Output = PortSet;
    fn bitand(self, rhs: PortSet) -> PortSet {
        PortSet(self.0 & rhs.0)
    }
}

impl fmt::Debug for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PortSet({self})")
    }
}

impl fmt::Display for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "p-");
        }
        write!(f, "p")?;
        for p in self.iter() {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl FromIterator<u8> for PortSet {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> PortSet {
        let mut s = PortSet::EMPTY;
        for p in iter {
            s |= PortSet::single(p);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_membership() {
        let s = PortSet::of(&[0, 1, 5]);
        assert!(s.contains(0) && s.contains(1) && s.contains(5));
        assert!(!s.contains(2));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(PortSet::EMPTY.is_empty());
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["p0", "p015", "p23", "p0156", "p237", "p4"] {
            let set = PortSet::parse(s).unwrap();
            assert_eq!(set.to_string(), s);
        }
        assert_eq!(PortSet::parse("p"), None);
        assert_eq!(PortSet::parse("015"), None);
        assert_eq!(PortSet::parse("pX"), None);
        assert_eq!(PortSet::EMPTY.to_string(), "p-");
    }

    #[test]
    fn subset_relations() {
        let p05 = PortSet::of(&[0, 5]);
        let p015 = PortSet::of(&[0, 1, 5]);
        assert!(p05.is_subset_of(p015));
        assert!(p05.is_strict_subset_of(p015));
        assert!(!p015.is_subset_of(p05));
        assert!(p015.is_subset_of(p015));
        assert!(!p015.is_strict_subset_of(p015));
        assert!(p05.intersects(p015));
        assert!(!p05.intersects(PortSet::of(&[2, 3])));
    }

    #[test]
    fn set_operations() {
        let a = PortSet::of(&[0, 1]);
        let b = PortSet::of(&[1, 5]);
        assert_eq!(a | b, PortSet::of(&[0, 1, 5]));
        assert_eq!(a & b, PortSet::of(&[1]));
        let collected: PortSet = [2u8, 3u8].into_iter().collect();
        assert_eq!(collected, PortSet::of(&[2, 3]));
    }

    #[test]
    fn iteration_order() {
        let s = PortSet::of(&[5, 0, 1]);
        let v: Vec<u8> = s.iter().collect();
        assert_eq!(v, vec![0, 1, 5]);
        assert_eq!(s.first(), Some(0));
        assert_eq!(PortSet::EMPTY.first(), None);
    }

    #[test]
    fn iter_yields_exactly_the_members_in_ascending_order() {
        for bits in 0..1u16 << MAX_PORTS {
            let set = PortSet(bits);
            let expected: Vec<u8> = (0..MAX_PORTS).filter(|p| set.contains(*p)).collect();
            assert_eq!(set.iter().collect::<Vec<u8>>(), expected, "{set}");
            assert_eq!(set.first(), expected.first().copied(), "{set}");
        }
    }

    #[test]
    #[should_panic(expected = "port number out of range")]
    fn out_of_range_port_panics() {
        let _ = PortSet::single(10);
    }
}
