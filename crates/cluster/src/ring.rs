//! Deterministic consistent-hash ring with virtual nodes.
//!
//! Tenant → node placement must be stable (the same membership always
//! yields the same placement, on every process that computes it) and
//! minimally disruptive (removing one node only moves the tenants that
//! lived on it). A classic ring with virtual nodes gives both; FNV-1a
//! keeps it dependency-free and byte-for-byte reproducible across builds.

/// Virtual nodes per member: enough to spread a 3-node fleet within a few
/// percent of even, cheap enough to rebuild on every membership change.
pub(crate) const VNODES: usize = 64;

/// A consistent-hash ring over named members.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashRing {
    /// Sorted (hash, member-index) points; member names held separately.
    points: Vec<(u64, usize)>,
    members: Vec<String>,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // FNV alone avalanches poorly on short, similar keys ("node-1#17" vs
    // "node-2#17"), which visibly skews a small ring — finish with a
    // 64-bit bit-mixer so vnode points spread uniformly.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

impl HashRing {
    /// Builds a ring over `members` (order-insensitive: members are
    /// sorted first so every caller derives the identical ring).
    pub(crate) fn new<I: IntoIterator<Item = String>>(members: I) -> Self {
        let mut members: Vec<String> = members.into_iter().collect();
        members.sort();
        members.dedup();
        let mut points = Vec::with_capacity(members.len() * VNODES);
        for (idx, m) in members.iter().enumerate() {
            for replica in 0..VNODES {
                points.push((fnv1a(format!("{m}#{replica}").as_bytes()), idx));
            }
        }
        points.sort_unstable();
        HashRing { points, members }
    }

    /// Whether the ring has no members.
    pub(crate) fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member owning `key`: first ring point clockwise of the key's
    /// hash. `None` on an empty ring.
    pub(crate) fn lookup(&self, key: &str) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let h = fnv1a(key.as_bytes());
        let idx = match self.points.binary_search_by(|(p, _)| p.cmp(&h)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        };
        Some(&self.members[self.points[idx].1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> HashRing {
        HashRing::new(["node-1".into(), "node-2".into(), "node-3".into()])
    }

    #[test]
    fn deterministic_and_order_insensitive() {
        let a = three();
        let b = HashRing::new(["node-3".into(), "node-1".into(), "node-2".into()]);
        for i in 0..500 {
            let key = format!("t{i:03}");
            assert_eq!(a.lookup(&key), b.lookup(&key));
        }
    }

    #[test]
    fn reasonably_balanced() {
        let ring = three();
        let mut counts = std::collections::HashMap::new();
        for i in 0..600 {
            let owner = ring.lookup(&format!("t{i:03}")).unwrap().to_string();
            *counts.entry(owner).or_insert(0usize) += 1;
        }
        for (owner, n) in &counts {
            assert!(
                (100..=320).contains(n),
                "{owner} owns {n} of 600 — ring badly skewed"
            );
        }
        assert_eq!(counts.len(), 3, "every node should own some tenants");
    }

    #[test]
    fn removal_only_moves_the_dead_nodes_keys() {
        let full = three();
        let survivors = HashRing::new(["node-1".into(), "node-3".into()]);
        for i in 0..500 {
            let key = format!("t{i:03}");
            let before = full.lookup(&key).unwrap();
            let after = survivors.lookup(&key).unwrap();
            if before != "node-2" {
                assert_eq!(before, after, "{key} moved although its node survived");
            } else {
                assert_ne!(after, "node-2");
            }
        }
    }

    #[test]
    fn empty_ring_returns_none() {
        assert_eq!(HashRing::default().lookup("x"), None);
        assert!(HashRing::default().is_empty());
    }
}
