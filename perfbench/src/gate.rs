//! The correctness gate: output digests against the recorded reference,
//! cross-run equalities, and the count of failed operations.
//!
//! An *op* is one simulation cell, one sweep unit or one service
//! request. An op fails when it errors, ends in any service event other
//! than `completed`/`cached`, or produces output whose digest differs
//! from its reference or from the same output of another run. Any failed
//! op makes the benchmark exit non-zero.

use crate::md5::md5_hex;
use std::collections::BTreeMap;

/// Reference digests, one `seed workload item md5` line each (`#`
/// starts a comment). Recorded with `--record`; see README.md.
pub const REFERENCE_TEXT: &str = include_str!("../reference.txt");

/// The parsed reference table.
#[derive(Debug, Default)]
pub struct Reference {
    digests: BTreeMap<(u64, String, String), String>,
}

impl Reference {
    /// Parse `seed workload item md5` lines.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut digests = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [seed, workload, item, md5] = fields[..] else {
                return Err(format!("reference line {}: expected 4 fields", n + 1));
            };
            let seed: u64 = seed
                .parse()
                .map_err(|e| format!("reference line {}: seed: {e}", n + 1))?;
            digests.insert(
                (seed, workload.to_string(), item.to_string()),
                md5.to_string(),
            );
        }
        Ok(Self { digests })
    }

    /// The reference shipped with the benchmark.
    pub fn bundled() -> Self {
        Self::parse(REFERENCE_TEXT).expect("bundled reference.txt parses")
    }

    /// Whether any digest is recorded for this workload seed.
    pub fn covers(&self, seed: u64, workload: &str) -> bool {
        self.digests
            .keys()
            .any(|(s, w, _)| *s == seed && w == workload)
    }

    /// The recorded digest of one output item.
    pub fn get(&self, seed: u64, workload: &str, item: &str) -> Option<&str> {
        self.digests
            .get(&(seed, workload.to_string(), item.to_string()))
            .map(String::as_str)
    }
}

/// Accumulates failed ops and their reasons for one benchmark run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Ops counted as failed.
    pub failed_ops: u64,
    /// One line per failure, printed to stderr as it happens.
    pub reasons: Vec<String>,
}

impl Gate {
    /// Count `ops` failed ops for `reason`.
    pub fn fail(&mut self, ops: u64, reason: String) {
        eprintln!("FAIL ({ops} ops): {reason}");
        self.failed_ops += ops;
        self.reasons.push(reason);
    }

    /// Fail `ops` ops unless `a == b`.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, ops: u64, what: &str, a: T, b: T) {
        if a != b {
            self.fail(ops, format!("{what}: {a:?} != {b:?}"));
        }
    }

    /// Check the digest of one output item against the reference: when
    /// the reference covers `(seed, workload)`, the item must be
    /// recorded and match, else its `ops` fail. Returns the digest.
    pub fn check_reference(
        &mut self,
        reference: Option<&Reference>,
        seed: u64,
        workload: &str,
        item: &str,
        bytes: &[u8],
        ops: u64,
    ) -> String {
        let digest = md5_hex(bytes);
        let Some(reference) = reference.filter(|r| r.covers(seed, workload)) else {
            return digest;
        };
        match reference.get(seed, workload, item) {
            Some(want) if want == digest => {}
            Some(want) => self.fail(
                ops,
                format!("{workload} seed {seed} {item}: md5 {digest}, reference {want}"),
            ),
            None => self.fail(
                ops,
                format!("{workload} seed {seed} {item}: no reference digest"),
            ),
        }
        digest
    }

    /// Whether nothing failed.
    pub fn passed(&self) -> bool {
        self.failed_ops == 0 && self.reasons.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_for(bytes: &[u8]) -> Reference {
        Reference::parse(&format!(
            "# comment\n7 sweep-grid table.csv {}\n7 sweep-grid table.json {}\n",
            md5_hex(bytes),
            md5_hex(b"json")
        ))
        .unwrap()
    }

    #[test]
    fn a_corrupted_output_counts_as_failed_ops() {
        let good = b"cell,mechanism\n0,In-Trns-MM\n".to_vec();
        let reference = reference_for(&good);
        let mut gate = Gate::default();
        gate.check_reference(Some(&reference), 7, "sweep-grid", "table.csv", &good, 108);
        assert!(gate.passed());
        let mut corrupted = good.clone();
        corrupted[5] ^= 1;
        gate.check_reference(
            Some(&reference),
            7,
            "sweep-grid",
            "table.csv",
            &corrupted,
            108,
        );
        assert_eq!(gate.failed_ops, 108);
        assert!(!gate.passed());
    }

    #[test]
    fn unrecorded_items_fail_only_where_the_seed_is_covered() {
        let reference = reference_for(b"x");
        let mut gate = Gate::default();
        // Seed 8 has no reference: only cross-run checks apply.
        gate.check_reference(Some(&reference), 8, "sweep-grid", "table.csv", b"y", 3);
        assert!(gate.passed());
        // Seed 7 is covered, so a missing item is a failure.
        gate.check_reference(Some(&reference), 7, "sweep-grid", "extra.csv", b"y", 3);
        assert_eq!(gate.failed_ops, 3);
    }

    #[test]
    fn cross_run_inequality_fails() {
        let mut gate = Gate::default();
        gate.expect_eq(6, "repeat digest", "a", "a");
        assert!(gate.passed());
        gate.expect_eq(6, "repeat digest", "a", "b");
        assert_eq!(gate.failed_ops, 6);
    }

    #[test]
    fn reference_rejects_malformed_lines() {
        assert!(Reference::parse("1 sweep-grid table.csv").is_err());
        assert!(Reference::parse("x sweep-grid table.csv abc").is_err());
        Reference::bundled();
    }
}
