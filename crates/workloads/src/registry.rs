//! Lookup of named benchmarks (the paper's Table 2 population).

use crate::benchmarks::{mediabench, specfp, specint, BenchmarkSpec, VariabilityClass};

/// Every benchmark in the study: 6 MediaBench, 6 SPECint2000, 5 SPECfp2000.
pub fn all() -> Vec<BenchmarkSpec> {
    let mut v = mediabench::all();
    v.extend(specint::all());
    v.extend(specfp::all());
    v
}

/// Looks up a benchmark by its canonical name.
pub fn by_name(name: &str) -> Option<BenchmarkSpec> {
    all().into_iter().find(|b| b.name == name)
}

/// Benchmarks designed to land in the given variability class.
pub fn by_variability(class: VariabilityClass) -> Vec<BenchmarkSpec> {
    all()
        .into_iter()
        .filter(|b| b.expected_variability == class)
        .collect()
}

/// Canonical names of all benchmarks, in suite order.
pub fn names() -> Vec<&'static str> {
    all().into_iter().map(|b| b.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Suite;

    #[test]
    fn seventeen_benchmarks_total() {
        let all = all();
        assert_eq!(all.len(), 17);
        let in_suite = |s| all.iter().filter(|b| b.suite == s).count();
        assert_eq!(in_suite(Suite::MediaBench), 6);
        assert_eq!(in_suite(Suite::SpecInt2000), 6);
        assert_eq!(in_suite(Suite::SpecFp2000), 5);
    }

    #[test]
    fn names_are_unique() {
        let mut n = names();
        let before = n.len();
        n.sort_unstable();
        n.dedup();
        assert_eq!(n.len(), before, "duplicate benchmark names");
    }

    #[test]
    fn lookup_by_name_roundtrips() {
        for name in names() {
            let b = by_name(name).expect("name from names() must resolve");
            assert_eq!(b.name, name);
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn fast_group_is_nonempty_and_not_everything() {
        let fast = by_variability(VariabilityClass::Fast);
        let slow = by_variability(VariabilityClass::Slow);
        assert!(!fast.is_empty());
        assert!(!slow.is_empty());
        assert_eq!(fast.len() + slow.len(), 17);
    }
}
