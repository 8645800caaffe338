//! What every workload shares: the run context, its outcome, state
//! digests and process memory.

use crate::report::{Metrics, Tally};
use crate::trace::Tracer;
use hemelb_core::dist::locals_of;
use hemelb_obs::ObsReport;
use std::path::PathBuf;
use std::time::Duration;

/// Ranks (and farm slots) every workload runs on: one per core of the
/// two-core machine the benchmark was sized for.
pub const RANKS: usize = 2;

/// One benchmark run's parameters.
pub struct Ctx<'a> {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced mode: an untraced half, then a traced half.
    pub trace: bool,
    /// Span recorder (enabled only while tracing).
    pub tracer: &'a Tracer,
    /// Work directory for this run's generated inputs.
    pub workdir: PathBuf,
}

impl Ctx<'_> {
    /// The measured phases of this run: `[(traced, length)]` — one
    /// untraced phase, or in traced mode an untraced half followed by a
    /// traced half (the pair gives `obs.trace_overhead_ratio`).
    pub fn phases(&self) -> Vec<(bool, Duration)> {
        if self.trace {
            let half = Duration::from_secs_f64(self.seconds / 2.0);
            vec![(false, half), (true, half)]
        } else {
            vec![(false, Duration::from_secs_f64(self.seconds))]
        }
    }
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end, per-layer and report-only metrics.
    pub metrics: Metrics,
    /// Operations and correctness checks.
    pub tally: Tally,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

/// FNV-1a over the IEEE bit patterns of a field array — the same
/// fingerprint the farm records per rank.
pub fn digest_bits(values: &[f64]) -> u64 {
    fnv(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Fold per-rank digests (rank order) into one run digest, as the farm
/// does for its job records.
pub fn combine_digests(rank_digests: &[u64]) -> u64 {
    fnv(rank_digests.iter().flat_map(|d| d.to_le_bytes()))
}

fn fnv(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The digest a distributed run over `owner` would record, computed from
/// a serial run's site-major distributions: each rank's share is its
/// owned sites in ascending global order.
pub fn split_digest(site_major: &[f64], q: usize, owner: &[usize], ranks: usize) -> u64 {
    let per_rank: Vec<u64> = (0..ranks)
        .map(|r| {
            let local: Vec<f64> = locals_of(owner, r)
                .iter()
                .flat_map(|&g| &site_major[g as usize * q..(g as usize + 1) * q])
                .copied()
                .collect();
            digest_bits(&local)
        })
        .collect();
    combine_digests(&per_rank)
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total seconds of phase `name` in `obs`.
pub fn phase_secs(obs: &ObsReport, name: &str) -> f64 {
    obs.phases.get(name).map_or(0.0, |p| p.total_secs)
}

/// Counter `name` in `obs`.
pub fn counter(obs: &ObsReport, name: &str) -> u64 {
    obs.counters.get(name).copied().unwrap_or(0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_digest_matches_per_rank_digests() {
        // Two sites per rank, q = 2, interleaved ownership.
        let f = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let owner = [0, 1, 1, 0];
        let expect = combine_digests(&[
            digest_bits(&[1.0, 2.0, 7.0, 8.0]),
            digest_bits(&[3.0, 4.0, 5.0, 6.0]),
        ]);
        assert_eq!(split_digest(&f, 2, &owner, 2), expect);
        // A single bit flip anywhere changes the digest.
        let mut g = f;
        g[5] = f64::from_bits(g[5].to_bits() ^ 1);
        assert_ne!(split_digest(&g, 2, &owner, 2), expect);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
    }
}
