//! Framework configuration.

use crate::cache::CacheConfig;
use crate::metrics::ErrorMetric;

/// All tunables of the snapshot framework, with the paper's defaults.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotConfig {
    /// The representation threshold `T`: `N_i` may represent `N_j`
    /// when `d(x_j, x̂_j) <= T` (paper sweeps 0.1..=10; sensitivity
    /// experiments use 1).
    pub threshold: f64,
    /// The error metric `d()` (paper: sse).
    pub metric: ErrorMetric,
    /// Cache sizing and replacement policy.
    pub cache: CacheConfig,
    /// Probability that a node hearing a *maintenance invitation*
    /// caches the inviter's fresh value after evaluating its model.
    /// Invitations are rare, explicit announcements, so the default is
    /// to always learn from them; energy-constrained deployments can
    /// lower this (each cached observation costs a cache-update
    /// charge).
    pub invite_learn_prob: f64,
    /// Battery fraction below which a representative initiates
    /// handoff of the nodes it represents (Section 5.1's energy-aware
    /// maintenance; 0 disables).
    pub energy_handoff_fraction: f64,
    /// Master seed for protocol-level randomness (Rule-4 coin flips,
    /// snooping decisions).
    pub seed: u64,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            threshold: 1.0,
            metric: ErrorMetric::Sse,
            cache: CacheConfig::default(),
            invite_learn_prob: 1.0,
            energy_handoff_fraction: 0.0,
            seed: 0,
        }
    }
}

impl SnapshotConfig {
    /// The paper's sensitivity-analysis configuration: `T`, a cache
    /// budget in bytes, and a seed; everything else at paper defaults.
    pub fn paper(threshold: f64, cache_bytes: usize, seed: u64) -> Self {
        SnapshotConfig {
            threshold,
            cache: CacheConfig {
                budget_bytes: cache_bytes,
                ..CacheConfig::default()
            },
            seed,
            ..SnapshotConfig::default()
        }
    }

    /// Panic-free validation for configuration loaded from outside.
    pub fn validate(&self) -> Result<(), String> {
        if self.threshold.is_nan() || self.threshold < 0.0 {
            return Err(format!("threshold must be >= 0, got {}", self.threshold));
        }
        if !(0.0..=1.0).contains(&self.invite_learn_prob) {
            return Err(format!(
                "invite_learn_prob must be a probability, got {}",
                self.invite_learn_prob
            ));
        }
        if !(0.0..=1.0).contains(&self.energy_handoff_fraction) {
            return Err(format!(
                "energy_handoff_fraction must be a probability, got {}",
                self.energy_handoff_fraction
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = SnapshotConfig::default();
        assert_eq!(c.threshold, 1.0);
        assert_eq!(c.metric, ErrorMetric::Sse);
        assert_eq!(c.cache.budget_bytes, 2048);
        assert_eq!(c.cache.pair_bytes, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn paper_constructor_overrides_the_sweep_axes() {
        let c = SnapshotConfig::paper(0.1, 512, 9);
        assert_eq!(c.threshold, 0.1);
        assert_eq!(c.cache.budget_bytes, 512);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = [
            SnapshotConfig {
                threshold: -1.0,
                ..SnapshotConfig::default()
            },
            SnapshotConfig {
                threshold: f64::NAN,
                ..SnapshotConfig::default()
            },
            SnapshotConfig {
                invite_learn_prob: 7.0,
                ..SnapshotConfig::default()
            },
            SnapshotConfig {
                energy_handoff_fraction: 2.0,
                ..SnapshotConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "accepted invalid config {c:?}");
        }
    }
}
