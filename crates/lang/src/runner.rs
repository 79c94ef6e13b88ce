//! The synthesizer configurations of the Table 1 columns and the
//! canonical goal label shared by every report. Runs themselves go
//! through `synquid-engine`.

use std::time::Duration;
use synquid_core::SynthesisConfig;

/// Which configuration of the synthesizer to run (the ablations of
/// Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// All features enabled (the T-all / T-def columns).
    Default,
    /// Round-trip checking disabled (T-nrt).
    NoRoundTrip,
    /// Consistency checks disabled (T-ncc).
    NoConsistency,
    /// Naive BFS strengthening instead of MUSFIX (T-nmus).
    NoMusfix,
}

impl Variant {
    /// All variants, in the column order of Table 1.
    pub fn all() -> [Variant; 4] {
        [
            Variant::Default,
            Variant::NoRoundTrip,
            Variant::NoConsistency,
            Variant::NoMusfix,
        ]
    }

    /// The Table 1 column header for this variant.
    pub fn column(&self) -> &'static str {
        match self {
            Variant::Default => "T-all",
            Variant::NoRoundTrip => "T-nrt",
            Variant::NoConsistency => "T-ncc",
            Variant::NoMusfix => "T-nmus",
        }
    }

    /// Builds a synthesizer configuration for this variant.
    pub fn config(&self, timeout: Duration, bounds: (usize, usize)) -> SynthesisConfig {
        let base = SynthesisConfig::with_timeout(timeout).with_bounds(bounds.0, bounds.1);
        match self {
            Variant::Default => base,
            Variant::NoRoundTrip => base.without_round_trip(),
            Variant::NoConsistency => base.without_consistency(),
            Variant::NoMusfix => base.without_musfix(),
        }
    }
}

/// The canonical `goal @ source` reference used everywhere a goal is
/// named next to its provenance — batch listings, timeout reports, and
/// the generated corpus table all agree on this one format (it matches
/// the parser diagnostics' source-located style).
pub fn goal_label(name: &str, source: &str) -> String {
    format!("{name} @ {source}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goal_labels_use_the_source_located_style() {
        assert_eq!(
            goal_label("append", "specs/append.sq"),
            "append @ specs/append.sq"
        );
    }

    #[test]
    fn variants_map_to_table1_columns() {
        assert_eq!(Variant::Default.column(), "T-all");
        assert_eq!(Variant::NoMusfix.column(), "T-nmus");
        assert_eq!(Variant::all().len(), 4);
    }

    #[test]
    fn variant_configs_flip_the_right_flags() {
        let t = Duration::from_secs(5);
        assert!(!Variant::NoRoundTrip.config(t, (2, 1)).round_trip);
        assert!(!Variant::NoConsistency.config(t, (2, 1)).consistency);
        assert!(!Variant::NoMusfix.config(t, (2, 1)).use_musfix);
        let d = Variant::Default.config(t, (2, 1));
        assert!(d.round_trip && d.consistency && d.use_musfix);
        assert_eq!(d.max_app_depth, 2);
    }
}
