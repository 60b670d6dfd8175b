//! The storage pricing model of Figure 10.
//!
//! Operation and storage prices for the *hot* (`Rep(3)`) and *cold*
//! (`SRS(3,2,3)`) schemes come from Azure Blob Storage pricing for
//! Central US as of February 2018 (the paper's reference \[18\]). Azure
//! offers no unreplicated tier, so — exactly as the paper does — the
//! *simple* (`Rep(1)`) scheme reuses the hot price points with 3x
//! cheaper puts (writes are not replicated).

use serde::{Deserialize, Serialize};

use crate::spc::TraceStats;

const GIB: f64 = (1u64 << 30) as f64;
const HOURS_PER_MONTH: f64 = 730.0;

/// The three storage classes priced in Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeClass {
    /// High-performance replicated storage, `Rep(3)`.
    Hot,
    /// Low-overhead erasure-coded storage, `SRS(3,2,3)`.
    Cold,
    /// Unreplicated storage, `Rep(1)`.
    Simple,
}

impl SchemeClass {
    /// All classes in presentation order.
    pub const ALL: [SchemeClass; 3] = [SchemeClass::Hot, SchemeClass::Cold, SchemeClass::Simple];

    /// The label used in Figure 10.
    pub fn label(self) -> &'static str {
        match self {
            SchemeClass::Hot => "hot",
            SchemeClass::Cold => "cold",
            SchemeClass::Simple => "simple",
        }
    }
}

/// Price points in USD (Azure Blob Storage, Central US, Feb 2018).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PricePoints {
    /// $/GiB/month of stored capacity.
    pub storage_per_gib_month: f64,
    /// $ per 10,000 write operations.
    pub write_per_10k: f64,
    /// $ per 10,000 read operations.
    pub read_per_10k: f64,
    /// $/GiB of data retrieval (cool-tier reads).
    pub retrieval_per_gib: f64,
    /// $/GiB of data write (cool-tier ingest).
    pub data_write_per_gib: f64,
    /// $/GiB outbound data transfer (applies to all tiers).
    pub egress_per_gib: f64,
}

/// The Feb-2018 price points for a scheme class.
pub fn price_points(class: SchemeClass) -> PricePoints {
    match class {
        SchemeClass::Hot => PricePoints {
            storage_per_gib_month: 0.0184,
            write_per_10k: 0.05,
            read_per_10k: 0.004,
            retrieval_per_gib: 0.0,
            data_write_per_gib: 0.0,
            egress_per_gib: 0.087,
        },
        SchemeClass::Cold => PricePoints {
            storage_per_gib_month: 0.01,
            write_per_10k: 0.10,
            read_per_10k: 0.01,
            retrieval_per_gib: 0.01,
            data_write_per_gib: 0.0025,
            egress_per_gib: 0.087,
        },
        // Simple: hot prices with writes not replicated (3x cheaper).
        SchemeClass::Simple => PricePoints {
            storage_per_gib_month: 0.0184,
            write_per_10k: 0.05 / 3.0,
            read_per_10k: 0.004,
            retrieval_per_gib: 0.0,
            data_write_per_gib: 0.0,
            egress_per_gib: 0.087,
        },
    }
}

/// Cost of running a trace under one scheme, split into the four
/// components shown in Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Write-operation cost (including cool-tier data-write charges).
    pub write: f64,
    /// Read-operation cost (including cool-tier retrieval charges).
    pub read: f64,
    /// Outbound data-transfer cost.
    pub transfer: f64,
    /// Stored-capacity cost over the trace duration.
    pub storage: f64,
}

impl CostBreakdown {
    /// Total cost in USD.
    pub fn total(&self) -> f64 {
        self.write + self.read + self.transfer + self.storage
    }
}

/// Prices a trace under one scheme class.
pub fn price(stats: &TraceStats, class: SchemeClass) -> CostBreakdown {
    let p = price_points(class);
    let write_gib = stats.write_bytes as f64 / GIB;
    let read_gib = stats.read_bytes as f64 / GIB;
    let months = stats.duration_hours / HOURS_PER_MONTH;
    CostBreakdown {
        write: stats.writes as f64 / 10_000.0 * p.write_per_10k + write_gib * p.data_write_per_gib,
        read: stats.reads as f64 / 10_000.0 * p.read_per_10k + read_gib * p.retrieval_per_gib,
        transfer: read_gib * p.egress_per_gib,
        storage: stats.footprint_gib * months * p.storage_per_gib_month,
    }
}

/// Prices a trace under all three classes and normalises to the simple
/// scheme's total — the y-axis of Figure 10.
pub fn normalized_prices(stats: &TraceStats) -> Vec<(SchemeClass, CostBreakdown, f64)> {
    let simple = price(stats, SchemeClass::Simple).total();
    SchemeClass::ALL
        .iter()
        .map(|&c| {
            let b = price(stats, c);
            let rel = if simple > 0.0 {
                b.total() / simple
            } else {
                0.0
            };
            (c, b, rel)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spc::{synthesize, trace_by_name, TraceStats, TRACES};

    fn stats(name: &str) -> TraceStats {
        TraceStats::from_profile(trace_by_name(name).unwrap())
    }

    #[test]
    fn simple_normalises_to_one() {
        for t in ["Financial1", "WebSearch1"] {
            let rows = normalized_prices(&stats(t));
            let simple = rows
                .iter()
                .find(|(c, _, _)| *c == SchemeClass::Simple)
                .unwrap();
            assert!((simple.2 - 1.0).abs() < 1e-12, "{t}");
        }
    }

    #[test]
    fn financial1_ordering_matches_figure10() {
        // Figure 10: for the put-heavy Financial1 trace, cold is the most
        // expensive (~5.5x simple) and roughly 2x hot.
        let rows = normalized_prices(&stats("Financial1"));
        let get = |c: SchemeClass| rows.iter().find(|(x, _, _)| *x == c).unwrap().2;
        let hot = get(SchemeClass::Hot);
        let cold = get(SchemeClass::Cold);
        assert!(hot > 1.5 && hot < 3.5, "hot = {hot}");
        assert!(cold > 3.5 && cold < 8.0, "cold = {cold}");
        assert!(
            cold / hot > 1.5 && cold / hot < 3.0,
            "cold/hot = {}",
            cold / hot
        );
    }

    #[test]
    fn websearch_prices_are_compressed() {
        // Get-dominant traces: write prices become irrelevant, so the
        // three schemes come out much closer than on Financial1.
        let rows = normalized_prices(&stats("WebSearch2"));
        let max = rows.iter().map(|r| r.2).fold(0.0, f64::max);
        assert!(max < 2.5, "max relative price {max}");
    }

    #[test]
    fn writes_dominate_financial1_costs() {
        let b = price(&stats("Financial1"), SchemeClass::Hot);
        assert!(b.write > b.read);
        assert!(b.write > b.storage);
    }

    #[test]
    fn transfer_equal_across_schemes() {
        let s = stats("WebSearch1");
        let hot = price(&s, SchemeClass::Hot).transfer;
        let cold = price(&s, SchemeClass::Cold).transfer;
        let simple = price(&s, SchemeClass::Simple).transfer;
        assert_eq!(hot, cold);
        assert_eq!(hot, simple);
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = CostBreakdown {
            write: 1.0,
            read: 2.0,
            transfer: 3.0,
            storage: 4.0,
        };
        assert_eq!(b.total(), 10.0);
    }

    #[test]
    fn empty_stats_price_zero() {
        let b = price(&TraceStats::default(), SchemeClass::Hot);
        assert_eq!(b.total(), 0.0);
    }

    /// Records synthesized from a profile, scaled up to the full trace,
    /// price within a few percent of the profile's exact statistics.
    #[test]
    fn synthetic_traces_price_like_their_profiles() {
        let rel_hot = |s: &TraceStats| {
            let rows = normalized_prices(s);
            rows.iter().find(|r| r.0 == SchemeClass::Hot).unwrap().2
        };
        for profile in &TRACES {
            let sample_n = 200_000usize;
            let mut sampled = TraceStats {
                footprint_gib: profile.footprint_gib,
                ..TraceStats::default()
            };
            for r in &synthesize(profile, sample_n, 42) {
                sampled.add(r);
            }
            let scale = profile.requests as f64 / sample_n as f64;
            for n in [
                &mut sampled.reads,
                &mut sampled.writes,
                &mut sampled.read_bytes,
                &mut sampled.write_bytes,
            ] {
                *n = (*n as f64 * scale) as u64;
            }
            sampled.duration_hours = profile.duration_hours;
            let exact = rel_hot(&TraceStats::from_profile(profile));
            let err = (rel_hot(&sampled) - exact).abs() / exact;
            assert!(err < 0.03, "{}: {err:.4}", profile.name);
        }
    }
}
