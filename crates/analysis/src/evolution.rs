//! Temporal evolution of motif composition (Figure 7).
//!
//! Two drivers produce the same per-checkpoint analysis:
//!
//! - [`EvolutionAnalysis::from_snapshots`] — the paper's batch formulation:
//!   one independent hypergraph per year, each counted from scratch with
//!   MoCHy-E.
//! - [`EvolutionAnalysis::from_event_stream`] — the streaming formulation:
//!   one continuous hyperedge insert/remove stream (see
//!   [`mochy_datagen::temporal::temporal_event_stream`]) driven through a
//!   [`StreamingEngine`], which updates the exact counts by per-edge deltas
//!   and snapshots them at every [`EdgeEvent::Checkpoint`].

use mochy_core::count::MotifCounts;
use mochy_core::mochy_e;
use mochy_core::streaming::{StreamConfig, StreamingEngine};
use mochy_datagen::temporal::{EdgeEvent, YearlySnapshot};
use mochy_hypergraph::EdgeId;
use mochy_motif::{MotifCatalog, MotifId, NUM_MOTIFS};
use mochy_projection::project;
use serde::{Deserialize, Serialize};

/// Motif composition of a single year.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvolutionPoint {
    /// Calendar year.
    pub year: u32,
    /// Exact per-motif counts of the year's hypergraph.
    pub counts: MotifCounts,
    /// Fraction of instances belonging to each motif (sums to 1 unless the
    /// year has no instances).
    pub fractions: [f64; NUM_MOTIFS],
    /// Fraction of instances belonging to open motifs.
    pub open_fraction: f64,
    /// Fraction of instances belonging to closed motifs.
    pub closed_fraction: f64,
}

/// Figure 7: per-year motif fractions and the open/closed split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvolutionAnalysis {
    /// One point per analysed year, in chronological order.
    pub points: Vec<EvolutionPoint>,
}

/// Drives a hyperedge event stream through a fresh [`StreamingEngine`],
/// invoking `on_checkpoint(year, &mut engine)` at every
/// [`EdgeEvent::Checkpoint`] and returning the engine in its final state.
///
/// This is the one place that owns the `Remove { seq } → EdgeId` mapping
/// (the `n`-th `Insert` of the stream is addressed by `seq = n`); every
/// consumer of event streams should replay through it rather than
/// re-deriving the mapping. Malformed streams — a `seq` that was never
/// inserted, or a double removal — return an `Err` naming the offending
/// event, as does the first checkpoint callback that fails.
pub fn replay_event_stream<F>(
    events: &[EdgeEvent],
    mut on_checkpoint: F,
) -> Result<StreamingEngine, String>
where
    F: FnMut(u32, &mut StreamingEngine) -> Result<(), String>,
{
    let mut stream = StreamingEngine::new(StreamConfig);
    let mut ids: Vec<EdgeId> = Vec::new();
    for event in events {
        match event {
            EdgeEvent::Insert { members } => {
                ids.push(stream.insert(members.iter().copied()));
            }
            EdgeEvent::Remove { seq } => {
                let id = ids
                    .get(*seq)
                    .copied()
                    .ok_or_else(|| format!("event stream removes unknown insertion #{seq}"))?;
                if !stream.remove(id) {
                    return Err(format!(
                        "event stream removes already-dead insertion #{seq}"
                    ));
                }
            }
            EdgeEvent::Checkpoint { year } => on_checkpoint(*year, &mut stream)?,
        }
    }
    Ok(stream)
}

/// Assembles one [`EvolutionPoint`] from a year's exact counts.
fn point_from_counts(year: u32, counts: MotifCounts, open_ids: &[MotifId]) -> EvolutionPoint {
    let fractions = counts.fractions();
    let open_fraction: f64 = open_ids
        .iter()
        .map(|&id| fractions[(id - 1) as usize])
        .sum();
    let closed_fraction = if counts.total() > 0.0 {
        1.0 - open_fraction
    } else {
        0.0
    };
    EvolutionPoint {
        year,
        counts,
        fractions,
        open_fraction,
        closed_fraction,
    }
}

impl EvolutionAnalysis {
    /// Analyses a sequence of yearly snapshots with exact counting (one
    /// independent from-scratch MoCHy-E run per year).
    pub fn from_snapshots(snapshots: &[YearlySnapshot]) -> Self {
        let open_ids = MotifCatalog::shared().open_motif_ids();
        let points = snapshots
            .iter()
            .map(|snapshot| {
                let projected = project(&snapshot.hypergraph);
                let counts = mochy_e(&snapshot.hypergraph, &projected);
                point_from_counts(snapshot.year, counts, &open_ids)
            })
            .collect();
        Self { points }
    }

    /// Analyses a continuous hyperedge event stream with the streaming
    /// engine: inserts and removals update the exact counts by per-edge
    /// deltas, and every [`EdgeEvent::Checkpoint`] contributes one point —
    /// no from-scratch recount anywhere.
    ///
    /// # Panics
    /// Panics on a malformed stream (a removal of a never-inserted or
    /// already-removed edge): silently skipping one would leave phantom
    /// contributions in every later point.
    pub fn from_event_stream(events: &[EdgeEvent]) -> Self {
        let open_ids = MotifCatalog::shared().open_motif_ids();
        let mut points = Vec::new();
        replay_event_stream(events, |year, stream| {
            points.push(point_from_counts(year, stream.counts().clone(), &open_ids));
            Ok(())
        })
        .unwrap_or_else(|error| panic!("malformed hyperedge event stream: {error}"));
        Self { points }
    }

    /// The change in open-motif fraction between the first and last year — a
    /// positive value reproduces the paper's observation that collaborations
    /// became less clustered over time.
    pub fn open_fraction_trend(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(first), Some(last)) => last.open_fraction - first.open_fraction,
            _ => 0.0,
        }
    }

    /// The motif with the largest instance share in the last year.
    pub fn dominant_motif_last_year(&self) -> Option<u8> {
        self.points.last().map(|point| {
            let (index, _) = point
                .fractions
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("26 motifs");
            (index + 1) as u8
        })
    }

    /// Renders one tab-separated row per year: year, open fraction, closed
    /// fraction, then the 26 motif fractions.
    pub fn to_table(&self) -> String {
        let mut out = String::from("year\topen\tclosed");
        for t in 1..=NUM_MOTIFS {
            out.push_str(&format!("\tm{t}"));
        }
        out.push('\n');
        for point in &self.points {
            out.push_str(&format!(
                "{}\t{:.4}\t{:.4}",
                point.year, point.open_fraction, point.closed_fraction
            ));
            for fraction in &point.fractions {
                out.push_str(&format!("\t{fraction:.4}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_datagen::temporal::{
        temporal_coauthorship, temporal_event_stream, EventStreamConfig, TemporalConfig,
    };

    fn config() -> TemporalConfig {
        TemporalConfig {
            first_year: 1990,
            num_years: 8,
            num_authors: 220,
            papers_first_year: 120,
            papers_growth_per_year: 30,
            seed: 5,
        }
    }

    fn snapshots() -> Vec<YearlySnapshot> {
        temporal_coauthorship(&config())
    }

    #[test]
    fn fractions_are_normalized_per_year() {
        let analysis = EvolutionAnalysis::from_snapshots(&snapshots());
        assert_eq!(analysis.points.len(), 8);
        for point in &analysis.points {
            if point.counts.total() > 0.0 {
                let sum: f64 = point.fractions.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "year {}", point.year);
                assert!(
                    (point.open_fraction + point.closed_fraction - 1.0).abs() < 1e-9,
                    "year {}",
                    point.year
                );
            }
        }
    }

    #[test]
    fn open_fraction_increases_over_time() {
        // The generator decays core reuse over the years, so the fraction of
        // open instances must grow — the Figure 7(b) trend.
        let analysis = EvolutionAnalysis::from_snapshots(&snapshots());
        assert!(
            analysis.open_fraction_trend() > 0.0,
            "trend {}",
            analysis.open_fraction_trend()
        );
    }

    #[test]
    fn dominant_motif_and_table() {
        let analysis = EvolutionAnalysis::from_snapshots(&snapshots());
        let dominant = analysis.dominant_motif_last_year().unwrap();
        assert!((1..=26).contains(&dominant));
        let table = analysis.to_table();
        assert!(table.lines().count() == 9);
        assert!(table.starts_with("year\topen\tclosed\tm1"));
    }

    #[test]
    fn empty_analysis_is_handled() {
        let analysis = EvolutionAnalysis::from_snapshots(&[]);
        assert_eq!(analysis.open_fraction_trend(), 0.0);
        assert!(analysis.dominant_motif_last_year().is_none());
        let streaming = EvolutionAnalysis::from_event_stream(&[]);
        assert!(streaming.points.is_empty());
    }

    #[test]
    fn event_stream_checkpoints_are_normalized_and_yearly() {
        let events = temporal_event_stream(&EventStreamConfig {
            temporal: TemporalConfig {
                num_years: 5,
                ..config()
            },
            window_years: Some(2),
        });
        let analysis = EvolutionAnalysis::from_event_stream(&events);
        assert_eq!(analysis.points.len(), 5);
        for (i, point) in analysis.points.iter().enumerate() {
            assert_eq!(point.year, 1990 + i as u32);
            if point.counts.total() > 0.0 {
                let sum: f64 = point.fractions.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "year {}", point.year);
            }
        }
    }

    #[test]
    fn cumulative_event_stream_final_point_matches_batch_count_of_union() {
        // With no window, the last checkpoint sees every paper ever
        // published — the union hypergraph, which a from-scratch batch count
        // must agree with exactly.
        let temporal = TemporalConfig {
            num_years: 4,
            papers_first_year: 60,
            papers_growth_per_year: 15,
            ..config()
        };
        let events = temporal_event_stream(&EventStreamConfig {
            temporal,
            window_years: None,
        });
        let analysis = EvolutionAnalysis::from_event_stream(&events);

        let mut builder = mochy_hypergraph::HypergraphBuilder::new();
        for snapshot in temporal_coauthorship(&temporal) {
            for (_, members) in snapshot.hypergraph.edges() {
                builder.add_edge(members.iter().copied());
            }
        }
        let union = builder.build().unwrap();
        let expected = mochy_e(&union, &project(&union));
        assert_eq!(analysis.points.last().unwrap().counts, expected);
    }
}
