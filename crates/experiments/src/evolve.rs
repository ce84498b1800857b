//! `mochy-exp evolve` — drives the streaming engine over a temporal
//! hyperedge event stream.
//!
//! The stream comes from [`mochy_datagen::temporal::temporal_event_stream`]
//! (yearly co-authorship with an optional sliding window, so both
//! insertions *and* deletions occur) and is replayed through
//! [`mochy_analysis::evolution::replay_event_stream`]. At every yearly
//! checkpoint the subcommand reports the live hypergraph size, the exact
//! instance total, and the open-motif fraction; with verification on (the
//! default), each checkpoint's streamed counts are additionally compared
//! against a from-scratch [`MotifEngine`](mochy_core::MotifEngine) run on
//! the materialized live hypergraph, and so is its hyperwedge count |∧|
//! (which `mochy-serve` renders from the stream) — any mismatch aborts with
//! an error, which is exactly the per-commit equivalence check CI runs.

use std::time::{Duration, Instant};

use mochy_analysis::evolution::replay_event_stream;
use mochy_core::engine::CountConfig;
use mochy_datagen::temporal::{temporal_event_stream, EventStreamConfig, TemporalConfig};
use mochy_motif::MotifCatalog;

/// Options of an `evolve` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolveOptions {
    /// Number of simulated years.
    pub years: usize,
    /// Sliding window in years (`None` = insert-only stream).
    pub window: Option<usize>,
    /// Author population size.
    pub authors: usize,
    /// Publications in the first year.
    pub papers_first_year: usize,
    /// Additional publications per later year.
    pub papers_growth: usize,
    /// Generator seed.
    pub seed: u64,
    /// Verify every checkpoint against a from-scratch engine run.
    pub verify: bool,
}

impl Default for EvolveOptions {
    fn default() -> Self {
        Self {
            years: 10,
            window: Some(3),
            authors: 300,
            papers_first_year: 150,
            papers_growth: 30,
            seed: 7,
            verify: true,
        }
    }
}

/// Runs the evolve experiment, returning the per-checkpoint table (or a
/// description of the first verification mismatch).
pub fn run(options: &EvolveOptions) -> Result<String, String> {
    let events = temporal_event_stream(&EventStreamConfig {
        temporal: TemporalConfig {
            first_year: 1984,
            num_years: options.years,
            num_authors: options.authors,
            papers_first_year: options.papers_first_year,
            papers_growth_per_year: options.papers_growth,
            seed: options.seed,
        },
        window_years: options.window,
    });

    let open_ids = MotifCatalog::shared().open_motif_ids();
    let mut last_insertions = 0u64;
    let mut last_removals = 0u64;
    let mut scratch_time = Duration::ZERO;
    let mut last_update_time = Duration::ZERO;

    let mut out = String::from(
        "year\tlive_edges\thyperwedges\tinstances\topen_frac\tops\tstream_ms\tscratch_ms\n",
    );
    let stream = replay_event_stream(&events, |year, stream| {
        let counts = stream.counts();
        let total = counts.total();
        let open: f64 = open_ids.iter().map(|&id| counts.get(id)).sum();
        let open_fraction = if total > 0.0 { open / total } else { 0.0 };
        let stream_ms = (stream.update_time() - last_update_time).as_secs_f64() * 1e3;
        last_update_time = stream.update_time();
        let stats = stream.stats();
        let ops = format!(
            "+{}/-{}",
            stats.insertions - last_insertions,
            stats.removals - last_removals
        );
        last_insertions = stats.insertions;
        last_removals = stats.removals;

        let mut scratch_ms = f64::NAN;
        if options.verify {
            let snapshot = stream
                .to_hypergraph()
                .map_err(|error| format!("year {year}: {error}"))?;
            let start = Instant::now();
            let report = CountConfig::exact().build().count(&snapshot);
            let elapsed = start.elapsed();
            scratch_time += elapsed;
            scratch_ms = elapsed.as_secs_f64() * 1e3;
            if &report.counts != counts {
                return Err(format!(
                    "year {year}: streamed counts diverge from from-scratch counts\n\
                     streamed:     {:?}\nfrom-scratch: {:?}",
                    counts.as_slice(),
                    report.counts.as_slice()
                ));
            }
            if report.num_hyperwedges != Some(stream.num_hyperwedges()) {
                return Err(format!(
                    "year {year}: streamed |∧| {} diverges from the from-scratch {:?}",
                    stream.num_hyperwedges(),
                    report.num_hyperwedges
                ));
            }
        }

        out.push_str(&format!(
            "{year}\t{}\t{}\t{total:.0}\t{open_fraction:.4}\t{ops}\t{stream_ms:.2}\t{}\n",
            stream.num_live_edges(),
            stream.num_hyperwedges(),
            if scratch_ms.is_nan() {
                "-".to_string()
            } else {
                format!("{scratch_ms:.2}")
            },
        ));
        Ok(())
    })?;

    let stats = stream.stats();
    out.push_str(&format!(
        "# stream: {} insertions, {} removals, {:.2} ms total",
        stats.insertions,
        stats.removals,
        stream.update_time().as_secs_f64() * 1e3,
    ));
    if options.verify {
        out.push_str(&format!(
            "; from-scratch verification: {:.2} ms total, all {} checkpoints identical",
            scratch_time.as_secs_f64() * 1e3,
            options.years,
        ));
    }
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> EvolveOptions {
        EvolveOptions {
            years: 6,
            window: Some(2),
            authors: 120,
            papers_first_year: 50,
            papers_growth: 10,
            seed: 3,
            verify: true,
        }
    }

    #[test]
    fn windowed_run_verifies_every_checkpoint() {
        let table = run(&tiny_options()).expect("verification must pass");
        // Header + one row per year + summary.
        assert_eq!(table.lines().count(), 6 + 2);
        assert!(table.contains("all 6 checkpoints identical"));
        // The window forces removals into the stream.
        assert!(table.contains("/-"), "no removal column in:\n{table}");
    }

    #[test]
    fn cumulative_run_without_verification() {
        let options = EvolveOptions {
            window: None,
            verify: false,
            years: 4,
            ..tiny_options()
        };
        let table = run(&options).expect("run must succeed");
        assert_eq!(table.lines().count(), 4 + 2);
        assert!(table.contains("0 removals"));
        assert!(!table.contains("from-scratch verification"));
    }
}
