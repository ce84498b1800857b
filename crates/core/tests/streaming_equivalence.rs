//! End-to-end equivalence of the streaming path: replaying a
//! `mochy_datagen::temporal` event stream through a `StreamingEngine` must
//! yield counts identical to a from-scratch `MotifEngine::count` of the live
//! hypergraph at every checkpoint — through insertions and sliding-window
//! deletions alike.

use mochy_core::engine::CountConfig;
use mochy_core::streaming::{StreamConfig, StreamingEngine};
use mochy_datagen::temporal::{
    temporal_event_stream, EdgeEvent, EventStreamConfig, TemporalConfig,
};
use mochy_datagen::{generate, DomainKind, GeneratorConfig};
use mochy_hypergraph::EdgeId;

fn stream_config() -> EventStreamConfig {
    EventStreamConfig {
        temporal: TemporalConfig {
            first_year: 2000,
            num_years: 7,
            num_authors: 180,
            papers_first_year: 90,
            papers_growth_per_year: 20,
            seed: 11,
        },
        window_years: Some(3),
    }
}

/// Replays `events` through a `StreamingEngine`, asserting equality with a
/// from-scratch engine run at every checkpoint. Returns the number of
/// checkpoints verified and the number of removal events seen.
fn replay_and_verify(events: &[EdgeEvent]) -> (usize, usize) {
    let mut stream = StreamingEngine::new(StreamConfig);
    let mut ids: Vec<EdgeId> = Vec::new();
    let mut checkpoints = 0usize;
    let mut removals = 0usize;
    for event in events {
        match event {
            EdgeEvent::Insert { members } => ids.push(stream.insert(members.iter().copied())),
            EdgeEvent::Remove { seq } => {
                assert!(stream.remove(ids[*seq]), "removed dead insertion #{seq}");
                removals += 1;
            }
            EdgeEvent::Checkpoint { year } => {
                let live = stream
                    .to_hypergraph()
                    .expect("checkpoints of this stream are non-empty");
                let scratch = CountConfig::exact().build().count(&live);
                assert_eq!(
                    stream.counts(),
                    &scratch.counts,
                    "year {year}: streamed counts diverge from from-scratch counts"
                );
                assert_eq!(
                    Some(stream.num_hyperwedges()),
                    scratch.num_hyperwedges,
                    "year {year}: hyperwedge counts diverge"
                );
                checkpoints += 1;
            }
        }
    }
    (checkpoints, removals)
}

#[test]
fn windowed_event_stream_matches_from_scratch_at_every_checkpoint() {
    let events = temporal_event_stream(&stream_config());
    let (checkpoints, removals) = replay_and_verify(&events);
    assert!(checkpoints >= 5, "only {checkpoints} checkpoints verified");
    assert!(removals > 0, "window produced no deletions");
}

#[test]
fn incremental_method_matches_exact_on_generated_datasets() {
    for (domain, nodes, edges) in [
        (DomainKind::Email, 120, 200),
        (DomainKind::Coauthorship, 150, 250),
        (DomainKind::Tags, 150, 150),
    ] {
        let h = generate(&GeneratorConfig::new(domain, nodes, edges, 5));
        let exact = CountConfig::exact().build().count(&h);
        let mut stream = StreamingEngine::new(StreamConfig);
        for e in h.edge_ids() {
            stream.insert(h.edge(e).iter().copied());
        }
        assert_eq!(
            stream.counts(),
            &exact.counts,
            "{domain:?}: incremental diverges from exact"
        );
        assert_eq!(Some(stream.num_hyperwedges()), exact.num_hyperwedges);
    }
}

#[test]
fn bootstrap_then_stream_matches_replay_from_empty() {
    // Splitting the same event sequence into "bootstrap batch + streamed
    // tail" must agree with streaming everything from an empty engine.
    let events = temporal_event_stream(&EventStreamConfig {
        temporal: TemporalConfig {
            first_year: 2010,
            num_years: 4,
            num_authors: 120,
            papers_first_year: 60,
            papers_growth_per_year: 15,
            seed: 23,
        },
        window_years: None,
    });
    // Bootstrap on the first year's inserts, stream the rest.
    let first_checkpoint = events
        .iter()
        .position(|e| matches!(e, EdgeEvent::Checkpoint { .. }))
        .unwrap();
    let mut from_empty = StreamingEngine::new(StreamConfig);
    for event in &events {
        if let EdgeEvent::Insert { members } = event {
            from_empty.insert(members.iter().copied());
        }
    }

    let mut builder = mochy_hypergraph::HypergraphBuilder::new();
    for event in &events[..first_checkpoint] {
        if let EdgeEvent::Insert { members } = event {
            builder.add_edge(members.iter().copied());
        }
    }
    let mut bootstrapped =
        StreamingEngine::from_hypergraph(&builder.build().unwrap(), StreamConfig);
    for event in &events[first_checkpoint..] {
        if let EdgeEvent::Insert { members } = event {
            bootstrapped.insert(members.iter().copied());
        }
    }

    assert_eq!(from_empty.counts(), bootstrapped.counts());
    assert_eq!(from_empty.num_hyperwedges(), bootstrapped.num_hyperwedges());
}
