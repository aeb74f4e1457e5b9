//! Allocation regression test for streamed checkpoint save and load.
//!
//! Installs the `tin-memstats` counting allocator and checks that a durable
//! save streams the state to disk instead of encoding it into memory first,
//! that a load allocates little beyond the payloads it returns, and that a
//! forged length is refused before anything of that size is allocated.
//!
//! This file intentionally contains a single test: the measurement relies on
//! process-global allocator counters, so a concurrently running test in the
//! same binary would pollute the delta.

use tin::prelude::*;
use tin_core::checkpoint::{Checkpoint, CheckpointStore};
use tin_core::codec::crc32;
use tin_core::engine::ProvenanceEngine;
use tin_memstats::{CountingAllocator, MemoryScope};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// Headroom for I/O buffers, paths and the small sections.
const SLACK_BYTES: usize = 4 << 20;

/// A `prop_sparse` engine in which every vertex's provenance lists nearly
/// every origin: a chain relays one newborn share per vertex into the last
/// vertex, which then sends a little of everything to every other vertex.
fn dense_provenance_engine(n: u32) -> ProvenanceEngine {
    let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
    let mut engine = ProvenanceEngine::new(&config, n as usize).unwrap();
    let mut time = 0.0;
    let mut stream = Vec::new();
    for v in 0..n - 1 {
        time += 1.0;
        stream.push(Interaction::new(v, v + 1, time, 1000.0 * f64::from(v + 1)));
    }
    for v in 0..n - 1 {
        time += 1.0;
        stream.push(Interaction::new(n - 1, v, time, 10.0));
    }
    engine.process_all(&stream).unwrap();
    engine
}

#[test]
fn checkpoint_save_and_read_stream_without_copying_the_state() {
    let checkpoint = dense_provenance_engine(1800).checkpoint().unwrap();
    let payload_bytes: usize = checkpoint.states.iter().map(|(_, b)| b.len()).sum();
    assert!(
        payload_bytes >= 32 << 20,
        "the state must be large enough to dwarf the slack: {payload_bytes} bytes"
    );
    let dir = std::env::temp_dir().join(format!("tin_ckpt_alloc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = CheckpointStore::open(&dir).unwrap();
    assert!(
        tin_memstats::allocator_installed(),
        "counting allocator must be active for this test to mean anything"
    );

    // Save: streamed, so the peak is buffers, not a copy of the state.
    let scope = MemoryScope::start();
    let path = store.save(&checkpoint).unwrap();
    let save = scope.finish();
    assert!(
        save.peak_delta_bytes <= SLACK_BYTES,
        "save of {payload_bytes} payload bytes peaked {} bytes above its start",
        save.peak_delta_bytes
    );
    let file_len = std::fs::metadata(&path).unwrap().len();
    assert_eq!(
        store.last_save_stats().map(|s| s.encoded_bytes as u64),
        Some(file_len)
    );

    // Read: each payload straight into its own vector, no whole-file buffer.
    let scope = MemoryScope::start();
    let loaded = Checkpoint::read(&path).unwrap();
    let read = scope.finish();
    assert!(
        read.peak_delta_bytes <= payload_bytes + SLACK_BYTES,
        "read of {payload_bytes} payload bytes peaked {} bytes above its start",
        read.peak_delta_bytes
    );
    assert_eq!(loaded.states, checkpoint.states);
    drop(loaded);

    // Forge the states section's length, then the first payload's length,
    // to 5 GiB (above u32::MAX), with the section CRC recomputed so only
    // the length checks can refuse them.
    let clean = std::fs::read(&path).unwrap();
    let section_len = |at: usize| u64::from_le_bytes(clean[at..at + 8].try_into().unwrap());
    let cursor_at = 12 + 8 + section_len(12) as usize + 4;
    let states_at = cursor_at + 8 + section_len(cursor_at) as usize + 4;
    let first_payload_len_at = states_at + 8 + 8 + 4;
    for forged_at in [states_at, first_payload_len_at] {
        let mut bytes = clean.clone();
        bytes[forged_at..forged_at + 8].copy_from_slice(&(5u64 << 30).to_le_bytes());
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[states_at..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        drop(bytes);

        let scope = MemoryScope::start();
        let err = Checkpoint::read(&path).unwrap_err();
        let refused = scope.finish();
        assert!(
            matches!(&err, TinError::CorruptCheckpoint { section, .. } if section == "states"),
            "{err:?}"
        );
        assert!(
            refused.peak_delta_bytes <= SLACK_BYTES,
            "refusing a length forged at byte {forged_at} peaked {} bytes",
            refused.peak_delta_bytes
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
