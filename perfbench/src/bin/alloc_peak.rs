//! Peak heap bytes allocated by one durable checkpoint save.
//!
//! Usage: `alloc_peak --from DIR --to DIR`. Loads the newest checkpoint in
//! `--from` (the largest one the crash drill writes), saves it into `--to`
//! inside a `tin_memstats` scope, and prints
//! `checkpoint.alloc_peak_bytes N`. It is a binary of its own because the
//! counting allocator it installs would slow every layer the main binary
//! times.

use tin_core::checkpoint::CheckpointStore;
use tin_memstats::{CountingAllocator, MemoryScope};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let argv: Vec<String> = std::env::args().collect();
    let [_, from_flag, from, to_flag, to] = argv.as_slice() else {
        return Err("usage: alloc_peak --from DIR --to DIR".into());
    };
    if from_flag != "--from" || to_flag != "--to" {
        return Err("usage: alloc_peak --from DIR --to DIR".into());
    }
    let (_, checkpoint) = CheckpointStore::open(from)?
        .load_latest_valid()?
        .ok_or("no checkpoint to save")?;
    let mut store = CheckpointStore::open(to)?;
    let scope = MemoryScope::start();
    store.save(&checkpoint)?;
    let report = scope.finish();
    println!("checkpoint.alloc_peak_bytes {}", report.peak_delta_bytes);
    Ok(())
}
