//! Host-speed calibration for the `tin-cli run` benchmark.
//!
//! Usage: `calibrate --reps N`. Runs one fixed, seed-free loop of
//! hash-map updates and random reads over a 64 MiB buffer, the kind of work
//! the engine does per interaction, N times with fresh memory
//! each time, and prints `calibration_s S`, the median loop wall time in
//! process. `run.py` runs it beside every timed invocation and scales that
//! invocation's times by how much slower than usual the host ran the loop
//! (README.md, "Host-speed normalisation"). It links none of the workspace
//! crates, so no change to the program can change its time.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

const STEPS: u64 = 1_000_000;
const KEYS: u64 = 150_000;
const BUFFER_F64S: usize = 8 << 20;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let reps = match argv.as_slice() {
        [_, flag, n] if flag == "--reps" => n.parse().unwrap_or(0),
        _ => 0,
    };
    if reps == 0 {
        eprintln!("usage: calibrate --reps N, N >= 1");
        std::process::exit(1);
    }
    let mut times: Vec<f64> = (0..reps).map(|_| run_loop()).collect();
    times.sort_by(f64::total_cmp);
    println!("calibration_s {:.9}", times[reps / 2]);
}

/// One pass of the fixed loop; returns its wall seconds.
fn run_loop() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut buffer = vec![0f64; BUFFER_F64S];
    let mut sum = 0f64;
    for _ in 0..black_box(STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % KEYS).or_insert(0.0) += (x & 0xff) as f64;
        let i = (x >> 20) as usize % BUFFER_F64S;
        buffer[i] += 1.0;
        sum += buffer[(i * 7 + 3) % BUFFER_F64S];
    }
    black_box((&map, sum));
    started.elapsed().as_secs_f64()
}
