//! Host-speed probe: runs a fixed unit of work again and again on one
//! thread until its standard input closes, then prints
//! `CHUNKS SECONDS` — the chunks it completed and the seconds they took.
//!
//! `run.py` starts it next to every timed campaign process and stops it
//! when the campaign exits, so `CHUNKS / SECONDS` is the speed the host
//! gave a fixed piece of code over the same interval as the campaign.
//! The host is shared: its speed drifts by tens of percent, and by up to
//! two times, over minutes, and a campaign's wall time drifts with it.
//! Scaling the campaign's times by the probe's speed removes most of
//! that drift. The probe links no simulator code, so a change to the
//! simulator cannot change the probe's own work.
//!
//! A chunk is 2^20 steps of an xorshift generator that reads or writes
//! a random word of a 4 MiB table and branches on the bits it draws:
//! cache-missing, branchy integer code, like the cycle-stepped cores.

use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static STOP: AtomicBool = AtomicBool::new(false);

const TABLE_WORDS: usize = 1 << 19;
const CHUNK_STEPS: u64 = 1 << 20;

fn chunk(table: &mut [u64], x: &mut u64, acc: &mut u64) {
    for i in 0..CHUNK_STEPS {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let j = (*x as usize) & (TABLE_WORDS - 1);
        if *x & 3 == 0 {
            table[j] = table[j].wrapping_add(i);
        } else {
            *acc = acc.wrapping_add(table[j] ^ *x);
        }
        if *acc & 1 == 1 {
            *acc = acc.rotate_left(3);
        }
    }
}

fn main() {
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        STOP.store(true, Ordering::Relaxed);
    });
    let mut table = vec![0u64; TABLE_WORDS];
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    let start = Instant::now();
    let (mut chunks, mut seconds) = (0u64, 0.0f64);
    while !STOP.load(Ordering::Relaxed) {
        chunk(&mut table, &mut x, &mut acc);
        chunks += 1;
        seconds = start.elapsed().as_secs_f64();
    }
    // `acc` is printed so the work cannot be optimised away.
    println!("{chunks} {seconds:.6} {}", acc & 1);
}
