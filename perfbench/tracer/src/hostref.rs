//! Host-speed reference of the campaign benchmark (`perfbench/run.py`).
//!
//! `perfbench-hostref THREADS ITERS` runs a fixed kernel on THREADS
//! threads, ITERS iterations each, and prints the wall seconds it took.
//! The kernel calls no workspace code, so its time moves only with the
//! host: `run.py` times it before every closed batch and divides the
//! batch's times by it. It resembles the engine's hot loop (xoshiro256**
//! draws, a geometric gap through `ln`, data-dependent branches over a
//! 32 KiB table) so that host contention slows it the way it slows `rcb`.

use std::hint::black_box;
use std::time::Instant;

fn kernel(seed: u64, iters: u64) -> u64 {
    let mut s = [
        seed ^ 0x9E37_79B9_7F4A_7C15,
        seed.wrapping_mul(3) | 1,
        0x0123_4567,
        0x89AB_CDEF,
    ];
    let mut table = vec![0u64; 4096];
    let mut acc = 0u64;
    for i in 0..iters {
        let draw = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        let u = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let gap = ((1.0 - u).ln() / -0.01) as u64;
        let idx = draw as usize & 4095;
        table[idx] = table[idx].wrapping_add(gap | i);
        if table[(idx * 7) & 4095] & 1 == 0 {
            acc = acc.wrapping_add(gap);
        } else {
            acc ^= draw;
        }
    }
    acc ^ table.iter().fold(0, |a, &b| a ^ b)
}

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().unwrap_or(0))
        .collect();
    let (threads, iters) = match args[..] {
        [threads, iters] if threads >= 1 && iters >= 1 => (threads, iters),
        _ => {
            eprintln!("usage: perfbench-hostref THREADS ITERS");
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|k| std::thread::spawn(move || kernel(k + 1, iters)))
        .collect();
    let folded = workers.into_iter().fold(0, |a, w| a ^ w.join().unwrap());
    black_box(folded);
    println!("{}", start.elapsed().as_secs_f64());
}
