//! Channel scarcity: what does limited spectrum cost?
//!
//! Sweeps the number of available channels `C` from `n/2` down to 1 and
//! runs `MultiCast(C)` at a fixed jamming budget. Corollary 7.1 predicts
//! time `O(T/C + (n/C)·lg²n)` — inversely proportional to `C` — while the
//! per-node energy bound does not depend on `C` at all. "The more channels
//! we have, the faster we can be" (Section 7), and spectrum buys *time*,
//! never *battery*.
//!
//! ```text
//! cargo run --release --example channel_scarcity
//! ```

use rcb::harness::{run_trials, AdversaryKind, ProtocolKind, TrialResult, TrialSpec};
use rcb::stats::{fit_power_law, Table};

fn main() {
    let n: u64 = 64;
    let t: u64 = 100_000;
    let seeds = 5u64;

    println!("channel scarcity — MultiCast(C) at n = {n}, T = {t}, {seeds} seeds per C\n");

    let mut specs = Vec::new();
    for c in [1u64, 2, 4, 8, 16, 32] {
        for s in 0..seeds {
            specs.push(TrialSpec::new(
                ProtocolKind::MultiCastC {
                    n,
                    c,
                    params: Default::default(),
                },
                AdversaryKind::Uniform { t, frac: 0.6 },
                7_000 + c * 100 + s,
            ));
        }
    }
    let results = run_trials(&specs, 0);

    // Recover C from the spec order (results preserve order).
    let mut table = Table::new(&[
        "C (channels)",
        "time (slots, mean)",
        "time x C",
        "max node cost (mean)",
        "completion",
    ]);
    let cs = [1u64, 2, 4, 8, 16, 32];
    let mut points = Vec::new();
    for (idx, &c) in cs.iter().enumerate() {
        let batch = &results[idx * seeds as usize..(idx + 1) * seeds as usize];
        let mean = |f: fn(&TrialResult) -> f64| batch.iter().map(f).sum::<f64>() / seeds as f64;
        let time = mean(|r| r.completion_time() as f64);
        let completed = batch.iter().filter(|r| r.completed).count();
        points.push((c as f64, time));
        table.row(&[
            c.to_string(),
            format!("{time:.0}"),
            format!("{:.2e}", time * c as f64),
            format!("{:.0}", mean(|r| r.max_cost as f64)),
            format!("{:.0}%", completed as f64 / seeds as f64 * 100.0),
        ]);
    }
    println!("{}", table.markdown());

    let (_, beta, r2) = fit_power_law(&points);
    println!("fit: time ∝ C^{beta:.2} (r² = {r2:.3}); Corollary 7.1 predicts C^-1");
    println!("note how `time x C` is nearly constant while cost stays flat in C.");
}
