//! Sweep a range of nemesis seeds, in every scenario family, on the
//! simulator and print one line per scenario — the quick way to vet new
//! seeds before pinning them in the suite, or to reproduce a CI failure
//! locally:
//!
//! ```text
//! cargo run -p allconcur-nemesis --example sweep            # seeds 0..30
//! cargo run -p allconcur-nemesis --example sweep -- 120 150 # seeds 120..150
//! ```

use allconcur_nemesis::{Family, Scenario};

fn main() {
    let args: Vec<u64> =
        std::env::args().skip(1).map(|a| a.parse().expect("numeric seed")).collect();
    let (start, end) = match args.as_slice() {
        [] => (0, 30),
        [end] => (0, *end),
        [start, end, ..] => (*start, *end),
    };
    let mut failures = 0;
    for family in Family::ALL {
        for seed in start..end {
            let scenario = Scenario::generate(family, seed);
            match scenario.run_sim() {
                Ok(r) => println!("{family:?} seed {seed}: {scenario} OK {r:?}"),
                Err(e) => {
                    failures += 1;
                    println!("{family:?} seed {seed}: {scenario} FAILED: {e}");
                }
            }
        }
    }
    // Exit status is a single byte: clamp so 256 failures can't read
    // as success.
    std::process::exit(if failures > 0 { 1 } else { 0 });
}
