//! Regenerate the paper's tables and figures.
//!
//! ```text
//! tables [--quick] [ids…]
//! ```
//!
//! With no ids, runs every experiment in the [`ccq_core::experiments`]
//! index (`ccq list` prints it). `--quick` uses the CI-sized sweeps.
//! Independent experiments run in parallel (rayon); output order is
//! deterministic.

use ccq_core::experiments::{registry, Scale};
use rayon::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let wanted: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();

    let reg = registry();
    let selected: Vec<_> =
        reg.into_iter().filter(|e| wanted.is_empty() || wanted.contains(&e.id)).collect();
    if selected.is_empty() {
        eprintln!("unknown experiment id(s): {wanted:?}");
        eprintln!("known ids: {:?}", ccq_bench::experiment_ids());
        std::process::exit(1);
    }

    println!("# Reproduction tables — Busch & Tirthapura, counting vs queuing");
    println!();
    println!(
        "scale: {} | experiments: {}",
        if quick { "quick" } else { "full" },
        selected.iter().map(|e| e.id).collect::<Vec<_>>().join(", ")
    );
    println!();

    // Run in parallel, print in order.
    let results: Vec<(usize, String)> = selected
        .par_iter()
        .enumerate()
        .map(|(i, e)| {
            let started = std::time::Instant::now();
            let tables = (e.run)(scale);
            let mut out = format!("## {} — {}\n\n", e.id, e.paper_item);
            for t in tables {
                out.push_str(&t.to_string());
                out.push('\n');
            }
            out.push_str(&format!("_generated in {:.1?}_\n", started.elapsed()));
            (i, out)
        })
        .collect();
    let mut results = results;
    results.sort_by_key(|(i, _)| *i);
    for (_, block) in results {
        println!("{block}");
    }
}
