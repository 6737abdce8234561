//! Audit the paper's lower-bound machinery numerically: the tower
//! recurrences of Lemmas 3.2–3.4, the `log*` latency floors, and the
//! Theorem 3.5 bound against real counting algorithms.
//!
//! ```text
//! cargo run --release --example lower_bound_audit
//! ```

use ccq_repro::core::experiments::{t1_logstar, t8_recurrence, Scale};
use ccq_repro::core::table::{fmt_util::tick, Table};

fn main() {
    println!("LOWER-BOUND AUDIT — Busch & Tirthapura §3\n");

    let mut failed_tick = false;
    let mut show = |tables: Vec<Table>| {
        for table in tables {
            failed_tick |= table.rows.iter().flatten().any(|cell| *cell == tick(false));
            println!("{table}");
        }
    };
    show(t8_recurrence::run(Scale::Full));
    println!("Measured counting algorithms vs the Theorem 3.5 floor (quick sweep):\n");
    show(t1_logstar::run(Scale::Quick));

    if failed_tick {
        eprintln!("AUDIT FAILED: a tick cell above reads 'NO'. No algorithm, however clever,");
        eprintln!("may dip below the information-propagation floor — that is the theorem.");
        std::process::exit(1);
    }
    println!("Every 'meas ≥ LB' cell reads 'yes': no algorithm, however clever,");
    println!("may dip below the information-propagation floor — that is the theorem.");
}
