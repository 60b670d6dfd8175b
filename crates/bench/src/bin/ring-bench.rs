//! `ring-bench <subcommand> [--quick] [--out P] [--check P]`: see the
//! `ring_bench` crate docs for the subcommands.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ring_bench::cli(&args));
}
