//! Regenerate the paper's figures and tables.
//!
//! Usage: `cargo run --release -p hpcc-bench --bin figures -- <name|all> [args…]`
//!
//! | name                | arguments (defaults)                                   |
//! |---------------------|--------------------------------------------------------|
//! | `fig01`             | `[duration_ms 20]`                                     |
//! | `fig02`             | `[duration_ms 20] [load 0.3]`                          |
//! | `fig03`             | `[duration_ms 20]`                                     |
//! | `fig06`             | `[duration_ms 2]`                                      |
//! | `fig09`             | `[duration_ms 8]`                                      |
//! | `fig10`             | `[duration_ms 20]`                                     |
//! | `fig11`             | `[duration_ms 15] [load 0.3] [incast 1] [paper_scale 0]` |
//! | `fig12`             | `[duration_ms 15] [load 0.3]`                          |
//! | `fig13`             | `[duration_ms 2]`                                      |
//! | `fig14`             | `[duration_ms 10]`                                     |
//! | `tab_int_overhead`  | none                                                   |
//! | `fluid_convergence` | none                                                   |
//!
//! `all` runs every figure at its default (laptop) scale, plus Figure 11 at
//! 0.5 load without incast, and prints the combined report. An unknown name
//! prints the list of names and exits with status 2.

use hpcc_bench::arg_or;
use hpcc_bench::figures as f;

/// A figure runner: `args[0]` is the figure name, `args[1..]` its
/// positional arguments.
type Runner = fn(&[String]) -> String;

const FIGURES: [(&str, Runner); 12] = [
    ("fig01", |a| f::fig01(arg_or(a, 1, 20))),
    ("fig02", |a| f::fig02(arg_or(a, 1, 20), arg_or(a, 2, 0.3))),
    ("fig03", |a| f::fig03(arg_or(a, 1, 20))),
    ("fig06", |a| f::fig06(arg_or(a, 1, 2))),
    ("fig09", |a| f::fig09(arg_or(a, 1, 8))),
    ("fig10", |a| f::fig10(arg_or(a, 1, 20))),
    ("fig11", |a| {
        f::fig11(
            arg_or(a, 1, 15),
            arg_or(a, 2, 0.3),
            arg_or(a, 3, 1u8) != 0,
            arg_or(a, 4, 0u8) != 0,
        )
    }),
    ("fig12", |a| f::fig12(arg_or(a, 1, 15), arg_or(a, 2, 0.3))),
    ("fig13", |a| f::fig13(arg_or(a, 1, 2))),
    ("fig14", |a| f::fig14(arg_or(a, 1, 10))),
    ("tab_int_overhead", |_| f::tab_int_overhead()),
    ("fluid_convergence", |_| f::fluid_convergence()),
];

/// What `all` runs, in output order: one command line per entry.
const ALL: [&[&str]; 13] = [
    &["tab_int_overhead"],
    &["fluid_convergence"],
    &["fig01"],
    &["fig02"],
    &["fig03"],
    &["fig06"],
    &["fig09"],
    &["fig10"],
    &["fig11"],
    &["fig11", "15", "0.5", "0"],
    &["fig12"],
    &["fig13"],
    &["fig14"],
];

fn run(args: &[String]) -> Option<String> {
    let (_, runner) = FIGURES.iter().find(|(name, _)| *name == args[0])?;
    Some(runner(args))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|name| name == "all") {
        for line in ALL {
            let line: Vec<String> = line.iter().map(|s| s.to_string()).collect();
            print!("{}", run(&line).expect("ALL names only known figures"));
        }
        return;
    }
    match args.first().and_then(|_| run(&args)) {
        Some(report) => print!("{report}"),
        None => {
            let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "usage: figures <name|all> [args…]\nnames: all {}",
                names.join(" ")
            );
            std::process::exit(2);
        }
    }
}
