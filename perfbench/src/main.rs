//! `domino-perfbench --workload <web-read|web-write|replicate> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line. Exits
//! non-zero when a correctness check failed or the run could not finish.

use domino_perfbench::{repl, web, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("domino-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "web-read" => web::run(&args, &web::WEB_READ),
        "web-write" => web::run(&args, &web::WEB_WRITE),
        _ => repl::run(&args),
    };
    let _ = std::fs::remove_dir_all(args.data_dir());
    let _ = std::fs::remove_dir(".bench_data");

    println!(
        "== {} (seed {}, {} s, trace {}) on {} cores ==",
        out.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for l in &out.lines {
        println!("{l}");
    }
    for (name, v, unit) in &out.named {
        match v {
            Some(v) => println!("{name:<28} {v:>14.4} {unit}"),
            None => println!(
                "{name:<28} {:>14} {unit} (too few samples beyond the percentile)",
                "n/a"
            ),
        }
    }
    for (name, v, unit) in &out.layers {
        println!("{name:<40} {v:>14.4} {unit}");
    }
    println!(
        "attempted {} failed {}{}",
        out.attempted,
        out.failed,
        out.aborted
            .as_ref()
            .map_or(String::new(), |a| format!(" — aborted: {a}"))
    );
    for e in &out.errors {
        println!("error: {e}");
    }
    let ok = out.correct(args.trace);
    if out.aborted.is_none() {
        println!("{}", out.json(args.trace));
    }
    if !ok {
        std::process::exit(1);
    }
}
