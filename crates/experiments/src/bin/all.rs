//! Runs every table/figure harness in sequence (the EXPERIMENTS.md data).
use intang_experiments::args::CommonArgs;
use intang_experiments::exps;

fn main() {
    let args = CommonArgs::parse();
    for (name, run) in exps::ALL {
        eprintln!(">>> running {name} ...");
        println!("{}", run(&args));
    }
}
