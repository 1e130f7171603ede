//! `perfbench` — runs one workload of the tester-stack benchmark and
//! prints its metrics; the last line of standard output is the JSON
//! result. See `perfbench/README.md`.

use perfbench::alloc::CountingAlloc;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&args) {
        Ok(result) => {
            print!("{}", result.render());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
