//! Command-line entry point; see the library docs and README.md.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match sacperf::run::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    std::process::exit(sacperf::run::run(&args));
}
