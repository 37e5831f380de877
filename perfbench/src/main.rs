//! `perfbench`: runs the workloads named on the command line and prints
//! every metric by name; see the crate documentation and the README.

use waterwheel_perfbench::{cli, e2e, report, trace};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let host = report::host();
    let run_dir = args.data_dir.join(format!("run-{}", std::process::id()));
    let mut all_correct = true;
    for workload in &args.workloads {
        let mut spec = **workload;
        if let Some(clients) = args.clients {
            spec.clients = clients;
        }
        let dir = run_dir.join(spec.name);
        let outcome = if args.trace {
            trace::run(&spec, args.seed, args.scale, &dir, args.out.as_deref())
        } else {
            e2e::run(&spec, args.seed, args.scale, &dir, args.out.as_deref())
        };
        let _ = std::fs::remove_dir_all(&dir);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&run_dir);
                eprintln!("perfbench: {}: {e}", spec.name);
                std::process::exit(1);
            }
        };
        all_correct &= outcome.correct();
        print!(
            "{}",
            report::table(spec.name, args.seed, args.trace, &host, &outcome)
        );
        println!("{}", report::result_json(&outcome));
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    if !all_correct {
        std::process::exit(1);
    }
}
