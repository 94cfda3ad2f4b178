//! The repository's benchmark: five workloads from the wire to the
//! sampling sweep, end-to-end metrics from an untraced run, per-layer
//! metrics and spans from a traced one. See `README.md` beside this crate.
//!
//! ```text
//! restore-benchmark --workload W --seed N --seconds S --trace 0|1   # the driver's form
//! restore-benchmark run   (--workload W | --all) [--seed N] [--seconds S | --quick]
//! restore-benchmark trace (--workload W | --all) [--seed N] [--seconds S | --quick]
//! restore-benchmark repeat [--sets 2] [--runs 3] [--seed N] [--seconds S] [--out FILE]
//! ```
//!
//! The last line of standard output of a run is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod client;
mod fixtures;
mod harness;
mod layers;
mod probe;
mod repeat;
mod report;
mod spec;
mod stats;
mod trace;

use spec::Workload;

/// `--quick`: one-second runs, for `check.sh`.
const QUICK_SECONDS: f64 = 1.0;

fn usage() -> ! {
    eprintln!(
        "usage: restore-benchmark [run|trace] (--workload W | --all) [--seed N] \
         [--seconds S | --quick] [--trace 0|1]\n       \
         restore-benchmark repeat [--sets 2] [--runs 3] [--seed N] [--seconds S] [--out FILE]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2);
}

/// `--flag value` pairs and bare flags, after the optional subcommand.
struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let Some(flag) = raw[i].strip_prefix("--") else {
                usage();
            };
            let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
            i += 1 + value.is_some() as usize;
            pairs.push((flag.to_string(), value));
        }
        Args { pairs }
    }

    fn has(&self, flag: &str) -> bool {
        self.pairs.iter().any(|(f, _)| f == flag)
    }

    fn value<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let (_, value) = self.pairs.iter().find(|(f, _)| f == flag)?;
        match value.as_deref().map(str::parse) {
            Some(Ok(v)) => Some(v),
            _ => usage(),
        }
    }
}

/// Pins this thread — and with it every thread and process started from
/// here on — to the first CPU it is allowed to run on.
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: pid 0 is the calling thread, and the kernel writes at most
    // `size` bytes into `mask`, a live buffer of exactly that size.
    let got = unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) };
    let first = mask.iter().position(|&word| word != 0);
    let (0, Some(word)) = (got, first) else {
        eprintln!("restore-benchmark: cannot read the CPU affinity; running unpinned");
        return;
    };
    let bit = mask[word].trailing_zeros();
    mask = [0u64; 16];
    mask[word] = 1 << bit;
    // SAFETY: as above; the kernel only reads `size` bytes of `mask`.
    if unsafe { sched_setaffinity(0, size, mask.as_ptr()) } != 0 {
        eprintln!("restore-benchmark: cannot set the CPU affinity; running unpinned");
    }
}

/// One run of one workload as a process of its own, started exactly as the
/// driver starts it — so that neither CPU pinning nor the peak-RSS
/// high-water mark leaks from one workload into the next.
fn child_run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> std::process::Command {
    let mut command = std::process::Command::new(std::env::current_exe().expect("current exe"));
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    command
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some("worker") => {
            let dir = raw.get(1).unwrap_or_else(|| usage());
            harness::run_worker(std::path::PathBuf::from(dir));
        }
        Some(c @ ("run" | "trace" | "repeat")) => (c, &raw[1..]),
        _ => ("run", &raw[..]),
    };
    let args = Args::parse(rest);

    // A scalar build measures a different program: refuse to report.
    if restore_nn::lane::WIDTH == 1 {
        eprintln!(
            "restore-benchmark: the kernels were built scalar (lane width 1, target feature \
             {}); build with the repository's .cargo/config.toml in effect",
            restore_nn::lane::TARGET_FEATURE
        );
        std::process::exit(3);
    }

    let seed: u64 = args.value("seed").unwrap_or(1);
    let seconds: f64 = match args.value("seconds") {
        Some(s) if s > 0.0 => s,
        Some(_) => usage(),
        None if args.has("quick") => QUICK_SECONDS,
        None => spec::RUN_SECONDS,
    };
    if command == "repeat" {
        let ok = repeat::repeat(
            args.value("sets").unwrap_or(2),
            args.value("runs").unwrap_or(3),
            seed,
            seconds,
            args.value::<String>("out").map(std::path::PathBuf::from),
        );
        std::process::exit(if ok { 0 } else { 1 });
    }

    let traced = command == "trace" || args.value::<u8>("trace") == Some(1);
    if args.has("all") {
        // Each child's result line passes through on the shared stdout.
        let ran = Workload::ALL.map(|w| {
            let status = child_run(w, seed, seconds, traced).status();
            status.expect("start a run").success()
        });
        std::process::exit(if ran.iter().all(|&ok| ok) { 0 } else { 1 });
    }
    let name: String = args.value("workload").unwrap_or_else(|| usage());
    let workload = Workload::from_name(&name).unwrap_or_else(|| usage());
    if workload.one_cpu() {
        pin_to_one_cpu();
    }
    let report = harness::run(workload, seed, seconds, traced);
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<40} {value:>16.4} {unit}");
    }
    // A run that was not correct says so in its result line; the exit code
    // stays 0 so that the line is read.
    println!("{}", report.to_json_line());
}
