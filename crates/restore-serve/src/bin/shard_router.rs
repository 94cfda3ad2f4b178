//! `shard_router` — multi-process scale-out for `restore-serve`.
//!
//! Router mode (the default) boots N worker processes (re-execs of this
//! same binary in `--worker` mode) from one versioned snapshot directory
//! and serves the standard wire format in front of them, forwarding each
//! `/v1/{tenant}/…` request to the tenant's shard over keep-alive upstream
//! sockets. Dead workers are re-execed from the same directory.
//!
//! ```text
//! shard_router --snapshot-dir DIR --shards N [--addr HOST:PORT] [--worker-threads W]
//! shard_router --worker --snapshot-dir DIR [--addr HOST:PORT]
//! ```
//!
//! Both modes print a `… listening on ADDR` line on stdout once bound and
//! run until stdin reaches EOF (so an orphaned worker exits when its
//! parent dies), then drain gracefully.

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use restore_core::SnapshotRegistry;
use restore_serve::router::{Fleet, FleetConfig, ShardConfig, WorkerSpec};
use restore_serve::{raise_fd_limit, ServeConfig, Server};

struct Args {
    worker: bool,
    snapshot_dir: Option<PathBuf>,
    shards: usize,
    addr: String,
    worker_threads: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: shard_router --snapshot-dir DIR --shards N [--addr HOST:PORT] [--worker-threads W]\n\
         \x20      shard_router --worker --snapshot-dir DIR [--addr HOST:PORT]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        worker: false,
        snapshot_dir: None,
        shards: 2,
        addr: String::new(),
        worker_threads: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--worker" => args.worker = true,
            "--snapshot-dir" => args.snapshot_dir = Some(PathBuf::from(value("--snapshot-dir"))),
            "--shards" => args.shards = value("--shards").parse().expect("--shards: usize"),
            "--addr" => args.addr = value("--addr"),
            "--worker-threads" => {
                args.worker_threads = Some(value("--worker-threads").parse().expect("usize"))
            }
            _ => usage(),
        }
    }
    if args.snapshot_dir.is_none() || args.shards == 0 {
        usage();
    }
    if args.addr.is_empty() {
        // Workers always take an ephemeral port: a respawned worker never
        // races a TIME_WAIT socket for its old address.
        args.addr = "127.0.0.1:0".to_string();
    }
    args
}

/// Blocks until stdin reaches EOF — the lifetime protocol shared with the
/// bench harness children: the parent holds our stdin pipe; parent death
/// or drop closes it and we exit.
fn wait_for_stdin_eof() {
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
}

fn main() -> ExitCode {
    let args = parse_args();
    let _ = raise_fd_limit();
    let registry = Arc::new(SnapshotRegistry::new());
    // Router workers run only `/healthz`, `/metrics`, `/fleet/{i}/metrics`
    // and the fault seams (every `/v1/*` forward rides the reactor), so
    // both modes size their pool alike.
    let workers = args
        .worker_threads
        .unwrap_or_else(|| ServeConfig::default().workers);

    if args.worker {
        // A worker is a stock server; the PR 9 boot scan of the snapshot
        // directory is its entire startup story.
        let config = ServeConfig {
            snapshot_dir: args.snapshot_dir,
            workers,
            ..ServeConfig::default()
        };
        let server = match Server::bind(&args.addr, registry, config) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("shard_router worker: bind {}: {e}", args.addr);
                return ExitCode::FAILURE;
            }
        };
        println!("shard_router worker listening on {}", server.local_addr());
        wait_for_stdin_eof();
        server.shutdown();
        return ExitCode::SUCCESS;
    }

    let snapshot_dir = args.snapshot_dir.expect("checked in parse_args");
    let program = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("shard_router: current_exe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = WorkerSpec {
        program,
        args: vec![
            "--worker".to_string(),
            "--snapshot-dir".to_string(),
            snapshot_dir.display().to_string(),
        ],
    };
    let fleet_config = FleetConfig {
        shards: vec![
            ShardConfig {
                addr: None,
                worker: Some(spec),
            };
            args.shards
        ],
        ..FleetConfig::default()
    };
    let fleet = match Fleet::start(fleet_config) {
        Ok(fleet) => fleet,
        Err(e) => {
            eprintln!("shard_router: fleet start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = ServeConfig {
        fleet: Some(Arc::clone(&fleet)),
        workers,
        ..ServeConfig::default()
    };
    let server = match Server::bind(&args.addr, registry, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("shard_router: bind {}: {e}", args.addr);
            fleet.shutdown();
            return ExitCode::FAILURE;
        }
    };
    println!("shard_router listening on {}", server.local_addr());
    wait_for_stdin_eof();
    server.shutdown();
    fleet.shutdown();
    ExitCode::SUCCESS
}
