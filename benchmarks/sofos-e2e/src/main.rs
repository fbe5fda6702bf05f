//! `sofos-e2e`: the repo's claim benchmark. See `README.md`.
//!
//! ```text
//! sofos-e2e run --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR] [--repeat-index I]
//! sofos-e2e merge --out DIR --seed N --seconds S [--repeat R] [--commit C] [--rustc V]
//! sofos-e2e compare A.json B.json
//! sofos-e2e calibrate [--seed N] [--seconds S]
//! ```

mod check;
mod fixture;
mod http;
mod keepawake;
mod ops;
mod read;
mod report;
mod run;
mod stats;
mod stream;
mod trace;
mod write;

use run::Args;
use sofos_telemetry::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `--name value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot read `{text}`")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn out_dir(&self) -> PathBuf {
        self.value("--out").map_or_else(
            || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
            PathBuf::from,
        )
    }
}

fn run_args(flags: &Flags, workload: Option<&str>) -> Result<Args, String> {
    let smoke = flags.has("--smoke");
    let args = Args {
        workload: flags
            .value("--workload")
            .or(workload)
            .ok_or("run needs --workload")?
            .to_string(),
        seed: flags.parsed("--seed", 1)?,
        seconds: flags.parsed("--seconds", if smoke { 2.0 } else { 10.0 })?,
        trace: flags.parsed::<u8>("--trace", 0)? != 0,
        smoke,
        out_dir: flags.out_dir(),
    };
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs one workload. A run that printed its result line succeeded, even
/// when the line says `"correct": false`: the reader of the line judges.
fn run_workload(flags: &Flags) -> Result<bool, String> {
    let args = run_args(flags, None)?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let _awake = keepawake::KeepAwake::start();
    let result = match args.workload.as_str() {
        "view_read" => read::run(&args, true),
        "base_read" => read::run(&args, false),
        "write_durable" => write::run(&args),
        "http_open" => http::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (one of {:?})",
            report::WORKLOADS
        )),
    }?;
    // Build the line first: a run that cannot report prints no result. A
    // smoke run's windows are too short for every percentile; its line
    // carries what was measured.
    let line = match result.result_line() {
        Err(_) if args.smoke => result.to_json().to_string(),
        line => line?,
    };
    result.print_table();
    if args.smoke {
        println!("note: --smoke validates plumbing only; these numbers are not comparable");
    }
    let path = args.out_dir.join(format!(
        "run_{}_trace{}_{}.json",
        args.workload,
        u8::from(args.trace),
        flags.parsed::<usize>("--repeat-index", 0)?
    ));
    std::fs::write(&path, format!("{}\n", result.to_json()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{line}");
    Ok(true)
}

fn environment(flags: &Flags) -> Result<Json, String> {
    Ok(Json::object([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        (
            "rustc",
            Json::from(flags.value("--rustc").unwrap_or("unknown")),
        ),
        (
            "commit",
            Json::from(flags.value("--commit").unwrap_or("unknown")),
        ),
        ("seed", Json::from(flags.parsed::<u64>("--seed", 1)?)),
        ("run_seconds", Json::Num(flags.parsed("--seconds", 10.0)?)),
        ("repeat", Json::from(flags.parsed::<u64>("--repeat", 1)?)),
        ("warmup_share", Json::Num(0.1)),
        (
            "traced_run_split",
            Json::from("0.3 untraced reference + 0.7 traced"),
        ),
        ("http_open_rate_rps", Json::Num(http::RATE_RPS)),
    ]))
}

fn dispatch() -> Result<bool, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let flags = Flags(argv.collect());
    match command.as_str() {
        "run" => run_workload(&flags),
        "merge" => report::merge(&flags.out_dir(), environment(&flags)?).map(|()| true),
        "compare" => match flags.0.as_slice() {
            [a, b] => report::compare(Path::new(a), Path::new(b)).map(|worse| !worse),
            _ => Err("compare needs two results.json paths".into()),
        },
        "calibrate" => {
            let args = run_args(&flags, Some("http_open"))?;
            let _awake = keepawake::KeepAwake::start();
            http::calibrate(&args).map(|()| true)
        }
        _ => Err("usage: sofos-e2e run|merge|compare|calibrate … (see README.md)".into()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sofos-e2e: {message}");
            ExitCode::from(2)
        }
    }
}
