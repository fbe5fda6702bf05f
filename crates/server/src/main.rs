//! `sofos-server`: boot a demo dataset, run offline view selection, and
//! serve the resulting engine over HTTP until SIGTERM/SIGINT.
//!
//! ```text
//! sofos-server [--host 127.0.0.1] [--port 7878] [--dataset synthetic|dbpedia|lubm|swdf]
//!              [--staleness eager|lazy|invalidate|bounded=<batches>,<epochs>[,<ms>]]
//!              [--workers N] [--max-inflight N] [--max-pending N] [--no-views]
//!              [--data-dir PATH] [--snapshot-every N]
//! ```
//!
//! Prints one line per lifecycle step; exits 0 on a clean signal-driven
//! shutdown (the `serve-smoke` CI job asserts exactly that).

use sofos_core::{
    run_offline, DurabilityConfig, Engine, EngineConfig, SizedLattice, StalenessPolicy,
    WorkloadProfile,
};
use sofos_cost::CostModelKind;
use sofos_server::{serve, ServerConfig};
use sofos_workload::{dbpedia, generate_workload, lubm, swdf, synthetic, GeneratedDataset};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", HELP);
        return;
    }
    match run(&args) {
        Ok(()) => {}
        Err(why) => {
            eprintln!("sofos-server: {why}");
            std::process::exit(1);
        }
    }
}

const HELP: &str = "\
sofos-server: serve a SOFOS engine over HTTP/1.1

  --host <addr>        bind host (default 127.0.0.1)
  --port <port>        bind port (default 7878; 0 picks a free port)
  --dataset <name>     synthetic | dbpedia | lubm | swdf (default synthetic)
  --staleness <p>      eager | lazy | invalidate | bounded=<batches>,<epochs>[,<ms>]
                       (default eager)
  --workers <n>        HTTP worker threads (default 4)
  --max-inflight <n>   connection admission cap (default 64)
  --max-pending <n>    /update admission cap on buffered batches (default 64)
  --no-views           skip offline view selection (serve the base graph)
  --data-dir <path>    persist published epochs under <path> and recover
                       from it on restart
  --snapshot-every <n> full-snapshot cadence in publishes (default 64)
";

/// Flags that take a value.
const VALUE_FLAGS: &[&str] = &[
    "--host",
    "--port",
    "--dataset",
    "--staleness",
    "--workers",
    "--max-inflight",
    "--max-pending",
    "--data-dir",
    "--snapshot-every",
];

/// Reject any argument that is neither a known flag nor the value of one,
/// so a typo fails loudly instead of being ignored.
fn check_flags(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            rest.next();
        } else if arg != "--no-views" {
            return Err(format!("unknown flag `{arg}`\n\n{HELP}"));
        }
    }
    Ok(())
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad {name} value `{v}`")),
    }
}

fn generate_dataset(name: &str) -> Result<GeneratedDataset, String> {
    match name {
        "synthetic" => Ok(synthetic::generate(&synthetic::Config::default())),
        "dbpedia" => Ok(dbpedia::generate(&dbpedia::Config::default())),
        "lubm" => Ok(lubm::generate(&lubm::Config::default())),
        "swdf" => Ok(swdf::generate(&swdf::Config::default())),
        _ => Err(format!("unknown dataset `{name}`")),
    }
}

fn parse_staleness(text: &str) -> Result<StalenessPolicy, String> {
    match text {
        "eager" => return Ok(StalenessPolicy::Eager),
        "lazy" => return Ok(StalenessPolicy::LazyOnHit),
        "invalidate" => return Ok(StalenessPolicy::Invalidate),
        _ => {}
    }
    let Some(spec) = text.strip_prefix("bounded=") else {
        return Err(format!("unknown staleness policy `{text}`"));
    };
    let parts: Vec<&str> = spec.split(',').collect();
    let num = |s: &str| {
        s.trim()
            .parse::<u64>()
            .map_err(|_| format!("bad bounded component `{s}`"))
    };
    match parts.as_slice() {
        [batches, epochs] => Ok(StalenessPolicy::bounded(
            num(batches)? as usize,
            num(epochs)?,
        )),
        [batches, epochs, ms] => Ok(StalenessPolicy::bounded_ms(
            num(batches)? as usize,
            num(epochs)?,
            num(ms)?,
        )),
        _ => Err("bounded wants <batches>,<epochs>[,<ms>]".to_string()),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    check_flags(args)?;
    let host = flag_value(args, "--host")?.unwrap_or("127.0.0.1");
    let port: u16 = parsed_flag(args, "--port", 7878)?;
    let dataset_name = flag_value(args, "--dataset")?.unwrap_or("synthetic");
    let staleness = parse_staleness(flag_value(args, "--staleness")?.unwrap_or("eager"))?;
    let data_dir = flag_value(args, "--data-dir")?;
    let snapshot_every: u64 = parsed_flag(args, "--snapshot-every", 64)?;
    // An existing data dir wins over anything we generate below: the
    // engine discards the boot dataset and catalog for the recovered
    // ones, so skip the offline pass instead of throwing it away.
    let resuming = data_dir.is_some_and(|d| sofos_store::persist::has_state(Path::new(d)));

    let generated = generate_dataset(dataset_name)?;
    println!(
        "dataset {}: {} triples",
        generated.name,
        generated.dataset.total_triples()
    );

    let facet = generated.default_facet().clone();
    let mut dataset = generated.dataset;
    let catalog = if args.iter().any(|a| a == "--no-views") || resuming {
        if resuming {
            println!(
                "resuming from {}: skipping offline selection",
                data_dir.unwrap_or_default()
            );
        }
        Vec::new()
    } else {
        // The offline phase under the default configuration: the
        // agg-values pick for the default workload, materialized into G+.
        let config = EngineConfig::default();
        let failed = |e| format!("offline selection failed: {e}");
        let sized = SizedLattice::compute(&dataset, &facet).map_err(failed)?;
        let workload = generate_workload(&dataset, &facet, &config.workload);
        let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));
        let outcome = run_offline(
            &mut dataset,
            &sized,
            &profile,
            CostModelKind::AggValues,
            &config,
        )
        .map_err(failed)?;
        let catalog = outcome.view_catalog();
        println!(
            "offline: selected {} views ({} → {} bytes)",
            catalog.len(),
            outcome.base_bytes,
            outcome.expanded_bytes
        );
        catalog
    };

    let mut builder = Engine::builder()
        .dataset(dataset)
        .facet(facet)
        .catalog(catalog)
        .staleness(staleness);
    if let Some(dir) = data_dir {
        builder = builder.durability(DurabilityConfig::new(dir).snapshot_every(snapshot_every));
    }
    let engine = builder
        .build()
        .map_err(|e| format!("engine build failed: {e}"))?;
    if let Some(rec) = engine.recovery() {
        println!(
            "recovered: epoch {} (snapshot {}, {} records replayed, {} bytes truncated, {} views rebuilt)",
            rec.epoch,
            rec.snapshot_epoch,
            rec.replayed_records,
            rec.truncated_bytes,
            rec.rematerialized_views
        );
    } else if engine.durability_enabled() {
        println!(
            "durability: fresh data dir {}",
            data_dir.unwrap_or_default()
        );
    }

    let config = ServerConfig {
        addr: format!("{host}:{port}"),
        workers: parsed_flag(args, "--workers", 4)?,
        max_inflight: parsed_flag(args, "--max-inflight", 64)?,
        max_pending: parsed_flag(args, "--max-pending", ServerConfig::default().max_pending)?,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::new(engine), config).map_err(|e| format!("bind failed: {e}"))?;
    println!("listening on http://{}", handle.addr());

    signals::install();
    while !signals::stop_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("signal received, draining");
    let stats = handle.shutdown();
    println!(
        "shutdown clean: served={} rejected={} bad_requests={}",
        stats.served, stats.rejected_connections, stats.bad_requests
    );
    Ok(())
}

#[cfg(unix)]
mod signals {
    //! SIGTERM/SIGINT without a libc dependency: declare the one libc
    //! symbol we need and flip an atomic from the (signal-safe) handler.
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    pub fn stop_requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    //! No signal story off unix: run until killed.
    pub fn install() {}

    pub fn stop_requested() -> bool {
        false
    }
}
