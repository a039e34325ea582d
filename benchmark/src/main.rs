//! The repo benchmark: five single-client workloads over the EncDBDB
//! reproduction, segment-median end-to-end metrics, per-layer probes.
//! See `README.md` beside this package for what is measured and why.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, JSON result on the last line
//! benchmark [--seed n] [--quick] [--trace 1]                           every workload, each in its own process
//! benchmark --selfcheck <N> [--seed n]                                 two interleaved sets of N runs, compared
//! ```
//!
//! The binary is started from the repo root (`run.sh` changes there): it
//! reads `BENCHMARK.json` from the current directory and keeps everything
//! it writes under [`OUT_DIR`].

mod envinfo;
mod harness;
mod json;
mod layers;
mod oracle;
mod orchestrate;
mod stats;
mod trace;
mod workloads;

use json::{obj, Value};
use std::path::Path;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` at which a workload
/// runs its full op count. Other values scale the op count in proportion.
pub const FULL_SECONDS: u64 = 15;

/// Where results, traces, the selfcheck table and each run's scratch files
/// (the durable workload's WAL and snapshots) go, relative to the repo
/// root. Inside the checkout on purpose: the runner lets the benchmark
/// write nowhere else.
pub const OUT_DIR: &str = "benchmark/out";

/// The end-to-end metrics with their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("passed_ops_share", "ratio"),
    ("ecalls_per_op", "count"),
    ("stored_bytes_per_user_byte", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Op-count factor of `--quick`.
pub const QUICK_FACTOR: f64 = 0.02;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--workload`: run this one workload in this process.
    pub workload: Option<String>,
    /// `--seed` (default 1).
    pub seed: u64,
    /// `--seconds` (default [`FULL_SECONDS`]).
    pub seconds: u64,
    /// `--trace 1`: the per-layer pass.
    pub traced: bool,
    /// `--quick`: 2 % of the ops.
    pub quick: bool,
    /// `--selfcheck N`.
    pub selfcheck: Option<usize>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: FULL_SECONDS,
            traced: false,
            quick: false,
            selfcheck: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let number = |v: &String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {v}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = Some(value()?.clone()),
                "--seed" => args.seed = number(value()?)?,
                "--seconds" => args.seconds = number(value()?)?.max(1),
                "--trace" => args.traced = number(value()?)? != 0,
                "--quick" => args.quick = true,
                "--selfcheck" => args.selfcheck = Some(number(value()?)?.max(2) as usize),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }

    /// The op-count factor on top of the `--seconds` scaling.
    pub fn factor(&self) -> f64 {
        if self.quick {
            QUICK_FACTOR
        } else {
            1.0
        }
    }
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Value) {
    (
        name.to_string(),
        obj([
            ("value", Value::Num(value)),
            ("unit", Value::Str(unit.into())),
        ]),
    )
}

/// Runs one workload in this process and prints the result line. A run
/// that printed its line exits 0 whatever the line says, so that the
/// runner can parse it: failed ops are in `correct`, `failed` and the
/// `passed_ops_share` metric, not in the exit code.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    // The simulator's transition cost is a knob of the program; the
    // benchmark measures the default (0 ns) and nothing else.
    if std::env::var_os("ENCDBDB_SIM_TRANSITION_NS").is_some() {
        return Err("ENCDBDB_SIM_TRANSITION_NS is set; unset it".into());
    }
    let spec = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let out_dir = Path::new(OUT_DIR);
    let scratch = out_dir.join(format!("tmp-{name}-{}-{}", args.seed, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let ops = spec.ops_for(args.seconds, FULL_SECONDS, args.factor());
    let outcome = if args.traced {
        // A quarter of the ops, in alternating untraced and traced blocks, plus probes.
        let plan = spec.generate(
            args.seed,
            (ops / 4).max(spec.ops_for(1, FULL_SECONDS, QUICK_FACTOR)),
            true,
        );
        layers::run_traced(spec, &plan, args.seed, &scratch, out_dir).map(
            |(metrics, attempted, failed)| {
                (
                    metrics
                        .into_iter()
                        .map(|(n, v, u)| metric(n, v, u))
                        .collect(),
                    attempted,
                    failed,
                )
            },
        )
    } else {
        let plan = spec.generate(args.seed, ops, false);
        harness::run_untraced(spec, &plan, args.seed, &scratch).map(|(e, pass)| {
            let values = [
                e.setup_s,
                e.ops.ops_per_s,
                e.ops.p50_us,
                e.ops.p90_us,
                (pass.attempted - pass.failed) as f64 / pass.attempted as f64,
                e.ecalls_per_op,
                e.stored_bytes_per_user_byte,
                envinfo::peak_rss_mib(),
            ];
            let metrics = END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| metric(n, v, u))
                .collect();
            (metrics, pass.attempted, pass.failed)
        })
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (metrics, attempted, failed): (Vec<(String, Value)>, u64, u64) =
        outcome.map_err(|e| format!("{name}: {e}"))?;
    let line = obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let done = match (&args.workload, args.selfcheck) {
        (Some(name), _) => match orchestrate::repin(&args, name) {
            Some(status) => status,
            None => run_one(&args, name),
        },
        (None, Some(n)) => orchestrate::selfcheck(&args, n),
        (None, None) => orchestrate::run_all(&args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json` and the code name the same workloads and metrics,
    /// in the same order, with the same units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let text = std::fs::read_to_string("../BENCHMARK.json").unwrap();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(FULL_SECONDS as f64)
        );
        assert_eq!(
            doc.get("paths").unwrap().items(),
            [Value::Str("benchmark".into())]
        );
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        let in_code: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
        assert_eq!(workloads, in_code);
        let layers: Vec<(String, String)> = layers::LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), end_to_end);
        // The runner's limits: setup_s carries the largest bound, and
        // none exceeds a quarter.
        let bound = |m: &Value| m.get("bound").unwrap().as_f64().unwrap();
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .map(bound)
            .collect();
        assert!(bounds
            .iter()
            .all(|b| *b > 0.0 && *b <= bounds[0] && *b <= 0.25));
    }

    #[test]
    fn command_line() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&argv("--workload tcp_point --seed 9 --seconds 6 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.traced),
            (Some("tcp_point"), 9, 6, true)
        );
        let a = Args::parse(&argv("--quick --selfcheck 5")).unwrap();
        assert_eq!(
            (a.factor(), a.selfcheck, a.seconds, a.traced),
            (QUICK_FACTOR, Some(5), FULL_SECONDS, false)
        );
        assert!(Args::parse(&argv("--seed")).is_err());
        assert!(Args::parse(&argv("--seed x")).is_err());
        assert!(Args::parse(&argv("--bogus")).is_err());
    }
}
