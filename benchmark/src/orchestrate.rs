//! Everything that starts other processes: pinning the TCP workload to
//! one core, running every workload in a process of its own, and the
//! selfcheck that runs two interleaved sets and compares them.
//!
//! Every child is waited for before its parent returns.

use crate::json::{self, obj, Value};
use crate::stats::{median, quartiles};
use crate::workloads::{self, Front};
use crate::{Args, OUT_DIR};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Marks a process already re-executed under `taskset`.
const PINNED_ENV: &str = "ENCDBDB_BENCH_PINNED";

fn self_command(args: &Args, workload: &str, seed: u64) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    Ok(cmd)
}

fn taskset_exists() -> bool {
    Command::new("taskset")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// The TCP workload's client and the worker serving it strictly
/// alternate. Unpinned, the 2-core VM flips whole runs between same-core
/// hand-off (p50 ~29 µs) and cross-core wake-up (~82 µs); pinned to one
/// core it stays in the first mode. So a `tcp_point` process re-executes
/// itself under `taskset -c <first allowed cpu>` when `taskset` exists,
/// passes the child's output through and returns its verdict. `None`
/// means "not applicable, run here" (other workloads, already pinned, no
/// `taskset`).
pub fn repin(args: &Args, workload: &str) -> Option<Result<bool, String>> {
    let spec = workloads::by_name(workload)?;
    if spec.front != Front::Tcp || std::env::var_os(PINNED_ENV).is_some() || !taskset_exists() {
        return None;
    }
    let cpu = crate::envinfo::first_allowed_cpu()?;
    let child = self_command(args, workload, args.seed).ok()?;
    let status = Command::new("taskset")
        .args(["-c", &cpu.to_string()])
        .arg(child.get_program())
        .args(child.get_args())
        .env(PINNED_ENV, cpu.to_string())
        .status();
    Some(
        status
            .map(|s| s.success())
            .map_err(|e| format!("taskset: {e}")),
    )
}

/// Runs one workload in a process of its own and parses its result line.
fn run_child(args: &Args, workload: &str, seed: u64) -> Result<Value, String> {
    let output = self_command(args, workload, seed)?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output"))?;
    json::parse(line).map_err(|e| format!("{workload}: {e}: {line}"))
}

fn metrics_of(result: &Value) -> Vec<(&str, f64, &str)> {
    let members = result.get("metrics").map_or(&[][..], Value::members);
    members
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.as_str(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?,
            ))
        })
        .collect()
}

fn is_correct(result: &Value) -> bool {
    result.get("correct") == Some(&Value::Bool(true))
}

/// Every workload once, each in its own process: prints each metric as
/// `workload/metric value unit` and writes `results.json` with the
/// machine record.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut results = Vec::new();
    for spec in &workloads::ALL {
        let result = run_child(args, spec.name, args.seed)?;
        for (name, value, unit) in metrics_of(&result) {
            println!("{}/{name} {value} {unit}", spec.name);
        }
        if !is_correct(&result) {
            all_correct = false;
            println!(
                "{}/FAILED {:?} of {:?} ops",
                spec.name,
                result.get("failed"),
                result.get("attempted")
            );
        }
        results.push((spec.name, result));
    }
    let doc = obj([("env", env_record(args)), ("workloads", obj(results))]);
    write_out("results.json", &(doc.render() + "\n"))?;
    Ok(all_correct)
}

/// The machine record plus how this invocation ran.
fn env_record(args: &Args) -> Value {
    let mut env = crate::envinfo::record(args.seed, Path::new(OUT_DIR));
    if let Value::Obj(members) = &mut env {
        members.push(("tcp_point_pinned".into(), Value::Bool(taskset_exists())));
        members.push(("seconds".into(), Value::Num(args.seconds as f64)));
        members.push(("quick".into(), Value::Bool(args.quick)));
        members.push(("traced".into(), Value::Bool(args.traced)));
    }
    env
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(file);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// `(name, better, bound)` of each end-to-end metric in `BENCHMARK.json`
/// (looked up in the current directory, the repo root).
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json: no end_to_end")?;
    list.items()
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// Two sets (A, B) of `n` runs of every workload, interleaved in time
/// (A₁ B₁ A₂ B₂ …), run `i` of both sets on seed `seed + i`. Per
/// workload/metric prints both medians, how much worse B's median is than
/// A's, each set's spread (quartile distance ÷ median) and the bound, and
/// whether the pair passes the acceptance rule: spread ≤ bound (except
/// `setup_s`) and B not worse than A by more than the bound. The table
/// goes to stdout and to `selfcheck.txt` in [`OUT_DIR`].
pub fn selfcheck(args: &Args, n: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    // values[workload][set][metric] = samples
    let mut values = vec![
        [
            vec![Vec::new(); bounds.len()],
            vec![Vec::new(); bounds.len()]
        ];
        workloads::ALL.len()
    ];
    let mut all_ok = true;
    for i in 0..n {
        for set in 0..2 {
            for (w, spec) in workloads::ALL.iter().enumerate() {
                let result = run_child(args, spec.name, args.seed + i as u64)?;
                if !is_correct(&result) {
                    all_ok = false;
                    println!("{} seed {}: FAILED ops", spec.name, args.seed + i as u64);
                }
                let metrics = metrics_of(&result);
                for (m, (name, _, _)) in bounds.iter().enumerate() {
                    let found = metrics.iter().find(|x| x.0 == name);
                    let (_, v, _) =
                        found.ok_or_else(|| format!("{}: no metric {name}", spec.name))?;
                    values[w][set][m].push(*v);
                }
            }
            eprintln!("selfcheck: run {} of set {} done", i + 1, ["A", "B"][set]);
        }
    }
    let mut table = format!(
        "selfcheck: two interleaved sets of {n} runs per workload, seeds {}..{}, {} s runs\nenv: {}\n\n",
        args.seed,
        args.seed + n as u64 - 1,
        args.seconds,
        env_record(args).render(),
    );
    let _ = writeln!(
        table,
        "{:<44} {:>13} {:>13} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload/metric", "median A", "median B", "B worse", "spread A", "spread B", "bound"
    );
    for (w, spec) in workloads::ALL.iter().enumerate() {
        for (m, (name, lower_is_better, bound)) in bounds.iter().enumerate() {
            let (a, b) = (&values[w][0][m], &values[w][1][m]);
            let (ma, mb) = (median(a), median(b));
            let worse = if *lower_is_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let spread = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                (q3 - q1) / median(v)
            };
            let (sa, sb) = (spread(a), spread(b));
            let steady = name == "setup_s" || sa.max(sb) <= *bound;
            let ok = steady && worse <= *bound;
            all_ok &= ok;
            let _ = writeln!(
                table,
                "{:<44} {ma:>13.4} {mb:>13.4} {:>7.2}% {:>8.2}% {:>8.2}% {:>5.1}%  {}",
                format!("{}/{name}", spec.name),
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "OUTSIDE" },
            );
        }
    }
    print!("{table}");
    write_out("selfcheck.txt", &table)?;
    Ok(all_ok)
}
