//! `bench_e2e`: the repo's end-to-end benchmark (`BENCHMARK.json`).
//!
//! With `--workload W --seed N --seconds S --trace 0|1` it runs one
//! workload in this process and prints every metric by name, then one
//! JSON object as the last line (`--trace 0`: the end-to-end metrics,
//! `--trace 1`: the per-layer metrics). Without `--workload` it runs the
//! whole set, each workload untraced then traced in a child process of
//! its own, and prints a summary. See README.md.

mod catalog;
mod harness;
mod layers;
mod machine;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use catalog::{MetricDef, END_TO_END, WORKLOADS};
use forust_obs::json::Json;
use harness::{Layout, RunResult};

const USAGE: &str = "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--repeat N] [--quick]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
        quick: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|w| w.0 == value) {
                    return Err(bad("one of the five workload names"));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => args.seconds = Some(s),
                _ => return Err(bad("seconds in (0, 600]")),
            },
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(bad("0 or 1")),
            },
            "--repeat" => match value.parse::<usize>() {
                Ok(n) if (1..=10).contains(&n) => args.repeat = n,
                _ => return Err(bad("1 to 10")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Measured seconds of one run when `--seconds` is not given: the
/// `run_seconds` of BENCHMARK.json, or a fraction of a second for
/// `--quick` (about 10 s for the whole set).
fn default_seconds(quick: bool) -> f64 {
    if quick {
        0.3
    } else {
        20.0
    }
}

fn run_one(name: &str, seed: u64, seconds: f64, trace: bool, quick: bool) -> RunResult {
    let def = WORKLOADS
        .iter()
        .find(|w| w.0 == name)
        .expect("validated name");
    let lay = Layout {
        name: def.0,
        ranks: def.1,
        workers: def.2,
    };
    use workloads::{
        advect::AdvectAmr, forest::ForestFractal, mantle::MantlePicard, seismic::Seismic,
    };
    match name {
        "forest_fractal" => harness::run(&ForestFractal::new(seed, quick), &lay, seconds, trace),
        "advect_amr" => harness::run(&AdvectAmr::new(seed, quick), &lay, seconds, trace),
        "seismic_host" => harness::run(&Seismic::host(seed, quick), &lay, seconds, trace),
        "seismic_device" => harness::run(&Seismic::device(seed, quick), &lay, seconds, trace),
        "mantle_picard" => harness::run(&MantlePicard::new(seed, quick), &lay, seconds, trace),
        _ => unreachable!("validated name"),
    }
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits.
fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .all()
        .map(|(d, v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// What the set keeps of one child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64)>,
}

/// Run one workload in a child process of its own (fresh `VmHWM`), pass
/// its report through, and parse its last line.
fn run_child(args: &Args, name: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args
                .seconds
                .unwrap_or(default_seconds(args.quick))
                .to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{report}");
    let json = Json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    let field = |k: &str| json.get(k).and_then(Json::as_u64);
    let values = json
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result has no metrics")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        // `true` parses as a non-number; the exit code carries it.
        correct: out.status.success(),
        attempted: field("attempted").unwrap_or(0),
        failed: field("failed").unwrap_or(0),
        values,
    })
}

/// How much worse `new` is than `base`, as a share of `base`.
fn worsening(def: &MetricDef, base: f64, new: f64) -> f64 {
    if def.lower_is_better {
        (new - base) / base
    } else {
        (base - new) / base
    }
}

/// The whole set, `repeat` times; the summary is the last line.
fn run_set(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    // End-to-end values of the first pass, to compare repeats against.
    let mut first: Vec<(String, String, f64)> = Vec::new();
    for pass in 0..args.repeat {
        for w in WORKLOADS {
            let e2e = run_child(args, w.0, false)?;
            let layers = run_child(args, w.0, true)?;
            ok &= e2e.correct && layers.correct;
            for def in END_TO_END {
                let v = e2e
                    .values
                    .iter()
                    .find(|(k, _)| k == def.name)
                    .map_or(0.0, |(_, v)| *v);
                if pass == 0 {
                    first.push((w.0.to_string(), def.name.to_string(), v));
                    continue;
                }
                let base = first
                    .iter()
                    .find(|f| f.0 == w.0 && f.1 == def.name)
                    .expect("pass 0")
                    .2;
                let worse = worsening(def, base, v).abs();
                let agrees = worse <= def.bound;
                println!(
                    "repeat {pass}: {} {} {v:.6} vs {base:.6} differs {:.1}% (bound {:.0}%) {}",
                    w.0,
                    def.name,
                    worse * 100.0,
                    def.bound * 100.0,
                    if agrees { "ok" } else { "DISAGREES" }
                );
                ok &= agrees;
            }
            let metrics: Vec<String> = e2e
                .values
                .iter()
                .chain(&layers.values)
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            rows.push(format!(
                "{{\"workload\": \"{}\", \"pass\": {pass}, \"ops_attempted\": {}, \"ops_failed\": {}, \
                 \"metrics\": {{{}}}}}",
                w.0,
                e2e.attempted + layers.attempted,
                e2e.failed + layers.failed,
                metrics.join(", ")
            ));
        }
    }
    println!(
        "{{\"benchmark\": \"bench_e2e\", \"seed\": {}, \"comparable\": {}, \"correct\": {ok}, \
         \"runs\": [{}], \"claim\": null}}",
        args.seed,
        !args.quick,
        rows.join(", ")
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => {
            let seconds = args.seconds.unwrap_or(default_seconds(args.quick));
            let r = run_one(name, args.seed, seconds, args.trace, args.quick);
            println!(
                "# bench_e2e seed={} seconds={seconds} trace={} comparable={} threads={}",
                args.seed,
                u8::from(args.trace),
                !args.quick,
                machine::nproc()
            );
            r.report.iter().for_each(|l| println!("{l}"));
            println!("{}", result_json(&r));
            r.correct
        }
        None => match run_set(&args) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                false
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::Metrics;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", 0.8127);
        let r = RunResult {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics,
            report: Vec::new(),
        };
        let j = Json::parse(&result_json(&r)).unwrap();
        let keys: Vec<&str> = j
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = j.get("metrics").unwrap();
        assert_eq!(m.as_object().unwrap().len(), END_TO_END.len());
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn worsening_follows_the_direction() {
        let lower = &END_TO_END[0];
        let higher = &END_TO_END[1];
        assert!(lower.lower_is_better && !higher.lower_is_better);
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 10.0, 11.0) < 0.0);
    }
}
