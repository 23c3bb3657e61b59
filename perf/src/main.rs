//! The repo benchmark: `matgpt-perf --workload <name> [--seed <n>]
//! [--seconds <s>] [--trace <0|1>] [--smoke]` runs one workload and prints
//! its result as the last line of stdout; `matgpt-perf compare A.json
//! B.json` holds two records of the same run against the bounds. See
//! README.md for what is measured and why.

#[cfg(not(target_os = "linux"))]
compile_error!("matgpt-perf sets CPU affinity and reads /proc: it runs on Linux only");

mod host;
mod probes;
mod report;
mod run;
mod stats;
mod workload;

use serde_json::Value;
use std::process::ExitCode;

const USAGE: &str = "usage: matgpt-perf --workload <l2_solo|dram_batch|paged_prefix|dram_spec> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]
       matgpt-perf compare <A.json> <B.json>";

/// Timed seconds of a full run when `--seconds` is not given; the
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 30.0;
const SMOKE_SECONDS: f64 = 1.0;

fn parse(args: &[String]) -> Result<run::Options, String> {
    let (mut name, mut seed, mut seconds, mut trace, mut smoke) = (None, 1u64, None, false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value")).cloned();
        match arg.as_str() {
            "--workload" => name = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: 0 or 1")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let name = name.ok_or("no workload named")?;
    let workload = workload::find(&name).ok_or(format!("unknown workload `{name}`"))?;
    Ok(run::Options {
        workload,
        seed,
        seconds: seconds.unwrap_or(if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace,
        smoke,
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric(doc: &Value, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Two records of the same workload, seed and code: every end-to-end
/// metric must agree within its bound (the worse side against the
/// better), every exact-repeat count must be equal. Returns whether they
/// do. A pair inside the bound but outside the issue's target is shown
/// as unresolved.
fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let label = |doc: &Value| {
        format!(
            "{} seed {}",
            doc.get("workload").and_then(Value::as_str).unwrap_or("?"),
            doc.get("seed").and_then(Value::as_f64).unwrap_or(-1.0)
        )
    };
    if label(&a) != label(&b) {
        return Err(format!(
            "`{}` and `{}` are different runs",
            label(&a),
            label(&b)
        ));
    }
    let traced = a.get("trace") == Some(&Value::Bool(true));
    let mut ok = [&a, &b]
        .iter()
        .all(|d| d.get("correct") == Some(&Value::Bool(true)));
    if !ok {
        println!("{:<14} a run reported failed operations", label(&a));
    }
    if traced {
        for name in report::EXACT_COUNTS {
            let (x, y) = (metric(&a, name), metric(&b, name));
            let same = x == y;
            ok &= same;
            println!(
                "{:<14} {name:<26} {:>16} {:>16} {}",
                label(&a),
                x.map_or("-".into(), |v| v.to_string()),
                y.map_or("-".into(), |v| v.to_string()),
                if same { "equal" } else { "DIFFERS" }
            );
        }
    } else {
        for (name, unit, better, bound, target) in report::END_TO_END {
            let (Some(x), Some(y)) = (metric(&a, name), metric(&b, name)) else {
                return Err(format!("`{name}` missing from a record"));
            };
            let (best, worst) = match better {
                "higher" => (x.max(y), x.min(y)),
                _ => (x.min(y), x.max(y)),
            };
            let diff = if best > 0.0 {
                (worst - best).abs() / best
            } else {
                0.0
            };
            ok &= diff <= bound;
            let verdict = if diff <= target {
                "ok".to_string()
            } else if diff <= bound {
                format!("unresolved at {:.0} %", target * 100.0)
            } else {
                "OUTSIDE".to_string()
            };
            println!(
                "{:<14} {name:<14} {x:>14.4} {y:>14.4} {unit:<6} diff {:>6.2} %  bound {:>4.0} %  {verdict}",
                label(&a),
                diff * 100.0,
                bound * 100.0,
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match compare(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("matgpt-perf compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("matgpt-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run::run(&options);
    report.print_table();
    let dir = std::path::Path::new("target/perf");
    let file = dir.join(format!(
        "{}{}.json",
        report.workload,
        if report.trace { ".traced" } else { "" }
    ));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&file, report.to_json())) {
        Ok(()) => eprintln!("  record: {}", file.display()),
        Err(e) => eprintln!("  could not write {}: {e}", file.display()),
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_command_line_parses_and_refuses() {
        let o = parse(&args(
            "--workload dram_spec --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.name, o.seed, o.seconds, o.trace),
            ("dram_spec", 7, 12.0, true)
        );
        let o = parse(&args("--workload l2_solo")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (1, DEFAULT_SECONDS, false));
        let o = parse(&args("--workload l2_solo --trace 0 --smoke")).unwrap();
        assert_eq!((o.trace, o.smoke, o.seconds), (false, true, SMOKE_SECONDS));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed 3")).is_err());
        assert!(parse(&args("l2_solo")).is_err());
        assert!(parse(&args("--workload l2_solo --trace")).is_err());
        assert!(parse(&args("--workload l2_solo --seconds 0")).is_err());
    }
}
